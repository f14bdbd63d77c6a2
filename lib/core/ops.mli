(** Per-worker node processing derived from the search type.

    Factors the node-processing and pruning rules of the paper's
    semantics (accumulate / strengthen / skip / prune / shortcircuit,
    Figure 2) out of the coordination methods, so every runtime —
    sequential, Domain-parallel, simulated-distributed and the real
    distributed locality — executes identical search-type logic and
    only differs in {e where} knowledge lives and {e when} tasks are
    spawned. The per-kind result {!algebra} is defined here too, so the
    distributed runtime's per-lease deltas, their wire format and their
    final combination have one definition. *)

type 'node view = {
  process : 'node -> bool;
      (** Process a node: accumulate (enumeration) or offer an incumbent
          (optimisation/decision). Returns [false] iff a decision search
          just reached its target and the whole search should
          short-circuit (the paper's [shortcircuit] rule). *)
  keep : ('node -> bool) option;
      (** The pruning predicate of the [prune] rule: [false] means the
          node's subtree provably cannot contribute and must be
          discarded before materialisation. [None] when every node is
          kept (an enumeration, or a search without a bound), so the
          engine calls nothing per child. *)
  prune_siblings : bool;
      (** True iff a failed [keep] also discards all later siblings
          (set from {!Problem.objective.monotone}). *)
  priority : 'node -> int;
      (** Optimistic priority for best-first pools: the bound when one
          exists, else the objective, else 0 (enumeration). *)
}

val keeps : 'node view -> 'node -> bool
(** [keeps view n] applies [view]'s pruning predicate: [true] when
    [n] is kept, always so without a predicate. *)

type ('node, 'result) harness = {
  view : 'node Knowledge.t -> 'node view;
      (** Create a worker's view over the knowledge store that worker
          reads and writes. Enumeration views own a private accumulator;
          create at most one view per worker. An optimisation view
          submits only a node whose value beats the store's
          {!Knowledge.field-best}, which the store would refuse
          anyway on a store without floors. *)
  result : 'node Knowledge.t -> 'result;
      (** Assemble the final result once all workers are done, reading
          the authoritative knowledge store (for enumeration, the merge
          of every view's accumulator). *)
}

val harness : ('node, 'result) Problem.kind -> ('node, 'result) harness
(** Build the processing harness for a search type. A fresh harness must
    be built per search run (it owns enumeration accumulators). *)

(** {1 The per-kind result algebra}

    A {e partial} is one piece of a search's result: what some subset
    of the processed nodes contributes. Enumerate's partial is the
    accumulator; Optimise and Decide share a best [(value, node)]
    option. Partials merge associatively and commutatively (up to which
    of several equally good nodes is kept), so pieces of a search — the
    distributed runtime's per-lease deltas — fold into the answer in any
    order. *)

type ('node, 'result, 'partial) algebra = {
  empty : 'partial;  (** The partial of no nodes. *)
  view : 'partial ref -> 'node Knowledge.t -> 'node view;
      (** [view cell k]: a worker's view over [k] (the same rules as
          {!harness}) that also folds every processed node into the
          caller-owned [cell], and submits every one to [k]: a node
          that only ties a floor in [k]'s word still enters [cell]. *)
  merge : 'partial -> 'partial -> 'partial;
      (** Combine two partials; on equally good incumbents the left one
          is kept. *)
  of_best : (int * 'node) option -> 'partial;
      (** The partial an incumbent [(value, witness)] stands for
          ([empty] for an enumeration). *)
  answer : 'partial -> 'result;
      (** The search's result from the merge of all its partials.
          @raise Failure on an Optimise partial holding no node (the
          root was never processed). *)
  encode : 'node Codec.t -> 'partial -> string;
      (** The wire format of a partial; nodes travel through the
          problem's task codec. *)
  decode : 'node Codec.t -> string -> 'partial;  (** Inverse of [encode]. *)
}

type ('node, 'result) some_algebra =
  | Algebra : ('node, 'result, 'partial) algebra -> ('node, 'result) some_algebra
      (** An algebra whose partial type is private to the search kind. *)

val algebra : ('node, 'result) Problem.kind -> ('node, 'result) some_algebra
(** The result algebra of a search type. Stateless: build it anywhere. *)
