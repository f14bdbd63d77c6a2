(** Search problems: Lazy Node Generators + search types.

    A YewPar search application is a {e Lazy Node Generator} — a function
    producing the ordered children of a search-tree node on demand — plus
    a {e search type} choosing what is computed over the tree
    (paper §3.2, §4.1). The three search types are a GADT so each
    skeleton's result type is statically derived from the problem:

    - [Enumerate]: fold the whole tree into a commutative monoid;
    - [Optimise]: return a node maximising an objective, with optional
      branch-and-bound pruning;
    - [Decide]: return a witness node whose objective reaches a target,
      short-circuiting the search, or [None].

    Heuristic search order is implicit: the generator yields children
    best-first, and every skeleton traverses (and spawns) in that order. *)

type ('space, 'node) generator = 'space -> 'node -> 'node Seq.t
(** [children space node] lazily enumerates the children of [node] in
    heuristic (traversal) order. The returned sequence may be ephemeral:
    skeletons force each cell exactly once.

    A node with no children should get [Seq.empty] itself, found in
    O(1), not a sequence that turns out empty when forced (such as
    [List.to_seq []], a fresh closure): the engine tells a leaf by
    physical equality with [Seq.empty] and then enters and leaves it in
    one step with no frame. Any other empty sequence is still correct,
    at the price of a frame and a second step. *)

type ('node, 'acc) enum_spec = {
  empty : 'acc;
      (** The monoid identity [0]: [combine acc empty = acc] must hold.
          Searches rely on it: a node whose [view] result is physically
          equal ([==]) to [empty] is not combined at all. For an
          immediate identity such as [0] that is every node whose
          [view] is [0]; a boxed identity is skipped only when [view]
          returns that very value. *)
  combine : 'acc -> 'acc -> 'acc;
      (** The monoid operation [+]; must be associative and commutative
          so partial task results can merge in any order, and pure (no
          mutation of its arguments, no side effects), since how often
          it is called depends on the search. *)
  view : 'node -> 'acc;  (** The objective function [h] into the monoid. *)
}
(** A commutative monoid with an injection, defining an enumeration. *)

type 'node objective = {
  value : 'node -> int;
      (** The objective [h], maximised by Optimise/Decide searches. *)
  bound : ('node -> int) option;
      (** Admissible upper bound: [bound n] must dominate [value m] for
          every descendant [m] of [n] (including [n] itself). [None]
          disables pruning. *)
  monotone : bool;
      (** When true, the generator guarantees children's bounds are
          non-increasing in traversal order, so one failed bound check
          prunes {e all} remaining siblings before they are even
          materialised — the paper's §4.1 advantage (2), and how the
          hand-coded clique solvers cut their candidate loops. *)
}
(** An integer objective with an optional bounding function. *)

type ('node, 'result) kind =
  | Enumerate : ('node, 'acc) enum_spec -> ('node, 'acc) kind
  | Optimise : 'node objective -> ('node, 'node) kind
  | Decide : { objective : 'node objective; target : int } -> ('node, 'node option) kind
      (** The search type (paper §3.2); the second type parameter is the
          result delivered by any skeleton run on the problem. *)

type ('space, 'node, 'result) t = {
  name : string;  (** For logs and benchmark tables. *)
  space : 'space;  (** The immutable search space (e.g. the input graph). *)
  root : 'node;  (** The root of the search tree. *)
  children : ('space, 'node) generator;  (** The Lazy Node Generator. *)
  kind : ('node, 'result) kind;  (** What to compute over the tree. *)
  codec : 'node Codec.t option;
      (** Task codec for distributed runtimes: how to ship a node (the
          whole closure state of a subtree task) across a process
          boundary. [None] restricts the problem to in-process
          runtimes. *)
}
(** A complete search problem; pair it with a skeleton to run it. *)

val enumerate :
  ?codec:'node Codec.t ->
  name:string -> space:'space -> root:'node ->
  children:('space, 'node) generator ->
  empty:'acc -> combine:('acc -> 'acc -> 'acc) -> view:('node -> 'acc) ->
  unit -> ('space, 'node, 'acc) t
(** Build an enumeration problem. *)

val count_nodes :
  ?codec:'node Codec.t ->
  name:string -> space:'space -> root:'node ->
  children:('space, 'node) generator -> unit -> ('space, 'node, int) t
(** The canonical enumeration: count the nodes of the search tree. *)

val maximise :
  ?codec:'node Codec.t ->
  name:string -> space:'space -> root:'node ->
  children:('space, 'node) generator ->
  ?bound:('node -> int) -> ?monotone_bound:bool ->
  objective:('node -> int) -> unit ->
  ('space, 'node, 'node) t
(** Build an optimisation problem (maximising [objective]).
    [monotone_bound] (default false) asserts the sibling-monotonicity
    of {!field-monotone}. *)

val decide :
  ?codec:'node Codec.t ->
  name:string -> space:'space -> root:'node ->
  children:('space, 'node) generator ->
  ?bound:('node -> int) -> ?monotone_bound:bool ->
  objective:('node -> int) -> target:int -> unit ->
  ('space, 'node, 'node option) t
(** Build a decision problem: find any node with
    [objective node >= target]. *)
