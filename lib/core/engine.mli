(** Resumable depth-first traversal over a stack of Lazy Node Generators.

    The engine implements the traversal rules of the paper's semantics
    (expand/backtrack/terminate, Figure 2) in one loop, {!run}, which
    a caller can pause after any number of transitions and resume, so
    search coordinations can interleave traversal with spawning, steal
    checks and budget accounting. It maintains the generator stack of
    §4.1: one frame per node on the current branch, each holding the
    node's not-yet-explored children in heuristic order, its depth,
    the count of its children kept so far and the frame below. The
    node itself is not kept: nothing reads it once its children are
    generated.

    Frames are linked: each push allocates a fresh frame that points
    at the frame below, and each pop drops the top frame. Inside {!run}
    the top of stack and the counters are locals, written back to the
    long-lived engine record only when the loop returns or calls a
    hook; the frame fields a transition updates belong to a frame that
    is usually still on the minor heap, where a write needs no barrier
    work. A subtree the traversal has left is unreachable from the
    engine.

    The same engine backs the sequential skeleton, the Domain-parallel
    runtime and the discrete-event simulator, guaranteeing identical
    traversal order and pruning everywhere. *)

type ('space, 'node) t
(** A suspended depth-first search of one subtree (a task). *)

val make :
  ?prof:Depth_profile.t ->
  space:'space -> children:('space, 'node) Problem.generator ->
  root_depth:int -> 'node -> ('space, 'node) t
(** [make ~space ~children ~root_depth root] starts a traversal of the
    subtree rooted at [root], whose depth in the global tree is
    [root_depth]. The caller is responsible for {e processing} [root]
    itself (tasks process their root when scheduled).

    [prof] (default {!Depth_profile.null}) records every transition of
    {!run}, so no caller notes traversal events itself: one
    {!Depth_profile.note_node} per entered node at its global depth,
    one {!Depth_profile.note_prune} per pruned child at the child's
    depth, and one {!Depth_profile.note_complete} per backtrack,
    carrying the global depth of the node whose expansion just
    completed and the number of its children committed to the search —
    those entered by this engine plus any the caller split off and
    credited with {!credit_kept}. These completions are the raw
    material of the {!Progress} tree-size estimator. The caller notes
    only what the engine never sees: the subtree root, and the prunes
    and spawns of children it splits off. Each note is a single branch
    when the profile is {!Depth_profile.null}. *)

val restart : ('space, 'node) t -> root_depth:int -> 'node -> unit
(** [restart t ~root_depth root] rewinds [t] to a fresh traversal of
    the subtree rooted at [root]: the engine record is kept and one
    root frame is allocated, so the worker hot loop runs one engine per
    slot instead of one per task. The frames of the finished (or
    abandoned) previous traversal are dropped, and with them every
    reference into its subtree. Counters restart from zero. The space,
    child generator and profile are kept. *)

val root : ('space, 'node) t -> 'node
(** The subtree root this engine was made or last restarted for. *)

val run :
  ?on_enter:(unit -> unit) ->
  ?on_leave:(unit -> unit) ->
  ?steps:int ->
  prune_rest:bool ->
  ?keep:('node -> bool) ->
  process:('node -> bool) ->
  stop:bool Atomic.t ->
  ('space, 'node) t ->
  bool
(** [run ~prune_rest ~keep ~process ~stop t] resumes the traversal for
    at most [steps] transitions (default unbounded). Each transition is
    one of:
    - {e enter} (the paper's [expand]): the next child passes [keep]
      (every child does when [keep] is omitted, and no call is made:
      pass {!Ops.view.keep}, which is [None] for views that keep
      everything); it is pushed and then processed with [process];
    - {e prune}: the next child fails [keep]; its subtree is discarded
      without materialisation and, with [prune_rest] (set it from
      {!Ops.view.prune_siblings}), so are all its later siblings, which
      is sound when the generator yields children in non-increasing
      bound order (§4.1);
    - {e leave} ([backtrack]/[terminate]): the top node has no
      children left and is popped.

    Two forced pairs of transitions are taken in one loop iteration
    each, with no hook between their halves, when at least two steps
    are left:
    - {e enter a leaf, then leave it}, when the entered child's
      generator is [== Seq.empty] (see {!Problem.generator}) and no
      [on_enter] hook is given: no frame is pushed;
    - {e cut the siblings, then leave the frame}, when a child fails
      [keep] under [prune_rest]: the frame is left at once, with no
      [Seq.empty] written into it.
    Each pair counts as two transitions, so with [~steps:1] (or one
    step left) its halves are taken apart, and a run ends in the same
    state whatever its step budgets.

    [stop] is read before every enter, prune or leave that starts an
    iteration, not between the two halves of a pair; the run ends when
    it is raised. A [process] returning [false] (a decision witness)
    raises [stop] and ends the run with the entered node's frame
    pushed. [on_enter] is called after each entered node that
    [process] accepted, [on_leave] after each leave; both see an
    engine whose stack and counters are up to date, and may split it
    ({!split_lowest}, {!split_one}, {!credit_kept}, {!cut_rest}) or
    read its counters, but must not {!restart} or {!run} it.

    Returns [true] when the step budget ran out first, so the traversal
    can be resumed, and [false] once it is over: the subtree is
    exhausted or [stop] was raised. With [~steps:0] it takes no
    transition and returns [not (Atomic.get stop)]. An enter allocates
    the new frame, except in the leaf pair, and otherwise a transition
    allocates only what the child generator does.

    Taking a child writes the generator's tail back into its frame
    only when the tail is a different sequence: a cursor generator,
    which returns itself as its tail, costs no write. The
    {!Depth_profile} notes are inlined into the loop (in the release
    build), so an enter, prune or leave calls nothing but the child
    generator, [keep], [process] and a given hook. *)

val current_depth : ('space, 'node) t -> int
(** Global depth of the node currently being expanded (the top frame);
    [root_depth - 1] once exhausted. *)

val stack_size : ('space, 'node) t -> int
(** Height of the generator stack; O(height). *)

val backtracks : ('space, 'node) t -> int
(** Number of leave transitions so far (the Budget coordination's
    backtrack counter). *)

val nodes_entered : ('space, 'node) t -> int
(** Number of enter transitions so far. *)

val nodes_pruned : ('space, 'node) t -> int
(** Number of prune transitions so far. *)

val max_depth : ('space, 'node) t -> int
(** Deepest global depth entered so far (at least [root_depth]). *)

val split_lowest : ('space, 'node) t -> 'node list * int
(** Remove {e all} unexplored children at the lowest depth (closest to
    the task root) and return them in traversal order together with
    their global depth — the paper's [spawn-budget] rule (and chunked
    Stack-Stealing). Returns [([], 0)] if nothing is splittable. *)

val split_one : ('space, 'node) t -> ('node * int) option
(** Remove the first (in traversal order) unexplored child at the lowest
    depth — the paper's [spawn-stack] rule. *)

val credit_kept : ('space, 'node) t -> depth:int -> n:int -> unit
(** [credit_kept t ~depth ~n] records that [n] children of the frame
    at global depth [depth] were split off and committed to the search
    elsewhere (spawned as tasks), so the completion recorded when it is
    left still reports the node's true kept-children count. Callers must credit
    only children that pass the keep filter — crediting raw drained
    counts would overestimate when spawn-side filtering prunes. It walks
    down from the top frame, so it costs the distance to that frame; it
    is a no-op if the frame has already been left or [n <= 0]. *)

val cut_rest : ('space, 'node) t -> depth:int -> unit
(** [cut_rest t ~depth] discards every unexplored child of the frame at
    global depth [depth] — the sibling cut {!run} applies under
    [prune_rest] when a child fails [keep], for a child the caller took
    with {!split_one} and found dead. A no-op if that frame has already
    been left. *)
