(** Resumable depth-first traversal over a stack of Lazy Node Generators.

    The engine implements the traversal rules of the paper's semantics
    (expand/backtrack/terminate, Figure 2) one step at a time, so search
    coordinations can interleave traversal with spawning, steal checks
    and budget accounting. It maintains the generator stack of §4.1:
    one frame per node on the current branch, each holding the node,
    its depth and its not-yet-explored children in heuristic order.

    Frames are linked: each push allocates a fresh frame that points
    at the frame below, and each pop drops the top frame. The only
    field of the long-lived engine record a step writes is the
    top-of-stack pointer; the frame fields it updates belong to a frame
    that is usually still on the minor heap, where a write needs no
    barrier work. A subtree the traversal has left is unreachable from
    the engine.

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

    [prof] (default {!Depth_profile.null}) receives one
    {!Depth_profile.note_complete} per [Leave] transition, carrying the
    global depth of the node whose expansion just completed and the
    number of its children committed to the search — those entered by
    this engine plus any the caller split off and credited with
    {!credit_kept}. These completions are the raw material of the
    {!Progress} tree-size estimator; the call is a single branch when
    the profile's progress columns are off. *)

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

type step =
  | Enter
      (** Moved to a new node (the paper's [expand]); the caller must
          process it. {!current} returns it. *)
  | Pruned
      (** The next child failed the [keep] predicate; its subtree was
          discarded without materialisation (the paper's [prune]). *)
  | Leave  (** Backtracked one level ([backtrack]/[terminate]). *)
  | Exhausted  (** The whole subtree has been traversed. *)

val step :
  prune_rest:bool -> keep:('node -> bool) -> ('space, 'node) t -> step
(** Advance the traversal by one transition. [keep] is the pruning
    predicate evaluated on each child before it is entered; returning
    [false] discards the child's entire subtree. With [prune_rest]
    (set it from {!Ops.view.prune_siblings}), a failed [keep]
    additionally discards all later siblings without materialising
    them, which is sound when the generator yields children in
    non-increasing bound order (§4.1).

    A step allocates only the new frame on [Enter] and whatever the
    child generator allocates; the result carries no payload. *)

val current : ('space, 'node) t -> 'node
(** The node of the top frame: after [Enter], the node just entered;
    after [Leave], the node whose expansion resumes; before the first
    step, the subtree root.
    @raise Invalid_argument once the traversal is exhausted. *)

val current_depth : ('space, 'node) t -> int
(** Global depth of the node currently being expanded (the top frame);
    [root_depth - 1] once exhausted. *)

val stack_size : ('space, 'node) t -> int
(** Height of the generator stack; O(height). *)

val backtracks : ('space, 'node) t -> int
(** Number of [Leave] transitions so far (the Budget coordination's
    backtrack counter). *)

val nodes_entered : ('space, 'node) t -> int
(** Number of [Enter] transitions so far. *)

val nodes_pruned : ('space, 'node) t -> int
(** Number of [Pruned] transitions so far. *)

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
    elsewhere (spawned as tasks), so the completion recorded at [Leave]
    still reports the node's true kept-children count. Callers must credit
    only children that pass the keep filter — crediting raw drained
    counts would overestimate when spawn-side filtering prunes. It walks
    down from the top frame, so it costs the distance to that frame; it
    is a no-op if the frame has already been left or [n <= 0]. *)

val cut_rest : ('space, 'node) t -> depth:int -> unit
(** [cut_rest t ~depth] discards every unexplored child of the frame at
    global depth [depth] — the sibling cut {!step} applies under
    [prune_rest] when a child fails [keep], for a child the caller took
    with {!split_one} and found dead. A no-op if that frame has already
    been left. *)
