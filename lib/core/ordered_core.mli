(** The Ordered (replicable) skeleton's position algebra and harness.

    Ordered (the paper's §2.1 citation [4], Archibald et al.) is the
    {!Coordination.Ordered} case of the shared worker core: the
    runtimes spawn exactly as Depth-Bounded, over the positioned
    problem {!lift}, with the left-only {!harness} in place of
    {!Ops.harness}. This module holds the whole replicability
    argument:

    - a {e position} is the path of child indices from the root;
      lexicographic order on positions is the heuristic (traversal)
      order, and an ancestor precedes its descendants. Each node above
      the cutoff has its own position (it is a task's root); the nodes
      below it share their task's position;
    - a view prunes a node only with incumbents logged at positions
      strictly left of its task, plus the task's own strict
      improvements, never with anything from the right;
    - the answer is the logged entry with maximal value and, among
      those, the leftmost position.

    Every node left of the leftmost optimum has a smaller value, so no
    floor ever reaches the optimum's value: the leftmost optimum is
    never pruned, is always logged, and is selected on every run,
    whatever the schedule. Which other entries are logged, and hence
    the node counts, still depend on when left entries are published. *)

val path_compare : int list -> int list -> int
(** Lexicographic order on positions (the traversal order [≪]). *)

type 'n entry = {
  e_path : int list;  (** Position of the submitting task. *)
  e_value : int;  (** Objective value. *)
  e_node : 'n;  (** The incumbent node. *)
}
(** A logged incumbent. *)

val left_best : 'n entry list -> int list -> int
(** Best value among entries at positions strictly left of the given
    position ([min_int] if none). *)

val select : 'n entry list -> 'n option
(** The maximal-value, leftmost-position entry's node. *)

type 'n positioned = {
  path : int list;  (** The node's task position. *)
  node : 'n;
}
(** A node of the lifted tree. *)

val lift :
  dcutoff:int -> 'n Problem.objective -> ('s, 'n, _) Problem.t ->
  ('s, 'n positioned, 'n positioned) Problem.t
(** [lift ~dcutoff obj p] is [p]'s tree with every node tagged by its
    position, optimising [obj] on the underlying node. Children of a
    node above [dcutoff] get fresh positions; deeper nodes share their
    parent's position physically. The lifted problem has no codec. *)

val harness : 'n Problem.objective -> ('n positioned, 'n) Ops.harness
(** The left-only harness over a lifted problem. Views cache their
    floor per task (by the position's physical identity), append
    strict improvements to one mutex-protected log and also submit
    them to the view's knowledge store, so bound accounting and live
    status work as for any optimisation. The result is {!select} over
    the log. Build one per run. *)
