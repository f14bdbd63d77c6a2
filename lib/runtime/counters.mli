(** The shared counter bundle every runtime keeps while a parallel
    search is in flight.

    One instance is created per run, before any worker spawns. The
    scalar counters are atomics so the workers, the live monitor and a
    distributed communicator thread can all touch them concurrently
    with word-sized operations; the per-slot depth profiles are
    single-writer (one slot per worker, plus any extra slots the
    runtime reserves, e.g. the dist communicator) and are only merged
    after the join. No counter is written per traversal step: a slot's
    engine records its steps into the slot's profile, and its totals
    reach the atomics once per task. *)

type t = {
  nodes : int Atomic.t;  (** Nodes processed. *)
  pruned : int Atomic.t;  (** Subtrees pruned. *)
  tasks : int Atomic.t;  (** Tasks spawned. *)
  tasks_done : int Atomic.t;  (** Tasks finished. *)
  backtracks : int Atomic.t;
  max_depth : int Atomic.t;
  steal_attempts : int Atomic.t;
  steals : int Atomic.t;
  bound_updates : int Atomic.t;  (** Applied incumbent improvements. *)
  profs : Yewpar_core.Depth_profile.t array;
      (** Per-slot depth profiles; [Depth_profile.null] when profiling
          is off, so every note is a single branch. *)
}

val create : ?profiled:bool -> ?progress:bool -> slots:int -> unit -> t
(** [create ~slots ()] makes a bundle with [slots] profile slots. [~profiled:false] (used when the caller collects no stats)
    disables the per-depth event columns; [~progress:false] disables
    the tree-size-estimator columns ({!Yewpar_core.Progress}) — only
    when both are off does a slot get
    {!Yewpar_core.Depth_profile.null}. *)

val note_max_depth : t -> int -> unit
(** CAS-maximise the [max_depth] counter. *)

val accounted_submit :
  t ->
  slot:int ->
  recorder:Yewpar_telemetry.Recorder.t ->
  ('n -> int -> bool) ->
  'n ->
  int ->
  bool
(** [accounted_submit t ~slot ~recorder submit] wraps a knowledge
    [submit] function so every applied improvement bumps
    [bound_updates], lands in slot [slot]'s depth profile at the depth
    of the node the slot last noted — the node being processed
    ({!Yewpar_core.Depth_profile.note_bound}) — and emits a
    [Bound_update] trace instant. *)

val fold_into : t -> ?dropped:int -> Yewpar_core.Stats.t -> unit
(** Accumulate every counter and all depth profiles into a [Stats.t]
    (adding to whatever it already holds; [max_depth] maximises).
    [dropped] is the runtime's trace-ring drop total. *)

val progress_sample : t -> Yewpar_core.Progress.sample
(** Merge every slot's progress columns into one
    {!Yewpar_core.Progress.sample}. Safe to call while workers record
    (racy bounds-checked reads); meant for the live monitor and the
    distributed heartbeat sender, not the per-node hot path. *)
