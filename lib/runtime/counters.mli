(** The counters a parallel search keeps while in flight: one record
    per worker slot (plus any extra slot the runtime reserves, e.g. the
    dist communicator), created once per run before any worker spawns.

    Only the slot's own thread writes its record, so nothing in it is
    atomic. A worker domain {!claim}s its slot before its first task;
    the runtime folds every slot into one [Stats.t] after the join, and
    live readers sum the slots racily. No counter is written per
    traversal step: a slot's engine records its steps into the slot's
    depth profile, and its totals reach the slot's scalars once per
    task. *)

type slot = {
  stats : Yewpar_core.Stats.t;
      (** The slot's counts and depth profile; the profile is
          [Depth_profile.null] when neither profiling nor progress is
          on, so every note is a single branch. *)
  mutable tasks_done : int;  (** Tasks finished; read live, never folded. *)
}

type t = slot array

val create : ?profiled:bool -> ?progress:bool -> slots:int -> unit -> t
(** [create ~slots ()] makes [slots] all-zero records. [~profiled:false]
    (used when the caller collects no stats) disables the per-depth
    event columns; [~progress:false] disables the tree-size-estimator
    columns ({!Yewpar_core.Progress}). *)

val claim : t -> slot:int -> unit
(** Replace the slot's record by a copy allocated on the calling
    domain, keeping the counts written so far (the root's spawn, which
    the main domain books on slot 0), so records built back to back in
    the main domain share no cache line once written. *)

val note_spawn : t -> slot:int -> int -> unit
(** [note_spawn t ~slot d]: one task spawned with its root at depth [d]. *)

val note_bound : t -> slot:int -> unit
(** One applied incumbent improvement, booked in the profile at the
    depth of the node the slot last noted
    ({!Yewpar_core.Depth_profile.note_bound}). *)

val accounted_submit :
  t ->
  slot:int ->
  recorder:Yewpar_telemetry.Recorder.t ->
  ('n -> int -> bool) ->
  'n ->
  int ->
  bool
(** [accounted_submit t ~slot ~recorder submit] wraps a knowledge
    [submit] function so every applied improvement is a {!note_bound}
    on [slot] and a [Bound_update] trace instant. The record is looked
    up on each improvement, so the wrapper may be built before
    {!claim}. *)

val fold_into : t -> ?dropped:int -> Yewpar_core.Stats.t -> unit
(** {!Yewpar_core.Stats.add} every slot into a [Stats.t], once no slot
    is recording (after the join). [dropped] is the runtime's
    trace-ring drop total. *)

val total : t -> (Yewpar_core.Stats.t -> int) -> int
(** [total t f] sums [f] over the slots' stats. Safe while workers
    record: each read is word-sized, so a sum can be stale but never
    torn. *)

val tasks_done : t -> int
(** Tasks finished over all slots; racy like {!total}. *)

val progress_sample : t -> Yewpar_core.Progress.sample
(** Merge every slot's progress columns into one
    {!Yewpar_core.Progress.sample}. Safe to call while workers record
    (racy bounds-checked reads); meant for the live monitor and the
    distributed heartbeat sender, not the per-node hot path. *)
