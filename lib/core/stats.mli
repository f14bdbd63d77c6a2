(** Search statistics.

    Every skeleton can account nodes processed, prunes, backtracks,
    spawned tasks and steals; the benchmark harness derives virtual
    runtimes and overhead percentages from these counters. *)

type t = {
  mutable nodes : int;  (** Nodes processed (objective evaluated). *)
  mutable pruned : int;  (** Subtrees discarded by the bound check. *)
  mutable backtracks : int;  (** Generator-stack pops. *)
  mutable max_depth : int;  (** Deepest node processed. *)
  mutable tasks : int;  (** Tasks spawned (parallel skeletons). *)
  mutable steal_attempts : int;
      (** Steal attempts: times a worker found its pool empty and went
          looking for work (parallel skeletons). Dominates [steals]. *)
  mutable steals : int;  (** Successful steals (parallel skeletons). *)
  mutable bound_updates : int;
      (** Incumbent improvements applied: successful local submissions
          plus, in the distributed runtime, broadcast floor raises a
          locality adopted. *)
  mutable trace_dropped : int;
      (** Recorded events lost to {!Yewpar_telemetry.Recorder} ring
          overflow during this run (0 when untraced). Surfaced so a
          silently truncated trace is visible next to the counters it
          was meant to explain. *)
  mutable localities_lost : int;
      (** Distributed runtime: localities that crashed (or were
          declared dead by the liveness timeout) during the run. *)
  mutable leases_reissued : int;
      (** Distributed runtime: task leases revoked from a dead (or
          timed-out) holder and reissued to a survivor. *)
  mutable respawns : int;
      (** Distributed runtime: standby localities promoted to replace
          lost ones (see [--max-respawns]). *)
  mutable elapsed : float;
      (** Wall-clock seconds of the run, when the caller recorded it
          (0 = unknown). {!add} takes the max, since parallel
          localities overlap. *)
  depths : Depth_profile.t;
      (** Per-depth profile of the same events (see
          {!Depth_profile}): column sums equal [nodes], [pruned],
          [tasks] and [bound_updates]. *)
}

val create : unit -> t
(** All-zero statistics. *)

val add : t -> t -> unit
(** [add acc s] accumulates [s] into [acc] ([max] for [max_depth] and
    [elapsed], row-wise merge for [depths]). *)

val copy : t -> t
(** An independent snapshot. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering for logs. Derived figures are appended when
    meaningful: steal success rate after [steals=a/b], bound updates
    per second when [elapsed] is set, and [trace_dropped] and the
    fault-tolerance counters ([localities_lost], [leases_reissued],
    [respawns]) only when nonzero. *)
