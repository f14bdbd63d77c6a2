(** Per-worker event ring for the real runtimes.

    Each worker domain owns one recorder: a {e preallocated} ring of
    journal-shaped events (kind, span, parent, start, duration, value)
    held in flat [int]/[float] arrays, so the hot path neither
    allocates nor takes a lock — recording is a clock read, six array
    stores and one atomic publish of the entry count. Every worker
    event of a run is recorded here exactly once; the trace, metrics
    and journal views are all derived from what {!drain} returns.

    One thread writes a recorder (its worker); one other thread may
    {!drain} it mid-run without a lock: the published count tells the
    drainer which entries are complete, and entries the writer laps
    before they are drained are counted in {!dropped}. The newest
    [capacity] entries always survive.

    Timestamps come from {!clock} (wall-clock seconds with a
    per-recorder monotonic guard: time never goes backwards within one
    recorder, so intervals are always well-formed even across NTP
    steps). A disabled recorder ({!null}) short-circuits every
    operation — [now] returns [0.] without reading the clock — so
    instrumented runtimes pay one branch per site when recording is
    off. *)

type kind =
  | Task  (** Executing one task. [span] = the task's span, [value] = depth. *)
  | Steal
      (** Work obtained after a dry spell; the duration is the steal
          latency (dry pool to task in hand). [span] = the stolen task. *)
  | Idle  (** One blocked wait for work, from its real start. *)
  | Bound  (** An incumbent improvement was applied. [value] = new bound. *)
  | Spawn
      (** shm: a task was queued under a fresh span; [parent] = the
          spawning task's span. *)

type t

val create : ?capacity:int -> worker:int -> unit -> t
(** A recorder for worker slot [worker] with all storage preallocated
    (default 65536 events, the one ring size every runtime uses).
    @raise Invalid_argument if [capacity < 1]. *)

val null : t
(** The disabled recorder: capacity 0, never records, [now] is [0.]. *)

val enabled : t -> bool

val clock : unit -> float
(** The raw clock (seconds). Use for cross-process epoch samples. *)

val now : t -> float
(** Current time for this recorder, or [0.] when disabled (skips the
    clock read so disabled call sites cost one branch). *)

val record :
  t -> kind -> span:int -> parent:int -> start:float -> dur:float ->
  value:int -> unit
(** Record one event with every field explicit ([parent = -1]: none).
    No-op when disabled. *)

val span : t -> kind -> span:int -> start:float -> value:int -> unit
(** Record an event lasting from [start] to the current time. *)

val instant : t -> kind -> span:int -> value:int -> unit
(** Record a zero-duration event at the current time. *)

val recorded : t -> int
(** Total events ever recorded (including those since dropped). *)

val dropped : t -> int
(** Events overwritten before they were drained. *)

val drain : ?locality:int -> t -> Journal.event list
(** The events recorded since the previous drain, oldest first, as
    journal events stamped with [locality] (default [-1]: unknown, for
    the receiver to stamp) and this recorder's worker slot. Safe to
    call from one thread while the owner keeps recording. *)
