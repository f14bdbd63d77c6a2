(** The causal event journal: an append-only JSONL record of every
    lifecycle event in a run, linked into one tree by span ids.

    The span id space is the coordinator's lease/task id space: lease
    [n] and journal span [n] are the same thing, span [0] is the job
    (root) span, and a replayed lease's fresh span carries the revoked
    original as its parent — so steals, spills, revocations and
    replays stay causally connected across failures. The shared-memory
    runtime allocates spans from its own counter with the same shape
    (root task = span of parent 0).

    Worker events ([task], [steal], [idle], [bound], [spawn]) are
    recorded once, into each worker's {!Recorder} ring; the runtime
    drains the rings and writes the drained events here, and the
    trace and metrics views ({!Telemetry}) are derived from the same
    events. Lifecycle events (job, lease, fault, progress, server) are
    written directly by their owner.

    Two layers:
    - {!writer}: the process that owns the file (coordinator, [yewpar
      serve], the shm main thread) writes drained events and frames
      into it. One JSON object per line, versioned schema, size-based
      rotation.
    - {!read}/{!report}: tolerant reader and the [yewpar analyze
      --journal] report (critical path, overhead breakdown, top-K
      leases, flame summary, load balance).

    JSONL schema, version {!schema_version} — every field present on
    every line:
    {v
    {"v":1,"trace":"run-...","ev":"task","span":17,"parent":4,
     "loc":1,"worker":0,"ts":1723...,"at":0.0213,"dur":0.0041,
     "value":0,"note":""}
    v}
    [ts] is the emitter's wall clock; [at] is seconds since the
    writer's epoch on the writer's clock (per-frame offsets align each
    locality's [ts] before [at] is derived, so [at] values are
    comparable across processes). [parent] is [null] for root events.
    Event kinds: the worker events above, which carry a [worker] slot;
    [job_start]/[job_done] (span 0), [lease_issue], [lease_retire],
    [spill], [lease_revoke], [lease_replay], [locality_dead],
    [respawn], [bound] (coordinator: a global improvement, no worker),
    [witness], [journal_drop] (ring events lost, [value] = count),
    [progress_sample], and the job server's
    [job_submitted]/[job_scheduled]/[job_finished]. An unknown kind on
    a v1 line is a producer bug; extensions must bump the version. *)

val schema_version : int

(* ----------------------------- events ----------------------------- *)

type event = {
  ev : string;  (** event kind (see the schema above) *)
  span : int;  (** subject span; lease/task id, 0 = job *)
  parent : int;  (** parent span, [-1] = none (root) *)
  locality : int;
      (** emitting locality, [-1] = unknown — the coordinator stamps
          the sender's index into shipped events *)
  worker : int;  (** worker slot within the locality, [-1] = n/a *)
  t : float;  (** emitter wall clock, seconds *)
  dur : float;  (** duration in seconds, [0.] when instantaneous *)
  value : int;  (** event payload (bound value, drop count, job id) *)
  note : string;  (** free-form detail *)
}

val event :
  ?parent:int ->
  ?locality:int ->
  ?worker:int ->
  ?t:float ->
  ?dur:float ->
  ?value:int ->
  ?note:string ->
  ev:string ->
  span:int ->
  unit ->
  event
(** Build an event; [t] defaults to [Unix.gettimeofday ()] at the
    call, the numeric defaults to [-1]/[-1]/[-1]/[0.]/[0], [note] to
    [""]. *)

(* ----------------------------- writer ----------------------------- *)

type writer

val create : ?max_bytes:int -> ?trace:string -> path:string -> unit -> writer
(** Open (truncate) [path] for appending events. [trace] is the
    default trace id stamped on written events (a fresh [run-xxxxxx]
    id when omitted). When the file exceeds [max_bytes] (default 64
    MiB) it is rotated: renamed to [path ^ ".1"] (replacing any
    previous rotation) and reopened. The writer is thread-safe — the
    job server writes from concurrent per-job threads. *)

val trace : writer -> string
(** The writer's default trace id. *)

val write : ?trace:string -> ?offset:float -> writer -> event list -> unit
(** Append events, one JSONL line each. [trace] overrides the
    writer's default trace id; [offset] (default [0.]) is added to
    each event's [t] to translate the emitter's clock onto the
    writer's before the epoch-relative [at] field is derived —
    the coordinator passes [now - frame_clock] per frame. *)

val written : writer -> int
(** Total events written since [create]. *)

val rotations : writer -> int
val close : writer -> unit

(* ----------------------------- reader ----------------------------- *)

type entry = {
  e_trace : string;
  e_ev : string;
  e_span : int;
  e_parent : int;  (** [-1] when the JSON parent is [null] *)
  e_locality : int;
  e_worker : int;
  e_ts : float;
  e_at : float;
  e_dur : float;
  e_value : int;
  e_note : string;
}

val read : string -> entry list * int
(** Read a journal file (prepending [path ^ ".1"] if a rotation
    exists), skipping lines that fail to parse or carry an unknown
    schema version. Returns the entries in file order and the number
    of malformed lines skipped. *)

val read_string : string -> entry list * int
(** [read] over in-memory JSONL content (one file only). *)

(* ----------------------------- report ----------------------------- *)

val load_balance : entry list -> string
(** The load-balance view of the worker events (those with a worker
    slot): per-worker busy seconds (every non-idle duration), busy %
    of the makespan, idle seconds and task/steal counts; mean/min/max
    busy and the max/mean imbalance factor; an idle breakdown; and
    steal-latency percentiles (p50/p90/p99/max over [steal] events).
    Times are the writer-relative [at] values. Deterministic for a
    given entry list (golden-tested). *)

val report : ?top:int -> entry list -> string
(** The [yewpar analyze --journal] report, one section per trace id:
    the critical path through the span tree (the heaviest
    root-to-leaf chain by measured task time, each hop's contribution
    counted as its task intervals' measure net of time already covered
    higher up the path — so the path total never exceeds wall clock),
    an overhead breakdown of accounted worker time (compute vs
    replayed/wasted compute vs steal-wait vs idle, fractions summing
    to 1), the [top] (default 5) longest leases by self time, a
    flame-ordered (depth-first) span summary, a causal-link check
    counting parent references that resolve to an emitted span, and —
    when the trace has worker events — its {!load_balance}. *)
