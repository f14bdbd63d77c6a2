(** A locality: one worker process of the distributed runtime.

    Runs [workers] domains over a locality-local depth-ordered pool
    and a locality-local incumbent, mirroring the shared-memory
    runtime ({!Yewpar_par.Shm}); the process's main thread acts as the
    communicator, speaking {!Wire} to the coordinator on a short tick:

    - drains inbound tasks / bound updates / steal requests / pings /
      shutdown;
    - flushes spilled tasks (spawned work the locality sheds when the
      cluster is hungry or its own pool is saturated), each tagged
      with the lease it was spawned under;
    - publishes local incumbent improvements upward with their witness
      node (and, for Decide searches, the witness frame) for
      rebroadcast;
    - requests a steal when its workers starve (retrying if the reply
      never arrives), and — once fully quiescent — retires every lease
      taken since the last retirement with an [Idle] frame carrying
      the per-lease result deltas. A lease's delta is its subtree's
      contribution minus what it spilled back; spills travel on the
      same FIFO socket before the retirement, so the coordinator's
      lease forest never loses coverage.

    Pruning reads [max local_incumbent global_floor], the PGAS
    bound-register reading of the paper: a stale floor only costs
    pruning opportunities, never correctness.

    If the coordinator dies, the socket EOF surfaces as
    {!Transport.Closed}, which {!run} re-raises after stopping its
    domains — the process self-reaps instead of spinning as an
    orphan. *)

val run :
  ?record:bool ->
  ?heartbeat:float ->
  ?chaos:Chaos.plan ->
  ?config:Yewpar_runtime.Config.t ->
  conn:Transport.t ->
  workers:int ->
  coordination:Yewpar_core.Coordination.t ->
  ('s, 'n, 'r) Yewpar_core.Problem.t ->
  unit
(** Serve tasks until the coordinator broadcasts [Shutdown], then send
    [Result] (then, when [record] is set, [Telemetry]) and [Stats] and
    return. With [record] (default [false]) every worker domain and
    the communicator thread (worker slot = [workers]) record their
    events into preallocated {!Yewpar_telemetry.Recorder} rings:
    per-task [task] events attributed to the lease being executed,
    applied bound submissions and floor adoptions, wire-steal waits and
    every idle wait. The communicator drains the rings into each
    [Heartbeat] frame and the final [Telemetry] frame (with the count
    of events lost to ring overflow); the coordinator stamps our
    locality index and clock offset and feeds them to the journal and
    the trace alike. With [heartbeat] (seconds; the
    distributed runtime always passes it) the communicator emits a
    [Wire.Heartbeat] progress snapshot at that interval — the first
    tick always sends one — feeding both live monitoring and the
    coordinator's failure detector; workers accumulate wall-clock idle
    time for its idle-fraction field. With [chaos] the locality runs
    its slice of a fault-injection plan: self-SIGKILL at a deadline,
    probabilistic inbound frame drops, outbound link delay (see
    {!Chaos}). [config] (default {!Yewpar_runtime.Config.default})
    sets the communicator tick and the steal-retry timeout. The
    shipped [Stats] carry per-depth profiles and the rings'
    overflow drop count. The problem must carry a task codec.
    @raise Transport.Closed if the coordinator disappears mid-run. *)

val serve :
  conn:Transport.t ->
  resolve:
    (instance:string ->
    skeleton:string ->
    job:int ->
    (unit -> unit, string) result) ->
  unit
(** Persistent-fleet main loop ([yewpar serve]): block on the
    connection, and for each [Wire.Job_start] frame resolve the named
    instance and skeleton through [resolve] — [job] is the daemon's
    job id, for attributable per-job logging — and execute the
    returned thunk — typically a closure over {!run}, which returns
    when the job's coordinator broadcasts [Shutdown] — then go back to
    idle. A
    resolve failure sends [Failed] plus an empty [Stats] so the job's
    coordinator can still account this locality as done. Answers
    [Ping] while idle; returns on [Quit] or when the daemon's end of
    the socket closes. *)
