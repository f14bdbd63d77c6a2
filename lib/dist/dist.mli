(** The distributed runtime: real multi-process search.

    Forks [localities] worker processes (plus [max_respawns] standby
    spares), each running [workers] search domains over a
    locality-local pool and incumbent ({!Locality}), and drives them
    from a coordinator event loop in the calling process
    ({!Coordinator}) over Unix-domain socket pairs speaking the
    {!Wire} protocol. Task nodes cross process boundaries through the
    problem's task codec ({!Yewpar_core.Codec}), so only problems
    built with [~codec] are distributable.

    Compared to the shared-memory runtime this is the paper's actual
    deployment shape: knowledge is {e not} shared — each locality
    prunes against its own incumbent plus a floor rebroadcast by the
    coordinator, and work moves by explicit steal messages through a
    depth-ordered distributed pool.

    The runtime survives locality crashes: every shipped task is a
    {e lease} the coordinator can revoke and replay on a survivor when
    its holder dies (socket EOF or heartbeat silence), with per-lease
    result deltas guaranteeing the final answer is exact — no lost and
    no double-counted subtrees (see {!Coordinator}). Pre-forked
    standby localities are promoted to replace lost ones. Faults can
    be injected for testing with [chaos] ({!Chaos}).

    Forking happens before any domain is spawned, so the children
    inherit the problem closure safely; on return (normal or
    exceptional) every child has been reaped — stragglers are
    killed. *)

val combine :
  ('s, 'n, 'r) Yewpar_core.Problem.t ->
  'n Yewpar_core.Codec.t ->
  Coordinator.outcome ->
  'r
(** Fold a coordinator {!Coordinator.outcome} into the problem's
    answer with the search kind's {!Yewpar_core.Ops.algebra}: decode
    every lease delta and residual, merge them with the coordinator's
    witness, and take the algebra's answer. For enumerations the deltas
    partition the tree exactly; for optimisation/decision every piece
    is an idempotent best candidate. Exposed for the job server, which
    runs its own per-job coordinators over a persistent fleet.
    @raise Failure on an Optimise outcome that never processed the
    root. *)

val run :
  ?stats:Yewpar_core.Stats.t ->
  ?broadcasts:int ref ->
  ?telemetry:Yewpar_telemetry.Telemetry.t ->
  ?journal:Yewpar_telemetry.Journal.writer ->
  ?watchdog:float ->
  ?monitor_port:int ->
  ?heartbeat:float ->
  ?failure_timeout:float ->
  ?lease_timeout:float ->
  ?max_respawns:int ->
  ?chaos:Chaos.t ->
  ?chaos_seed:int ->
  ?on_monitor:(int -> unit) ->
  ?timing:Yewpar_runtime.Config.t ->
  localities:int ->
  workers:int ->
  coordination:Yewpar_core.Coordination.t ->
  ('s, 'n, 'r) Yewpar_core.Problem.t ->
  'r
(** Run the search to completion and combine the collected results by
    search kind: enumerations fold the retired lease deltas (which
    partition the search tree exactly, even across failures);
    optimisation/decision take the best of the deltas, the
    localities' residual reports and the coordinator's witness.

    [stats] accumulates the aggregate of every locality's counters
    ([steal_attempts]/[steals] count wire-level steal traffic;
    [bound_updates] counts incumbent improvements applied, local
    submissions plus adopted floor broadcasts) plus the fault counters
    ([localities_lost], [leases_reissued], [respawns]);
    [broadcasts] receives the number of bound-update fan-out messages;
    [telemetry] or [journal] turns on event recording inside every
    locality (preallocated rings, one per worker domain plus one for
    each communicator thread); the localities drain them into their
    [Heartbeat] frames and a final [Wire.Telemetry] frame, and the
    coordinator stamps each event with its locality and clock offset
    and hands the same events to both: [telemetry] keeps them
    ({!Yewpar_telemetry.Telemetry.ingest}), so the merged trace has one
    process group per locality, and [journal]
    ({!Yewpar_telemetry.Journal}) writes them next to the
    coordinator's lease lifecycle, producing one JSONL event log whose
    span ids are lease ids ([yewpar analyze --journal] turns it into a
    critical-path, overhead and load-balance report);
    [watchdog] bounds the whole run in seconds (a deadlock safety net
    — on expiry the run raises instead of hanging, naming each
    locality's last-heartbeat age).

    Fault tolerance: localities always emit [Wire.Heartbeat] frames
    (every [heartbeat] seconds, default 0.5) — they feed the
    coordinator's failure detector as well as live monitoring.
    [failure_timeout] (default 10, [<= 0] disables) is how long a
    locality may stay silent before it is declared dead and its
    unretired leases are replayed on survivors; [lease_timeout]
    (disabled by default) additionally bounds how long any single
    lease may stay outstanding. [max_respawns] (default 0) pre-forks
    that many standby localities, promoted one per death. [chaos]
    injects faults for testing — crash a locality on schedule, drop
    frames, delay the link — deterministically under [chaos_seed]
    (see {!Chaos.parse} for the [--chaos] grammar).

    [timing] (default {!Yewpar_runtime.Config.default}) sets the
    localities' communicator tick and steal-retry timeout — the
    [--comm-tick]/[--steal-retry] CLI knobs.

    [monitor_port] serves live observability for the duration of the
    run: heartbeats fold into a gauge registry answering
    [GET /metrics] (Prometheus) and [GET /status] (JSON, per-locality
    detail plus fault counters) on [127.0.0.1]. Port [0] binds an
    ephemeral port, reported through [on_monitor] once listening.

    SIGTERM and SIGINT are handled for the duration of the run: the
    coordinator broadcasts [Shutdown], collects the localities'
    reports, reaps every child and raises [Failure "Dist: cancelled by
    SIGTERM"] (or [SIGINT]) — no orphan processes survive a ^C. The
    previous handlers are restored on return.

    [Sequential] coordination runs in-process via
    {!Yewpar_par.Shm.run} on one worker domain, which records the
    journal and trace when asked. It forks no locality, but the domain
    it spawns forbids any later [Unix.fork] in the same process.

    @raise Invalid_argument if the problem has no task codec, the
    topology is not at least 1x1, or the coordination is [Ordered]
    (its left-only floors would need positioned incumbents on the
    wire; run it on {!Yewpar_par.Shm.run} or the simulator).
    @raise Failure if every locality is lost, a locality fails (user
    exception), or the watchdog expires. *)
