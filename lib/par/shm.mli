(** Shared-memory parallel skeletons on OCaml 5 domains.

    The multicore half of the paper's two deployment scales: real
    parallel execution with an atomic incumbent (lock-free CAS
    maximisation), a mutex-protected order-preserving central workpool
    and a global short-circuit flag. Every parallel coordination runs
    here, among them:

    - Depth-Bounded: tasks above the cutoff push their children to the
      pool;
    - Budget: a task exceeding its backtrack budget sheds its
      lowest-depth subtrees to the pool;
    - Stack-Stealing: running workers split their lowest-depth subtree
      on demand whenever idle workers are waiting on an empty pool
      (work pushing, the shared-memory analogue of the paper's
      victim-side splitting);
    - Ordered: Depth-Bounded spawning over the positioned problem
      {!Yewpar_core.Ordered_core.lift} with its left-only harness, from
      a FIFO pool, so the witness is Sequential's on every run.

    Results equal the sequential skeleton's up to the documented
    nondeterminism of optimisation/decision witnesses. On a single-core
    machine the skeletons still run correctly (domains time-slice);
    speedups obviously require real cores. *)

val run :
  ?workers:int -> ?stats:Yewpar_core.Stats.t ->
  ?telemetry:Yewpar_telemetry.Telemetry.t ->
  ?journal:Yewpar_telemetry.Journal.writer ->
  ?monitor_port:int ->
  ?on_monitor:(int -> unit) ->
  ?progress:bool ->
  coordination:Yewpar_core.Coordination.t ->
  ('space, 'node, 'result) Yewpar_core.Problem.t -> 'result
(** [run ~coordination p] executes [p] on [workers] domains (default:
    [Domain.recommended_domain_count ()]). [Sequential] coordination
    runs on one worker domain whatever [workers] says: its one task
    never spawns, so the worker core walks the whole tree in
    {!Yewpar_core.Sequential.search}'s order, with the same recording,
    monitoring and accounting as every other coordination. Raises
    [Invalid_argument] when [workers < 1] (checked first, under every
    coordination), or for [Ordered] on a problem that is not an
    optimisation. When [stats] is supplied, node/prune/task/steal/
    bound-update counters aggregated across all domains are
    accumulated into it after the join, along with per-depth profiles
    ({!Yewpar_core.Depth_profile}) and the recorders' ring-overflow
    drop count.

    When [telemetry] or [journal] is supplied the run records: every
    worker domain gets a preallocated {!Yewpar_telemetry.Recorder}
    ring (locality 0, worker = domain index) holding its [task],
    [steal], [idle], [bound] and [spawn] events, each recorded once.
    With no coordinator in this runtime, span ids come from an
    in-process counter — every enqueued task gets a fresh span (its
    [spawn] event names the spawning task's span as parent; the root
    task is span 1 under the job, span 0). The rings belong to
    [telemetry] (a private sink when only [journal] is given), whose
    views export them after [run] returns. Recording never changes the
    search: recorded and unrecorded runs process the same nodes.

    When [journal] is supplied, the run also appends causal events to
    it ({!Yewpar_telemetry.Journal}): [job_start], then the drained
    ring events, written by a background thread every 50 ms so file
    I/O stays off the worker domains, then the count of events lost to
    ring overflow (if any) and [job_done].

    When [monitor_port] is supplied ([0] binds an ephemeral port
    reported through [on_monitor]), the run serves its live fields —
    the worker slots' counters summed on each scrape, the pool depths,
    the incumbent — as [GET /metrics] ([yewpar_live_*] gauges) and
    [GET /status] (one JSON object with the same fields) on
    [127.0.0.1] for its duration ({!Yewpar_telemetry.Live}); the port
    closes before [run] returns.

    [progress] (default true) keeps the tree-size estimator columns
    ({!Yewpar_core.Progress}) recording: the monitor then carries a
    [progress] block in [/status], [yewpar_progress_*] gauges in
    [/metrics], and a journalled [progress_sample] roughly every
    second (plus a final clamped one before [job_done]).
    [~progress:false] — used by the bench overhead A/B — removes the
    per-node cost and every progress surface. *)
