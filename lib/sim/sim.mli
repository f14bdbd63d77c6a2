(** Deterministic discrete-event simulation of distributed YewPar.

    Executes any search problem under any coordination on a simulated
    cluster ({!Config.topology}), faithfully modelling the paper's
    runtime (§4.3):

    - one order-preserving workpool per locality (tasks run in the
      heuristic order they were spawned — FIFO), with idle workers
      taking local tasks first and stealing from random remote pools
      otherwise (Depth-Bounded and Budget);
    - direct victim-to-thief stack stealing with explicit request/reply
      messages, random victim selection preferring local victims, and
      optional chunking (Stack-Stealing);
    - incumbent bounds broadcast to other localities with a latency;
      stale local bounds cost pruning opportunities but never
      correctness;
    - a decision search short-circuits the whole cluster the moment a
      witness is processed.

    Virtual time advances by the {!Config.costs} model; the search
    itself executes {e for real}: each simulated worker is a slot of
    the shared worker core ({!Yewpar_runtime.Worker}), whose task step
    takes every spawning, shedding and splitting decision exactly as on
    the real runtimes, [batch] engine steps per event. Results and
    node, prune and task counts are therefore the real runtimes', and
    parallel anomalies (superlinear speedups, slowdowns from disrupted
    heuristic order) emerge from the interleaving rather than being
    scripted. Runs are deterministic in
    [(problem, topology, coordination, costs, seed)]; [seed] drives
    victim selection only. *)

val run :
  ?costs:Config.costs -> ?seed:int -> ?trace:Yewpar_telemetry.Telemetry.t ->
  ?stats:Yewpar_core.Stats.t ->
  topology:Config.topology ->
  coordination:Yewpar_core.Coordination.t ->
  ('space, 'node, 'result) Yewpar_core.Problem.t -> 'result * Metrics.t
(** Simulate one run, returning the (exact) search result and the
    virtual-time metrics. Pass a telemetry sink as [trace] to also
    record every worker's busy intervals as journal events: locality
    [id / workers_per_locality], worker [id mod workers_per_locality],
    [t] the virtual start, named by what the worker was doing
    ("engine", "task-root", "pool-pop", …). [stats], when given,
    receives the worker core's counters and depth profile (profiled
    only then). [Ordered] runs as
    Depth-Bounded over {!Yewpar_core.Ordered_core.lift} with its
    left-only harness.
    @raise Invalid_argument for [Ordered] on a problem that is not an
    optimisation.
    @raise Failure on an internal scheduling deadlock (a bug, not a
    user error). *)

val virtual_sequential :
  ?costs:Config.costs -> ('space, 'node, 'result) Yewpar_core.Problem.t ->
  'result * float
(** The sequential-skeleton baseline under the same cost accounting
    (one worker, no overheads): the denominator of every speedup the
    benchmark harness reports. *)
