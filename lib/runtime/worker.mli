(** The generic worker core: one coordination method, four substrates.

    A task's subtree is explored with {!Yewpar_core.Engine} under the
    run's {!Yewpar_core.Coordination} policy — spawning, shedding or
    splitting exactly as the coordination dictates — and everything is
    accounted in the slot's own {!Counters} record. The search semantics live
    here, once; a substrate only says where a spawned task goes and
    when the stack-stealing hunger probe fires. Four substrates
    instantiate it: the shm runtime's worker domains, each dist
    locality's domains, the serve fleet's localities (the same
    locality code, one job at a time) and the discrete-event simulator,
    which runs every slot on one thread in virtual time.

    The task step is split so a driver can interleave it:
    - {!start_task} re-checks the task root's bound, processes it and,
      above a spawn-depth cutoff, spawns all its children;
    - {!advance} resumes the task's engine ({!Yewpar_core.Engine.run})
      for a bounded number of steps, taking the coordination's
      decisions on the way: a stack-steal split after an entered node,
      a budget shed or random spawn after a backtrack. The decision is
      chosen once per call and handed to the engine's loop as a hook,
      so the loop itself tests no coordination.

    {!exec_task} is the two back to back, advancing {!chunk} steps per
    call until the task ends: what worker domains run ({!start}). The
    simulator calls {!start_task} and {!advance} itself and charges
    virtual time per step.

    The core writes no shared cell: a slot's counters and task slot are
    written only by its own thread. Each slot's engine records its
    steps into the slot's depth profile ({!Yewpar_core.Engine.make}),
    and the core notes only what the engine never sees — the task root,
    spawn-depth children, and the children a split spawns or prunes.
    The engine's node and prune counts reach the slot's counters at
    the end of every {!advance} call, so the live view's [nodes] lags
    a worker domain by less than one {!chunk}; its backtracks and
    depth reach them once, when the task ends. Under [Sequential] the
    one task never spawns, so a one-slot run walks the tree in
    {!Yewpar_core.Sequential.search}'s order. *)

type 'n scheduler = {
  enqueue : slot:int -> Yewpar_telemetry.Recorder.t -> 'n Task_pool.task -> unit;
      (** Deliver a freshly spawned task. The core has already done
          the spawn accounting; the scheduler decides the destination
          (shm: the spawning slot's deque via {!Two_tier.enqueue};
          dist: the local tiers or a spill to the coordinator). [slot]
          is the spawning worker — the owner of the Tier-1 deque the
          task lands in. *)
  take : slot:int -> 'n Task_pool.task option;
      (** Blocking task acquisition; [None] ends the worker's loop.
          Usually a configured {!Two_tier.take}. *)
  finish : unit -> unit;
      (** A task (and its delta) is fully accounted; the substrate's
          termination detector decrements its outstanding count. *)
  should_shed : unit -> bool;
      (** Stack-stealing hunger probe: are thieves waiting with both
          tiers dry (or, on dist, is a remote locality starving)? *)
  begin_task : slot:int -> 'n Task_pool.task -> unit;
      (** Attribution hook, called before execution (dist: bind the
          worker to the task's lease). No-op on shm. *)
  end_task : slot:int -> unit;
      (** Attribution hook, called after execution and before
          {!field-finish} — so full quiescence implies every delta is
          visible. No-op on shm. *)
}
(** A worker-domain substrate: where spawned tasks go, plus what only
    the domain loop ({!start}) needs. *)

type 'n domains
(** What only worker domains need: the {!type-scheduler} and the
    two-tier scheduler whose waiters {!request_stop} wakes. *)

type ('s, 'n, 'd) ctx
(** One run's task-step context: the problem, the coordination, the
    counters, one recorder, view and task slot per worker slot, the
    spawn destination, the hunger probe and the stop flag. ['d] is
    ['n domains] for worker domains ({!make_ctx}) and [unit] for a
    driver that runs the step itself ({!make_step_ctx}). *)

val make_step_ctx :
  space:'s ->
  children:('s, 'n) Yewpar_core.Problem.generator ->
  coordination:Yewpar_core.Coordination.t ->
  counters:Counters.t ->
  recorders:Yewpar_telemetry.Recorder.t array ->
  views:'n Yewpar_core.Ops.view array ->
  enqueue:(slot:int -> Yewpar_telemetry.Recorder.t -> 'n Task_pool.task -> unit) ->
  should_shed:(slot:int -> bool) ->
  stop:bool Atomic.t ->
  unit ->
  ('s, 'n, unit) ctx
(** One task slot per view. [enqueue] receives every spawned task
    (spawn accounting done); [should_shed ~slot] is the stack-stealing
    hunger probe of the worker on [slot], asked after each entered
    node and again after each split it answers; the core raises [stop]
    on a decision witness. *)

val make_ctx :
  space:'s ->
  children:('s, 'n) Yewpar_core.Problem.generator ->
  coordination:Yewpar_core.Coordination.t ->
  counters:Counters.t ->
  recorders:Yewpar_telemetry.Recorder.t array ->
  views:'n Yewpar_core.Ops.view array ->
  scheduler:'n scheduler ->
  tiers:'n Two_tier.t ->
  stop:bool Atomic.t ->
  unit ->
  ('s, 'n, 'n domains) ctx
(** {!make_step_ctx} over the scheduler's [enqueue] and [should_shed],
    plus what {!start} needs. [recorders] may be longer than [views]
    (the dist communicator's slot). *)

val task_priority :
  coordination:Yewpar_core.Coordination.t ->
  'n Yewpar_core.Ops.view array ->
  'n ->
  int
(** The pool-ordering heuristic: the views' priority under best-first
    coordination, constant otherwise. *)

val spawn : (_, 'n, _) ctx -> slot:int -> 'n Task_pool.task -> unit
(** Account a task spawn on [slot] ({!Counters.note_spawn}) and hand
    it to [enqueue]. Also how a runtime seeds the root task. *)

val start_task : (_, 'n, _) ctx -> slot:int -> 'n Task_pool.task -> int
(** Begin a task on [slot]: re-check the root's bound (a stale task
    counts one prune and ends), process the root (a decision witness
    raises [stop] and ends the task), then either spawn every child
    above a Depth-Bounded, Best-First or Ordered cutoff — with the
    engine's bound check and sibling cut — and end the task, or start
    the slot's engine on the subtree ({!running} is then [true]).
    Returns the nodes this did a node's work for: [0] for a pruned
    root, [1] for a processed root, plus one per child considered at
    spawn-depth. A task that ends here records its [Task] event. *)

val advance : (_, _, _) ctx -> slot:int -> steps:int -> int
(** Resume the slot's task for at most [steps] engine steps, taking
    the coordination's decision on each: after an entered node,
    stack-stealing splits while [should_shed ~slot] holds and there is
    work to split; after a backtrack, a budget shed or a random spawn. A split child that
    fails the bound check counts one prune and, when the view prunes
    siblings, cuts its remaining siblings, as the engine would have.
    The task ends when its subtree is exhausted, when it processes a
    decision witness, or when [stop] is raised (checked before every
    step, so [~steps:0] with [stop] raised just ends it). Every call
    adds the entered and pruned steps it took to the counters; an
    ended task adds its engine's backtracks and depth and records its
    [Task] event. Returns the entered and pruned steps taken (the
    steps a cost model charges); [0] when the slot has no running
    task. *)

val running : (_, _, _) ctx -> slot:int -> bool
(** The slot has a started task whose engine has steps left. *)

val chunk : int
(** Engine steps per {!advance} call in {!exec_task}. *)

val exec_task : (_, 'n, _) ctx -> slot:int -> 'n Task_pool.task -> unit
(** Run one task to its end: {!start_task}, then {!advance} by
    {!chunk} steps while the task is {!running}. *)

val request_stop : (_, 'n, 'n domains) ctx -> unit
(** Raise the stop flag and wake every blocked worker. *)

type handle
(** Spawned worker domains plus their shared failure cell. *)

val start : (_, 'n, 'n domains) ctx -> workers:int -> handle
(** Spawn [workers] domains running the worker loop on slots
    [0 .. workers-1]: claim the slot's counters ({!Counters.claim}) and
    rebuild its task slot on the worker's own domain, then take,
    {!exec_task}, account, repeat. A task that raised [stop] wakes the
    blocked workers. *)

val failure : handle -> exn option
(** Peek at the failure cell mid-run (the dist communicator polls it
    to report a [Failed] frame while workers are still draining). *)

val join : handle -> exn option
(** Join every domain and return the first recorded worker exception,
    if any; the caller chooses to re-raise (shm) or to report and
    carry on with result shipping (dist). *)
