(** The generic worker core: one engine-driving loop, every runtime.

    A worker repeatedly takes a task from its scheduler, explores the
    task's subtree with {!Yewpar_core.Engine} under the run's
    {!Yewpar_core.Coordination} policy — spawning, shedding or
    splitting exactly as the coordination dictates — and accounts
    everything through one {!Counters} bundle. What differs between
    substrates (where a spawned task goes, when a dry scheduler means
    termination, how a task is attributed) is delegated to a
    first-class {!type-scheduler}; the search semantics live here,
    once, so all runtimes behave identically by construction. *)

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

type ('s, 'n) ctx = {
  space : 's;
  children : ('s, 'n) Yewpar_core.Problem.generator;
  coordination : Yewpar_core.Coordination.t;
  counters : Counters.t;
  recorders : Yewpar_telemetry.Recorder.t array;
      (** One per slot; may be longer than the worker count when the
          runtime reserves extra slots (the dist communicator). *)
  views : 'n Yewpar_core.Ops.view array;  (** One per worker slot. *)
  scheduler : 'n scheduler;
  tiers : 'n Two_tier.t;
      (** The local two-tier scheduler (also reachable from the
          scheduler closures; named here so {!request_stop} can wake
          its waiters). *)
  stop : bool Atomic.t;  (** The global short-circuit flag. *)
  failure : exn option Atomic.t;
      (** First worker exception; a raising user generator must not
          deadlock the scheduler, so workers trap, record and stop. *)
  engines : ('s, 'n) Yewpar_core.Engine.t option ref array;
      (** Per-slot scratch engine, recycled across tasks with
          {!Yewpar_core.Engine.restart} so steady-state execution
          reuses one generator stack per worker. *)
}

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
  ('s, 'n) ctx
(** Assemble a context, allocating the failure cell and one engine
    scratch slot per view. *)

val task_priority :
  coordination:Yewpar_core.Coordination.t ->
  'n Yewpar_core.Ops.view array ->
  'n ->
  int
(** The pool-ordering heuristic: the views' priority under best-first
    coordination, constant otherwise. *)

val request_stop : ('s, 'n) ctx -> unit
(** Raise the stop flag and wake every blocked worker. *)

val spawn : ('s, 'n) ctx -> slot:int -> 'n Task_pool.task -> unit
(** Account a task spawn (task counter + slot depth profile) and hand
    it to the scheduler. Also how a runtime seeds the root task. *)

val exec_task : ('s, 'n) ctx -> slot:int -> 'n Task_pool.task -> unit
(** Explore one task's subtree under the coordination policy:
    depth-bounded/best-first child spawning below the cutoff, budget
    shedding on backtrack quota, stack-stealing splits on hunger,
    random spawning — plus all node/prune/backtrack/depth accounting
    and the task's [Task] event on the slot's recorder. *)

type handle
(** Spawned worker domains plus the shared failure cell. *)

val start : ('s, 'n) ctx -> workers:int -> handle
(** Spawn [workers] domains running the worker loop on slots
    [0 .. workers-1]. *)

val failure : handle -> exn option
(** Peek at the failure cell mid-run (the dist communicator polls it
    to report a [Failed] frame while workers are still draining). *)

val join : handle -> exn option
(** Join every domain and return the first recorded worker exception,
    if any; the caller chooses to re-raise (shm) or to report and
    carry on with result shipping (dist). *)
