(** The two-tier scheduling substrate shared by the shm runtime and
    every distributed locality.

    Tier 1 is an array of per-worker lock-free Chase-Lev {!Deque}s:
    a worker pushes and pops its own deque without taking any lock
    (deepest-first, keeping the search depth-first), and a dry worker
    steals the shallowest entry from a random sibling with one CAS.
    Tier 2 is the ordered {!Task_pool}: deque overflow spills into it
    shallowest-first, pushes with no owning worker (wire arrivals, the
    communicator) land in it directly, best-first coordinations bypass
    the deques entirely so the priority order stays global, and it is
    the only tier distributed localities shed from — so cross-locality
    work always moves in the order-preserving tier. The pool's
    condition variable is also the block/wake point for workers that
    find both tiers dry.

    A single atomic [queued] counter tracks the total across both
    tiers, so hunger ({!hungry}) and spill-threshold probes stay O(1)
    reads. *)

type 'n t

val create :
  policy:Yewpar_core.Workpool.policy -> ?deque_capacity:int -> slots:int ->
  unit -> 'n t
(** [slots] worker deques (capacity [deque_capacity], default 256)
    over one overflow pool with [policy]. A [Priority] policy disables
    the fast tier: every task goes to the ordered pool. *)

val enqueue :
  'n t ->
  slot:int ->
  recorder:Yewpar_telemetry.Recorder.t ->
  priority:int ->
  'n Task_pool.task ->
  unit
(** Deliver a task. [slot] is the pushing worker's slot and selects
    its deque; a negative or out-of-range slot (no worker identity)
    targets the overflow pool, as does any push under a [Priority]
    policy. A full deque first migrates its shallowest half to the
    pool. Sleeping workers are woken. A push records no event:
    [recorder] is accepted so the signature mirrors {!take}. *)

val take :
  'n t ->
  slot:int ->
  recorder:Yewpar_telemetry.Recorder.t ->
  stop:bool Atomic.t ->
  ?steal_counters:Counters.t ->
  ?drained:(unit -> bool) ->
  ?on_idle:(float -> unit) ->
  unit ->
  'n Task_pool.task option
(** Two-level blocking acquisition for the worker on [slot]: own deque
    pop, then one randomised steal sweep over the sibling deques, then
    a blocking {!Task_pool.take} on the overflow pool (whose
    [more_work] re-probe of the deques makes the park race-free and
    bounces the worker back to the sweep when deque work appears).
    [None] ends the worker's loop ([stop] set, or [drained ()] with
    both tiers dry; [drained] defaults to never).

    With [steal_counters], the first dry own-pop of the episode counts
    one steal attempt, and a task obtained from a sibling deque or
    from another slot's pool push counts one success — at most one of
    each per episode, whichever tier finally served it. *)

val shed_half : 'n t -> 'n Task_pool.task list
(** Remove half the {e overflow-tier} tasks (rounded up),
    shallowest-first, for shipping to a remote thief. Deques are never
    shed: on dist their tasks stay under the locality's lease
    accounting until executed, so only Tier-2 work may leave. Returns
    [[]] when the pool is empty even if deques hold work — the caller
    arms its hunger flag and future spawns spill at source. *)

val broadcast : 'n t -> unit
(** Wake every blocked worker (stop requests, termination, wire
    arrivals). *)

val queued : 'n t -> int
(** Tasks currently queued across both tiers (lock-free; may be
    momentarily stale). *)

val pool_size : 'n t -> int
(** Tasks currently in the overflow tier only (the dist spill
    telemetry's base). *)

val idle_workers : 'n t -> int
(** Workers currently parked in {!take}. *)

val hungry : 'n t -> bool
(** [idle_workers > 0 && queued = 0]: somebody is starving and neither
    tier has anything for them — the stack-stealing shed probe. *)
