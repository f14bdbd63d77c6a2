(** The scheduler shared by the shm runtime and every distributed
    locality: one order-preserving workpool per worker in front of a
    shared overflow pool (paper §4.3).

    Tier 1 is an array of per-worker {!Yewpar_core.Workpool}s with the
    [Depth] policy, each guarded by its own mutex: a worker pushes its
    spawns onto its own pool and pops the deepest task, first-spawned
    first within a depth, so siblings run in heuristic order and one
    worker walks the tree in {!Yewpar_core.Sequential.search}'s order.
    A dry worker steals the shallowest, oldest task (the biggest
    subtree) from a random sibling. Tier 2, the overflow tier, is a
    mutex-guarded {!Yewpar_core.Workpool} with the coordination's
    policy ({!Task_pool.policy_for}): pushes with no owning worker
    (wire arrivals, the communicator) land in it, and best-first and Ordered
    coordinations have no per-worker pools, so their order stays
    global. Its condition variable is also the block/wake point for
    workers that find both tiers dry. A distributed locality sheds
    from both tiers ({!shed_half}), the overflow tier first.

    A single atomic [queued] counter tracks the total across both
    tiers, so the hunger probe ({!hungry}) and the shed quota stay
    O(1) reads. *)

type 'n t

val create :
  policy:Yewpar_core.Workpool.policy -> slots:int -> unit -> 'n t
(** [slots] per-worker pools over one overflow pool with [policy].
    Only the [Depth] policy has per-worker pools: under [Priority] or
    [Fifo] every task goes to the overflow pool, whose order is
    global, and {!take} goes straight to it. *)

val enqueue :
  'n t ->
  slot:int ->
  recorder:Yewpar_telemetry.Recorder.t ->
  priority:int ->
  'n Task_pool.task ->
  unit
(** Deliver a task. [slot] is the pushing worker's slot and selects
    its own pool; a negative or out-of-range slot (no worker identity)
    targets the overflow pool, as does any push under a policy other
    than [Depth]. Sleeping workers are woken. A push records no event:
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
(** Blocking acquisition for the worker on [slot]: own pool pop
    (deepest first, FIFO within a depth), then one randomised steal
    sweep over the sibling pools (shallowest, oldest first), then the
    overflow tier, deepest-first (or by the pool's policy, with no own
    pop or sweep, since other policies have no per-worker pools).
    [None] ends the worker's loop: [stop] is set, or [drained ()]
    holds with the overflow tier empty ([drained] defaults to never:
    on a distributed locality a dry pool does not end the search,
    since more work may arrive over the wire).

    A worker that finds both tiers dry parks on the overflow tier's
    condition. To close the lost-wakeup race without putting own-pool
    pushes under the overflow lock, it raises [waiting]
    ({!idle_workers}), re-probes every per-worker pool under that
    pool's mutex, and only then waits; an own-pool push publishes its
    task under the same mutex first and signals only when it observes
    [waiting > 0], so a push the re-probe missed always wakes it. A
    re-probe that finds work, before the wait or on wakeup, sends the
    worker back to its own pop and the sweep.

    With [steal_counters], [slot]'s first dry own-pop of the call
    counts one steal attempt, and a task obtained from a sibling's pool
    or from an overflow push by another slot (or by none) counts one
    success with a [Steal] event spanning the steal latency, from that
    first dry probe to task in hand; at most one of each per call,
    whichever tier finally served it. Being handed back one's own
    overflow push is not a steal. Each wait is recorded as one [Idle]
    event from its real start, and a call that ends in [drained]
    records a final [Idle] event from its first dry probe, so every
    worker that looked for work leaves one. [on_idle], when given, receives each
    wait's wall-clock duration (the dist heartbeat's idle fraction). *)

val shed_half : 'n t -> 'n Task_pool.task list
(** Remove half of everything queued across both tiers (rounded up),
    for shipping to a remote thief: the overflow tier's shallowest
    tasks first, then the per-worker pools' shallowest, oldest
    entries, one pool at a time in turn. [queued] drops by the number
    returned. [[]] means both tiers were dry.

    On dist a task shed from a worker's pool is as safe as one shed
    from the overflow tier: both
    carry the lease they were spawned under, so the spill names it as
    [parent], and both count in the locality's outstanding tasks until
    they are shed. A lease retires only when nothing is outstanding
    and the outbox is empty. The shed and that check both run on the
    locality's communicator, and the spill is in the outbox before the
    check runs again, so every shed of a lease is sent before that
    lease's retirement. *)

val broadcast : 'n t -> unit
(** Wake every blocked worker (stop requests, termination, wire
    arrivals). *)

val queued : 'n t -> int
(** Tasks currently queued across both tiers (lock-free; may be
    momentarily stale). *)

val idle_workers : 'n t -> int
(** Workers currently parked in {!take}. *)

val hungry : 'n t -> bool
(** [idle_workers > 0 && queued = 0]: somebody is starving and neither
    tier has anything for them. Stack-Stealing's shed probe on shm and
    dist, and a dist locality's cue to ask the coordinator for work. *)
