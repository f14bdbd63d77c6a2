(** The overflow tier of the two-tier scheduler: a mutex/condition-
    protected depth-aware order-preserving workpool with an atomic size
    mirror, shared by the workers of one process (shm) or one
    distributed locality.

    In the two-tier design ({!Two_tier}) the hot path lives in
    per-worker lock-free deques; this pool receives what the fast tier
    sheds — deque overflow, priority-ordered work, wire arrivals — and
    is the {e only} tier distributed localities shed from, so its
    order-preserving pops (deepest-first locally, shallowest-first for
    sheds; heuristic order under a [Priority] policy) keep Ordered-style
    reproducibility intact. It is also the block/wake point: workers
    with nothing to pop or steal sleep on its condition. *)

type 'n task = {
  tag : int;
      (** Substrate-specific task identity: on the shm runtime the
          task's own span when recording ([0] otherwise), the owning
          coordinator lease id on dist. Spawned subtasks are created
          with their parent's tag (which the shm scheduler replaces
          by a fresh span). *)
  node : 'n;
  depth : int;
}

type episode = { mutable attempted : bool; mutable dry_since : float }
(** Steal-accounting state shared across one whole acquisition (deque
    sweep + pool wait), so attempts are counted once per dry episode no
    matter how many tiers were probed. *)

val new_episode : unit -> episode

type 'n t

val create : policy:Yewpar_core.Workpool.policy -> unit -> 'n t

val policy_for : Yewpar_core.Coordination.t -> Yewpar_core.Workpool.policy
(** The pool policy a coordination wants: [Priority] for best-first,
    [Depth] otherwise. *)

val size : 'n t -> int
(** Lock-free read of the size mirror. *)

val push : 'n t -> ?src:int -> priority:int -> 'n task -> unit
(** Queue a task and wake one waiter. [src] (default [-1]: no worker identity) is the pushing
    worker's slot, kept so {!take} can distinguish steals from
    self-handoffs. *)

val signal : 'n t -> unit
(** Wake one waiter without pushing — how the lock-free tier announces
    a deque push to sleepers (they re-probe the deques before waiting,
    see {!take}). *)

val broadcast : 'n t -> unit
(** Wake every waiter (stop requests, termination, external work
    arrival). *)

type 'n acquired =
  | Task of 'n task  (** A pool task, steal accounting done. *)
  | Retry
      (** [more_work] observed fast-tier work while arming the wait —
          the caller should re-run its deque sweep. *)
  | Exhausted  (** [stop] or [drained]: the worker's loop ends. *)

val take :
  'n t ->
  recorder:Yewpar_telemetry.Recorder.t ->
  stop:bool Atomic.t ->
  waiting:int Atomic.t ->
  ?slot:int ->
  ?episode:episode ->
  ?steal_counters:Counters.t ->
  ?more_work:(unit -> bool) ->
  ?drained:(unit -> bool) ->
  ?on_idle:(float -> unit) ->
  unit ->
  'n acquired
(** Blocking pool acquisition, the slow tail of {!Two_tier.take}. A
    worker that finds the pool dry sleeps on the condition (bumping
    [waiting] while it does) and retries on wakeup, until [stop] is
    set or [drained ()] holds with the pool empty ([drained] defaults
    to never: on a distributed locality a dry pool does not end the
    search — more work may arrive over the wire).

    [more_work] (default never) is probed {e after} [waiting] is
    raised and before every sleep, and again on every wakeup; when it
    fires the call returns [Retry] so the caller can drain its fast
    tier. Together with deque pushers signalling only after observing
    [waiting > 0], this closes the lost-wakeup race without putting
    deque pushes under the pool lock.

    With [steal_counters], a dry first probe of the episode counts as
    a steal attempt and obtaining a task pushed by a {e different}
    slot than [slot] counts as a success (its recorded [Steal] event
    spans the steal latency: first dry probe to task in hand); each
    wait is recorded as one [Idle] event from its real start — a worker handed
    back a task it pushed itself is not stealing. [episode] (default
    fresh) carries that state across tiers. [on_idle], when given,
    receives each wait's wall-clock duration (the dist heartbeat's
    idle fraction). *)

val shed_half : 'n t -> 'n task list
(** Atomically remove half the queued tasks (rounded up),
    shallowest-first — the biggest subtrees, for shipping to a remote
    thief. Returns them in pop order. *)
