module Workpool = Yewpar_core.Workpool
module Stats = Yewpar_core.Stats
module Recorder = Yewpar_telemetry.Recorder
module Splitmix = Yewpar_util.Splitmix

(* An overflow-tier entry. [src] is the slot that pushed it (-1 for
   pushes with no worker identity — wire arrivals, the root seed), so
   [take] can tell a genuine steal from a worker being handed back its
   own spill. *)
type 'n entry = { src : int; tk : 'n Task_pool.task }

type 'n t = {
  deques : 'n Task_pool.task Deque.t array;
      (* one per slot under [Depth], none otherwise: best-first and
         Ordered orders are global, and a per-worker LIFO would
         reorder them *)
  mutex : Mutex.t;  (* guards [pool] *)
  nonempty : Condition.t;  (* the block/wake point of [take] *)
  pool : 'n entry Workpool.t;
  queued : int Atomic.t;
      (* total across both tiers; the O(1) basis of every hunger
         probe and of [shed_half]'s quota, so none of them has to sum
         the deques *)
  waiting : int Atomic.t;
  rngs : Splitmix.gen array;
      (* per-slot victim-selection streams; [rngs.(i)] is touched only
         by slot [i]'s domain *)
}

let create ~policy ?(deque_capacity = 256) ~slots () =
  let n = if policy = Workpool.Depth then slots else 0 in
  {
    deques = Array.init n (fun _ -> Deque.create ~capacity:deque_capacity ());
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    pool = Workpool.create ~policy ();
    queued = Atomic.make 0;
    waiting = Atomic.make 0;
    rngs = Array.init n (fun i -> Splitmix.of_seed (0x7ee5 + (i * 0x9e37)));
  }

let queued t = Atomic.get t.queued
let idle_workers t = Atomic.get t.waiting
let hungry t = Atomic.get t.waiting > 0 && Atomic.get t.queued = 0

let broadcast t =
  Mutex.lock t.mutex;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex

let pool_push t ~src ~priority (tk : _ Task_pool.task) =
  Mutex.lock t.mutex;
  Workpool.push t.pool ~depth:tk.Task_pool.depth ~priority { src; tk };
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let deques_nonempty t =
  let n = Array.length t.deques in
  let rec go i = i < n && ((not (Deque.is_empty t.deques.(i))) || go (i + 1)) in
  go 0

let enqueue t ~slot ~recorder:_ ~priority task =
  Atomic.incr t.queued;
  if slot < 0 || slot >= Array.length t.deques then
    (* No owner deque (wire arrivals, the communicator) or a global
       order: the ordered tier is the destination. *)
    pool_push t ~src:slot ~priority task
  else begin
    let dq = t.deques.(slot) in
    if not (Deque.push dq task) then begin
      (* Deque full: migrate the shallowest half (the oldest, biggest
         subtrees — taken off our own top) to the ordered tier, which
         is where low-depth work belongs anyway, under one lock hold
         and one wake-up, then retry. Only the owner pushes, so after
         shedding half the retry cannot fail; the fallback guards a
         sweep raced completely dry. *)
      let rec migrate k =
        if k > 0 then
          match Deque.steal dq with
          | Some tk ->
            Workpool.push t.pool ~depth:tk.Task_pool.depth ~priority:0
              { src = slot; tk };
            migrate (k - 1)
          | None -> ()
      in
      Mutex.lock t.mutex;
      migrate (Deque.capacity dq / 2);
      Condition.broadcast t.nonempty;
      Mutex.unlock t.mutex;
      if not (Deque.push dq task) then pool_push t ~src:slot ~priority task
    end;
    (* Deque pushes bypass the pool lock, so sleepers are woken
       explicitly; they re-probe the deques after raising [waiting]
       (see [take]), which makes push-then-check-waiting here
       race-free under OCaml's SC atomics. *)
    if Atomic.get t.waiting > 0 then begin
      Mutex.lock t.mutex;
      Condition.signal t.nonempty;
      Mutex.unlock t.mutex
    end
  end

let take t ~slot ~recorder ~stop ?steal_counters ?(drained = fun () -> false)
    ?on_idle () =
  let nslots = Array.length t.deques in
  (* Steal accounting for this one acquisition, across both tiers: the
     first dry own-pop is its attempt, [dry_since] starts its Steal
     and final Idle spans. *)
  let attempted = ref false and dry_since = ref 0. in
  let mark_attempt () =
    match steal_counters with
    | Some (c : Counters.t) when not !attempted ->
      attempted := true;
      dry_since := Recorder.now recorder;
      let st = c.(slot).Counters.stats in
      st.Stats.steal_attempts <- st.Stats.steal_attempts + 1
    | Some _ | None -> ()
  in
  let count_steal (tk : _ Task_pool.task) =
    match steal_counters with
    | Some (c : Counters.t) ->
      let st = c.(slot).Counters.stats in
      st.Stats.steals <- st.Stats.steals + 1;
      Recorder.span recorder Recorder.Steal ~span:tk.Task_pool.tag
        ~start:!dry_since ~value:0
    | None -> ()
  in
  (* One randomised full circle over the sibling deques. *)
  let steal_sweep () =
    if nslots <= 1 then None
    else begin
      let start = Splitmix.int t.rngs.(slot) nslots in
      let rec go i =
        if i >= nslots then None
        else
          let v = (start + i) mod nslots in
          if v = slot then go (i + 1)
          else
            match Deque.steal t.deques.(v) with
            | Some tk -> Some tk
            | None -> go (i + 1)
      in
      go 0
    end
  in
  let got task =
    Atomic.decr t.queued;
    Some task
  in
  let rec loop () =
    if Atomic.get stop then None
    else
      (* Under a global order there are no deques, so the sweep finds
         none either: straight from the attempt mark to the pool. *)
      match if nslots = 0 then None else Deque.pop t.deques.(slot) with
      | Some tk -> got tk
      | None -> (
        mark_attempt ();
        match steal_sweep () with
        | Some tk ->
          count_steal tk;
          got tk
        | None ->
          Mutex.lock t.mutex;
          wait ())
  (* The overflow tier, entered with the pool lock held; every exit
     releases it. *)
  and wait () =
    if Atomic.get stop then begin
      Mutex.unlock t.mutex;
      None
    end
    else
      match Workpool.pop_local t.pool with
      | Some { src; tk } ->
        Mutex.unlock t.mutex;
        (* Only a task someone else pushed counts as stolen: being
           handed back our own spill after a wait is just latency. *)
        if src <> slot then count_steal tk;
        got tk
      | None ->
        if drained () then begin
          Mutex.unlock t.mutex;
          (* The worker's last dry episode is idle time too, from its
             first dry probe to the end of the run; recording it gives
             every worker that looked for work a trace, even one that
             started after the others had finished. *)
          if !attempted then
            Recorder.span recorder Recorder.Idle ~span:0 ~start:!dry_since
              ~value:0;
          None
        end
        else begin
          Atomic.incr t.waiting;
          (* Lost-wakeup guard for the lock-free tier: deque pushers
             publish the task first and only signal when they observe
             [waiting > 0]. Re-probing the deques *after* raising
             [waiting] therefore covers the race — a push missed by
             this probe must read the raised counter and will signal
             (blocking on our mutex until [Condition.wait] releases
             it). *)
          if deques_nonempty t then begin
            Atomic.decr t.waiting;
            Mutex.unlock t.mutex;
            loop ()
          end
          else begin
            let idle_from = Recorder.now recorder in
            let wall_from =
              match on_idle with Some _ -> Recorder.clock () | None -> 0.
            in
            Condition.wait t.nonempty t.mutex;
            Atomic.decr t.waiting;
            Recorder.span recorder Recorder.Idle ~span:0 ~start:idle_from
              ~value:0;
            (match on_idle with
            | Some f -> f (Recorder.clock () -. wall_from)
            | None -> ());
            if deques_nonempty t then begin
              Mutex.unlock t.mutex;
              loop ()
            end
            else wait ()
          end
        end
  in
  loop ()

let shed_half t =
  let rec from_pool k acc =
    match if k = 0 then None else Workpool.pop_steal t.pool with
    | Some { tk; _ } -> from_pool (k - 1) (tk :: acc)
    | None -> (k, acc)
  in
  (* Then the deques' oldest entries, one per deque per round, until
     the quota is met or [n] visits in a row find nothing (a dry deque
     or a steal lost to its owner). *)
  let n = Array.length t.deques in
  let rec from_deques k i dry acc =
    if k = 0 || dry = n then acc
    else
      match Deque.steal t.deques.(i) with
      | Some tk -> from_deques (k - 1) ((i + 1) mod n) 0 (tk :: acc)
      | None -> from_deques k ((i + 1) mod n) (dry + 1) acc
  in
  Mutex.lock t.mutex;
  let k, acc = from_pool ((Atomic.get t.queued + 1) / 2) [] in
  Mutex.unlock t.mutex;
  let shed = List.rev (from_deques k 0 0 acc) in
  ignore (Atomic.fetch_and_add t.queued (-List.length shed));
  shed
