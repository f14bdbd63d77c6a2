module Workpool = Yewpar_core.Workpool
module Stats = Yewpar_core.Stats
module Recorder = Yewpar_telemetry.Recorder
module Splitmix = Yewpar_util.Splitmix

(* An overflow-tier entry. [src] is the slot that pushed it (-1 for
   pushes with no worker identity — wire arrivals, the root seed), so
   [take] can tell a genuine steal from a worker being handed back its
   own push. *)
type 'n entry = { src : int; tk : 'n Task_pool.task }

(* A worker's own pool: [Depth]-ordered, so its owner pops the deepest
   task (FIFO within a depth, i.e. spawn = heuristic order) and a
   sibling steals the shallowest, oldest one. *)
type 'n local = { lock : Mutex.t; tasks : 'n Task_pool.task Workpool.t }

type 'n t = {
  locals : 'n local array;
      (* one per slot under [Depth], none otherwise: best-first and
         Ordered orders are global, and per-worker pools would split
         them *)
  mutex : Mutex.t;  (* guards [pool] *)
  nonempty : Condition.t;  (* the block/wake point of [take] *)
  pool : 'n entry Workpool.t;
  queued : int Atomic.t;
      (* total across both tiers; the O(1) basis of every hunger
         probe and of [shed_half]'s quota, so none of them has to sum
         the pools *)
  waiting : int Atomic.t;
  rngs : Splitmix.gen array;
      (* per-slot victim-selection streams; [rngs.(i)] is touched only
         by slot [i]'s domain *)
}

let create ~policy ~slots () =
  let n = if policy = Workpool.Depth then slots else 0 in
  {
    locals =
      Array.init n (fun _ ->
          { lock = Mutex.create (); tasks = Workpool.create ~policy () });
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

let locked f l =
  Mutex.lock l.lock;
  let r = f l.tasks in
  Mutex.unlock l.lock;
  r

let locals_nonempty t =
  Array.exists (fun l -> locked Workpool.size l > 0) t.locals

let enqueue t ~slot ~recorder:_ ~priority task =
  Atomic.incr t.queued;
  if slot < 0 || slot >= Array.length t.locals then
    (* No owner (wire arrivals, the communicator) or a global order:
       the overflow tier is the destination. *)
    pool_push t ~src:slot ~priority task
  else begin
    let l = t.locals.(slot) in
    Mutex.lock l.lock;
    Workpool.push l.tasks ~depth:task.Task_pool.depth task;
    Mutex.unlock l.lock;
    (* Own-pool pushes skip the sleep lock, so sleepers are woken
       explicitly; they re-probe every pool under its lock after
       raising [waiting] (see [take]), which makes push-then-check-
       waiting here race-free. *)
    if Atomic.get t.waiting > 0 then begin
      Mutex.lock t.mutex;
      Condition.signal t.nonempty;
      Mutex.unlock t.mutex
    end
  end

let take t ~slot ~recorder ~stop ?steal_counters ?(drained = fun () -> false)
    ?on_idle () =
  let nslots = Array.length t.locals in
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
  (* One randomised full circle over the sibling pools. *)
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
            match locked Workpool.pop_steal t.locals.(v) with
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
      (* Under a global order there are no own pools, so the sweep
         finds none either: straight from the attempt mark to the
         overflow tier. *)
      match
        if nslots = 0 then None
        else locked Workpool.pop_local t.locals.(slot)
      with
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
           handed back our own push after a wait is just latency. *)
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
          (* Lost-wakeup guard for the own pools: their pushers
             publish the task under the pool's lock first and only
             signal when they observe [waiting > 0]. Re-probing each
             pool under its lock *after* raising [waiting] therefore
             covers the race — a push this probe missed takes that
             lock after us, so it must read the raised counter and will
             signal (blocking on our mutex until [Condition.wait]
             releases it). *)
          if locals_nonempty t then begin
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
            wait ()
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
  (* Then the own pools' shallowest, oldest entries, one per pool per
     round, until the quota is met or [n] pools in a row are dry. *)
  let n = Array.length t.locals in
  let rec from_locals k i dry acc =
    if k = 0 || dry = n then acc
    else
      match locked Workpool.pop_steal t.locals.(i) with
      | Some tk -> from_locals (k - 1) ((i + 1) mod n) 0 (tk :: acc)
      | None -> from_locals k ((i + 1) mod n) (dry + 1) acc
  in
  Mutex.lock t.mutex;
  let k, acc = from_pool ((Atomic.get t.queued + 1) / 2) [] in
  Mutex.unlock t.mutex;
  let shed = List.rev (from_locals k 0 0 acc) in
  ignore (Atomic.fetch_and_add t.queued (-List.length shed));
  shed
