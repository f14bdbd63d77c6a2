module Workpool = Yewpar_core.Workpool
module Stats = Yewpar_core.Stats
module Recorder = Yewpar_telemetry.Recorder
module Splitmix = Yewpar_util.Splitmix

type 'n t = {
  deques : 'n Task_pool.task Deque.t array;
  pool : 'n Task_pool.t;
  queued : int Atomic.t;
      (* total across both tiers; the O(1) basis of every hunger and
         spill probe, so none of them has to sum the deques *)
  waiting : int Atomic.t;
  fast : bool;
      (* only a [Depth] pool has deques in front of it: best-first and
         Ordered orders are global, and a per-worker LIFO would
         reorder them *)
  rngs : Splitmix.gen array;
      (* per-slot victim-selection streams; [rngs.(i)] is touched only
         by slot [i]'s domain *)
}

let create ~policy ?(deque_capacity = 256) ~slots () =
  {
    deques =
      Array.init slots (fun _ -> Deque.create ~capacity:deque_capacity ());
    pool = Task_pool.create ~policy ();
    queued = Atomic.make 0;
    waiting = Atomic.make 0;
    fast = policy = Workpool.Depth;
    rngs = Array.init slots (fun i -> Splitmix.of_seed (0x7ee5 + (i * 0x9e37)));
  }

let queued t = Atomic.get t.queued
let pool_size t = Task_pool.size t.pool
let idle_workers t = Atomic.get t.waiting
let hungry t = Atomic.get t.waiting > 0 && Atomic.get t.queued = 0
let broadcast t = Task_pool.broadcast t.pool

let deques_nonempty t =
  let n = Array.length t.deques in
  let rec go i = i < n && ((not (Deque.is_empty t.deques.(i))) || go (i + 1)) in
  go 0

let enqueue t ~slot ~recorder:_ ~priority task =
  Atomic.incr t.queued;
  if (not t.fast) || slot < 0 || slot >= Array.length t.deques then
    (* No owner deque (wire arrivals, the communicator) or a global
       order: the ordered tier is the destination. *)
    Task_pool.push t.pool ~src:slot ~priority task
  else begin
    let dq = t.deques.(slot) in
    if not (Deque.push dq task) then begin
      (* Deque full: migrate the shallowest half (the oldest, biggest
         subtrees — taken off our own top) to the ordered tier, which
         is where low-depth work belongs anyway, then retry. Only the
         owner pushes, so after shedding half the retry cannot fail;
         the fallback guards a sweep raced completely dry. *)
      let half = Deque.capacity dq / 2 in
      let moved = ref 0 in
      let dry = ref false in
      while (not !dry) && !moved < half do
        match Deque.steal dq with
        | Some tk ->
          incr moved;
          Task_pool.push t.pool ~src:slot ~priority:0 tk
        | None -> dry := true
      done;
      if not (Deque.push dq task) then
        Task_pool.push t.pool ~src:slot ~priority task
    end;
    (* Deque pushes bypass the pool lock, so sleepers are woken
       explicitly; they re-probe the deques after raising [waiting]
       (see {!Task_pool.take}), which makes push-then-check-waiting
       here race-free under OCaml's SC atomics. *)
    if Atomic.get t.waiting > 0 then Task_pool.signal t.pool
  end

let take t ~slot ~recorder ~stop ?steal_counters ?(drained = fun () -> false)
    ?on_idle () =
  let ep = Task_pool.new_episode () in
  let nslots = Array.length t.deques in
  let mark_attempt () =
    match steal_counters with
    | Some (c : Counters.t) when not ep.Task_pool.attempted ->
      ep.Task_pool.attempted <- true;
      ep.Task_pool.dry_since <- Recorder.now recorder;
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
        ~start:ep.Task_pool.dry_since ~value:0
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
      match Deque.pop t.deques.(slot) with
      | Some tk -> got tk
      | None -> (
        mark_attempt ();
        match steal_sweep () with
        | Some tk ->
          count_steal tk;
          got tk
        | None -> (
          match
            Task_pool.take t.pool ~recorder ~stop ~waiting:t.waiting ~slot
              ~episode:ep ?steal_counters
              ~more_work:(fun () -> deques_nonempty t)
              ~drained ?on_idle ()
          with
          | Task_pool.Task tk -> got tk
          | Task_pool.Retry -> loop ()
          | Task_pool.Exhausted -> None))
  in
  loop ()

let shed_half t =
  let shed = Task_pool.shed_half t.pool in
  (match shed with
  | [] -> ()
  | l -> ignore (Atomic.fetch_and_add t.queued (-List.length l)));
  shed
