module Workpool = Yewpar_core.Workpool
module Coordination = Yewpar_core.Coordination
module Recorder = Yewpar_telemetry.Recorder

type 'n task = { tag : int; node : 'n; depth : int }

type episode = { mutable attempted : bool; mutable dry_since : float }

let new_episode () = { attempted = false; dry_since = 0. }

(* Provenance wrapper: [src] is the slot that pushed the entry (-1 for
   pushes with no worker identity — wire arrivals, the root seed), so
   [take] can tell a genuine steal from a worker being handed back its
   own spill. *)
type 'n entry = { src : int; tk : 'n task }

type 'n t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  tasks : 'n entry Workpool.t;
  size : int Atomic.t;
}

let create ~policy () =
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    tasks = Workpool.create ~policy ();
    size = Atomic.make 0;
  }

let policy_for = function
  | Coordination.Best_first _ -> Workpool.Priority
  | Coordination.Sequential | Coordination.Depth_bounded _
  | Coordination.Stack_stealing _ | Coordination.Budget _
  | Coordination.Random_spawn _ ->
    Workpool.Depth

let size t = Atomic.get t.size

let push t ?(src = -1) ~priority task =
  Mutex.lock t.mutex;
  Workpool.push t.tasks ~depth:task.depth ~priority { src; tk = task };
  Atomic.incr t.size;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let signal t =
  Mutex.lock t.mutex;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let broadcast t =
  Mutex.lock t.mutex;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex

type 'n acquired = Task of 'n task | Retry | Exhausted

let take t ~recorder ~stop ~waiting ?(slot = -1) ?episode ?steal_counters
    ?(more_work = fun () -> false) ?(drained = fun () -> false) ?on_idle () =
  let ep = match episode with Some e -> e | None -> new_episode () in
  Mutex.lock t.mutex;
  let rec wait () =
    if Atomic.get stop then Exhausted
    else
      match Workpool.pop_local t.tasks with
      | Some { src; tk } ->
        Atomic.decr t.size;
        (match steal_counters with
        | Some (c : Counters.t) when ep.attempted && src <> slot ->
          (* Only a task someone else pushed counts as stolen: being
             handed back our own spill after a wait is just latency. *)
          Atomic.incr c.Counters.steals;
          Recorder.span recorder Recorder.Steal ~span:tk.tag
            ~start:ep.dry_since ~value:0
        | Some _ | None -> ());
        Task tk
      | None ->
        (match steal_counters with
        | Some (c : Counters.t) when not ep.attempted ->
          ep.attempted <- true;
          ep.dry_since <- Recorder.now recorder;
          Atomic.incr c.Counters.steal_attempts
        | Some _ | None -> ());
        if drained () then Exhausted
        else begin
          Atomic.incr waiting;
          (* Lost-wakeup guard for the lock-free tier: deque pushers
             publish the task first and only signal when they observe
             [waiting > 0]. Re-probing the deques *after* raising
             [waiting] therefore covers the race — a push missed by
             this probe must read the raised counter and will signal
             (blocking on our mutex until [Condition.wait] releases
             it). *)
          if more_work () then begin
            Atomic.decr waiting;
            Retry
          end
          else begin
            let idle_from = Recorder.now recorder in
            let wall_from =
              match on_idle with Some _ -> Recorder.clock () | None -> 0.
            in
            Condition.wait t.nonempty t.mutex;
            Atomic.decr waiting;
            Recorder.span recorder Recorder.Idle ~span:0 ~start:idle_from
              ~value:0;
            (match on_idle with
            | Some f -> f (Recorder.clock () -. wall_from)
            | None -> ());
            if more_work () then Retry else wait ()
          end
        end
  in
  let outcome = wait () in
  Mutex.unlock t.mutex;
  outcome

let shed_half t =
  Mutex.lock t.mutex;
  let n = Workpool.size t.tasks in
  let to_shed = (n + 1) / 2 in
  let shed = ref [] in
  for _ = 1 to to_shed do
    match Workpool.pop_steal t.tasks with
    | Some { tk; _ } ->
      Atomic.decr t.size;
      shed := tk :: !shed
    | None -> ()
  done;
  Mutex.unlock t.mutex;
  List.rev !shed
