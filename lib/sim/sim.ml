module Heap = Yewpar_util.Heap
module Splitmix = Yewpar_util.Splitmix
module Workpool = Yewpar_core.Workpool
module Knowledge = Yewpar_core.Knowledge
module Ops = Yewpar_core.Ops
module Ordered_core = Yewpar_core.Ordered_core
module Coordination = Yewpar_core.Coordination
module Problem = Yewpar_core.Problem
module Stats = Yewpar_core.Stats
module Telemetry = Yewpar_telemetry.Telemetry
module Journal = Yewpar_telemetry.Journal
module Recorder = Yewpar_telemetry.Recorder
module Counters = Yewpar_runtime.Counters
module Task_pool = Yewpar_runtime.Task_pool
module Worker = Yewpar_runtime.Worker

type 'n event =
  | Tick of int  (** Worker advances its current task / looks for work. *)
  | Deliver of { worker : int; tasks : 'n Task_pool.task list }
      (** Stolen work (or a failed-steal notice, when [tasks = []])
          arriving at a thief. *)
  | Steal_request of { thief : int; victim : int }
      (** Stack-stealing request reaching its victim. *)
  | Bound_arrive of { locality : int; node : 'n; value : int }
      (** A broadcast incumbent reaching a locality. *)

(* A simulated worker's scheduling state. Its task lives in the worker
   core's slot of the same index. *)
type 'n worker = {
  id : int;
  loc : int;
  stash : 'n Task_pool.task Queue.t;  (* chunk remainder from a chunked steal *)
  steal_queue : int Queue.t;  (* thieves awaiting a split from us *)
  mutable serving : int;  (* the thief the split in progress goes to, or -1 *)
  mutable split : 'n Task_pool.task list;  (* that split so far, newest first *)
  mutable spawned : float;  (* spawn cost not yet charged to an interval *)
  mutable scheduled : bool;  (* a Tick for us is in the event queue *)
  mutable executing : bool;  (* inside a task start or batch, so not idle *)
  mutable waiting : bool;  (* an in-flight steal will Deliver to us *)
  mutable backoff : float;  (* current steal retry backoff *)
  mutable busy_time : float;
}

let simulate (type s n r) ~costs ~seed ?trace ?stats
    ~(topology : Config.topology) ~coordination ~(harness : (n, r) Ops.harness)
    (p : (s, n, _) Problem.t) : r * Metrics.t =
  let n_localities = topology.Config.localities in
  let per_loc = topology.Config.workers_per_locality in
  (* Each positive-duration busy interval becomes one journal event,
     named by what the worker was doing, at its virtual start time. *)
  let record ~worker ~start ~duration ~label =
    match trace with
    | Some tl when duration > 0. ->
      Telemetry.ingest tl ~locality:0 ~offset:0.
        [ Journal.event ~locality:(worker / per_loc) ~worker:(worker mod per_loc)
            ~t:start ~dur:duration ~ev:label ~span:0 () ]
    | _ -> ()
  in
  let n_workers = n_localities * per_loc in
  let rng = Splitmix.of_seed seed in
  let events : n event Heap.t = Heap.create () in
  let now = ref 0. in
  let stop = Atomic.make false in
  let finish_time = ref 0. in
  let live_tasks = ref 0 in
  let tasks_per_locality = Array.make n_localities 0 in
  let bound_broadcasts = ref 0 in

  (* Knowledge: one authoritative store for the final result, one
     delayed copy per locality for pruning reads. Submissions update the
     submitter's locality and the authoritative store instantly, and
     reach other localities after the broadcast latency. *)
  let global_k : n Knowledge.t = Knowledge.make_atomic () in
  let local_k : n Knowledge.t array =
    Array.init n_localities (fun _ -> Knowledge.make_atomic ())
  in
  let worker_knowledge loc : n Knowledge.t =
    let local = local_k.(loc) in
    {
      local with
      submit =
        (fun node value ->
          let improved = local.Knowledge.submit node value in
          ignore (global_k.Knowledge.submit node value);
          if improved then begin
            incr bound_broadcasts;
            for l = 0 to n_localities - 1 do
              if l <> loc then
                Heap.add events
                  (!now +. costs.Config.bound_broadcast_latency)
                  (Bound_arrive { locality = l; node; value })
            done
          end;
          improved);
    }
  in

  let workers =
    Array.init n_workers (fun id ->
        {
          id;
          loc = id / per_loc;
          stash = Queue.create ();
          steal_queue = Queue.create ();
          serving = -1;
          split = [];
          spawned = 0.;
          scheduled = false;
          executing = false;
          waiting = false;
          backoff = costs.Config.steal_local_latency;
          busy_time = 0.;
        })
  in
  let views =
    Array.init n_workers (fun id ->
        harness.Ops.view (worker_knowledge (id / per_loc)))
  in
  (* The coordination picks only the pool order (as on shm, with the
     FIFO ablation) and the steal protocol here (direct victim splits
     for Stack-Stealing, random remote pools otherwise); its spawning
     rules run in the worker core. *)
  let pool_policy =
    match Task_pool.policy_for coordination with
    | Workpool.Depth when costs.Config.fifo_pool -> Workpool.Fifo
    | policy -> policy
  in
  let pools : n Task_pool.task Workpool.t array =
    Array.init n_localities (fun _ -> Workpool.create ~policy:pool_policy ())
  in
  let stack_stealing =
    match coordination with Coordination.Stack_stealing _ -> true | _ -> false
  in

  let schedule_tick w t =
    if not w.scheduled then begin
      w.scheduled <- true;
      Heap.add events t (Tick w.id)
    end
  in

  (* A worker with a running task always has a Tick queued or is
     executing, so this needs no look at the task. *)
  let is_sleeping w =
    (not w.scheduled) && (not w.waiting) && (not w.executing)
    && Queue.is_empty w.stash
  in

  (* Wake one sleeping worker, preferring the given locality. *)
  let wake_one_for_pool loc =
    let wake w = schedule_tick w !now in
    let try_range first count =
      let rec go i =
        if i >= count then false
        else
          let w = workers.(first + i) in
          if is_sleeping w then begin
            wake w;
            true
          end
          else go (i + 1)
      in
      go 0
    in
    if not (try_range (loc * per_loc) per_loc) then
      ignore (try_range 0 n_workers : bool)
  in

  let wake_all_sleepers () =
    Array.iter (fun w -> if is_sleeping w then schedule_tick w !now) workers
  in

  let latency a b =
    if a.loc = b.loc then costs.Config.steal_local_latency
    else costs.Config.steal_remote_latency
  in
  (* The worker core's counters. Steals are booked on the thief's
     slot, as [Two_tier.take] books them on the real runtimes. *)
  let counters =
    Counters.create ~profiled:(stats <> None) ~progress:false ~slots:n_workers
      ()
  in
  let note_attempt thief =
    let st = counters.(thief).Counters.stats in
    st.Stats.steal_attempts <- st.Stats.steal_attempts + 1
  in
  let note_steal thief =
    let st = counters.(thief).Counters.stats in
    st.Stats.steals <- st.Stats.steals + 1
  in
  (* A thief's reply: stolen tasks, or a failure notice when empty. *)
  let reply ~victim thief tasks =
    Heap.add events
      (!now +. latency victim workers.(thief))
      (Deliver { worker = thief; tasks })
  in

  (* Stack-Stealing's split: the hunger probe hands the splits the
     core makes to the victim's oldest waiting thief until one holds a
     task, and those tasks travel together; the next probe, or the end
     of the batch, sends them. An empty split is a failure notice. *)
  let send_split w =
    if w.serving >= 0 then begin
      if w.split <> [] then note_steal w.serving;
      reply ~victim:w w.serving (List.rev w.split);
      w.serving <- -1;
      w.split <- []
    end
  in
  let should_shed ~slot =
    let w = workers.(slot) in
    if w.split <> [] then send_split w;
    if w.serving < 0 then
      Option.iter (fun thief -> w.serving <- thief) (Queue.take_opt w.steal_queue);
    w.serving >= 0
  in
  let task_priority = Worker.task_priority ~coordination views in
  let enqueue ~slot _ (task : n Task_pool.task) =
    let w = workers.(slot) in
    incr live_tasks;
    w.spawned <- w.spawned +. costs.Config.spawn_cost;
    if w.serving >= 0 then w.split <- task :: w.split
    else begin
      Workpool.push pools.(w.loc) ~depth:task.Task_pool.depth
        ~priority:(task_priority task.Task_pool.node) task;
      wake_one_for_pool w.loc
    end
  in
  let ctx =
    Worker.make_step_ctx ~space:p.Problem.space ~children:p.Problem.children
      ~coordination ~counters ~recorders:(Array.make n_workers Recorder.null)
      ~views ~enqueue ~should_shed ~stop ()
  in

  (* One busy interval from [start]; returns its end. *)
  let charge w ~start ~cost ~label =
    w.busy_time <- w.busy_time +. cost;
    record ~worker:w.id ~start ~duration:cost ~label;
    start +. cost
  in
  (* A task step's cost: [units] node costs plus the spawns it made. *)
  let step_cost w units =
    let cost = (float_of_int units *. costs.Config.node_cost) +. w.spawned in
    w.spawned <- 0.;
    cost
  in
  (* [at] is a virtual completion time: synchronous task chains run
     ahead of the event clock, so it can exceed [!now]. *)
  let finished_by at = if at > !finish_time then finish_time := at in
  let task_finished at =
    decr live_tasks;
    finished_by at
  in
  (* After a task step: stop the search at [at] if it raised the stop
     flag, else continue (next batch, next task or a steal) via an
     event at [at] — a synchronous continuation would let this worker
     run ahead of the event clock and overlap itself. *)
  let continue_at w at =
    if Atomic.get stop then finished_by at else schedule_tick w at
  in

  let rec start_task w task at =
    tasks_per_locality.(w.loc) <- tasks_per_locality.(w.loc) + 1;
    w.executing <- true;
    let units = Worker.start_task ctx ~slot:w.id task in
    let at =
      charge w ~start:at ~cost:(step_cost w units)
        ~label:(if units > 1 then "spawn-depth" else "task-root")
    in
    if Worker.running ctx ~slot:w.id then begin
      w.backoff <- costs.Config.steal_local_latency;
      (* A new victim: sleeping thieves retry. *)
      if stack_stealing then wake_all_sleepers ()
    end
    else task_finished at;
    w.executing <- false;
    continue_at w at

  and try_next w at =
    match Queue.take_opt w.stash with
    | Some t -> start_task w t at
    | None -> acquire w at

  and acquire w at =
    match Workpool.pop_local pools.(w.loc) with
    | Some t ->
      start_task w t
        (charge w ~start:at ~cost:costs.Config.task_overhead ~label:"pool-pop")
    | None when stack_stealing -> (
      (* Pick a random busy victim, preferring our own locality. *)
      let busy_in pred =
        let acc = ref [] in
        Array.iter
          (fun v ->
            if v.id <> w.id && Worker.running ctx ~slot:v.id && pred v then
              acc := v :: !acc)
          workers;
        !acc
      in
      let local = busy_in (fun v -> v.loc = w.loc) in
      let victims = if local <> [] then local else busy_in (fun _ -> true) in
      match victims with
      | [] -> () (* sleep; woken when someone becomes busy *)
      | vs ->
        let v = List.nth vs (Splitmix.int rng (List.length vs)) in
        note_attempt w.id;
        w.waiting <- true;
        Heap.add events (at +. latency v w)
          (Steal_request { thief = w.id; victim = v.id }))
    | None -> (
      (* Steal a (shallow, hence large) task from a random non-empty
         remote pool. *)
      let candidates = ref [] in
      for l = 0 to n_localities - 1 do
        if l <> w.loc && not (Workpool.is_empty pools.(l)) then
          candidates := l :: !candidates
      done;
      match !candidates with
      | [] -> () (* sleep; a push will wake us *)
      | ls ->
        let l = List.nth ls (Splitmix.int rng (List.length ls)) in
        note_attempt w.id;
        (match Workpool.pop_steal pools.(l) with
        | Some t ->
          note_steal w.id;
          w.waiting <- true;
          Heap.add events
            (at +. costs.Config.steal_remote_latency)
            (Deliver { worker = w.id; tasks = [ t ] })
        | None -> ()))
  in

  let run_batch w =
    w.executing <- true;
    let units = Worker.advance ctx ~slot:w.id ~steps:costs.Config.batch in
    w.executing <- false;
    send_split w;
    let at = charge w ~start:!now ~cost:(step_cost w units) ~label:"engine" in
    if not (Worker.running ctx ~slot:w.id) then begin
      task_finished at;
      (* Fail any thieves still queued on the finished task. *)
      let rec flush () =
        match Queue.take_opt w.steal_queue with
        | None -> ()
        | Some thief ->
          reply ~victim:w thief [];
          flush ()
      in
      flush ()
    end;
    continue_at w at
  in

  let handle_event = function
    | Tick id ->
      let w = workers.(id) in
      w.scheduled <- false;
      if Worker.running ctx ~slot:id then run_batch w
      else if not w.waiting then try_next w !now
    | Deliver { worker; tasks } -> (
      let w = workers.(worker) in
      w.waiting <- false;
      match tasks with
      | [] ->
        (* Failed steal: retry (a different random victim) with a
           lightly capped exponential backoff — idle workers poll
           aggressively, as HPX worker threads do. *)
        w.backoff <- Float.min (w.backoff *. 1.5) (4. *. costs.Config.steal_remote_latency);
        schedule_tick w (!now +. w.backoff)
      | t :: rest ->
        w.backoff <- costs.Config.steal_local_latency;
        List.iter (fun t -> Queue.push t w.stash) rest;
        start_task w t
          (charge w ~start:!now ~cost:costs.Config.task_overhead
             ~label:"deliver"))
    | Steal_request { thief; victim } ->
      let v = workers.(victim) in
      if Worker.running ctx ~slot:victim then Queue.push thief v.steal_queue
      else (* Victim already finished: notify the thief of the failure. *)
        reply ~victim:v thief []
    | Bound_arrive { locality; node; value } ->
      ignore ((local_k.(locality)).Knowledge.submit node value : bool)
  in

  (* Boot: worker 0 starts the root task at time 0 (the paper's initial
     work pushing degenerates to this for a single root task). The
     root's spawn is booked on slot 0, as [Worker.spawn] books it on
     the real runtimes, but it is never queued, so it costs no time. *)
  Counters.note_spawn counters ~slot:0 0;
  incr live_tasks;
  start_task workers.(0) { Task_pool.tag = 0; node = p.Problem.root; depth = 0 } 0.;
  let rec main_loop () =
    if (not (Atomic.get stop)) && !live_tasks > 0 then
      match Heap.pop_min events with
      | None ->
        failwith "Sim.run: event queue drained with live tasks (scheduling bug)"
      | Some (t, ev) ->
        now := t;
        handle_event ev;
        main_loop ()
  in
  main_loop ();
  (* A short-circuited search ends every task still running, so its
     engine's counts reach the counters, as the workers of a real
     runtime do on seeing the stop flag. *)
  Array.iter (fun w -> ignore (Worker.advance ctx ~slot:w.id ~steps:0 : int)) workers;
  let total_work = Array.fold_left (fun acc w -> acc +. w.busy_time) 0. workers in
  let metrics =
    {
      Metrics.makespan = !finish_time;
      total_work;
      nodes = Counters.total counters (fun s -> s.Stats.nodes);
      pruned = Counters.total counters (fun s -> s.Stats.pruned);
      tasks = Counters.total counters (fun s -> s.Stats.tasks);
      steal_attempts = Counters.total counters (fun s -> s.Stats.steal_attempts);
      steal_successes = Counters.total counters (fun s -> s.Stats.steals);
      bound_broadcasts = !bound_broadcasts;
      workers = n_workers;
      tasks_per_locality;
    }
  in
  Option.iter (Counters.fold_into counters) stats;
  (harness.Ops.result global_k, metrics)

let run (type s n r) ?(costs = Config.default) ?(seed = 42) ?trace ?stats
    ~topology ~coordination (p : (s, n, r) Problem.t) : r * Metrics.t =
  match (coordination, p.Problem.kind) with
  | Coordination.Ordered { dcutoff }, Problem.Optimise obj ->
    simulate ~costs ~seed ?trace ?stats ~topology ~coordination
      ~harness:(Ordered_core.harness obj)
      (Ordered_core.lift ~dcutoff obj p)
  | Coordination.Ordered _, (Problem.Enumerate _ | Problem.Decide _) ->
    invalid_arg "Sim.run: the ordered skeleton needs an optimisation problem"
  | _ ->
    simulate ~costs ~seed ?trace ?stats ~topology ~coordination
      ~harness:(Ops.harness p.Problem.kind) p

let virtual_sequential ?(costs = Config.default) p =
  let stats = Stats.create () in
  let r = Yewpar_core.Sequential.search ~stats p in
  let time =
    float_of_int (stats.Stats.nodes + stats.Stats.pruned)
    *. costs.Config.node_cost
  in
  (r, time)
