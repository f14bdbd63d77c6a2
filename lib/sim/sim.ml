module Heap = Yewpar_util.Heap
module Deque = Yewpar_util.Deque
module Splitmix = Yewpar_util.Splitmix
module Engine = Yewpar_core.Engine
module Workpool = Yewpar_core.Workpool
module Knowledge = Yewpar_core.Knowledge
module Ops = Yewpar_core.Ops
module Ordered_core = Yewpar_core.Ordered_core
module Coordination = Yewpar_core.Coordination
module Problem = Yewpar_core.Problem
module Telemetry = Yewpar_telemetry.Telemetry
module Journal = Yewpar_telemetry.Journal

type 'n task = { node : 'n; depth : int }

type 'n event =
  | Tick of int  (** Worker advances its current engine / looks for work. *)
  | Deliver of { worker : int; tasks : 'n task list }
      (** Stolen work (or a failed-steal notice, when [tasks = []])
          arriving at a thief. *)
  | Steal_request of { thief : int; victim : int }
      (** Stack-stealing request reaching its victim. *)
  | Bound_arrive of { locality : int; node : 'n; value : int }
      (** A broadcast incumbent reaching a locality. *)

type ('s, 'n) worker = {
  id : int;
  loc : int;
  view : 'n Ops.view;
  mutable engine : ('s, 'n) Engine.t option;
  mutable last_bt : int;  (* backtracks already accounted by Budget *)
  stash : 'n task Deque.t;  (* chunk remainder from a chunked steal *)
  steal_queue : int Deque.t;  (* thieves awaiting a split from us *)
  mutable scheduled : bool;  (* a Tick for us is in the event queue *)
  mutable executing : bool;  (* inside start_task (no engine yet), so not idle *)
  mutable waiting : bool;  (* an in-flight steal will Deliver to us *)
  mutable backoff : float;  (* current steal retry backoff *)
  mutable busy_time : float;
  rng : Splitmix.gen;  (* per-worker stream (Random_spawn) *)
}

let simulate (type s n r) ~costs ~seed ?trace ~(topology : Config.topology)
    ~coordination ~(harness : (n, r) Ops.harness) (p : (s, n, _) Problem.t) :
    r * Metrics.t =
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
  let stopped = ref false in
  let finish_time = ref 0. in
  let live_tasks = ref 0 in
  (* Metrics counters. *)
  let nodes = ref 0 and pruned_total = ref 0 and tasks_total = ref 0 in
  let tasks_per_locality = Array.make n_localities 0 in
  let steal_attempts = ref 0 and steal_successes = ref 0 in
  let bound_broadcasts = ref 0 in

  (* Knowledge: one authoritative store for the final result, one
     delayed copy per locality for pruning reads. Submissions update the
     submitter's locality and the authoritative store instantly, and
     reach other localities after the broadcast latency. *)
  let global_k : n Knowledge.t = Knowledge.make_ref () in
  let local_k : n Knowledge.t array = Array.init n_localities (fun _ -> Knowledge.make_ref ()) in
  let worker_knowledge loc : n Knowledge.t =
    {
      Knowledge.best_obj = (fun () -> (local_k.(loc)).Knowledge.best_obj ());
      best_node = (fun () -> (local_k.(loc)).Knowledge.best_node ());
      submit =
        (fun node value ->
          let improved = (local_k.(loc)).Knowledge.submit node value in
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
        let loc = id / per_loc in
        {
          id;
          loc;
          view = harness.Ops.view (worker_knowledge loc);
          engine = None;
          last_bt = 0;
          stash = Deque.create ();
          steal_queue = Deque.create ();
          scheduled = false;
          executing = false;
          waiting = false;
          backoff = costs.Config.steal_local_latency;
          busy_time = 0.;
          rng = Splitmix.of_seed ((seed * 7919) + id);
        })
  in
  let pool_policy =
    match coordination with
    | Coordination.Best_first _ -> Workpool.Priority
    | _ -> if costs.Config.fifo_pool then Workpool.Fifo else Workpool.Depth
  in
  let pools : n task Workpool.t array =
    Array.init n_localities (fun _ -> Workpool.create ~policy:pool_policy ())
  in

  let is_stack_stealing =
    match coordination with Coordination.Stack_stealing _ -> true | _ -> false
  in


  let schedule_tick w t =
    if not w.scheduled then begin
      w.scheduled <- true;
      Heap.add events t (Tick w.id)
    end
  in

  let is_sleeping w =
    w.engine = None && (not w.scheduled) && (not w.waiting) && (not w.executing)
    && Deque.is_empty w.stash
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

  let task_created () =
    incr live_tasks;
    incr tasks_total
  in
  (* [at] is the virtual completion time: synchronous task chains run
     ahead of the event clock, so it can exceed [!now]. *)
  let task_finished at =
    decr live_tasks;
    if at > !finish_time then finish_time := at
  in

  let task_priority : n -> int =
    match coordination with
    | Coordination.Best_first _ -> (workers.(0)).view.Ops.priority
    | _ -> fun _ -> 0
  in
  let push_task loc task =
    task_created ();
    Workpool.push pools.(loc) ~depth:task.depth ~priority:(task_priority task.node)
      task;
    wake_one_for_pool loc
  in

  let stop_search at =
    stopped := true;
    if at > !finish_time then finish_time := at
  in

  (* Apply the worker's pruning predicate to a freshly split chunk, with
     the same sibling-cut semantics the engine applies: spawning tasks
     that a bound check can already kill would flood the system with
     dead work (and, under a monotone generator, all later siblings of a
     failing node die with it). *)
  let filter_chunk w cs =
    let rec go acc = function
      | [] -> List.rev acc
      | c :: rest ->
        if w.view.Ops.keep c then go (c :: acc) rest
        else begin
          incr pruned_total;
          if w.view.Ops.prune_siblings then List.rev acc else go acc rest
        end
    in
    go [] cs
  in

  (* Budget: shed all lowest-depth subtrees into the local pool. Returns
     the virtual cost of the spawning. *)
  let shed_budget w e =
    let cs, depth = Engine.split_lowest e in
    let cs = filter_chunk w cs in
    List.iter (fun c -> push_task w.loc { node = c; depth }) cs;
    w.last_bt <- Engine.backtracks e;
    float_of_int (List.length cs) *. costs.Config.spawn_cost
  in

  (* Stack-stealing: serve queued thieves by splitting our engine.
     Returns the virtual cost incurred by the victim. *)
  let serve_steals w e =
    let chunked =
      match coordination with
      | Coordination.Stack_stealing { chunked } -> chunked
      | _ -> false
    in
    let cost = ref 0. in
    let rec go () =
      match Deque.pop_front w.steal_queue with
      | None -> ()
      | Some thief_id ->
        let thief = workers.(thief_id) in
        let split =
          if chunked then
            let cs, depth = Engine.split_lowest e in
            List.map (fun c -> { node = c; depth }) (filter_chunk w cs)
          else
            (* Split single nodes until one survives the bound check. *)
            let rec first_live () =
              match Engine.split_one e with
              | None -> []
              | Some (c, depth) ->
                if w.view.Ops.keep c then [ { node = c; depth } ]
                else begin
                  incr pruned_total;
                  first_live ()
                end
            in
            first_live ()
        in
        List.iter (fun _ -> task_created ()) split;
        if split <> [] then incr steal_successes;
        cost := !cost +. (float_of_int (List.length split) *. costs.Config.spawn_cost);
        let latency =
          if thief.loc = w.loc then costs.Config.steal_local_latency
          else costs.Config.steal_remote_latency
        in
        Heap.add events (!now +. latency) (Deliver { worker = thief_id; tasks = split });
        go ()
    in
    go ();
    !cost
  in

  (* Forward declarations for the mutually recursive worker actions. *)
  let rec start_task w task at =
    tasks_per_locality.(w.loc) <- tasks_per_locality.(w.loc) + 1;
    w.executing <- true;
    start_task_inner w task at;
    w.executing <- false

  and start_task_inner w task at =
    (* Re-check the bound: the task may have been spawned before a
       better incumbent arrived. *)
    if not (w.view.Ops.keep task.node) then begin
      incr pruned_total;
      task_finished at;
      schedule_tick w at
    end
    else begin
      incr nodes;
      let proceed = w.view.Ops.process task.node in
      if not proceed then begin
        task_finished (at +. costs.Config.node_cost);
        stop_search (at +. costs.Config.node_cost)
      end
      else begin
        match coordination with
        | ( Coordination.Depth_bounded { dcutoff }
          | Coordination.Best_first { dcutoff }
          | Coordination.Ordered { dcutoff } )
          when task.depth < dcutoff ->
          (* Above the cutoff every child becomes a task (spawn-depth);
             a failed bound check under a monotone generator cuts the
             remaining siblings exactly as the engine would. *)
          let cost = ref costs.Config.node_cost in
          let rec spawn_children seq =
            match Seq.uncons seq with
            | None -> ()
            | Some (c, rest) ->
              cost := !cost +. costs.Config.node_cost;
              if w.view.Ops.keep c then begin
                push_task w.loc { node = c; depth = task.depth + 1 };
                cost := !cost +. costs.Config.spawn_cost;
                spawn_children rest
              end
              else begin
                incr pruned_total;
                if not w.view.Ops.prune_siblings then spawn_children rest
              end
          in
          spawn_children (p.Problem.children p.Problem.space task.node);
          w.busy_time <- w.busy_time +. !cost;
          record ~worker:w.id ~start:at ~duration:!cost ~label:"spawn-depth";
          task_finished (at +. !cost);
          (* Continue (next task or steal) via an event at the virtual
             completion time — synchronous continuation would let this
             worker run ahead of the event clock and overlap itself. *)
          schedule_tick w (at +. !cost)
        | Coordination.Sequential | Coordination.Depth_bounded _
        | Coordination.Stack_stealing _ | Coordination.Budget _
        | Coordination.Best_first _ | Coordination.Random_spawn _
        | Coordination.Ordered _ ->
          let e =
            Engine.make ~space:p.Problem.space ~children:p.Problem.children
              ~root_depth:task.depth task.node
          in
          w.engine <- Some e;
          w.last_bt <- 0;
          w.backoff <- costs.Config.steal_local_latency;
          w.busy_time <- w.busy_time +. costs.Config.node_cost;
          record ~worker:w.id ~start:at ~duration:costs.Config.node_cost
            ~label:"task-root";
          if is_stack_stealing then wake_all_sleepers ();
          schedule_tick w (at +. costs.Config.node_cost)
      end
    end

  and try_next w at =
    match Deque.pop_front w.stash with
    | Some t -> start_task w t at
    | None -> acquire w at

  and acquire w at =
    match coordination with
    | Coordination.Sequential -> () (* only the root task ever exists *)
    | Coordination.Depth_bounded _ | Coordination.Budget _
    | Coordination.Best_first _ | Coordination.Random_spawn _
    | Coordination.Ordered _ -> (
      match Workpool.pop_local pools.(w.loc) with
      | Some t ->
        w.busy_time <- w.busy_time +. costs.Config.task_overhead;
        record ~worker:w.id ~start:at ~duration:costs.Config.task_overhead
          ~label:"pool-pop";
        start_task w t (at +. costs.Config.task_overhead)
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
          incr steal_attempts;
          (match Workpool.pop_steal pools.(l) with
          | Some t ->
            incr steal_successes;
            w.waiting <- true;
            Heap.add events
              (at +. costs.Config.steal_remote_latency)
              (Deliver { worker = w.id; tasks = [ t ] })
          | None -> ())))
    | Coordination.Stack_stealing _ -> (
      (* Pick a random busy victim, preferring our own locality. *)
      let busy_in pred =
        let acc = ref [] in
        Array.iter (fun v -> if v.id <> w.id && v.engine <> None && pred v then acc := v :: !acc) workers;
        !acc
      in
      let local = busy_in (fun v -> v.loc = w.loc) in
      let victims = if local <> [] then local else busy_in (fun _ -> true) in
      match victims with
      | [] -> () (* sleep; woken when someone becomes busy *)
      | vs ->
        let v = List.nth vs (Splitmix.int rng (List.length vs)) in
        incr steal_attempts;
        w.waiting <- true;
        let latency =
          if v.loc = w.loc then costs.Config.steal_local_latency
          else costs.Config.steal_remote_latency
        in
        Heap.add events (at +. latency) (Steal_request { thief = w.id; victim = v.id }))
  in

  let run_batch w e =
    let cost = ref 0. in
    if is_stack_stealing then cost := !cost +. serve_steals w e;
    let budget =
      match coordination with Coordination.Budget { budget } -> Some budget | _ -> None
    in
    let finished = ref false in
    let steps = ref 0 in
    while (not !finished) && (not !stopped) && !steps < costs.Config.batch do
      incr steps;
      match
        Engine.step ~prune_rest:w.view.Ops.prune_siblings ~keep:w.view.Ops.keep e
      with
      | Engine.Enter ->
        incr nodes;
        cost := !cost +. costs.Config.node_cost;
        if not (w.view.Ops.process (Engine.current e)) then begin
          w.engine <- None;
          task_finished (!now +. !cost);
          stop_search (!now +. !cost)
        end
      | Engine.Pruned ->
        incr pruned_total;
        cost := !cost +. costs.Config.node_cost
      | Engine.Leave -> (
        match budget with
        | Some b when Engine.backtracks e - w.last_bt >= b ->
          cost := !cost +. shed_budget w e
        | _ -> (
          match coordination with
          | Coordination.Random_spawn { mean_interval }
            when Splitmix.int w.rng mean_interval = 0 -> (
            (* Shed the first surviving lowest-depth subtree. *)
            let rec shed_one () =
              match Engine.split_one e with
              | None -> ()
              | Some (c, depth) ->
                if w.view.Ops.keep c then begin
                  push_task w.loc { node = c; depth };
                  cost := !cost +. costs.Config.spawn_cost
                end
                else begin
                  incr pruned_total;
                  shed_one ()
                end
            in
            shed_one ())
          | _ -> ()))
      | Engine.Exhausted ->
        w.engine <- None;
        task_finished (!now +. !cost);
        finished := true
    done;
    w.busy_time <- w.busy_time +. !cost;
    record ~worker:w.id ~start:!now ~duration:!cost ~label:"engine";
    (* If the engine just died, fail any thieves still queued on us. *)
    if w.engine = None then begin
      let rec flush () =
        match Deque.pop_front w.steal_queue with
        | None -> ()
        | Some thief_id ->
          let thief = workers.(thief_id) in
          let latency =
            if thief.loc = w.loc then costs.Config.steal_local_latency
            else costs.Config.steal_remote_latency
          in
          Heap.add events (!now +. latency) (Deliver { worker = thief_id; tasks = [] });
          flush ()
      in
      flush ()
    end;
    if not !stopped then schedule_tick w (!now +. !cost)
  in

  let handle_event = function
    | Tick id ->
      let w = workers.(id) in
      w.scheduled <- false;
      (match w.engine with
      | Some e -> run_batch w e
      | None -> if not w.waiting then try_next w !now)
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
        List.iter (Deque.push_back w.stash) rest;
        w.busy_time <- w.busy_time +. costs.Config.task_overhead;
        record ~worker:w.id ~start:!now ~duration:costs.Config.task_overhead
          ~label:"deliver";
        start_task w t (!now +. costs.Config.task_overhead))
    | Steal_request { thief; victim } -> (
      let v = workers.(victim) in
      match v.engine with
      | Some _ -> Deque.push_back v.steal_queue thief
      | None ->
        (* Victim already finished: notify the thief of the failure. *)
        let t = workers.(thief) in
        let latency =
          if t.loc = v.loc then costs.Config.steal_local_latency
          else costs.Config.steal_remote_latency
        in
        Heap.add events (!now +. latency) (Deliver { worker = thief; tasks = [] }))
    | Bound_arrive { locality; node; value } ->
      ignore ((local_k.(locality)).Knowledge.submit node value : bool)
  in

  (* Boot: the root is a task handed to worker 0 (the paper's initial
     work pushing degenerates to this for a single root task). *)
  task_created ();
  start_task workers.(0) { node = p.Problem.root; depth = 0 } 0.;
  let rec main_loop () =
    if (not !stopped) && !live_tasks > 0 then
      match Heap.pop_min events with
      | None ->
        failwith "Sim.run: event queue drained with live tasks (scheduling bug)"
      | Some (t, ev) ->
        now := t;
        handle_event ev;
        main_loop ()
  in
  main_loop ();
  let total_work = Array.fold_left (fun acc w -> acc +. w.busy_time) 0. workers in
  let metrics =
    {
      Metrics.makespan = !finish_time;
      total_work;
      nodes = !nodes;
      pruned = !pruned_total;
      tasks = !tasks_total;
      steal_attempts = !steal_attempts;
      steal_successes = !steal_successes;
      bound_broadcasts = !bound_broadcasts;
      workers = n_workers;
      tasks_per_locality;
    }
  in
  (harness.Ops.result global_k, metrics)

let run (type s n r) ?(costs = Config.default) ?(seed = 42) ?trace ~topology
    ~coordination (p : (s, n, r) Problem.t) : r * Metrics.t =
  match (coordination, p.Problem.kind) with
  | Coordination.Ordered { dcutoff }, Problem.Optimise obj ->
    simulate ~costs ~seed ?trace ~topology ~coordination
      ~harness:(Ordered_core.harness obj)
      (Ordered_core.lift ~dcutoff obj p)
  | Coordination.Ordered _, (Problem.Enumerate _ | Problem.Decide _) ->
    invalid_arg "Sim.run: the ordered skeleton needs an optimisation problem"
  | _ ->
    simulate ~costs ~seed ?trace ~topology ~coordination
      ~harness:(Ops.harness p.Problem.kind) p

let virtual_sequential ?(costs = Config.default) p =
  let stats = Yewpar_core.Stats.create () in
  let r = Yewpar_core.Sequential.search ~stats p in
  let time =
    float_of_int (stats.Yewpar_core.Stats.nodes + stats.Yewpar_core.Stats.pruned)
    *. costs.Config.node_cost
  in
  (r, time)
