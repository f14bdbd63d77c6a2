module Recorder = Yewpar_telemetry.Recorder
module Telemetry = Yewpar_telemetry.Telemetry
module Journal = Yewpar_telemetry.Journal
module Metrics = Yewpar_telemetry.Metrics
module Http_export = Yewpar_telemetry.Http_export
module Progress = Yewpar_telemetry.Progress
module Knowledge = Yewpar_core.Knowledge
module Ops = Yewpar_core.Ops
module Coordination = Yewpar_core.Coordination
module Problem = Yewpar_core.Problem
module Ordered_core = Yewpar_core.Ordered_core
module Counters = Yewpar_runtime.Counters
module Task_pool = Yewpar_runtime.Task_pool
module Two_tier = Yewpar_runtime.Two_tier
module Worker = Yewpar_runtime.Worker

(* Recording around a run: the worker rings are drained — every 50 ms
   by a background thread when a journal is being written, so file I/O
   stays off the worker domains, and once more after [f] returns — and
   each drained batch goes to the journal and the trace sink alike. The
   journal is framed by [job_start] and, after the ring-drop count and a
   final progress sample, [job_done]; a progress sample is also written
   about every second. *)
let recording ~telemetry ~journal =
  Option.is_some telemetry || Option.is_some journal

let recorded ?telemetry ?journal ~recorders ?sample f =
  if not (recording ~telemetry ~journal) then f ()
  else begin
    let emit = function
      | [] -> ()
      | evs ->
        Option.iter (fun w -> Journal.write w evs) journal;
        Option.iter
          (fun tl -> Telemetry.ingest tl ~locality:0 ~offset:0. evs)
          telemetry
    in
    let drain () =
      emit
        (List.concat_map
           (fun r -> Recorder.drain ~locality:0 r)
           (Array.to_list recorders))
    in
    let started = Unix.gettimeofday () in
    let stop_flush = Atomic.make false in
    let flusher =
      Option.map
        (fun w ->
          Journal.write w
            [ Journal.event ~locality:0 ~t:started ~ev:"job_start" ~span:0 () ];
          Thread.create
            (fun () ->
              let tick = ref 0 in
              while not (Atomic.get stop_flush) do
                drain ();
                incr tick;
                (match sample with
                | Some s when !tick mod 20 = 0 -> Journal.write w [ s ~final:false ]
                | _ -> ());
                Unix.sleepf 0.05
              done)
            ())
        journal
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop_flush true;
        Option.iter Thread.join flusher;
        drain ();
        let t = Unix.gettimeofday () in
        let lost = Array.fold_left (fun a r -> a + Recorder.dropped r) 0 recorders in
        if lost > 0 then
          emit
            [ Journal.event ~locality:0 ~t ~value:lost ~ev:"journal_drop" ~span:0 () ];
        Option.iter
          (fun w ->
            Journal.write w
              ((match sample with Some s -> [ s ~final:true ] | None -> [])
              @ [
                  Journal.event ~locality:0 ~t ~dur:(t -. started)
                    ~ev:"job_done" ~span:0 ();
                ]))
          journal)
      f
  end

let parallel_run (type s n r) ~n_workers ?stats ?telemetry ?journal
    ?monitor_port ?on_monitor ?(progress = true) ~coordination
    ~(harness : (n, r) Ops.harness) (p : (s, n, _) Problem.t) : r =
  (* The shared counter bundle; folded into [stats] after the join. *)
  let counters =
    Counters.create ~profiled:(stats <> None) ~progress ~slots:n_workers ()
  in
  (* One tracker fuses the per-slot estimator columns for every live
     surface (monitor scrapes, journal samples); both callers are cold
     paths on their own threads, hence the mutex. *)
  let tracker = Progress.create () in
  let tracker_mu = Mutex.create () in
  let progress_report ?final () =
    Mutex.protect tracker_mu (fun () ->
        Progress.update tracker ?final ~now:(Unix.gettimeofday ())
          (Counters.progress_sample counters))
  in
  (* One event ring per worker domain (all preallocated here, before
     any domain spawns); [Recorder.null] turns every recording site into
     a single branch when recording is off. *)
  let recorders =
    if recording ~telemetry ~journal then
      Array.init n_workers (fun i -> Recorder.create ~worker:i ())
    else Array.make n_workers Recorder.null
  in
  let tiers =
    Two_tier.create
      ~policy:(Task_pool.policy_for coordination)
      ~slots:n_workers ()
  in
  let outstanding = Atomic.make 0 in
  let stop = Atomic.make false in
  (* There is no coordinator here, so when recording the runtime
     allocates its own span ids: every enqueued task gets a fresh span
     whose parent is the spawning task's span (the root task's parent
     is span 0, the job). *)
  let span_ctr = Atomic.make 1 in
  let knowledge = Knowledge.make_atomic () in
  (* Views are created in the main domain (the enumeration harness is
     not thread-safe at view-creation time), one per worker. Each view
     submits through a wrapper that accounts applied incumbent
     improvements; reads go straight to the shared store. *)
  let views =
    Array.init n_workers (fun i ->
        let submit =
          Counters.accounted_submit counters ~slot:i ~recorder:recorders.(i)
            knowledge.Knowledge.submit
        in
        harness.Ops.view { knowledge with Knowledge.submit })
  in
  let task_priority = Worker.task_priority ~coordination views in
  (* The in-process scheduler: each worker owns a lock-free Tier-1
     deque and the shared ordered pool is the overflow tier; a task
     obtained from a sibling's deque or another slot's pool push is a
     steal. Termination is the classic outstanding-task count hitting
     zero. *)
  let scheduler =
    {
      Worker.enqueue =
        (fun ~slot r task ->
          Atomic.incr outstanding;
          let task =
            if not (Recorder.enabled r) then task
            else begin
              (* Reallocate the tag as this task's span; the tag it was
                 spawned with is the spawning task's span, i.e. the
                 causal parent (0 for the root task: the job span). *)
              let id = Atomic.fetch_and_add span_ctr 1 in
              Recorder.record r Recorder.Spawn ~span:id
                ~parent:task.Task_pool.tag ~start:(Recorder.now r) ~dur:0.
                ~value:task.Task_pool.depth;
              { task with Task_pool.tag = id }
            end
          in
          Two_tier.enqueue tiers ~slot ~recorder:r
            ~priority:(task_priority task.Task_pool.node)
            task);
      take =
        (fun ~slot ->
          Two_tier.take tiers ~slot ~recorder:recorders.(slot) ~stop
            ~steal_counters:counters
            ~drained:(fun () -> Atomic.get outstanding = 0)
            ());
      finish =
        (fun () ->
          if Atomic.fetch_and_add outstanding (-1) = 1 then
            Two_tier.broadcast tiers);
      should_shed = (fun () -> Two_tier.hungry tiers);
      begin_task = (fun ~slot:_ _ -> ());
      end_task = (fun ~slot:_ -> ());
    }
  in
  let ctx =
    Worker.make_ctx ~space:p.Problem.space ~children:p.Problem.children
      ~coordination ~counters ~recorders ~views ~scheduler ~tiers ~stop ()
  in

  (* Live monitoring: the /metrics gauges are computed from the shared
     atomics on each scrape, so the handler (which runs on the server's
     domain, concurrently with the workers) only ever does word-sized
     reads — a snapshot can be slightly stale but never torn. *)
  let all_dropped () =
    Array.fold_left (fun a r -> a + Recorder.dropped r) 0 recorders
  in
  let monitor =
    match monitor_port with
    | None -> None
    | Some port ->
      let started = Unix.gettimeofday () in
      let registry = Metrics.create () in
      let g name help = Metrics.gauge registry ~help ("yewpar_live_" ^ name) in
      let g_workers = g "workers" "Worker domains in this run" in
      let g_nodes = g "nodes" "Nodes processed so far" in
      let g_pruned = g "pruned" "Subtrees pruned so far" in
      let g_tasks = g "tasks" "Tasks spawned so far" in
      let g_done = g "tasks_done" "Tasks finished so far" in
      let g_pool = g "pool_depth" "Tasks currently queued (both tiers)" in
      let g_outstanding =
        g "active_tasks" "Tasks queued or executing (termination detector)"
      in
      let g_idle = g "idle_workers" "Workers blocked waiting for work" in
      let g_steals = g "steals" "Successful steals so far" in
      let g_attempts = g "steal_attempts" "Steal attempts so far" in
      let g_bounds = g "bound_updates" "Incumbent improvements applied" in
      let g_dropped =
        g "trace_dropped" "Trace spans dropped by full ring buffers"
      in
      let g_uptime = g "uptime_seconds" "Seconds since the search started" in
      let refresh () =
        if progress then
          Progress.export_gauges (progress_report ()) ~registry
            ~prefix:"yewpar_progress_";
        Metrics.set g_workers (float_of_int n_workers);
        Metrics.set g_nodes (float_of_int (Atomic.get counters.Counters.nodes));
        Metrics.set g_pruned (float_of_int (Atomic.get counters.Counters.pruned));
        Metrics.set g_tasks (float_of_int (Atomic.get counters.Counters.tasks));
        Metrics.set g_done
          (float_of_int (Atomic.get counters.Counters.tasks_done));
        Metrics.set g_pool (float_of_int (Two_tier.queued tiers));
        Metrics.set g_outstanding (float_of_int (Atomic.get outstanding));
        Metrics.set g_idle (float_of_int (Two_tier.idle_workers tiers));
        Metrics.set g_steals (float_of_int (Atomic.get counters.Counters.steals));
        Metrics.set g_attempts
          (float_of_int (Atomic.get counters.Counters.steal_attempts));
        Metrics.set g_bounds
          (float_of_int (Atomic.get counters.Counters.bound_updates));
        Metrics.set g_dropped (float_of_int (all_dropped ()));
        Metrics.set g_uptime (Unix.gettimeofday () -. started)
      in
      let status_json () =
        let progress_block =
          if progress then
            Printf.sprintf ",\"progress\":{%s}"
              (Progress.json_fields (progress_report ()))
          else ""
        in
        Printf.sprintf
          "{\"schema_version\":1,\"runtime\":\"shm\",\"uptime\":%.3f,\
           \"workers\":%d,\"nodes\":%d,\"pruned\":%d,\"tasks\":%d,\
           \"tasks_done\":%d,\"pool_depth\":%d,\"active_tasks\":%d,\
           \"idle_workers\":%d,\"steals\":%d,\"steal_attempts\":%d,\
           \"bound_updates\":%d,\"best\":%s,\"trace_dropped\":%d%s}"
          (Unix.gettimeofday () -. started)
          n_workers
          (Atomic.get counters.Counters.nodes)
          (Atomic.get counters.Counters.pruned)
          (Atomic.get counters.Counters.tasks)
          (Atomic.get counters.Counters.tasks_done)
          (Two_tier.queued tiers)
          (Atomic.get outstanding)
          (Two_tier.idle_workers tiers)
          (Atomic.get counters.Counters.steals)
          (Atomic.get counters.Counters.steal_attempts)
          (Atomic.get counters.Counters.bound_updates)
          (let b = knowledge.Knowledge.best_obj () in
           if b > min_int then string_of_int b else "null")
          (all_dropped ()) progress_block
      in
      let s =
        Http_export.start ~port
          ~routes:
            [
              ( "/metrics",
                fun () ->
                  refresh ();
                  ("text/plain; version=0.0.4", Metrics.to_prometheus registry)
              );
              ("/status", fun () -> ("application/json", status_json ()));
            ]
          ()
      in
      (match on_monitor with Some f -> f (Http_export.port s) | None -> ());
      Some s
  in

  (* Journalled estimator samples: value = rounded estimated total,
     the rest packed in the note so [analyze --journal] can plot
     estimate-vs-truth convergence after the run. *)
  let sample ~final =
    let r = progress_report ~final () in
    Journal.event ~locality:0 ~t:(Unix.gettimeofday ())
      ~value:(Progress.journal_value r) ~note:(Progress.journal_note r)
      ~ev:"progress_sample" ~span:0 ()
  in
  Fun.protect ~finally:(fun () -> Option.iter Http_export.stop monitor)
  @@ fun () ->
  let run () =
    Worker.spawn ctx ~slot:0
      { Task_pool.tag = 0; node = p.Problem.root; depth = 0 };
    let handle = Worker.start ctx ~workers:n_workers in
    match Worker.join handle with Some e -> raise e | None -> ()
  in
  recorded ?telemetry ?journal ~recorders
    ?sample:(if progress then Some sample else None)
    run;
  (match stats with
  | None -> ()
  | Some st -> Counters.fold_into counters ~dropped:(all_dropped ()) st);
  harness.Ops.result knowledge

let run (type s n r) ?workers ?stats ?telemetry ?journal ?monitor_port
    ?on_monitor ?progress ~coordination (p : (s, n, r) Problem.t) : r =
  let n_workers =
    match (workers, coordination) with
    | Some w, _ when w < 1 -> invalid_arg "Shm.run: workers must be >= 1"
    (* A Sequential task never spawns: one worker runs the whole search. *)
    | _, Coordination.Sequential -> 1
    | Some w, _ -> w
    | None, _ -> Domain.recommended_domain_count ()
  in
  let parallel ~harness q =
    parallel_run ~n_workers ?stats ?telemetry ?journal ?monitor_port
      ?on_monitor ?progress ~coordination ~harness q
  in
  match (coordination, p.Problem.kind) with
  | Coordination.Ordered { dcutoff }, Problem.Optimise obj ->
    parallel ~harness:(Ordered_core.harness obj) (Ordered_core.lift ~dcutoff obj p)
  | Coordination.Ordered _, (Problem.Enumerate _ | Problem.Decide _) ->
    invalid_arg "Shm.run: the ordered skeleton needs an optimisation problem"
  | _ -> parallel ~harness:(Ops.harness p.Problem.kind) p
