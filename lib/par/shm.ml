module Recorder = Yewpar_telemetry.Recorder
module Telemetry = Yewpar_telemetry.Telemetry
module Journal = Yewpar_telemetry.Journal
module Http_export = Yewpar_telemetry.Http_export
module Live = Yewpar_telemetry.Live
module Progress = Yewpar_telemetry.Progress
module Knowledge = Yewpar_core.Knowledge
module Stats = Yewpar_core.Stats
module Ops = Yewpar_core.Ops
module Coordination = Yewpar_core.Coordination
module Problem = Yewpar_core.Problem
module Ordered_core = Yewpar_core.Ordered_core
module Counters = Yewpar_runtime.Counters
module Task_pool = Yewpar_runtime.Task_pool
module Two_tier = Yewpar_runtime.Two_tier
module Worker = Yewpar_runtime.Worker

(* Recording around a run: the worker rings are drained — every 50 ms
   by a flusher when a journal is being written, so file I/O stays off
   the worker domains, and once more after [run] returns — and each
   drained batch goes to the journal and the trace sink alike. The
   flusher is handed to [run] to work on the calling domain beside the
   workers, and checks every 5 ms whether [finished] holds. The journal
   is framed by [job_start] and, after the ring-drop count and a final
   progress sample, [job_done]; a progress sample is also written about
   every second. *)
let recording ~telemetry ~journal =
  Option.is_some telemetry || Option.is_some journal

let recorded ?telemetry ?journal ~recorders ?sample ~finished run =
  if not (recording ~telemetry ~journal) then run None
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
    let flusher =
      Option.map
        (fun w ->
          Journal.write w
            [ Journal.event ~locality:0 ~t:started ~ev:"job_start" ~span:0 () ];
          fun () ->
            let tick = ref 0 in
            while not (finished ()) do
              incr tick;
              if !tick mod 10 = 0 then drain ();
              (match sample with
              | Some s when !tick mod 200 = 0 ->
                Journal.write w [ s ~final:false ]
              | _ -> ());
              Unix.sleepf 0.005
            done)
        journal
    in
    Fun.protect
      ~finally:(fun () ->
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
      (fun () -> run flusher)
  end

let parallel_run (type s n r) ~n_workers ?stats ?telemetry ?journal
    ?monitor_port ?on_monitor ?(progress = true) ~coordination
    ~(harness : (n, r) Ops.harness) (p : (s, n, _) Problem.t) : r =
  (* One counter record per worker slot; folded into [stats] after the
     join. *)
  let counters =
    Counters.create ~profiled:(stats <> None) ~progress ~slots:n_workers ()
  in
  (* One tracker fuses the per-slot estimator columns for every live
     surface (monitor scrapes, journal samples); both callers are cold
     paths on their own domains, hence the mutex. *)
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
  (* The in-process scheduler: each worker owns a depth-ordered pool
     (deepest first, FIFO within a depth) and the shared ordered pool
     is the overflow tier; a task obtained from a sibling's pool or
     another slot's overflow push is a steal. Termination is the
     classic outstanding-task count hitting zero. *)
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

  (* Live monitoring: the fields sum the slots' word-sized counters
     on the server's domain, racing the workers — stale, never torn. *)
  let all_dropped () =
    Array.fold_left (fun a r -> a + Recorder.dropped r) 0 recorders
  in
  let monitor =
    Option.map
      (fun port ->
        let summed name help f =
          Live.int name help (fun () -> Counters.total counters f)
        in
        let fields =
          Live.
            [
              int "workers" "Worker domains in this run" (fun () -> n_workers);
              summed "nodes" "Nodes processed so far" (fun s -> s.Stats.nodes);
              summed "pruned" "Subtrees pruned so far" (fun s ->
                  s.Stats.pruned);
              summed "tasks" "Tasks spawned so far" (fun s -> s.Stats.tasks);
              int "tasks_done" "Tasks finished so far" (fun () ->
                  Counters.tasks_done counters);
              int "pool_depth" "Tasks currently queued (both tiers)" (fun () ->
                  Two_tier.queued tiers);
              int "active_tasks"
                "Tasks queued or executing (termination detector)" (fun () ->
                  Atomic.get outstanding);
              int "idle_workers" "Workers blocked waiting for work" (fun () ->
                  Two_tier.idle_workers tiers);
              summed "steals" "Successful steals so far" (fun s ->
                  s.Stats.steals);
              summed "steal_attempts" "Steal attempts so far" (fun s ->
                  s.Stats.steal_attempts);
              summed "bound_updates" "Incumbent improvements applied" (fun s ->
                  s.Stats.bound_updates);
              incumbent "best" "Best incumbent objective so far" (fun () ->
                  Knowledge.best_obj knowledge);
              int "trace_dropped" "Trace spans dropped by full ring buffers"
                all_dropped;
            ]
        in
        let progress =
          if progress then Some (fun () -> progress_report ()) else None
        in
        let s =
          Live.start ~port ~runtime:"shm" ~started:(Unix.gettimeofday ())
            ?progress fields
        in
        Option.iter (fun f -> f (Http_export.port s)) on_monitor;
        s)
      monitor_port
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
  let run beside =
    Worker.spawn ctx ~slot:0
      { Task_pool.tag = 0; node = p.Problem.root; depth = 0 };
    Option.iter raise (Worker.run ctx ~workers:n_workers ?beside ())
  in
  recorded ?telemetry ?journal ~recorders
    ?sample:(if progress then Some sample else None)
    ~finished:(fun () -> Atomic.get outstanding = 0 || Atomic.get stop)
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
