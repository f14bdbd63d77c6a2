module Coordination = Yewpar_core.Coordination
module Problem = Yewpar_core.Problem
module Codec = Yewpar_core.Codec
module Transport = Yewpar_dist.Transport
module Wire = Yewpar_dist.Wire
module Coordinator = Yewpar_dist.Coordinator
module Locality = Yewpar_dist.Locality
module Fleet = Yewpar_dist.Fleet
module Http = Yewpar_telemetry.Http_export
module Metrics = Yewpar_telemetry.Metrics
module Analyze = Yewpar_telemetry.Analyze
module Journal = Yewpar_telemetry.Journal

let now () = Unix.gettimeofday ()

(* ------------------------- servable problems --------------------- *)

type servable = {
  sv_run :
    heartbeat:float ->
    record:bool ->
    conn:Transport.t ->
    workers:int ->
    coordination:Coordination.t ->
    unit;
  sv_root : string;
  sv_finish : Coordinator.outcome -> string;
}

let servable (type s n r) (p : (s, n, r) Problem.t) ~(show : r -> string) =
  match p.Problem.codec with
  | None ->
    Error
      (Printf.sprintf "problem %S has no task codec and cannot be served"
         p.Problem.name)
  | Some codec ->
    Ok
      {
        sv_run =
          (fun ~heartbeat ~record ~conn ~workers ~coordination ->
            Locality.run ~heartbeat ~record ~conn ~workers ~coordination p);
        sv_root = codec.Codec.encode p.Problem.root;
        sv_finish =
          (fun outcome -> show (Yewpar_dist.Dist.combine p codec outcome));
      }

(* ----------------------------- config ---------------------------- *)

type config = {
  port : int;
  localities : int;
  workers : int;
  max_jobs : int;
  queue_depth : int;
  max_respawns : int;
  heartbeat : float;
  failure_timeout : float;
  lease_timeout : float option;
  job_watchdog : float option;
  journal : string option;
  log : bool;
}

let default_config =
  {
    port = 0;
    localities = 2;
    workers = 1;
    max_jobs = 2;
    queue_depth = 16;
    max_respawns = 0;
    heartbeat = 0.2;
    failure_timeout = 10.;
    lease_timeout = None;
    job_watchdog = None;
    journal = None;
    log = false;
  }

(* ------------------------------ state ---------------------------- *)

type slot_state = Free | Busy of int | Dead

type slot = {
  pid : int;
  conn : Transport.t;
  mutable slot_state : slot_state;
}

type t = {
  config : config;
  registry : (string * servable) list;
  fleet : slot array;
  jobs : (int, Job.t) Hashtbl.t;
  queue : int Queue.t;
  mutex : Mutex.t;
  cond : Condition.t;
  metrics : Metrics.t;
  journal : Journal.writer option;
  m_submitted : Metrics.counter;
  m_done : Metrics.counter;
  m_failed : Metrics.counter;
  m_cancelled : Metrics.counter;
  m_running : Metrics.gauge;
  m_queued : Metrics.gauge;
  m_slots_free : Metrics.gauge;
  m_slots_dead : Metrics.gauge;
  m_latency : Metrics.histogram;
  mutable next_id : int;
  mutable running : int;
  mutable stopping : bool;
  mutable job_threads : Thread.t list;
  mutable scheduler_thread : Thread.t option;
  mutable http : Http.t option;
}

let spec (j : Job.t) = j.Job.spec

(* Daemon-side operational logging, always stamped with the job id so
   a multi-tenant log remains attributable; off by default so embedded
   use (tests) stays quiet. *)
let log t fmt =
  Printf.ksprintf
    (fun s -> if t.config.log then Printf.eprintf "serve: %s\n%!" s)
    fmt

(* Server-level job lifecycle events, written to the same journal the
   per-job coordinators append to — the trace is the job id, so
   submission/scheduling latency shows up alongside the job's own
   lease tree. *)
let jot t job_id ?dur ?value ?note ev =
  match t.journal with
  | None -> ()
  | Some w ->
    Journal.write w
      ~trace:(Printf.sprintf "job-%d" job_id)
      [ Journal.event ?dur ?value ?note ~ev ~span:0 () ]

let count_slots t state =
  Array.fold_left
    (fun n s -> if s.slot_state = state then n + 1 else n)
    0 t.fleet

let usable_slots t = Array.length t.fleet - count_slots t Dead

let free_slots t =
  let acc = ref [] in
  Array.iteri
    (fun i s -> if s.slot_state = Free then acc := i :: !acc)
    t.fleet;
  List.rev !acc

let queued_count t =
  Queue.fold
    (fun n id ->
      match (Hashtbl.find t.jobs id).Job.state with
      | Job.Queued -> n + 1
      | _ -> n)
    0 t.queue

(* All metrics mutation happens under the mutex (the registry is not
   thread-safe); the gauges are refreshed on scrape. *)
let refresh_metrics t =
  Metrics.set t.m_running (float_of_int t.running);
  Metrics.set t.m_queued (float_of_int (queued_count t));
  Metrics.set t.m_slots_free (float_of_int (count_slots t Free));
  Metrics.set t.m_slots_dead (float_of_int (count_slots t Dead))

(* ---------------------------- the fleet -------------------------- *)

(* The skeletons a served job may use. Its localities run the worker
   core with pruning against the global incumbent, so [seq] (no
   parallel work) and [ordered] (left-only pruning, not available on
   distributed localities) are refused. *)
let servable_skeleton skeleton =
  match Coordination.of_string skeleton with
  | Error e -> Error e
  | Ok Coordination.Sequential ->
    Error "skeleton \"seq\" is not servable: pick a parallel skeleton"
  | Ok (Coordination.Ordered _) ->
    Error
      "skeleton \"ordered\" is not servable: served jobs run on distributed \
       localities; use yewpar solve with the seq, sim or shm runtime"
  | Ok c -> Ok c

(* Fork the whole fleet up front: OCaml 5 cannot fork once any domain
   has been spawned, and the HTTP server runs in one — so every
   locality this daemon will ever use (spares included) exists before
   Http.start. Each child sits in Locality.serve, resolving Job_start
   frames against the same registry closure the parent holds. *)
let fork_fleet config registry =
  let total = config.localities + config.max_respawns in
  let fleet =
    Fleet.fork total (fun i conn ->
        let resolve ~instance ~skeleton ~job =
          match List.assoc_opt instance registry with
          | None -> Error (Printf.sprintf "unknown problem %S" instance)
          | Some sv -> (
            match servable_skeleton skeleton with
            | Error e -> Error e
            | Ok coordination ->
              Ok
                (fun () ->
                  if config.log then
                    Printf.eprintf
                      "serve: job %d running on slot %d (%s/%s)\n%!" job i
                      instance skeleton;
                  sv.sv_run ~heartbeat:config.heartbeat
                    ~record:(config.journal <> None)
                    ~conn ~workers:config.workers ~coordination))
        in
        Locality.serve ~conn ~resolve)
  in
  Array.map (fun (pid, conn) -> { pid; conn; slot_state = Free }) fleet

(* Permanently drop a slot whose socket can no longer be trusted (its
   process died, or a watchdog abandoned collection mid-job). *)
let retire_slot t i =
  let s = t.fleet.(i) in
  if s.slot_state <> Dead then begin
    s.slot_state <- Dead;
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
    try Transport.close s.conn with _ -> ()
  end

(* ---------------------------- job runs --------------------------- *)

(* One job = one coordinator over this job's slots, in its own thread.
   Isolation comes free: the localities start fresh counters for every
   Job_start, and this coordinator only ever sees (and sums) frames
   from its own connections. *)
let run_job t (job : Job.t) slots =
  let sv = List.assoc (spec job).Job.problem t.registry in
  let coordination =
    match Coordination.of_string (spec job).Job.skeleton with
    | Ok c -> c
    | Error e -> invalid_arg e (* validated at submission *)
  in
  let conns = Array.of_list (List.map (fun i -> t.fleet.(i).conn) slots) in
  let started = now () in
  let result =
    try
      Array.iter
        (fun c ->
          Transport.send ~timeout:5.0 c
            (Wire.Job_start
               {
                 instance = (spec job).Job.problem;
                 skeleton = (spec job).Job.skeleton;
                 job = job.Job.id;
               }))
        conns;
      Ok
        (Coordinator.run ?watchdog:t.config.job_watchdog
           ~failure_timeout:t.config.failure_timeout
           ?lease_timeout:t.config.lease_timeout
           ~pool_policy:(Yewpar_runtime.Task_pool.policy_for coordination)
           ~cancelled:(fun () -> Atomic.get job.Job.cancel)
           ~on_progress:(fun p -> job.Job.progress <- Some p)
           ?journal:t.journal ~started
           ~trace:(Printf.sprintf "job-%d" job.Job.id)
           ~label:(Printf.sprintf "job %d" job.Job.id)
           ~conns ~root_payload:sv.sv_root ())
    with e -> Error (Printexc.to_string e)
  in
  Mutex.lock t.mutex;
  (match result with
  | Error msg ->
    (* The coordinator did not run to completion (e.g. a Job_start
       send hit a corpse): these sockets are in an unknown state, so
       none of them may carry another job. *)
    List.iter (retire_slot t) slots;
    job.Job.state <- Job.Failed msg
  | Ok outcome ->
    List.iteri
      (fun k i ->
        if outcome.Coordinator.dead.(k) || outcome.Coordinator.abandoned
        then retire_slot t i)
      slots;
    job.Job.stats <- Some outcome.Coordinator.stats;
    (match outcome.Coordinator.failure with
    | Some reason ->
      if Atomic.get job.Job.cancel <> None then
        job.Job.state <- Job.Cancelled reason
      else job.Job.state <- Job.Failed reason
    | None -> (
      match sv.sv_finish outcome with
      | rendered ->
        job.Job.result <- Some rendered;
        job.Job.state <- Job.Done;
        (* The last heartbeat snapshot predates quiescence; pin the
           terminal truth so pollers see exactly 1.0 and a zero ETA. *)
        let nodes = outcome.Coordinator.stats.Yewpar_core.Stats.nodes in
        job.Job.progress <-
          (match job.Job.progress with
          | Some p ->
            Some
              {
                p with
                Coordinator.p_pool_depth = 0;
                p_outstanding = 0;
                p_nodes = nodes;
                p_est_total = float_of_int nodes;
                p_fraction = 1.0;
                p_eta = 0.;
              }
          | None -> None)
      | exception e -> job.Job.state <- Job.Failed (Printexc.to_string e))));
  job.Job.finished <- Some (now ());
  Metrics.observe t.m_latency (now () -. job.Job.submitted);
  log t "job %d %s (%.3fs since submit)" job.Job.id
    (Job.state_name job.Job.state)
    (now () -. job.Job.submitted);
  jot t job.Job.id
    ~dur:(now () -. job.Job.submitted)
    ~note:(Job.state_name job.Job.state)
    "job_finished";
  (match job.Job.state with
  | Job.Done -> Metrics.inc t.m_done
  | Job.Failed _ -> Metrics.inc t.m_failed
  | Job.Cancelled _ -> Metrics.inc t.m_cancelled
  | Job.Queued | Job.Running -> ());
  (* A cancelled or failed job frees its slots right here — which is
     exactly what lets the next queued job start. *)
  List.iter
    (fun i ->
      match t.fleet.(i).slot_state with
      | Busy id when id = job.Job.id -> t.fleet.(i).slot_state <- Free
      | _ -> ())
    slots;
  t.running <- t.running - 1;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

(* --------------------------- scheduling -------------------------- *)

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* FIFO admission under the mutex: start the head job whenever a run
   slot (max_jobs) and enough fleet slots are free. Strict FIFO is the
   fairness policy — a wide job blocks later narrow ones rather than
   being starved by them. *)
let schedule t =
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    match Queue.peek_opt t.queue with
    | None -> ()
    | Some id ->
      let job = Hashtbl.find t.jobs id in
      if Job.terminal job then begin
        (* Cancelled while queued: nothing was ever allocated. *)
        ignore (Queue.pop t.queue);
        continue_ := true
      end
      else if (spec job).Job.localities > usable_slots t then begin
        ignore (Queue.pop t.queue);
        job.Job.state <-
          Job.Failed
            (Printf.sprintf
               "job wants %d localities but only %d fleet slots survive"
               (spec job).Job.localities (usable_slots t));
        job.Job.finished <- Some (now ());
        Metrics.inc t.m_failed;
        continue_ := true
      end
      else if t.running < t.config.max_jobs then begin
        let free = free_slots t in
        if List.length free >= (spec job).Job.localities then begin
          ignore (Queue.pop t.queue);
          let slots = take (spec job).Job.localities free in
          List.iter (fun i -> t.fleet.(i).slot_state <- Busy id) slots;
          job.Job.state <- Job.Running;
          job.Job.started <- Some (now ());
          job.Job.slots <- slots;
          log t "job %d started on slots [%s] (%s/%s)" id
            (String.concat ";" (List.map string_of_int slots))
            (spec job).Job.problem (spec job).Job.skeleton;
          jot t id
            ~dur:(now () -. job.Job.submitted)
            ~note:
              (Printf.sprintf "slots [%s]"
                 (String.concat ";" (List.map string_of_int slots)))
            "job_scheduled";
          t.running <- t.running + 1;
          let th = Thread.create (fun () -> run_job t job slots) () in
          t.job_threads <- th :: t.job_threads;
          continue_ := true
        end
      end
  done

let scheduler t () =
  Mutex.lock t.mutex;
  while not t.stopping do
    schedule t;
    Condition.wait t.cond t.mutex
  done;
  Mutex.unlock t.mutex

(* ---------------------------- HTTP API --------------------------- *)

let json_response status json =
  {
    Http.status;
    content_type = "application/json";
    body = Analyze.to_string json ^ "\n";
  }

let error_response status msg =
  json_response status (Analyze.Obj [ ("error", Analyze.Str msg) ])

let segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let validate t (s : Job.spec) =
  match List.assoc_opt s.Job.problem t.registry with
  | None ->
    Error
      (Printf.sprintf "unknown problem %S (GET /problems lists the registry)"
         s.Job.problem)
  | Some _ -> (
    match servable_skeleton s.Job.skeleton with
    | Error e -> Error e
    | Ok _ ->
      if s.Job.localities > usable_slots t then
        Error
          (Printf.sprintf
             "job wants %d localities but the fleet has %d usable slots"
             s.Job.localities (usable_slots t))
      else Ok ())

let submit t body =
  match Job.spec_of_body body with
  | Error msg -> error_response 400 msg
  | Ok s ->
    with_lock t @@ fun () ->
    if t.stopping then error_response 503 "server shutting down"
    else (
      match validate t s with
      | Error msg -> error_response 400 msg
      | Ok () ->
        if queued_count t >= t.config.queue_depth then
          error_response 429
            (Printf.sprintf "queue full (%d queued, queue depth %d)"
               (queued_count t) t.config.queue_depth)
        else begin
          let id = t.next_id in
          t.next_id <- id + 1;
          let job = Job.create ~id ~spec:s in
          Hashtbl.add t.jobs id job;
          Queue.push id t.queue;
          Metrics.inc t.m_submitted;
          log t "job %d submitted (%s/%s on %d localities)" id s.Job.problem
            s.Job.skeleton s.Job.localities;
          jot t id
            ~note:(Printf.sprintf "%s/%s" s.Job.problem s.Job.skeleton)
            ~value:s.Job.localities "job_submitted";
          Condition.broadcast t.cond;
          json_response 202 (Job.to_json job)
        end)

let cancel t (j : Job.t) =
  match j.Job.state with
  | Job.Queued ->
    j.Job.state <- Job.Cancelled "cancelled before start";
    j.Job.finished <- Some (now ());
    Metrics.inc t.m_cancelled;
    Condition.broadcast t.cond;
    json_response 200 (Job.to_json j)
  | Job.Running ->
    (* The job's coordinator polls this and broadcasts Shutdown; its
       completion path frees the slots. *)
    Atomic.set j.Job.cancel (Some "cancelled by DELETE /jobs");
    json_response 202 (Job.to_json j)
  | Job.Done | Job.Failed _ | Job.Cancelled _ ->
    error_response 409 ("job already " ^ Job.state_name j.Job.state)

let with_job t id f =
  match int_of_string_opt id with
  | None -> error_response 404 "no such job"
  | Some id ->
    with_lock t @@ fun () ->
    (match Hashtbl.find_opt t.jobs id with
    | None -> error_response 404 "no such job"
    | Some j -> f j)

let sorted_jobs t =
  Hashtbl.fold (fun _ j acc -> j :: acc) t.jobs []
  |> List.sort (fun (a : Job.t) (b : Job.t) -> compare a.Job.id b.Job.id)

let handle t (req : Http.request) =
  match (req.Http.meth, segments req.Http.path) with
  | "POST", [ "jobs" ] -> submit t req.Http.body
  | "GET", [ "jobs" ] ->
    with_lock t (fun () ->
        json_response 200
          (Analyze.Obj
             [ ("jobs", Analyze.Arr (List.map Job.to_json (sorted_jobs t))) ]))
  | "GET", [ "jobs"; id ] ->
    with_job t id (fun j -> json_response 200 (Job.to_json j))
  | "GET", [ "jobs"; id; "result" ] ->
    with_job t id (fun j ->
        if Job.terminal j then json_response 200 (Job.result_json j)
        else
          error_response 409
            ("job is " ^ Job.state_name j.Job.state ^ ", result not ready"))
  | "DELETE", [ "jobs"; id ] -> with_job t id (cancel t)
  | "GET", [ "problems" ] ->
    json_response 200
      (Analyze.Obj
         [
           ( "problems",
             Analyze.Arr (List.map (fun (n, _) -> Analyze.Str n) t.registry)
           );
         ])
  | "GET", _ -> error_response 404 "not found"
  | _ -> error_response 405 "unsupported method"

let status_json t =
  let open Analyze in
  let num i = Num (float_of_int i) in
  Obj
    [
      ( "fleet",
        Obj
          [
            ("slots", num (Array.length t.fleet));
            ("free", num (count_slots t Free));
            ("busy", num (Array.length t.fleet - count_slots t Free
                          - count_slots t Dead));
            ("dead", num (count_slots t Dead));
            ("localities", num t.config.localities);
            ("workers", num t.config.workers);
            ("max_respawns", num t.config.max_respawns);
          ] );
      ( "slots",
        Arr
          (Array.to_list
             (Array.mapi
                (fun i s ->
                  Obj
                    [
                      ("slot", num i);
                      ( "state",
                        Str
                          (match s.slot_state with
                          | Free -> "free"
                          | Busy _ -> "busy"
                          | Dead -> "dead") );
                      ( "job",
                        match s.slot_state with
                        | Busy id -> num id
                        | Free | Dead -> Null );
                      ("pid", num s.pid);
                    ])
                t.fleet)) );
      ( "limits",
        Obj
          [
            ("max_jobs", num t.config.max_jobs);
            ("queue_depth", num t.config.queue_depth);
          ] );
      ("stopping", Bool t.stopping);
      ("jobs", Arr (List.map Job.to_json (sorted_jobs t)));
    ]

(* --------------------------- lifecycle --------------------------- *)

let start ?(config = default_config) ~registry () =
  if config.localities < 1 then
    invalid_arg "Server.start: localities must be >= 1";
  if config.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if config.max_jobs < 1 then invalid_arg "Server.start: max_jobs must be >= 1";
  if config.queue_depth < 1 then
    invalid_arg "Server.start: queue_depth must be >= 1";
  if config.max_respawns < 0 then
    invalid_arg "Server.start: max_respawns must be >= 0";
  let fleet = fork_fleet config registry in
  let metrics = Metrics.create () in
  let journal = Option.map (fun path -> Journal.create ~path ()) config.journal in
  let t =
    {
      config;
      registry;
      fleet;
      journal;
      jobs = Hashtbl.create 64;
      queue = Queue.create ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      metrics;
      m_submitted =
        Metrics.counter metrics ~help:"Jobs accepted by POST /jobs"
          "yewpar_serve_jobs_submitted";
      m_done =
        Metrics.counter metrics ~help:"Jobs finished successfully"
          "yewpar_serve_jobs_done";
      m_failed =
        Metrics.counter metrics ~help:"Jobs that failed"
          "yewpar_serve_jobs_failed";
      m_cancelled =
        Metrics.counter metrics ~help:"Jobs cancelled"
          "yewpar_serve_jobs_cancelled";
      m_running =
        Metrics.gauge metrics ~help:"Jobs currently running"
          "yewpar_serve_jobs_running";
      m_queued =
        Metrics.gauge metrics ~help:"Jobs waiting in the queue"
          "yewpar_serve_jobs_queued";
      m_slots_free =
        Metrics.gauge metrics ~help:"Idle fleet slots"
          "yewpar_serve_slots_free";
      m_slots_dead =
        Metrics.gauge metrics ~help:"Fleet slots lost to crashes"
          "yewpar_serve_slots_dead";
      m_latency =
        Metrics.histogram metrics
          ~help:"Job latency, submission to completion, in seconds"
          ~buckets:(Metrics.buckets_125 ~lo:1e-3 ~hi:100.)
          "yewpar_serve_job_seconds";
      next_id = 1;
      running = 0;
      stopping = false;
      job_threads = [];
      scheduler_thread = None;
      http = None;
    }
  in
  let routes =
    [
      ( "/metrics",
        fun () ->
          with_lock t (fun () ->
              refresh_metrics t;
              ("text/plain; version=0.0.4", Metrics.to_prometheus t.metrics))
      );
      ( "/status",
        fun () ->
          with_lock t (fun () ->
              ("application/json", Analyze.to_string (status_json t) ^ "\n"))
      );
    ]
  in
  let http = Http.start ~port:config.port ~routes ~handler:(handle t) () in
  t.http <- Some http;
  t.scheduler_thread <- Some (Thread.create (scheduler t) ());
  t

let port t = match t.http with Some h -> Http.port h | None -> 0

let stop t =
  Mutex.lock t.mutex;
  if t.stopping then Mutex.unlock t.mutex
  else begin
    t.stopping <- true;
    (* Graceful: queued jobs die instantly, running jobs are cancelled
       through their coordinators (which broadcast Shutdown and still
       collect stats), then the fleet is quit and reaped. *)
    Hashtbl.iter
      (fun _ (j : Job.t) ->
        match j.Job.state with
        | Job.Queued ->
          j.Job.state <- Job.Cancelled "server shutting down";
          j.Job.finished <- Some (now ());
          Metrics.inc t.m_cancelled
        | Job.Running ->
          Atomic.set j.Job.cancel (Some "server shutting down")
        | _ -> ())
      t.jobs;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    (match t.scheduler_thread with Some th -> Thread.join th | None -> ());
    Mutex.lock t.mutex;
    let threads = t.job_threads in
    t.job_threads <- [];
    Mutex.unlock t.mutex;
    List.iter Thread.join threads;
    Array.iter
      (fun s ->
        if s.slot_state <> Dead then (
          try Transport.send ~timeout:1.0 s.conn Wire.Quit with _ -> ()))
      t.fleet;
    Array.iter (fun s -> try Transport.close s.conn with _ -> ()) t.fleet;
    Array.iter (fun s -> Fleet.reap s.pid) t.fleet;
    (match t.http with Some h -> Http.stop h | None -> ());
    Option.iter Journal.close t.journal
  end
