(* The serve workload: a closed loop against an in-process job server.

   Set-up generates small queens, knapsack and MaxClique instances from
   the seed, computes their Sequential oracles, builds the server's
   registry from exactly those instances (not the named Instances
   registry) and forks a persistent 2-locality x 1-worker fleet. OCaml
   5 forbids fork once a domain exists, so nothing before
   [Server.start] may spawn one; this process forks exactly once.

   Two client threads each submit a job ([POST /jobs]), poll it
   ([GET /jobs/:id]) until it is terminal, fetch the result and check
   it against the oracle before submitting the next: a closed loop, so
   a slow server receives less load. The job mix is drawn from the
   seed. *)

module Server = Yewpar_server.Server
module Http = Yewpar_telemetry.Http_export
module J = Yewpar_telemetry.Analyze
module Problem = Yewpar_core.Problem
module Codec = Yewpar_core.Codec
module Wire = Yewpar_dist.Wire
module Splitmix = Yewpar_util.Splitmix
module Gen = Yewpar_graph.Gen

let clients = 2

(* Short searches (a few to a few tens of milliseconds each), so the
   front end, queue, coordinator, wire and codec carry the cost. *)
let pending seed : Inputs.pending list =
  (* Calibrated like the search workloads' instances (see Inputs), so
     every seed serves about the same work. *)
  let mc slot ~n ~target =
    Inputs.calibrated ~target ~candidates:8 (fun k ->
        let s = Inputs.derive seed ((100 * k) + 40 + slot) in
        let g = Gen.hidden_clique ~seed:s n 0.6 10 in
        fun () -> [ fst (Inputs.maxclique ~label:(Printf.sprintf "mc-%d" s) g) ])
  in
  let knapsack slot ~n ~target =
    Inputs.calibrated ~target ~candidates:12 (fun k ->
        Inputs.knapsack ~seed:(Inputs.derive seed ((100 * k) + 30 + slot)) ~n)
  in
  [ Inputs.queens 9;
    Inputs.queens 10;
    knapsack 0 ~n:16 ~target:15_000;
    knapsack 1 ~n:18 ~target:45_000;
    mc 0 ~n:60 ~target:120;
    mc 1 ~n:70 ~target:250 ]

let skeletons = function
  | "queens" -> [| "depthbounded:2"; "stacksteal"; "budget:1000" |]
  | "knapsack" -> [| "budget:1000"; "depthbounded:2" |]
  | _ -> [| "depthbounded:1"; "stacksteal" |]

(* Every (input, skeleton) class, in input order. *)
let classes inputs =
  List.concat
    (List.mapi
       (fun idx i -> List.map (fun sk -> (idx, sk)) (Array.to_list (skeletons (Inputs.app i))))
       inputs)

(* Job [j] of the seeded stream: rounds that each hold every class
   once, in a seeded order, so every run submits the same mix. *)
let job_spec ~seed inputs j =
  let cs = Array.of_list (classes inputs) in
  let n = Array.length cs in
  let rng = Splitmix.of_seed (Inputs.derive seed (1000 + (j / n))) in
  for i = n - 1 downto 1 do
    let k = Splitmix.int rng (i + 1) in
    let t = cs.(i) in
    cs.(i) <- cs.(k);
    cs.(k) <- t
  done;
  cs.(j mod n)

type job = {
  input : int;
  skeleton : string;
  latency : float;  (** Client [POST] to the job's [finished] stamp. *)
  run_s : float;  (** [finished - started]: the coordinator's run. *)
  queue_s : float;  (** [started - submitted]. *)
  post_s : float;  (** [POST /jobs] round trip. *)
  gets : float list;  (** Every [GET] round trip. *)
  nodes : int;
  tasks : int;
  steals : int;
}

let num key doc = J.num_or nan (J.member key doc)

let run_job rep spans ~port ~seed inputs j =
  let idx, skeleton = job_spec ~seed inputs j in
  let (Inputs.Input i) = List.nth inputs idx in
  Report.checked rep
    (Printf.sprintf "job %s/%s" i.label skeleton)
    (fun () ->
      let body =
        Printf.sprintf {|{"problem": "%s", "skeleton": "%s"}|} i.label
          skeleton
      in
      let t_post = Calls.now () in
      let status, resp = Http.request ~meth:"POST" ~body ~port "/jobs" in
      let t_posted = Calls.now () in
      if status <> 202 then
        failwith (Printf.sprintf "POST /jobs -> %d: %s" status resp);
      let id = int_of_float (num "id" (J.parse_json resp)) in
      let gets = ref [] in
      let get path =
        let t0 = Calls.now () in
        let status, b = Http.request ~port path in
        gets := (t0, Calls.now ()) :: !gets;
        if status <> 200 then
          failwith (Printf.sprintf "GET %s -> %d: %s" path status b);
        J.parse_json b
      in
      let limit = t_post +. 60. in
      let rec poll () =
        let doc = get (Printf.sprintf "/jobs/%d" id) in
        match J.str_or "" (J.member "state" doc) with
        | "queued" | "running" ->
          if Calls.now () > limit then failwith "job still running after 60s";
          Unix.sleepf 0.002;
          poll ()
        | _ -> ()
      in
      poll ();
      let res = get (Printf.sprintf "/jobs/%d/result" id) in
      let t_done = Calls.now () in
      let state = J.str_or "?" (J.member "state" res) in
      let result = J.str_or "" (J.member "result" res) in
      let submitted = num "submitted" res
      and started = num "started" res
      and finished = num "finished" res in
      let stat key =
        int_of_float
          (J.num_or (-1.)
             (Option.bind (J.member "stats" res) (fun st -> J.member key st)))
      in
      let nodes = stat "nodes" in
      let job_span = Spans.add spans "job" ~start:t_post ~stop:finished in
      ignore
        (Spans.add spans ~parent:job_span "coordinator.run" ~start:started
           ~stop:finished);
      let client = Spans.add spans "client" ~start:t_post ~stop:t_done in
      ignore (Spans.add spans ~parent:client "post" ~start:t_post ~stop:t_posted);
      List.iter
        (fun (a, b) -> ignore (Spans.add spans ~parent:client "get" ~start:a ~stop:b))
        !gets;
      let verdict =
        if state <> "done" then
          Some
            (Printf.sprintf "job ended %s %s" state
               (J.str_or "" (J.member "error" res)))
        else if result <> i.oracle then
          Some (Printf.sprintf "result %S, oracle %S" result i.oracle)
        else if i.exact && nodes <> i.nodes then
          Some (Printf.sprintf "%d nodes, oracle %d" nodes i.nodes)
        else None
      in
      ( {
          input = idx;
          skeleton;
          latency = finished -. t_post;
          run_s = finished -. started;
          queue_s = started -. submitted;
          post_s = t_posted -. t_post;
          gets = List.map (fun (a, b) -> b -. a) !gets;
          nodes;
          tasks = stat "tasks";
          steals = stat "steals";
        },
        verdict ))

(* [clients] threads, each waiting for its job before the next. A job
   counts only when it passed every check. *)
let closed_loop rep spans ~port ~seed ~next ~deadline inputs =
  let mu = Mutex.create () in
  let done_ = ref [] in
  let client () =
    while Calls.now () < deadline do
      let j = Atomic.fetch_and_add next 1 in
      Option.iter
        (fun r -> Mutex.protect mu (fun () -> done_ := r :: !done_))
        (run_job rep spans ~port ~seed inputs j)
    done
  in
  let t0 = Calls.now () in
  let threads = List.init clients (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  (!done_, Calls.now () -. t0)

let fleet_pids port =
  let _, body = Http.request ~port "/status" in
  match J.member "slots" (J.parse_json body) with
  | Some (J.Arr slots) ->
    List.map (fun s -> int_of_float (num "pid" s)) slots
  | _ -> failwith "GET /status has no slots"

(* After [Server.stop] no locality may survive: a survivor is a
   failure, and is killed and reaped here. *)
let check_reaped rep pids =
  List.iter
    (fun pid ->
      Report.attempt rep;
      match Unix.kill pid 0 with
      | () ->
        Report.fail rep "fleet" (Printf.sprintf "locality %d survived Server.stop" pid);
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ())
    pids

(* ---- per-layer: codec and wire, called directly ---- *)

let ns_per_call = Calls.ns_per_call

let codec_layer rep inputs =
  let rng = Splitmix.of_seed 7 in
  let payloads = ref [] in
  List.iter
    (fun app ->
      match List.find_opt (fun i -> Inputs.app i = app) inputs with
      | None -> ()
      | Some (Inputs.Input i) -> (
        match i.problem.Problem.codec with
        | None -> ()
        | Some c ->
          let nodes = Ledger.sample_nodes i.problem ~rng ~probes:16 in
          let enc = List.map c.Codec.encode nodes in
          payloads := enc @ !payloads;
          let k = "codec." ^ app ^ "." in
          Ledger.add rep (k ^ "encode_ns")
            (ns_per_call (fun () -> List.iter (fun n -> ignore (c.Codec.encode n)) nodes)
            /. float_of_int (List.length nodes));
          Ledger.add rep (k ^ "decode_ns")
            (ns_per_call (fun () -> List.iter (fun s -> ignore (c.Codec.decode s)) enc)
            /. float_of_int (List.length enc));
          Ledger.add rep (k ^ "bytes_per_node")
            (Measure.ratio
               (float_of_int (List.fold_left (fun a s -> a + String.length s) 0 enc))
               (float_of_int (List.length enc)))))
    [ "queens"; "knapsack"; "maxclique" ];
  !payloads

let wire_layer rep payloads =
  let payload = match payloads with p :: _ -> p | [] -> "" in
  let frames =
    [ ("task", Wire.Task { parent = 7; depth = 3; priority = 0; payload });
      ("steal_reply", Wire.Steal_reply { task = Some (7, 3, payload) });
      ( "idle",
        Wire.Idle
          { retired = List.init 4 (fun l -> (l, Marshal.to_string (l * 1000) [])) } );
      ( "heartbeat",
        Wire.Heartbeat
          {
            clock = Calls.now ();
            tasks_done = 1234;
            pool_depth = 5;
            idle_workers = 0;
            idle_frac = 0.05;
            best = 17;
            trace_dropped = 0;
            nodes = 1_000_000;
            progress = Yewpar_core.Progress.empty;
            events = [];
          } ) ]
  in
  let d = Wire.decoder () in
  List.iter
    (fun (name, msg) ->
      let b = Wire.to_bytes msg in
      let k = "wire." ^ name ^ "." in
      Ledger.add rep (k ^ "encode_ns") (ns_per_call (fun () -> ignore (Wire.to_bytes msg)));
      Ledger.add rep (k ^ "decode_ns")
        (ns_per_call (fun () ->
             Wire.feed d b 0 (Bytes.length b);
             match Wire.next d with
             | Some _ -> ()
             | None -> failwith "Wire.next: incomplete frame"));
      Ledger.add rep (k ^ "bytes_per_frame") (float_of_int (Bytes.length b)))
    frames

let serve_layers rep spans jobs =
  let med f = Measure.median (List.map f jobs) in
  Ledger.add rep "coordinator.run_s" (med (fun j -> j.run_s));
  Ledger.add rep "coordinator.tasks_per_job" (med (fun j -> float_of_int j.tasks));
  Ledger.add rep "coordinator.steals_per_job" (med (fun j -> float_of_int j.steals));
  Ledger.add rep "coordinator.nodes_per_s"
    (Measure.ratio
       (Measure.sum (List.map (fun j -> float_of_int j.nodes) jobs))
       (Measure.sum (List.map (fun j -> j.run_s) jobs)));
  Ledger.add rep "server.queue_s" (med (fun j -> j.queue_s));
  Ledger.add rep "server.post_ms" (1e3 *. med (fun j -> j.post_s));
  Ledger.add rep "server.get_ms"
    (1e3 *. Measure.median (List.concat_map (fun j -> j.gets) jobs));
  (* A job span's self time is its latency minus the coordinator's
     run, its only child: the front end plus queueing. *)
  Ledger.add rep "server.front_s"
    (Measure.median (List.map (Spans.self_time spans) (Spans.named spans "job")))

(* ---- the workload ---- *)

let setup_once rep ~seed =
  let t0 = Calls.now () in
  let pending = pending seed in
  let t1 = Calls.now () in
  let inputs = Search_wl.oracles rep pending in
  (inputs, t1 -. t0, Calls.now () -. t1)

let run rep ~seed ~seconds ~trace spans =
  (* Instances and oracles three times (no domain may exist yet); the
     fleet can be forked only once per process. *)
  let normed = List.init 3 (fun _ -> Calls.normalised (fun () -> setup_once rep ~seed)) in
  let runs = List.map (fun (r, _, _) -> r) normed in
  let inputs, _, _ = List.nth runs 2 in
  let instances_s = Measure.median (List.map (fun (_, a, _) -> a) runs) in
  let oracle_s = Measure.median (List.map (fun (_, _, b) -> b) runs) in
  let generated_s = Measure.median (List.map (fun (_, n, _) -> n) normed) in
  let registry =
    List.map
      (fun (Inputs.Input i) ->
        match Server.servable i.problem ~show:i.show with
        | Ok sv -> (i.label, sv)
        | Error e -> failwith e)
      inputs
  in
  let config =
    { Server.default_config with
      Server.localities = 2; workers = 1; max_jobs = 2; queue_depth = 16 }
  in
  let server, fleet_s, fleet_raw =
    Calls.normalised (fun () -> Server.start ~config ~registry ())
  in
  let port = Server.port server in
  let pids = fleet_pids port in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      Server.stop server;
      check_reaped rep pids
    end
  in
  Fun.protect ~finally:stop @@ fun () ->
  (* Warm-up: one job per input, the first of the seeded stream on it;
     three passes. It is printed but left out of [setup_s]: its jobs
     run on the fleet's domains, which slow severalfold whenever other
     load takes a core (see Calls.contention). The fleet fork, once per
     process, adds about a millisecond. *)
  let warmups =
    List.init 3 (fun _ ->
        Calls.normalised (fun () ->
            List.iteri
              (fun idx _ ->
                let rec first j =
                  if fst (job_spec ~seed inputs j) = idx then j else first (j + 1)
                in
                ignore
                  (run_job rep (Spans.create ~enabled:false) ~port ~seed inputs (first 0)))
              inputs))
  in
  let warmup_s = Measure.median (List.map (fun ((), _, raw) -> raw) warmups) in
  let setup_s = generated_s +. fleet_s in
  List.iter
    (fun (Inputs.Input i) ->
      Report.note "input %-16s oracle %-14s %9d nodes%s" i.label
        i.oracle i.nodes
        (if i.exact then " exact" else ""))
    inputs;
  Report.note "fleet: %d localities x %d worker, pids %s" config.Server.localities
    config.Server.workers
    (String.concat " " (List.map string_of_int pids));
  let start = Calls.now () in
  (* Untraced: the loop, then Sequential calls on the served inputs
     for the rest of the time, after the fleet has stopped. Traced: half
     the time each for the loop and the in-process rungs. *)
  let loop_s = if trace then seconds /. 2. else seconds *. 0.75 in
  (* The loop runs in segments with the fleet idle in between, where
     the machine-speed probe (see Calls) can run undisturbed; each
     segment's latencies and wall time are normalised by the probes
     around it. *)
  let segments = 8 in
  let next = Atomic.make 0 in
  let w0 = Calls.minor_words () in
  let probe () = Measure.median (List.init 5 (fun _ -> Calls.probe ())) in
  let segs =
    List.init segments (fun k ->
        let before = probe () in
        let deadline = start +. (loop_s *. float_of_int (k + 1) /. float_of_int segments) in
        let jobs, wall = closed_loop rep spans ~port ~seed ~next ~deadline inputs in
        let f = Calls.speed_factor before (probe ()) in
        ( List.map (fun j -> { j with latency = j.latency *. f; run_s = j.run_s *. f }) jobs,
          wall,
          f ))
  in
  let words = Calls.minor_words () -. w0 in
  stop ();
  let jobs = List.concat_map (fun (js, _, _) -> js) segs in
  let wall = Measure.sum (List.map (fun (_, w, f) -> w *. f) segs) in
  let raw_wall = Measure.sum (List.map (fun (_, w, _) -> w) segs) in
  Report.note "closed loop: %d clients, %d jobs done in %.2fs (%d segments)"
    clients (List.length jobs) raw_wall segments;
  (* Latency per (input, skeleton) class: the job mix is seeded, so
     summaries take each class's median first (see Measure). *)
  let classes =
    List.sort_uniq compare (List.map (fun j -> (j.input, j.skeleton)) jobs)
  in
  let class_jobs c = List.filter (fun j -> (j.input, j.skeleton) = c) jobs in
  List.iter
    (fun ((idx, sk) as c) ->
      let js = class_jobs c in
      Report.note "  %-22s %-15s %4d jobs  latency p50 %.4fs  run p50 %.4fs"
        (Inputs.label (List.nth inputs idx)) sk (List.length js)
        (Measure.median (List.map (fun j -> j.latency) js))
        (Measure.median (List.map (fun j -> j.run_s) js)))
    classes;
  let latencies = List.map (fun c -> List.map (fun j -> j.latency) (class_jobs c)) classes in
  if not trace then begin
    let tbl = Calls.Table.create () in
    let n = List.length inputs in
    let k = ref 0 in
    while Calls.now () < start +. seconds || !k < n do
      let idx = !k mod n in
      Option.iter (Calls.Table.add tbl (Search_wl.Seq, idx)) (Calls.seq rep (List.nth inputs idx));
      incr k
    done;
    let nodes = Measure.sum (List.map (fun j -> float_of_int j.nodes) jobs) in
    let tail = Measure.group_tail latencies in
    Report.note "job latency tail is p%.1f of %d jobs (%d beyond), per-class normalised"
      tail.Measure.pct tail.Measure.samples tail.Measure.beyond;
    let p50 = Measure.group_p50 latencies in
    Report.add rep "nodes_per_s" "1/s" (Measure.ratio nodes wall);
    Report.add rep "solve_s_p50" "s" p50;
    Report.add rep "solve_s_tail" "s" tail.Measure.value;
    Report.add rep "job_latency_p50_s" "s" p50;
    Report.add rep "job_latency_tail_s" "s" tail.Measure.value;
    Report.add rep "jobs_per_s" "1/s" (Measure.ratio (float_of_int (List.length jobs)) wall);
    Report.note "as measured, before normalising to the reference speed: \
                 nodes_per_s %.4g, jobs_per_s %.4g"
      (Measure.ratio nodes raw_wall)
      (Measure.ratio (float_of_int (List.length jobs)) raw_wall);
    Report.note "Sequential calls on the served inputs: %d" !k;
    (* Median Sequential seconds and median job latency, per input
       that has both. *)
    let pairs =
      List.filter_map
        (fun idx ->
          match
            ( Calls.Table.med tbl Calls.secs Search_wl.Seq idx,
              List.filter (fun j -> j.input = idx) jobs )
          with
          | Some s, (_ :: _ as js) -> Some (s, Measure.median (List.map (fun j -> j.latency) js))
          | _ -> None)
        (List.init n Fun.id)
    in
    Report.add rep "seq_nodes_per_s" "1/s"
      (Calls.Table.sum_ratio tbl ~inputs:n
         (Search_wl.Seq, Calls.nodes) (Search_wl.Seq, Calls.secs));
    Report.add rep "speedup" "x"
      (Measure.ratio (Measure.sum (List.map fst pairs)) (Measure.sum (List.map snd pairs)));
    let ok, w = Calls.gc_counts_joined_domains () in
    Report.note "gc self-check: a joined domain's %.0f minor words %s" w
      (if ok then "are counted" else "are NOT counted");
    Report.note
      "minor_words_per_node counts this process only (clients, HTTP \
       handlers, job coordinators); the searches run in the fleet";
    Report.add rep "minor_words_per_node" "words" (Measure.ratio words nodes);
    Report.add rep "heap_peak_mb" "MB" (Search_wl.heap_peak_mb ());
    Report.add rep "fail_ratio" "ratio" (Report.fail_ratio rep);
    Report.add rep "setup_s" "s" setup_s
  end
  else begin
    List.iter
      (fun (k, v) -> Ledger.add rep k v)
      [ ("setup.instances_s", instances_s); ("setup.oracle_s", oracle_s);
        ("setup.fleet_s", fleet_raw); ("setup.warmup_s", warmup_s) ];
    serve_layers rep spans jobs;
    wire_layer rep (codec_layer rep inputs);
    (* The in-process rungs on the served inputs, after the fleet is
       gone so they do not compete with it. *)
    Ledger.search_layers rep spans
      ~coordination:(Yewpar_core.Coordination.Depth_bounded { dcutoff = 2 })
      ~deadline:(start +. seconds) inputs
  end
