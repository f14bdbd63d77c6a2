(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (§5), plus the ablations listed in DESIGN.md:

     dune exec bench/main.exe                 -- everything (quick scale)
     dune exec bench/main.exe -- table1       -- Table 1 only
     dune exec bench/main.exe -- figure4      -- Figure 4 only
     dune exec bench/main.exe -- serve        -- job-server latency/throughput
     dune exec bench/main.exe -- table2       -- Table 2 only
     dune exec bench/main.exe -- ablations    -- ablation studies
     dune exec bench/main.exe -- micro        -- Bechamel micro-benchmarks
     dune exec bench/main.exe -- full         -- everything (more repetitions)

   Wall-clock numbers (Table 1, sequential half) are real; parallel
   numbers come from the deterministic cluster simulator (see DESIGN.md
   for the substitution argument). Shapes — who wins, by what factor,
   where the crossovers are — are the quantities to compare with the
   paper, not absolute seconds. *)

module Table = Yewpar_util.Table
module Summary = Yewpar_util.Summary
module Splitmix = Yewpar_util.Splitmix
module Sequential = Yewpar_core.Sequential
module Coordination = Yewpar_core.Coordination
module Sim = Yewpar_sim.Sim
module Sim_config = Yewpar_sim.Config
module Metrics = Yewpar_sim.Metrics
module Instances = Yewpar_instances.Instances
module Mc = Yewpar_maxclique.Maxclique

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let mean_wall ~reps f =
  let times = List.init reps (fun _ -> snd (wall f)) in
  Summary.mean times

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* --json FILE: machine-readable per-run results.                      *)
(* ------------------------------------------------------------------ *)

(* Each measured run appends one record of pre-rendered JSON (key,
   value) pairs; the file is written once at exit. *)
let json_records : (string * string) list list ref = ref []

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let jint = string_of_int
let jfloat = Printf.sprintf "%.9g"
let json_record fields = json_records := fields :: !json_records

let json_sim_run ~experiment ~name ~coordination ~topology (m : Metrics.t)
    ~speedup =
  json_record
    [ ("experiment", jstr experiment); ("problem", jstr name);
      ("skeleton", jstr (Coordination.to_string coordination));
      ("runtime", jstr "sim");
      ("localities", jint topology.Sim_config.localities);
      ("workers", jint topology.Sim_config.workers_per_locality);
      ("elapsed", jfloat m.Metrics.makespan);
      ("total_work", jfloat m.Metrics.total_work);
      ("nodes", jint m.Metrics.nodes); ("pruned", jint m.Metrics.pruned);
      ("tasks", jint m.Metrics.tasks);
      ("steal_attempts", jint m.Metrics.steal_attempts);
      ("steals", jint m.Metrics.steal_successes);
      ("bound_broadcasts", jint m.Metrics.bound_broadcasts);
      ("speedup", jfloat speedup) ]

(* Version of the --json envelope; bump when record keys change
   meaning. [yewpar analyze] reads both this envelope and the legacy
   bare-array format (as schema_version 0). *)
let json_schema_version = 1

let write_json file =
  let render fields =
    "    {"
    ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields)
    ^ "}"
  in
  Out_channel.with_open_text file (fun oc ->
      Printf.fprintf oc "{\n  \"schema_version\": %d,\n  \"records\": [\n"
        json_schema_version;
      Out_channel.output_string oc
        (String.concat ",\n" (List.rev_map render !json_records));
      Out_channel.output_string oc "\n  ]\n}\n")

(* Virtual sequential baselines are expensive (a full search); cache by
   instance name. *)
let seq_time_cache : (string, float) Hashtbl.t = Hashtbl.create 64

let virtual_seq_time name (Instances.Packed (p, _)) =
  match Hashtbl.find_opt seq_time_cache name with
  | Some t -> t
  | None ->
    let _, t = Sim.virtual_sequential p in
    Hashtbl.add seq_time_cache name t;
    t

let sim_speedup ?(experiment = "sim") ?costs ?seed ~topology ~coordination name
    (Instances.Packed (p, _) as packed) =
  let seq = virtual_seq_time name packed in
  let _, m = Sim.run ?costs ?seed ~topology ~coordination p in
  let speedup = Metrics.speedup ~sequential_time:seq m in
  json_sim_run ~experiment ~name ~coordination ~topology m ~speedup;
  speedup

(* ------------------------------------------------------------------ *)
(* Table 1: YewPar overheads on MaxClique.                             *)
(* ------------------------------------------------------------------ *)

let table1 ~reps () =
  section "Table 1: YewPar vs hand-coded MaxClique (18 DIMACS-style instances)";
  Printf.printf
    "Sequential columns: real wall-clock, mean of %d runs, this machine.\n\
     Parallel columns: simulated 15 workers / 1 locality; the hand-coded\n\
     comparator uses the lightweight 'OpenMP' cost preset, YewPar the\n\
     HPX-like preset with its measured sequential overhead folded into\n\
     the node cost. Slowdown%% = (yewpar - baseline) / baseline * 100.\n\
     Instances with sequential runtime over 0.05s (the paper's bold\n\
     'over 1.5s' rule rescaled to our instance sizes) are marked * and\n\
     aggregated in the geometric means.\n\n" reps;
  let rows = ref [] in
  let seq_slowdowns = ref [] and par_slowdowns = ref [] in
  List.iter
    (fun (name, graph) ->
      let g = Lazy.force graph in
      let problem = Mc.max_clique g in
      (* Sequential: hand-coded vs Sequential skeleton (real time). *)
      let (spec_size, _), _ = (Mc.Specialised.max_clique_size g, ()) in
      let spec_t = mean_wall ~reps (fun () -> ignore (Mc.Specialised.max_clique_size g)) in
      let (yew_node, yew_stats), _ = wall (fun () -> Sequential.search_with_stats problem) in
      let yew_t = mean_wall ~reps (fun () -> ignore (Sequential.search problem)) in
      assert (spec_size = yew_node.Mc.size);
      json_record
        [ ("experiment", jstr "table1"); ("problem", jstr name);
          ("skeleton", jstr "seq"); ("runtime", jstr "seq");
          ("localities", jint 1); ("workers", jint 1);
          ("elapsed", jfloat yew_t);
          ("elapsed_specialised", jfloat spec_t);
          ("nodes", jint yew_stats.Yewpar_core.Stats.nodes);
          ("pruned", jint yew_stats.Yewpar_core.Stats.pruned) ];
      let seq_slow = Summary.percent_change ~baseline:spec_t yew_t in
      (* Parallel: simulated OpenMP-style vs simulated YewPar. *)
      let topology = Sim_config.topology ~localities:1 ~workers:15 in
      let coordination = Coordination.Depth_bounded { dcutoff = 1 } in
      let _, m_omp =
        Sim.run ~costs:Sim_config.openmp_like ~topology ~coordination problem
      in
      let yew_costs =
        Sim_config.with_node_cost Sim_config.default
          (Sim_config.default.Sim_config.node_cost *. (1. +. (seq_slow /. 100.)))
      in
      let _, m_yew = Sim.run ~costs:yew_costs ~topology ~coordination problem in
      let seq_virtual = virtual_seq_time name (Instances.Packed (problem, fun _ -> "")) in
      List.iter
        (fun (variant, m) ->
          json_sim_run ~experiment:("table1-" ^ variant) ~name ~coordination
            ~topology m
            ~speedup:(Metrics.speedup ~sequential_time:seq_virtual m))
        [ ("openmp", m_omp); ("yewpar", m_yew) ];
      let par_slow =
        Summary.percent_change ~baseline:m_omp.Metrics.makespan m_yew.Metrics.makespan
      in
      let big = spec_t > 0.05 in
      if big then begin
        seq_slowdowns := (1. +. (seq_slow /. 100.)) :: !seq_slowdowns;
        par_slowdowns := (1. +. (par_slow /. 100.)) :: !par_slowdowns
      end;
      rows :=
        [ (name ^ if big then " *" else "");
          Table.fseconds spec_t; Table.fseconds yew_t; Table.fpercent seq_slow;
          Printf.sprintf "%.4f" m_omp.Metrics.makespan;
          Printf.sprintf "%.4f" m_yew.Metrics.makespan; Table.fpercent par_slow ]
        :: !rows;
      Printf.eprintf "  [table1] %s done\n%!" name)
    Instances.clique_graphs;
  let geo xs = (Summary.geometric_mean xs -. 1.) *. 100. in
  let rows =
    List.rev !rows
    @ [ [ "Geo. mean (*)"; ""; ""; Table.fpercent (geo !seq_slowdowns); ""; "";
          Table.fpercent (geo !par_slowdowns) ] ]
  in
  print_endline
    (Table.render
       ~header:
         [ "Instance"; "Seq spec (s)"; "Seq YewPar (s)"; "Slowdown (%)";
           "OpenMP-sim (s)"; "DB-sim (s)"; "Slowdown (%)" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Figure 4: k-clique scaling to 255 workers / 17 localities.          *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  section "Figure 4: k-clique scaling (15 workers per locality)";
  let inst, _, k = Instances.figure4 in
  let (Instances.Packed (_, _) as packed) = Lazy.force inst.Instances.problem in
  let seq = virtual_seq_time inst.Instances.name packed in
  Printf.printf
    "Instance %s: proving no clique of size %d exists (the planted\n\
     clique has %d vertices); sequential virtual time %.4fs.\n\
     Speedups are relative to 1 locality (15 workers), as in the paper.\n\n"
    inst.Instances.name k (k - 1) seq;
  let localities = [ 1; 2; 4; 8; 16; 17 ] in
  let skeletons =
    [ ("Depth-Bounded (d=2)", Coordination.Depth_bounded { dcutoff = 2 });
      ("Stack-Stealing (chunked)", Coordination.Stack_stealing { chunked = true });
      ("Budget (b=2000)", Coordination.Budget { budget = 2_000 }) ]
  in
  let results =
    List.map
      (fun (sname, coordination) ->
        let makespans =
          List.map
            (fun l ->
              let topology = Sim_config.topology ~localities:l ~workers:15 in
              let (Instances.Packed (p, _)) = packed in
              let _, m = Sim.run ~topology ~coordination p in
              json_sim_run ~experiment:"figure4" ~name:inst.Instances.name
                ~coordination ~topology m
                ~speedup:(Metrics.speedup ~sequential_time:seq m);
              Printf.eprintf "  [figure4] %s x%d done\n%!" sname l;
              m.Metrics.makespan)
            localities
        in
        (sname, makespans))
      skeletons
  in
  let header = "Skeleton" :: List.map (fun l -> string_of_int l) localities in
  Printf.printf "Runtime (virtual s) by number of localities:\n";
  print_endline
    (Table.render ~header
       (List.map
          (fun (s, ms) -> s :: List.map (fun m -> Printf.sprintf "%.4f" m) ms)
          results));
  Printf.printf "\nSpeedup relative to 1 locality:\n";
  print_endline
    (Table.render ~header
       (List.map
          (fun (s, ms) ->
            let base = List.hd ms in
            s :: List.map (fun m -> Table.fspeedup (base /. m)) ms)
          results));
  Printf.printf "\nAbsolute speedup vs sequential (paper: up to 195x on 255 workers):\n";
  print_endline
    (Table.render ~header
       (List.map
          (fun (s, ms) -> s :: List.map (fun m -> Table.fspeedup (seq /. m)) ms)
          results))

(* ------------------------------------------------------------------ *)
(* Job server: throughput and tail latency under concurrent jobs.      *)
(* ------------------------------------------------------------------ *)

module Server = Yewpar_server.Server
module Http = Yewpar_telemetry.Http_export
module J = Yewpar_telemetry.Analyze

(* Must run before any section that spawns a domain: [Server.start]
   forks the fleet, and OCaml 5 forbids forking once a domain exists
   (the main driver below calls this first for that reason). *)
let serve_bench () =
  section "Job server: concurrent jobs on one persistent fleet";
  let localities = 2 and workers = 2 in
  let jobs =
    [ ("queens-10", "depthbounded:2"); ("knap-ss-20", "budget:1000");
      ("queens-8", "stacksteal"); ("queens-10", "budget:1000");
      ("knap-ss-20", "depthbounded:2"); ("queens-8", "depthbounded:2") ]
  in
  Printf.printf
    "%d jobs submitted at once to [yewpar serve] (%d localities x %d\n\
     workers, max 2 running): per-job latency is submission to\n\
     completion, so queueing shows up in the tail. Real wall-clock;\n\
     reported, not gated.\n\n"
    (List.length jobs) localities workers;
  let registry =
    List.filter_map
      (fun i ->
        let (Instances.Packed (p, show)) = Lazy.force i.Instances.problem in
        match Server.servable p ~show with
        | Ok sv -> Some (i.Instances.name, sv)
        | Error _ -> None)
      (Instances.all ())
  in
  let config =
    { Server.default_config with
      Server.localities; workers; max_jobs = 2; queue_depth = 64 }
  in
  let t = Server.start ~config ~registry () in
  let port = Server.port t in
  let t0 = Unix.gettimeofday () in
  let ids =
    List.map
      (fun (problem, skeleton) ->
        let body =
          Printf.sprintf {|{"problem": %s, "skeleton": %s}|} (jstr problem)
            (jstr skeleton)
        in
        let status, body = Http.request ~meth:"POST" ~body ~port "/jobs" in
        if status <> 202 then
          failwith (Printf.sprintf "POST /jobs -> %d: %s" status body);
        int_of_float (J.num_or (-1.) (J.member "id" (J.parse_json body))))
      jobs
  in
  let rec poll id =
    let _, body = Http.request ~port (Printf.sprintf "/jobs/%d" id) in
    let doc = J.parse_json body in
    match J.str_or "" (J.member "state" doc) with
    | "done" | "failed" | "cancelled" -> doc
    | _ ->
      Unix.sleepf 0.05;
      poll id
  in
  let docs = List.map poll ids in
  let elapsed = Unix.gettimeofday () -. t0 in
  Server.stop t;
  let latencies =
    List.map
      (fun doc ->
        J.num_or nan (J.member "finished" doc)
        -. J.num_or nan (J.member "submitted" doc))
      docs
  in
  let rows =
    List.mapi
      (fun i ((problem, skeleton), (doc, latency)) ->
        let state = J.str_or "?" (J.member "state" doc) in
        json_record
          [ ("experiment", jstr "serve"); ("problem", jstr problem);
            ("skeleton", jstr skeleton); ("runtime", jstr "serve");
            ("localities", jint localities); ("workers", jint workers);
            ("elapsed", jfloat latency); ("job", jint i) ];
        if state <> "done" then
          failwith
            (Printf.sprintf "job %d (%s/%s) ended %s, expected done" i problem
               skeleton state);
        [ string_of_int i; problem; skeleton; state;
          Printf.sprintf "%.4f" latency ])
      (List.combine jobs (List.combine docs latencies))
  in
  let throughput = float_of_int (List.length jobs) /. elapsed in
  json_record
    [ ("experiment", jstr "serve-summary"); ("problem", jstr "all");
      ("skeleton", jstr "mixed"); ("runtime", jstr "serve");
      ("localities", jint localities); ("workers", jint workers);
      ("elapsed", jfloat elapsed); ("jobs", jint (List.length jobs));
      ("throughput", jfloat throughput) ];
  print_endline
    (Table.render
       ~header:[ "Job"; "Instance"; "Skeleton"; "State"; "Latency (s)" ]
       rows);
  let sorted = Array.of_list latencies in
  Array.sort compare sorted;
  Printf.printf
    "\nwall %.3fs  throughput %.2f jobs/s  p50 %.4fs  p95 %.4fs  p99 %.4fs\n"
    elapsed throughput
    (J.percentile 50. sorted)
    (J.percentile 95. sorted)
    (J.percentile 99. sorted)

(* ------------------------------------------------------------------ *)
(* Table 2: 18 alternate parallelisations on 120 workers.              *)
(* ------------------------------------------------------------------ *)

let table2 ~dcutoffs ~budgets () =
  section "Table 2: alternate parallelisations, mean speedup on 120 workers";
  Printf.printf
    "8 localities x 15 workers; speedup vs the Sequential skeleton's\n\
     virtual time; geometric mean over each application's instances.\n\
     Worst/Best over the parameter sweep (dcutoff in {%s}, budget in {%s},\n\
     stack-stealing in {plain, chunked}); Random is a seeded random pick.\n\n"
    (String.concat ", " (List.map string_of_int dcutoffs))
    (String.concat ", " (List.map string_of_int budgets));
  let topology = Sim_config.topology ~localities:8 ~workers:15 in
  let rng = Splitmix.of_seed 2020 in
  let sweep_speedups instances params =
    List.map
      (fun coordination ->
        let per_instance =
          List.map
            (fun i ->
              let packed = Lazy.force i.Instances.problem in
              sim_speedup ~experiment:"table2" ~topology ~coordination
                i.Instances.name packed)
            instances
        in
        Summary.geometric_mean per_instance)
      params
  in
  let skeleton_rows = ref [] in
  let all_by_family = Hashtbl.create 3 in
  List.iter
    (fun (app, instances) ->
      let families =
        [ ("Depth-Bounded",
           List.map (fun d -> Coordination.Depth_bounded { dcutoff = d }) dcutoffs);
          ("Stack-Stealing",
           [ Coordination.Stack_stealing { chunked = false };
             Coordination.Stack_stealing { chunked = true } ]);
          ("Budget", List.map (fun b -> Coordination.Budget { budget = b }) budgets) ]
      in
      List.iter
        (fun (fname, params) ->
          let speedups = sweep_speedups instances params in
          let worst, best = Summary.min_max speedups in
          let random = List.nth speedups (Splitmix.int rng (List.length speedups)) in
          Hashtbl.replace all_by_family fname
            ((worst, random, best)
            :: (try Hashtbl.find all_by_family fname with Not_found -> []));
          skeleton_rows :=
            [ app; fname; Table.fspeedup worst; Table.fspeedup random;
              Table.fspeedup best ]
            :: !skeleton_rows;
          Printf.eprintf "  [table2] %s / %s done\n%!" app fname)
        families)
    Instances.table2_suite;
  let all_rows =
    List.map
      (fun fname ->
        let triples = Hashtbl.find all_by_family fname in
        let geo f = Summary.geometric_mean (List.map f triples) in
        [ "All"; fname;
          Table.fspeedup (geo (fun (w, _, _) -> w));
          Table.fspeedup (geo (fun (_, r, _) -> r));
          Table.fspeedup (geo (fun (_, _, b) -> b)) ])
      [ "Depth-Bounded"; "Stack-Stealing"; "Budget" ]
  in
  print_endline
    (Table.render
       ~header:[ "Application"; "Skeleton"; "Worst"; "Random"; "Best" ]
       (List.rev !skeleton_rows @ all_rows))

(* ------------------------------------------------------------------ *)
(* Ablations (§5.5 and DESIGN.md).                                     *)
(* ------------------------------------------------------------------ *)

let ablation_budget () =
  section "Ablation A1: Budget sensitivity (speedup vs backtrack budget, 120 workers)";
  let topology = Sim_config.topology ~localities:8 ~workers:15 in
  let budgets = [ 10; 100; 1_000; 10_000; 100_000 ] in
  let header = "Instance" :: List.map string_of_int budgets in
  let rows =
    List.filter_map
      (fun (app, instances) ->
        match instances with
        | [] -> None
        | i :: _ ->
          let packed = Lazy.force i.Instances.problem in
          Some
            (Printf.sprintf "%s/%s" app i.Instances.name
            :: List.map
                 (fun b ->
                   let coordination = Coordination.Budget { budget = b } in
                   Table.fspeedup
                     (sim_speedup ~experiment:"ablation-budget" ~topology
                        ~coordination i.Instances.name packed))
                 budgets))
      Instances.table2_suite
  in
  print_endline (Table.render ~header rows);
  Printf.printf
    "\nSmall budgets overload the workpool with tiny tasks; huge budgets\n\
     starve workers — the sweet spot is instance-dependent (paper §5.5).\n"

let ablation_pool () =
  section "Ablation A3: depth-aware order-preserving pools vs plain FIFO";
  Printf.printf
    "YewPar's bespoke workpool pops deepest-first locally (staying\n\
     depth-first, so incumbents improve as fast as sequentially) and\n\
     shallowest-first for steals (paper §4.3). A plain FIFO floods the\n\
     system with speculative shallow tasks under deep cutoffs.\n\n";
  let inst, _, _ = Instances.figure4 in
  let packed = Lazy.force inst.Instances.problem in
  let topology = Sim_config.topology ~localities:4 ~workers:15 in
  let rows =
    List.map
      (fun (cname, coordination) ->
        let run costs =
          sim_speedup ~experiment:"ablation-pool" ~costs ~topology ~coordination
            inst.Instances.name packed
        in
        let depth_pool = run Sim_config.default in
        let fifo = run { Sim_config.default with Sim_config.fifo_pool = true } in
        [ cname; Table.fspeedup depth_pool; Table.fspeedup fifo;
          Printf.sprintf "%.2f" (depth_pool /. fifo) ])
      [ ("depthbounded:2", Coordination.Depth_bounded { dcutoff = 2 });
        ("depthbounded:3", Coordination.Depth_bounded { dcutoff = 3 });
        ("budget:1000", Coordination.Budget { budget = 1_000 });
        ("budget:10000", Coordination.Budget { budget = 10_000 }) ]
  in
  print_endline
    (Table.render
       ~header:[ "Skeleton"; "Depth-pool speedup"; "FIFO speedup"; "ratio" ] rows)

let ablation_bestfirst () =
  section "Ablation A4: Best-First extension vs Depth-Bounded (120 workers)";
  Printf.printf
    "The paper names best-first search as a natural extension\n\
     coordination (§4); here Best-First uses the same spawns as\n\
     Depth-Bounded but a priority workpool keyed by the optimistic\n\
     bound. Strong bounds should find incumbents sooner and prune more.\n\n";
  let topology = Sim_config.topology ~localities:8 ~workers:15 in
  let one app =
    match List.assoc_opt app Instances.table2_suite with
    | Some (i :: _) -> Some (app, i)
    | _ -> None
  in
  let rows =
    List.filter_map
      (fun app ->
        match one app with
        | None -> None
        | Some (app, i) ->
          let packed = Lazy.force i.Instances.problem in
          let speed coordination =
            sim_speedup ~experiment:"ablation-bestfirst" ~topology ~coordination
              i.Instances.name packed
          in
          let db = speed (Coordination.Depth_bounded { dcutoff = 2 }) in
          let bf = speed (Coordination.Best_first { dcutoff = 2 }) in
          Some
            [ Printf.sprintf "%s/%s" app i.Instances.name; Table.fspeedup db;
              Table.fspeedup bf; Printf.sprintf "%.2f" (bf /. db) ])
      [ "MaxClique"; "TSP"; "Knapsack"; "SIP" ]
  in
  print_endline
    (Table.render
       ~header:[ "Instance"; "Depth-Bounded d=2"; "Best-First d=2"; "BF/DB" ]
       rows)

let ablation_ordered () =
  section "Ablation A5: the price of replicability (Ordered vs Depth-Bounded)";
  Printf.printf
    "Ordered ([4] in the paper) only prunes with incumbents from the\n\
     left, so its witness is the leftmost optimum in every run — but it\n\
     forfeits right-to-left acceleration. 120 workers, dcutoff 2.\n\n";
  let topology = Sim_config.topology ~localities:8 ~workers:15 in
  let rows =
    List.filter_map
      (fun (name, graph) ->
        if not (List.mem name [ "brock400_1-s"; "sanr200_0.9-s"; "p_hat700-3-s" ])
        then None
        else begin
          let g = Lazy.force graph in
          let p = Mc.max_clique g in
          let _, seq_time = Sim.virtual_sequential p in
          let _, m_db =
            Sim.run ~topology
              ~coordination:(Coordination.Depth_bounded { dcutoff = 2 }) p
          in
          let _, m_ord = Yewpar_sim.Ordered.search ~dcutoff:2 ~topology p in
          Some
            [ name;
              Table.fspeedup (Metrics.speedup ~sequential_time:seq_time m_db);
              Table.fspeedup (Metrics.speedup ~sequential_time:seq_time m_ord) ]
        end)
      Instances.clique_graphs
  in
  print_endline
    (Table.render ~header:[ "Instance"; "Depth-Bounded d=2"; "Ordered d=2" ] rows);
  Printf.printf
    "\nOrdered trades speed for determinism: identical witnesses across\n\
     every topology (see test/test_ordered.ml).\n"

let ablation_anomaly () =
  section "Ablation A2: performance anomalies (decision search, 15 workers)";
  Printf.printf
    "A satisfiable k-clique decision (the witness exists but is hard to\n\
     find), 20 scheduler seeds, Stack-Stealing. Speedups > workers are\n\
     acceleration anomalies (speculation finds the witness early); < 1\n\
     are detrimental anomalies (paper §2.1).\n\n";
  let _, graph, k = Instances.figure4 in
  let g = Lazy.force graph in
  (* k - 1 = the planted clique: satisfiable, discovery-time dominated. *)
  let packed =
    Instances.Packed (Mc.k_clique g ~k:(k - 1), fun _ -> "witness")
  in
  let topology = Sim_config.topology ~localities:1 ~workers:15 in
  let coordination = Coordination.Stack_stealing { chunked = true } in
  let speedups =
    List.init 20 (fun seed ->
        sim_speedup ~experiment:"ablation-anomaly" ~seed:(seed + 1) ~topology
          ~coordination "figure4-sat" packed)
  in
  let lo, hi = Summary.min_max speedups in
  Printf.printf "min %.2fx  median %.2fx  max %.2fx  (15 workers)\n" lo
    (Summary.median speedups) hi;
  Printf.printf "acceleration anomalies (>15x): %d/20\n"
    (List.length (List.filter (fun s -> s > 15.) speedups));
  Printf.printf "detrimental anomalies  (<1x): %d/20\n"
    (List.length (List.filter (fun s -> s < 1.) speedups))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure kernel.   *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Bechamel micro-benchmarks (kernels of each experiment)";
  let open Bechamel in
  let graph = Lazy.force (List.assoc "brock400_4-s" Instances.clique_graphs) in
  let root = Mc.root graph in
  (* Table 1 kernel: node generation + processing, generic vs hand-coded. *)
  let t_table1_generic =
    Test.make ~name:"table1/lazy-node-generator"
      (Staged.stage (fun () -> Seq.iter ignore (Mc.children graph root)))
  in
  let t_table1_spec =
    Test.make ~name:"table1/specialised-colouring"
      (Staged.stage (fun () -> ignore (Mc.colour_order graph root.Mc.candidates)))
  in
  (* Figure 4 kernel: a full (tiny) simulated decision search. *)
  let small_g = Yewpar_graph.Gen.hidden_clique ~seed:9 60 0.5 9 in
  let t_figure4 =
    Test.make ~name:"figure4/sim-kclique-2x4"
      (Staged.stage (fun () ->
           ignore
             (Sim.run
                ~topology:(Sim_config.topology ~localities:2 ~workers:4)
                ~coordination:(Coordination.Stack_stealing { chunked = true })
                (Mc.k_clique small_g ~k:9))))
  in
  (* Table 2 kernel: engine throughput on an enumeration tree. *)
  let uts_small =
    Yewpar_uts.Uts.count_problem
      { Yewpar_uts.Uts.b0 = 30; q = 0.2; m = 4; max_depth = 60; seed = 2 }
  in
  let t_table2 =
    Test.make ~name:"table2/sequential-engine-uts"
      (Staged.stage (fun () -> ignore (Sequential.search uts_small)))
  in
  let tests =
    Test.make_grouped ~name:"yewpar"
      [ t_table1_generic; t_table1_spec; t_figure4; t_table2 ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ e ] -> Printf.sprintf "%.1f" e
          | _ -> "n/a"
        in
        let r2 =
          match Analyze.OLS.r_square ols with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "n/a"
        in
        [ name; est; r2 ] :: acc)
      results []
  in
  print_endline
    (Table.render ~header:[ "Kernel"; "ns/run"; "r^2" ] (List.sort compare rows))

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* Pull `--json FILE` out of the section list. *)
  let json_file, args =
    let rec extract acc = function
      | [] -> (None, List.rev acc)
      | "--json" :: file :: rest -> (Some file, List.rev_append acc rest)
      | [ "--json" ] ->
        prerr_endline "bench: --json requires a FILE argument";
        exit 2
      | a :: rest -> extract (a :: acc) rest
    in
    extract [] args
  in
  let quick = not (List.mem "full" args) in
  let reps = if quick then 2 else 5 in
  let dcutoffs = if quick then [ 1; 2; 3; 4; 6 ] else [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let budgets =
    if quick then [ 100; 1_000; 10_000; 100_000 ]
    else [ 10; 100; 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let sections = List.filter (fun a -> a <> "full") args in
  let run_all = sections = [] in
  let want s = run_all || List.mem s sections in
  let t0 = Unix.gettimeofday () in
  (* First: serve forks its fleet, which must happen before any other
     section spawns a domain (micro and the HTTP exporter itself do). *)
  if want "serve" then serve_bench ();
  if want "table1" then table1 ~reps ();
  if want "figure4" then figure4 ();
  if want "table2" then table2 ~dcutoffs ~budgets ();
  if want "ablations" || want "ablation-budget" then ablation_budget ();
  if want "ablations" || want "ablation-pool" then ablation_pool ();
  if want "ablations" || want "ablation-bestfirst" then ablation_bestfirst ();
  if want "ablations" || want "ablation-ordered" then ablation_ordered ();
  if want "ablations" || want "ablation-anomaly" then ablation_anomaly ();
  if want "micro" then micro ();
  (match json_file with
  | Some file ->
    write_json file;
    Printf.printf "\n[bench] wrote %d records to %s\n"
      (List.length !json_records) file
  | None -> ());
  Printf.printf "\n[bench] total wall time %.1fs\n" (Unix.gettimeofday () -. t0)
