module Sim = Yewpar_sim.Sim
module Config = Yewpar_sim.Config
module Metrics = Yewpar_sim.Metrics
module Problem = Yewpar_core.Problem
module Sequential = Yewpar_core.Sequential
module Coordination = Yewpar_core.Coordination
module Mc = Yewpar_maxclique.Maxclique
module Gen = Yewpar_graph.Gen
module Uts = Yewpar_uts.Uts
module Knapsack = Yewpar_knapsack.Knapsack
module Telemetry = Yewpar_telemetry.Telemetry
module Journal = Yewpar_telemetry.Journal

(* A small rose-tree enumeration problem. *)
type tree = T of int * tree list

let rec mk_tree depth breadth v =
  T (v, if depth = 0 then [] else List.init breadth (fun i -> mk_tree (depth - 1) breadth ((v * breadth) + i + 1)))

let count_problem t =
  Problem.count_nodes ~name:"count" ~space:() ~root:t
    ~children:(fun () (T (_, cs)) -> List.to_seq cs)
    ()

let rec tree_size (T (_, cs)) = 1 + List.fold_left (fun a c -> a + tree_size c) 0 cs

let coords =
  [
    ("seq", Coordination.Sequential);
    ("depth1", Coordination.Depth_bounded { dcutoff = 1 });
    ("depth3", Coordination.Depth_bounded { dcutoff = 3 });
    ("stack", Coordination.Stack_stealing { chunked = false });
    ("stack-chunked", Coordination.Stack_stealing { chunked = true });
    ("budget10", Coordination.Budget { budget = 10 });
    ("budget1000", Coordination.Budget { budget = 1000 });
    ("bestfirst2", Coordination.Best_first { dcutoff = 2 });
    ("randomspawn8", Coordination.Random_spawn { mean_interval = 8 });
  ]

let topos =
  [
    ("1x1", Config.topology ~localities:1 ~workers:1);
    ("1x4", Config.topology ~localities:1 ~workers:4);
    ("2x2", Config.topology ~localities:2 ~workers:2);
    ("4x15", Config.topology ~localities:4 ~workers:15);
  ]

let enumeration_exact_everywhere () =
  let t = mk_tree 6 3 1 in
  let expected = tree_size t in
  List.iter
    (fun (cname, coordination) ->
      List.iter
        (fun (tname, topology) ->
          let r, _ = Sim.run ~topology ~coordination (count_problem t) in
          Alcotest.(check int)
            (Printf.sprintf "count %s on %s" cname tname)
            expected r)
        topos)
    coords

let optimisation_exact_everywhere () =
  let g = Gen.uniform ~seed:21 35 0.6 in
  let expected = (Sequential.search (Mc.max_clique g)).Mc.size in
  List.iter
    (fun (cname, coordination) ->
      List.iter
        (fun (tname, topology) ->
          let node, _ = Sim.run ~topology ~coordination (Mc.max_clique g) in
          Alcotest.(check int)
            (Printf.sprintf "maxclique %s on %s" cname tname)
            expected node.Mc.size)
        topos)
    coords

let decision_exact_everywhere () =
  let g = Gen.hidden_clique ~seed:22 40 0.3 8 in
  List.iter
    (fun (cname, coordination) ->
      let found, _ =
        Sim.run ~topology:(Config.topology ~localities:2 ~workers:4) ~coordination
          (Mc.k_clique g ~k:8)
      in
      (match found with
      | Some node ->
        Alcotest.(check bool)
          (Printf.sprintf "witness valid (%s)" cname)
          true
          (Yewpar_graph.Graph.is_clique g (Mc.vertices_of node))
      | None -> Alcotest.fail (Printf.sprintf "8-clique not found (%s)" cname));
      let none, _ =
        Sim.run ~topology:(Config.topology ~localities:2 ~workers:4) ~coordination
          (Mc.k_clique g ~k:20)
      in
      match none with
      | Some _ -> Alcotest.fail (Printf.sprintf "20-clique cannot exist (%s)" cname)
      | None -> ())
    coords

let deterministic_replay () =
  let t = mk_tree 6 3 1 in
  let topology = Config.topology ~localities:3 ~workers:5 in
  let coordination = Coordination.Budget { budget = 20 } in
  let _, m1 = Sim.run ~seed:9 ~topology ~coordination (count_problem t) in
  let _, m2 = Sim.run ~seed:9 ~topology ~coordination (count_problem t) in
  Alcotest.(check (float 0.)) "same makespan" m1.Metrics.makespan m2.Metrics.makespan;
  Alcotest.(check int) "same steals" m1.Metrics.steal_successes m2.Metrics.steal_successes;
  Alcotest.(check int) "same tasks" m1.Metrics.tasks m2.Metrics.tasks

let metrics_sanity () =
  let t = mk_tree 7 3 1 in
  let topology = Config.topology ~localities:2 ~workers:8 in
  let r, m =
    Sim.run ~topology ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
      (count_problem t)
  in
  Alcotest.(check int) "result" (tree_size t) r;
  Alcotest.(check int) "nodes processed = tree size" (tree_size t) m.Metrics.nodes;
  Alcotest.(check bool) "makespan positive" true (m.Metrics.makespan > 0.);
  Alcotest.(check bool) "work >= makespan impossible on 1 task? at least positive" true
    (m.Metrics.total_work > 0.);
  Alcotest.(check bool) "efficiency within [0,1]" true
    (Metrics.efficiency m <= 1.0 +. 1e-9 && Metrics.efficiency m >= 0.);
  Alcotest.(check int) "workers recorded" 16 m.Metrics.workers;
  (* Depth 2 with branching 3: 1 root task + 3 + 9 subtree tasks. *)
  Alcotest.(check int) "task count for depth-bounded" 13 m.Metrics.tasks;
  Alcotest.(check int) "per-locality tasks sum to total" m.Metrics.tasks
    (Array.fold_left ( + ) 0 m.Metrics.tasks_per_locality);
  Alcotest.(check bool) "imbalance >= 1" true (Metrics.imbalance m >= 1.)

let parallel_speedup_on_regular_tree () =
  (* A perfectly regular enumeration must show near-linear virtual
     speedup with Depth-Bounded at a good cutoff. *)
  let t = mk_tree 8 3 1 in
  let p = count_problem t in
  let _, seq_time = Sim.virtual_sequential p in
  let _, m =
    Sim.run ~topology:(Config.topology ~localities:1 ~workers:15)
      ~coordination:(Coordination.Depth_bounded { dcutoff = 3 }) p
  in
  let speedup = Metrics.speedup ~sequential_time:seq_time m in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.2f should be > 8 on 15 workers" speedup)
    true (speedup > 8.)

let sequential_coordination_matches_baseline () =
  let t = mk_tree 6 3 1 in
  let p = count_problem t in
  let _, seq_time = Sim.virtual_sequential p in
  let _, m =
    Sim.run ~topology:(Config.topology ~localities:1 ~workers:1)
      ~coordination:Coordination.Sequential p
  in
  (* One worker, no spawning: makespan within a node cost of baseline
     (the baseline also counts pruned bound checks; none here). *)
  Alcotest.(check bool) "sequential sim close to virtual baseline" true
    (Float.abs (m.Metrics.makespan -. seq_time) < seq_time *. 0.5)

let knowledge_propagation_prunes () =
  (* Optimisation on a bounded problem: remote localities must
     eventually receive bounds and prune; just assert broadcasts
     happen and the result stays exact. *)
  let inst = Knapsack.Generate.strongly_correlated ~seed:33 ~n:16 ~max_value:100 in
  let p = Knapsack.problem inst in
  let expected = Knapsack.exact_dp inst in
  let node, m =
    Sim.run ~topology:(Config.topology ~localities:4 ~workers:4)
      ~coordination:(Coordination.Depth_bounded { dcutoff = 2 }) p
  in
  Alcotest.(check int) "exact optimum across localities" expected node.Knapsack.profit;
  Alcotest.(check bool) "bounds were broadcast" true (m.Metrics.bound_broadcasts > 0)

let uts_on_sim () =
  let params = { Uts.default with b0 = 40; seed = 5; q = 0.2; m = 4 } in
  let p = Uts.count_problem params in
  let expected = Sequential.search p in
  List.iter
    (fun (cname, coordination) ->
      let r, _ =
        Sim.run ~topology:(Config.topology ~localities:2 ~workers:8) ~coordination p
      in
      Alcotest.(check int) (Printf.sprintf "uts count (%s)" cname) expected r)
    coords

(* Regression: the depth-aware pool must keep deep cutoffs from
   flooding the system with speculative breadth-first tasks; a plain
   FIFO pool demonstrably does (the A3 ablation). *)
let depth_pool_controls_speculation () =
  let g = Gen.uniform ~seed:77 60 0.7 in
  let p = Mc.max_clique g in
  let topology = Config.topology ~localities:2 ~workers:8 in
  let coordination = Coordination.Depth_bounded { dcutoff = 5 } in
  let _, depth_m = Sim.run ~topology ~coordination p in
  let fifo_costs = { Yewpar_sim.Config.default with Yewpar_sim.Config.fifo_pool = true } in
  let _, fifo_m = Sim.run ~costs:fifo_costs ~topology ~coordination p in
  Alcotest.(check bool)
    (Printf.sprintf "depth pool processes fewer nodes (%d vs %d)"
       depth_m.Metrics.nodes fifo_m.Metrics.nodes)
    true
    (depth_m.Metrics.nodes <= fifo_m.Metrics.nodes)

(* Regression: chunked stack-stealing must bound-filter split chunks, so
   its task count stays within a small multiple of the nodes actually
   processed (it used to materialise whole frames of dead siblings). *)
let chunked_steal_filters () =
  let g = Gen.uniform ~seed:78 60 0.7 in
  let p = Mc.max_clique g in
  let topology = Config.topology ~localities:2 ~workers:8 in
  let _, m =
    Sim.run ~topology ~coordination:(Coordination.Stack_stealing { chunked = true }) p
  in
  Alcotest.(check bool)
    (Printf.sprintf "tasks (%d) bounded by nodes (%d)" m.Metrics.tasks m.Metrics.nodes)
    true
    (m.Metrics.tasks <= m.Metrics.nodes + 1)

(* The per-worker busy time can never exceed the makespan. *)
let no_worker_overlap () =
  let t = mk_tree 7 3 1 in
  List.iter
    (fun (cname, coordination) ->
      let _, m =
        Sim.run ~topology:(Config.topology ~localities:2 ~workers:6) ~coordination
          (count_problem t)
      in
      Alcotest.(check bool)
        (Printf.sprintf "efficiency <= 1 (%s)" cname)
        true
        (Metrics.efficiency m <= 1.0 +. 1e-9))
    coords

(* The sim's trace is journal events in the one event model: on every
   coordination, each worker's busy intervals lie within [0, makespan],
   never overlap, and add up to the metrics' total work. *)
let trace_invariants () =
  let t = mk_tree 7 3 1 in
  let topology = Config.topology ~localities:2 ~workers:4 in
  List.iter
    (fun (cname, coordination) ->
      let tl = Telemetry.create () in
      let _, m = Sim.run ~trace:tl ~topology ~coordination (count_problem t) in
      let evs = Telemetry.events tl in
      let check what ok =
        Alcotest.(check bool) (Printf.sprintf "%s (%s)" what cname) true ok
      in
      check "events recorded" (evs <> []);
      let ends = Hashtbl.create 8 in
      List.iter
        (fun (e : Journal.event) ->
          let key = (e.Journal.locality, e.Journal.worker) in
          check "worker slot in topology"
            (e.Journal.locality >= 0 && e.Journal.locality < 2
            && e.Journal.worker >= 0 && e.Journal.worker < 4);
          check "positive duration" (e.Journal.dur > 0.);
          check "starts at or after 0" (e.Journal.t >= -1e-12);
          check "ends by the makespan"
            (e.Journal.t +. e.Journal.dur <= m.Metrics.makespan +. 1e-9);
          let prev_end = Option.value ~default:0. (Hashtbl.find_opt ends key) in
          check "no overlap on one worker" (e.Journal.t >= prev_end -. 1e-12);
          Hashtbl.replace ends key (e.Journal.t +. e.Journal.dur))
        evs;
      let traced_total =
        List.fold_left (fun acc (e : Journal.event) -> acc +. e.Journal.dur) 0. evs
      in
      check "trace covers the busy time"
        (Float.abs (traced_total -. m.Metrics.total_work) < 1e-9);
      let lines = String.split_on_char '\n' (String.trim (Telemetry.to_csv tl)) in
      Alcotest.(check int)
        (Printf.sprintf "csv rows = events + header (%s)" cname)
        (List.length evs + 1) (List.length lines);
      Alcotest.(check string)
        (Printf.sprintf "csv header (%s)" cname)
        "worker,start,duration,label" (List.hd lines))
    coords

exception Generator_failure

let generator_exceptions_propagate () =
  let visits = ref 0 in
  let exploding =
    Problem.count_nodes ~name:"exploding" ~space:() ~root:(T (1, []))
      ~children:(fun () _ ->
        incr visits;
        if !visits > 40 then raise Generator_failure
        else Seq.init 3 (fun i -> T (i, [])))
      ()
  in
  List.iter
    (fun (cname, coordination) ->
      visits := 0;
      match
        Sim.run ~topology:(Config.topology ~localities:2 ~workers:3) ~coordination
          exploding
      with
      | exception Generator_failure -> ()
      | _ -> Alcotest.fail (Printf.sprintf "expected failure to surface (%s)" cname))
    coords

(* Randomised stress: arbitrary topology × coordination × seed on a
   mid-size irregular tree must always count exactly. *)
let prop_random_configs =
  QCheck.Test.make ~name:"random configurations count exactly" ~count:40
    QCheck.(quad (int_range 1 4) (int_range 1 6) (int_bound 5) small_int)
    (fun (localities, workers, coord_idx, seed) ->
      let params = { Yewpar_uts.Uts.b0 = 20; q = 0.22; m = 4; max_depth = 60;
                     seed = 77 } in
      let p = Yewpar_uts.Uts.count_problem params in
      let expected = Sequential.search p in
      let coordination =
        match coord_idx with
        | 0 -> Coordination.Depth_bounded { dcutoff = 1 + (seed mod 4) }
        | 1 -> Coordination.Stack_stealing { chunked = seed mod 2 = 0 }
        | 2 -> Coordination.Budget { budget = 5 + (seed mod 200) }
        | 3 -> Coordination.Best_first { dcutoff = 1 + (seed mod 3) }
        | 4 -> Coordination.Random_spawn { mean_interval = 4 + (seed mod 60) }
        | _ -> Coordination.Sequential
      in
      let r, m =
        Sim.run ~seed ~topology:(Config.topology ~localities ~workers) ~coordination p
      in
      r = expected && Metrics.efficiency m <= 1. +. 1e-9)

let () =
  Alcotest.run "sim"
    [
      ( "exactness",
        [
          Alcotest.test_case "enumeration everywhere" `Quick enumeration_exact_everywhere;
          Alcotest.test_case "optimisation everywhere" `Quick optimisation_exact_everywhere;
          Alcotest.test_case "decision everywhere" `Quick decision_exact_everywhere;
          Alcotest.test_case "uts" `Quick uts_on_sim;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "deterministic replay" `Quick deterministic_replay;
          Alcotest.test_case "metrics sanity" `Quick metrics_sanity;
          Alcotest.test_case "regular-tree speedup" `Quick parallel_speedup_on_regular_tree;
          Alcotest.test_case "sequential baseline" `Quick sequential_coordination_matches_baseline;
          Alcotest.test_case "knowledge propagation" `Quick knowledge_propagation_prunes;
          Alcotest.test_case "depth pool vs speculation" `Quick
            depth_pool_controls_speculation;
          Alcotest.test_case "chunked steal filters" `Quick chunked_steal_filters;
          Alcotest.test_case "no worker overlap" `Quick no_worker_overlap;
          Alcotest.test_case "exception propagation" `Quick generator_exceptions_propagate;
          Alcotest.test_case "trace invariants" `Quick trace_invariants;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_configs ]);
    ]
