(* The Ordered skeleton's replicability guarantee: for optimisation
   searches it returns the *identical* witness — the leftmost optimum —
   as the Sequential skeleton, for every topology and cutoff. Ordinary
   parallel skeletons only promise the same objective value. Ordered is
   a coordination of the shared worker core, so these cases drive it
   through [Sim.run] and [Shm.run]. *)

module Sim = Yewpar_sim.Sim
module Config = Yewpar_sim.Config
module Metrics = Yewpar_sim.Metrics
module Shm = Yewpar_par.Shm
module Sequential = Yewpar_core.Sequential
module Coordination = Yewpar_core.Coordination
module Problem = Yewpar_core.Problem
module Stats = Yewpar_core.Stats
module Depth_profile = Yewpar_core.Depth_profile
module Mc = Yewpar_maxclique.Maxclique
module K = Yewpar_knapsack.Knapsack
module T = Yewpar_tsp.Tsp
module Gen = Yewpar_graph.Gen

let ordered dcutoff = Coordination.Ordered { dcutoff }

let topologies =
  [ Config.topology ~localities:1 ~workers:1;
    Config.topology ~localities:1 ~workers:7;
    Config.topology ~localities:3 ~workers:5;
    Config.topology ~localities:8 ~workers:15 ]

let sim ?(dcutoff = 2) ~topology p =
  Sim.run ~topology ~coordination:(ordered dcutoff) p

let maxclique_witness_replicable () =
  (* Random dense graphs usually have several maximum cliques, so this
     genuinely discriminates witness policies. *)
  for seed = 0 to 5 do
    let g = Gen.uniform ~seed:(500 + seed) 40 0.6 in
    let p = Mc.max_clique g in
    let reference = Mc.vertices_of (Sequential.search p) in
    List.iter
      (fun topology ->
        List.iter
          (fun dcutoff ->
            let node, _ = sim ~dcutoff ~topology p in
            Alcotest.(check (list int))
              (Printf.sprintf "seed %d d=%d witness" seed dcutoff)
              reference (Mc.vertices_of node))
          [ 0; 1; 2; 3 ])
      topologies
  done

let knapsack_witness_replicable () =
  let inst = K.Generate.uncorrelated ~seed:510 ~n:16 ~max_value:50 in
  let p = K.problem inst in
  let reference = (Sequential.search p).K.taken in
  List.iter
    (fun topology ->
      let node, _ = sim ~topology p in
      Alcotest.(check (list int)) "same items" reference node.K.taken;
      Alcotest.(check int) "optimal" (K.exact_dp inst) node.K.profit)
    topologies

let tsp_witness_replicable () =
  let inst = T.random_euclidean ~seed:511 ~n:10 ~size:80 in
  let p = T.problem inst in
  let reference = T.tour_of inst (Sequential.search p) in
  List.iter
    (fun topology ->
      let node, _ = sim ~topology p in
      Alcotest.(check (list int)) "same tour" reference (T.tour_of inst node);
      Alcotest.(check int) "optimal" (T.exact_held_karp inst)
        (T.closed_length inst node))
    topologies

let shm_witness_replicable () =
  (* Real domains: scheduling is genuinely nondeterministic, yet the
     Ordered skeleton must return the identical witness every time. The
     run goes through the worker core, so its stats must also satisfy
     the depth-profile column sums. *)
  let g = Gen.uniform ~seed:520 36 0.6 in
  let p = Mc.max_clique g in
  let reference = Mc.vertices_of (Sequential.search p) in
  List.iter
    (fun (workers, dcutoff) ->
      for run = 1 to 4 do
        let cell =
          Printf.sprintf "workers %d d=%d run %d" workers dcutoff run
        in
        let stats = Stats.create () in
        let node = Shm.run ~workers ~stats ~coordination:(ordered dcutoff) p in
        Alcotest.(check (list int)) cell reference (Mc.vertices_of node);
        (* With no cutoff the root is the only task. *)
        Alcotest.(check bool) (cell ^ ": tasks spawned") true
          (dcutoff = 0 || stats.Stats.tasks > 1);
        let nodes, pruned, spawned, bounds =
          Depth_profile.totals stats.Stats.depths
        in
        Alcotest.(check int) (cell ^ ": nodes column") stats.Stats.nodes nodes;
        Alcotest.(check int) (cell ^ ": pruned column") stats.Stats.pruned pruned;
        Alcotest.(check int) (cell ^ ": spawned column") stats.Stats.tasks spawned;
        Alcotest.(check int) (cell ^ ": bounds column") stats.Stats.bound_updates
          bounds
      done)
    (List.concat_map
       (fun w -> List.map (fun d -> (w, d)) [ 0; 1; 2; 3 ])
       [ 1; 2; 4 ])

let count =
  Problem.count_nodes ~name:"c" ~space:() ~root:0
    ~children:(fun () _ -> Seq.empty) ()

let shm_rejects_non_optimisation () =
  Alcotest.check_raises "enumerate rejected"
    (Invalid_argument "Shm.run: the ordered skeleton needs an optimisation problem")
    (fun () -> ignore (Shm.run ~workers:2 ~coordination:(ordered 2) count))

let rejects_non_optimisation () =
  Alcotest.check_raises "enumerate rejected"
    (Invalid_argument "Sim.run: the ordered skeleton needs an optimisation problem")
    (fun () -> ignore (sim ~topology:(List.hd topologies) count))

let metrics_sane () =
  let g = Gen.uniform ~seed:512 50 0.6 in
  let node, m =
    sim ~topology:(Config.topology ~localities:2 ~workers:8) (Mc.max_clique g)
  in
  Alcotest.(check bool) "found a clique" true (node.Mc.size >= 1);
  Alcotest.(check bool) "makespan positive" true (m.Metrics.makespan > 0.);
  Alcotest.(check bool) "efficiency <= 1" true (Metrics.efficiency m <= 1. +. 1e-9);
  Alcotest.(check bool) "tasks spawned" true (m.Metrics.tasks > 1);
  Alcotest.(check int) "per-locality tasks sum" m.Metrics.tasks
    (Array.fold_left ( + ) 0 m.Metrics.tasks_per_locality)

let parallelism_helps () =
  (* Even without right-to-left knowledge, Ordered should beat one
     worker given enough tasks. *)
  let g = Gen.uniform ~seed:513 70 0.7 in
  let p = Mc.max_clique g in
  let _, m1 = sim ~topology:(Config.topology ~localities:1 ~workers:1) p in
  let _, m2 = sim ~topology:(Config.topology ~localities:4 ~workers:15) p in
  Alcotest.(check bool)
    (Printf.sprintf "parallel faster (%.4f vs %.4f)" m2.Metrics.makespan
       m1.Metrics.makespan)
    true
    (m2.Metrics.makespan < m1.Metrics.makespan)

let () =
  Alcotest.run "ordered"
    [
      ( "replicability",
        [
          Alcotest.test_case "maxclique witness" `Quick maxclique_witness_replicable;
          Alcotest.test_case "knapsack witness" `Quick knapsack_witness_replicable;
          Alcotest.test_case "tsp witness" `Quick tsp_witness_replicable;
          Alcotest.test_case "real domains witness" `Quick shm_witness_replicable;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "rejects enumeration" `Quick rejects_non_optimisation;
          Alcotest.test_case "shm rejects enumeration" `Quick shm_rejects_non_optimisation;
          Alcotest.test_case "metrics" `Quick metrics_sane;
          Alcotest.test_case "parallelism helps" `Quick parallelism_helps;
        ] );
    ]
