module Shm = Yewpar_par.Shm
module Problem = Yewpar_core.Problem
module Sequential = Yewpar_core.Sequential
module Coordination = Yewpar_core.Coordination
module Mc = Yewpar_maxclique.Maxclique
module Gen = Yewpar_graph.Gen
module Knapsack = Yewpar_knapsack.Knapsack
module Uts = Yewpar_uts.Uts
module Stats = Yewpar_core.Stats
module Depth_profile = Yewpar_core.Depth_profile
module Http_export = Yewpar_telemetry.Http_export

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
    ("depth2", Coordination.Depth_bounded { dcutoff = 2 });
    ("stack", Coordination.Stack_stealing { chunked = false });
    ("stack-chunked", Coordination.Stack_stealing { chunked = true });
    ("budget50", Coordination.Budget { budget = 50 });
    ("bestfirst2", Coordination.Best_first { dcutoff = 2 });
    ("randomspawn16", Coordination.Random_spawn { mean_interval = 16 });
  ]

let enumeration_matches () =
  let t = mk_tree 7 3 1 in
  let expected = tree_size t in
  List.iter
    (fun (name, coordination) ->
      let r = Shm.run ~workers:4 ~coordination (count_problem t) in
      Alcotest.(check int) (Printf.sprintf "count (%s)" name) expected r)
    coords

let optimisation_matches () =
  let g = Gen.uniform ~seed:41 35 0.6 in
  let expected = (Sequential.search (Mc.max_clique g)).Mc.size in
  List.iter
    (fun (name, coordination) ->
      let node = Shm.run ~workers:4 ~coordination (Mc.max_clique g) in
      Alcotest.(check int) (Printf.sprintf "maxclique (%s)" name) expected node.Mc.size)
    coords

let decision_matches () =
  let g = Gen.hidden_clique ~seed:42 36 0.3 7 in
  List.iter
    (fun (name, coordination) ->
      (match Shm.run ~workers:4 ~coordination (Mc.k_clique g ~k:7) with
      | Some node ->
        Alcotest.(check bool)
          (Printf.sprintf "witness valid (%s)" name)
          true
          (Yewpar_graph.Graph.is_clique g (Mc.vertices_of node))
      | None -> Alcotest.fail (Printf.sprintf "7-clique not found (%s)" name));
      match Shm.run ~workers:4 ~coordination (Mc.k_clique g ~k:25) with
      | Some _ -> Alcotest.fail "no 25-clique exists"
      | None -> ())
    coords

let knapsack_matches () =
  let inst = Knapsack.Generate.weakly_correlated ~seed:43 ~n:18 ~max_value:100 in
  let expected = Knapsack.exact_dp inst in
  List.iter
    (fun (name, coordination) ->
      let node = Shm.run ~workers:3 ~coordination (Knapsack.problem inst) in
      Alcotest.(check int) (Printf.sprintf "knapsack (%s)" name) expected
        node.Knapsack.profit)
    coords

let uts_matches () =
  let params = { Uts.b0 = 30; q = 0.2; m = 4; max_depth = 100; seed = 6 } in
  let p = Uts.count_problem params in
  let expected = Sequential.search p in
  List.iter
    (fun (name, coordination) ->
      let r = Shm.run ~workers:4 ~coordination p in
      Alcotest.(check int) (Printf.sprintf "uts (%s)" name) expected r)
    coords

let sequential_delegates () =
  let t = mk_tree 4 3 1 in
  let r = Shm.run ~coordination:Coordination.Sequential (count_problem t) in
  Alcotest.(check int) "sequential passthrough" (tree_size t) r

let single_worker () =
  let t = mk_tree 5 3 1 in
  List.iter
    (fun (name, coordination) ->
      let r = Shm.run ~workers:1 ~coordination (count_problem t) in
      Alcotest.(check int) (Printf.sprintf "one worker (%s)" name) (tree_size t) r)
    coords

let invalid_workers () =
  Alcotest.check_raises "zero workers rejected"
    (Invalid_argument "Shm.run: workers must be >= 1") (fun () ->
      ignore
        (Shm.run ~workers:0 ~coordination:(Coordination.Budget { budget = 1 })
           (count_problem (mk_tree 2 2 1))))

exception Generator_failure

let generator_exceptions_propagate () =
  (* A generator that raises part-way through the tree must surface the
     exception instead of deadlocking the pool. *)
  let visits = Atomic.make 0 in
  let exploding =
    Problem.count_nodes ~name:"exploding" ~space:() ~root:(T (1, []))
      ~children:(fun () _ ->
        if Atomic.fetch_and_add visits 1 > 40 then raise Generator_failure
        else Seq.init 3 (fun i -> T (i, [])))
      ()
  in
  List.iter
    (fun (name, coordination) ->
      Atomic.set visits 0;
      match Shm.run ~workers:3 ~coordination exploding with
      | exception Generator_failure -> ()
      | exception e ->
        Alcotest.fail (Printf.sprintf "unexpected exception (%s): %s" name
                         (Printexc.to_string e))
      | _ -> Alcotest.fail (Printf.sprintf "expected the failure to surface (%s)" name))
    coords

let stats_aggregated () =
  let t = mk_tree 6 3 1 in
  let stats = Yewpar_core.Stats.create () in
  let r =
    Shm.run ~workers:3 ~stats ~coordination:(Coordination.Budget { budget = 10 })
      (count_problem t)
  in
  Alcotest.(check int) "result" (tree_size t) r;
  Alcotest.(check int) "every node processed once" (tree_size t)
    stats.Yewpar_core.Stats.nodes;
  Alcotest.(check bool) "tasks counted" true (stats.Yewpar_core.Stats.tasks >= 1);
  Alcotest.(check bool) "max depth sensible" true
    (stats.Yewpar_core.Stats.max_depth <= 6)

let depth_profile_invariants () =
  (* Column sums of the merged per-depth profile must equal the scalar
     counters of the same run — every node, prune, spawn and applied
     incumbent improvement falls into exactly one depth bucket. *)
  let g = Gen.uniform ~seed:41 35 0.6 in
  List.iter
    (fun (name, coordination) ->
      let stats = Stats.create () in
      ignore (Shm.run ~workers:4 ~stats ~coordination (Mc.max_clique g));
      let nodes, pruned, spawned, bounds =
        Depth_profile.totals stats.Stats.depths
      in
      Alcotest.(check int) (Printf.sprintf "nodes column (%s)" name)
        stats.Stats.nodes nodes;
      Alcotest.(check int) (Printf.sprintf "pruned column (%s)" name)
        stats.Stats.pruned pruned;
      Alcotest.(check int) (Printf.sprintf "spawned column (%s)" name)
        stats.Stats.tasks spawned;
      Alcotest.(check int) (Printf.sprintf "bounds column (%s)" name)
        stats.Stats.bound_updates bounds;
      Alcotest.(check bool) (Printf.sprintf "profile populated (%s)" name)
        false
        (Depth_profile.is_empty stats.Stats.depths))
    coords;
  (* Pure enumeration: no pruning, no incumbent — the nodes column
     alone carries the whole tree. *)
  let stats = Stats.create () in
  ignore
    (Shm.run ~workers:2 ~stats
       ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
       (count_problem (mk_tree 5 3 1)));
  let nodes, _, _, _ = Depth_profile.totals stats.Stats.depths in
  Alcotest.(check int) "enumeration nodes column" stats.Stats.nodes nodes

let bounds_by_depth () =
  (* Each applied improvement is booked at the depth of the node that
     made it. With one worker nothing is shed, so both coordinations
     visit the tree in the same order and improve at the same nodes:
     the root (1) at depth 0, then 3 and 4 at depths 2 and 3, then 5
     at depth 1 and 6 at depth 2. *)
  let leaf v = T (v, []) in
  let t =
    T (1, [ T (0, [ T (3, [ leaf 4 ]) ]); T (5, [ leaf 2; leaf 6 ]); leaf 0 ])
  in
  let p =
    Problem.maximise ~name:"bounds" ~space:() ~root:t
      ~children:(fun () (T (_, cs)) -> List.to_seq cs)
      ~objective:(fun (T (v, _)) -> v) ()
  in
  List.iter
    (fun (name, coordination) ->
      let stats = Stats.create () in
      let (T (best, _)) = Shm.run ~workers:1 ~stats ~coordination p in
      Alcotest.(check int) (Printf.sprintf "optimum (%s)" name) 6 best;
      Alcotest.(check (list int))
        (Printf.sprintf "bounds by depth (%s)" name)
        [ 1; 1; 2; 1 ]
        (List.init (Depth_profile.depths stats.Stats.depths) (fun d ->
             let _, _, _, bounds = Depth_profile.row stats.Stats.depths d in
             bounds)))
    [ ("seq", Coordination.Sequential);
      ("stack", Coordination.Stack_stealing { chunked = false }) ]

let contains haystack needle =
  let re = Str.regexp_string needle in
  match Str.search_forward re haystack 0 with
  | _ -> true
  | exception Not_found -> false

let monitor_scrape_midrun () =
  (* The monitor server is live before the worker domains spawn, so
     scraping from inside [on_monitor] is a deterministic mid-run
     scrape: the run cannot finish before the callback returns. *)
  let scraped = ref None in
  let on_monitor port =
    let metrics = Http_export.get ~timeout:10. ~port "/metrics" in
    let status = Http_export.get ~timeout:10. ~port "/status" in
    let missing = Http_export.get ~timeout:10. ~port "/nope" in
    scraped := Some (metrics, status, missing)
  in
  let g = Gen.uniform ~seed:41 35 0.6 in
  let expected = (Sequential.search (Mc.max_clique g)).Mc.size in
  let node =
    Shm.run ~workers:4 ~monitor_port:0 ~on_monitor
      ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
      (Mc.max_clique g)
  in
  Alcotest.(check int) "search result unaffected by monitoring" expected
    node.Mc.size;
  match !scraped with
  | None -> Alcotest.fail "on_monitor never fired"
  | Some (metrics, status, missing) ->
    Alcotest.(check bool) "metrics expose live gauges" true
      (contains metrics "yewpar_live_workers");
    Alcotest.(check bool) "metrics are prometheus text" true
      (contains metrics "text/plain");
    Alcotest.(check bool) "status names the runtime" true
      (contains status "\"runtime\":\"shm\"");
    Alcotest.(check bool) "status is versioned" true
      (contains status "\"schema_version\"");
    Alcotest.(check bool) "unknown path is a 404" true
      (contains missing "404")

let repeated_runs_stable () =
  (* Results (not witnesses) must be stable across repeated parallel
     runs despite scheduling nondeterminism. *)
  let g = Gen.uniform ~seed:44 30 0.6 in
  let expected = (Sequential.search (Mc.max_clique g)).Mc.size in
  for _ = 1 to 5 do
    let node =
      Shm.run ~workers:4 ~coordination:(Coordination.Stack_stealing { chunked = false })
        (Mc.max_clique g)
    in
    Alcotest.(check int) "stable optimum" expected node.Mc.size
  done

let () =
  Alcotest.run "par"
    [
      ( "agreement",
        [
          Alcotest.test_case "enumeration" `Quick enumeration_matches;
          Alcotest.test_case "optimisation" `Quick optimisation_matches;
          Alcotest.test_case "decision" `Quick decision_matches;
          Alcotest.test_case "knapsack" `Quick knapsack_matches;
          Alcotest.test_case "uts" `Quick uts_matches;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "sequential delegates" `Quick sequential_delegates;
          Alcotest.test_case "single worker" `Quick single_worker;
          Alcotest.test_case "invalid workers" `Quick invalid_workers;
          Alcotest.test_case "repeated runs" `Quick repeated_runs_stable;
          Alcotest.test_case "exception safety" `Quick generator_exceptions_propagate;
          Alcotest.test_case "stats aggregation" `Quick stats_aggregated;
          Alcotest.test_case "depth profile invariants" `Quick
            depth_profile_invariants;
          Alcotest.test_case "bounds by depth" `Quick bounds_by_depth;
        ] );
      ( "monitor",
        [ Alcotest.test_case "mid-run scrape" `Quick monitor_scrape_midrun ] );
    ]
