(* Cross-runtime parity matrix: the same problem under the same
   coordination must give the same answer on every runtime.  One run
   per (runtime x coordination x problem-kind) cell collects both the
   result and the stats, so each cell is checked for

   - result parity against the sequential oracle (exact node counts
     for enumeration, exact objective for optimisation, agreement on
     witness existence -- and witness validity -- for decision);
   - the depth-profile column-sum invariants: every node, prune,
     spawn and applied bound lands in exactly one depth bucket, so
     the per-depth columns must sum to the scalar counters of the
     very same run.

   This suite is the safety net for the shared lib/runtime worker
   core: shm, dist and the simulator all instantiate it, so a semantic
   drift in any instantiation shows up here as a parity break. The
   simulator keeps no depth profile, so its cells skip the column-sum
   check. *)

module Sequential = Yewpar_core.Sequential
module Coordination = Yewpar_core.Coordination
module Stats = Yewpar_core.Stats
module Depth_profile = Yewpar_core.Depth_profile
module Shm = Yewpar_par.Shm
module Dist = Yewpar_dist.Dist
module Sim = Yewpar_sim.Sim
module Sim_config = Yewpar_sim.Config
module Metrics = Yewpar_sim.Metrics
module Queens = Yewpar_queens.Queens
module Mc = Yewpar_maxclique.Maxclique
module Gen = Yewpar_graph.Gen

(* The parallel coordinations, including bestfirst: the distributed
   runtime serves it from a priority-ordered coordinator pool, so it
   is part of the matrix like everything else. *)
let coords =
  [
    ("depthbounded", Coordination.Depth_bounded { dcutoff = 2 });
    ("stacksteal", Coordination.Stack_stealing { chunked = false });
    ("budget", Coordination.Budget { budget = 50 });
    ("bestfirst", Coordination.Best_first { dcutoff = 2 });
  ]

type runtime = Rt_seq | Rt_shm | Rt_dist | Rt_sim

let runtimes =
  [ ("seq", Rt_seq); ("shm", Rt_shm); ("dist", Rt_dist); ("sim", Rt_sim) ]

(* Parallel width of each cell, overridable so CI can rerun the same
   matrix with elevated worker counts to shake out scheduler races
   (more domains = more concurrent deque steals per task). *)
let parity_workers =
  match Sys.getenv_opt "YEWPAR_PARITY_WORKERS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some w when w >= 1 -> w
    | Some _ | None ->
      invalid_arg "YEWPAR_PARITY_WORKERS must be a positive integer"
  )
  | None -> 2

(* One cell of the matrix: run [p] on [rt] under [coordination],
   collecting stats.  Sequential ignores the coordination (it is the
   oracle every parallel cell is compared against). *)
let run_cell rt ~coordination p =
  let stats = Stats.create () in
  let result =
    match rt with
    | Rt_seq ->
      let r, st = Sequential.search_with_stats p in
      Stats.add stats st;
      r
    | Rt_shm -> Shm.run ~workers:parity_workers ~stats ~coordination p
    | Rt_dist ->
      Dist.run ~stats ~watchdog:120. ~localities:2 ~workers:parity_workers
        ~coordination p
    | Rt_sim ->
      let topology =
        Sim_config.topology ~localities:2 ~workers:parity_workers
      in
      let r, m = Sim.run ~topology ~coordination p in
      stats.Stats.nodes <- m.Metrics.nodes;
      stats.Stats.pruned <- m.Metrics.pruned;
      stats.Stats.tasks <- m.Metrics.tasks;
      r
  in
  (result, stats)

let check_profile ~cell (stats : Stats.t) =
  let nodes, pruned, spawned, bounds = Depth_profile.totals stats.Stats.depths in
  Alcotest.(check int) (cell ^ ": nodes column") stats.Stats.nodes nodes;
  Alcotest.(check int) (cell ^ ": pruned column") stats.Stats.pruned pruned;
  Alcotest.(check int) (cell ^ ": spawned column") stats.Stats.tasks spawned;
  Alcotest.(check int)
    (cell ^ ": bounds column")
    stats.Stats.bound_updates bounds

(* Walk the (runtime x coordination) plane for one problem and hand
   each cell's result and stats to [check].  [rts] selects the
   runtimes: OCaml 5 forbids [Unix.fork] once any domain has been
   spawned in the process, so the test cases below run every dist
   cell (which forks localities) before the first shm cell (which
   spawns domains). *)
let matrix ?(rts = runtimes) ?(coords = coords) p check =
  List.iter
    (fun (rt_name, rt) ->
      List.iter
        (fun (co_name, coordination) ->
          let cell = Printf.sprintf "%s/%s" rt_name co_name in
          let result, stats = run_cell rt ~coordination p in
          check ~cell result stats;
          if rt <> Rt_sim then check_profile ~cell stats)
        coords)
    rts

(* --------------------------- enumerate --------------------------- *)

let enumerate_queens rts () =
  let p = Queens.count_solutions (Queens.instance ~n:7) in
  let expected, seq_stats = Sequential.search_with_stats p in
  matrix ~rts p (fun ~cell result stats ->
      Alcotest.(check int) (cell ^ ": queens-7 count") expected result;
      (* Enumeration never prunes and never short-circuits, so every
         runtime must visit exactly the sequential node set: nothing
         lost, nothing visited twice. *)
      Alcotest.(check int)
        (cell ^ ": node total")
        seq_stats.Stats.nodes stats.Stats.nodes)

(* --------------------------- optimise ---------------------------- *)

let optimise_maxclique rts () =
  let g = Gen.uniform ~seed:41 28 0.6 in
  let p = Mc.max_clique g in
  let expected = (Sequential.search p).Mc.size in
  matrix ~rts p (fun ~cell result stats ->
      Alcotest.(check int) (cell ^ ": clique size") expected result.Mc.size;
      Alcotest.(check bool)
        (cell ^ ": clique valid")
        true
        (Yewpar_graph.Graph.is_clique g (Mc.vertices_of result));
      (* Bound propagation may prune more or less depending on timing,
         but some pruning must always happen on this graph. *)
      Alcotest.(check bool) (cell ^ ": pruning happened") true
        (stats.Stats.pruned > 0))

(* ---------------------------- decide ----------------------------- *)

let decide_queens_sat rts () =
  (* A placement exists for n = 7; every runtime must find one (any
     one -- witnesses are nondeterministic, validity is not). *)
  let inst = Queens.instance ~n:7 in
  let p = Queens.find_placement inst in
  matrix ~rts p (fun ~cell result _stats ->
      match result with
      | Some node ->
        Alcotest.(check bool)
          (cell ^ ": placement valid")
          true
          (Queens.is_valid_placement inst (Queens.placement_of inst node))
      | None -> Alcotest.fail (cell ^ ": no placement found for queens-7"))

let decide_queens_unsat rts () =
  (* No placement exists for n = 3: agreement on the negative answer
     means no runtime terminates early without exhausting the tree. *)
  let inst = Queens.instance ~n:3 in
  let p = Queens.find_placement inst in
  matrix ~rts p (fun ~cell result _stats ->
      match result with
      | None -> ()
      | Some _ -> Alcotest.fail (cell ^ ": phantom placement for queens-3"))

let decide_kclique_unsat rts () =
  (* An unsatisfiable decision never short-circuits and its bound test
     ([bound >= k]) does not depend on any incumbent, so every runtime
     must visit exactly the sequential tree and prune exactly its
     prunes — including the children rejected when a task spawns or
     splits them, which the engine never sees. On this graph a random
     spawn splits off a child that fails the bound check, which must
     count as the engine's prune would. *)
  let g = Gen.uniform ~seed:41 120 0.65 in
  let p = Mc.k_clique g ~k:14 in
  let expected, seq_stats = Sequential.search_with_stats p in
  Alcotest.(check bool) "k = 14 is unsatisfiable" true (expected = None);
  let coords =
    [
      ("depthbounded", Coordination.Depth_bounded { dcutoff = 2 });
      ("bestfirst", Coordination.Best_first { dcutoff = 2 });
      ("budget", Coordination.Budget { budget = 50 });
      ("stacksteal", Coordination.Stack_stealing { chunked = false });
      ("stacksteal:chunked", Coordination.Stack_stealing { chunked = true });
      ("randomspawn:4", Coordination.Random_spawn { mean_interval = 4 });
    ]
  in
  matrix ~rts ~coords p (fun ~cell result stats ->
      Alcotest.(check bool) (cell ^ ": no witness") true (result = None);
      Alcotest.(check int) (cell ^ ": nodes") seq_stats.Stats.nodes
        stats.Stats.nodes;
      Alcotest.(check int) (cell ^ ": pruned") seq_stats.Stats.pruned
        stats.Stats.pruned)

let cases rts =
  [
    Alcotest.test_case "enumerate: queens" `Quick (enumerate_queens rts);
    Alcotest.test_case "optimise: maxclique" `Quick (optimise_maxclique rts);
    Alcotest.test_case "decide: queens sat" `Quick (decide_queens_sat rts);
    Alcotest.test_case "decide: queens unsat" `Quick (decide_queens_unsat rts);
    Alcotest.test_case "decide: k-clique unsat" `Quick (decide_kclique_unsat rts);
  ]

let () =
  (* dist first: each dist run forks locality processes, which OCaml 5
     only permits before the first domain spawn -- and the shm cells
     spawn domains. *)
  Alcotest.run "parity"
    [
      ("dist", cases [ ("dist", Rt_dist) ]);
      ("seq+shm", cases [ ("seq", Rt_seq); ("shm", Rt_shm) ]);
      ("sim", cases [ ("sim", Rt_sim) ]);
    ]
