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
   Sequential coordination is a column too: on shm, dist and the
   simulator it is the worker core on one task, checked against
   [Sequential.search], the core's own loop. The simulator keeps no
   depth profile, so its cells skip the column-sum check. *)

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

(* Sequential and the parallel coordinations, including bestfirst: the
   distributed runtime serves it from a priority-ordered coordinator
   pool, so it is part of the matrix like everything else. *)
let coords =
  [
    ("seq", Coordination.Sequential);
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
   collecting stats.  The seq runtime is [Sequential.search], the
   oracle every other cell is compared against; it has a cell only
   under the Sequential coordination. *)
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
   the result and stats of each cell that [group] selects to [check]. *)
let matrix ~group ?(coords = coords) p check =
  List.iter
    (fun (rt_name, rt) ->
      List.iter
        (fun (co_name, coordination) ->
          if group rt coordination then begin
            let cell = Printf.sprintf "%s/%s" rt_name co_name in
            let result, stats = run_cell rt ~coordination p in
            check ~cell result stats;
            if rt <> Rt_sim then check_profile ~cell stats
          end)
        coords)
    runtimes

(* The groups of cells, in the order they must run. OCaml 5 forbids
   [Unix.fork] once any domain has been spawned in the process, so
   every dist cell that forks localities runs before the first cell
   that spawns domains: shm, and dist under Sequential, which runs
   in-process on a worker domain. *)
let forks rt coordination =
  rt = Rt_dist && coordination <> Coordination.Sequential

let in_process rt coordination =
  match rt with
  | Rt_seq -> coordination = Coordination.Sequential
  | Rt_shm -> true
  | Rt_dist -> not (forks rt coordination)
  | Rt_sim -> false

let simulated rt _ = rt = Rt_sim

(* --------------------------- enumerate --------------------------- *)

let enumerate_queens group () =
  let p = Queens.count_solutions (Queens.instance ~n:7) in
  let expected, seq_stats = Sequential.search_with_stats p in
  matrix ~group p (fun ~cell result stats ->
      Alcotest.(check int) (cell ^ ": queens-7 count") expected result;
      (* Enumeration never prunes and never short-circuits, so every
         runtime must visit exactly the sequential node set: nothing
         lost, nothing visited twice. *)
      Alcotest.(check int)
        (cell ^ ": node total")
        seq_stats.Stats.nodes stats.Stats.nodes)

(* --------------------------- optimise ---------------------------- *)

let optimise_maxclique group () =
  let g = Gen.uniform ~seed:41 28 0.6 in
  let p = Mc.max_clique g in
  let expected = (Sequential.search p).Mc.size in
  matrix ~group p (fun ~cell result stats ->
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

let decide_queens_sat group () =
  (* A placement exists for n = 7; every runtime must find one (any
     one -- witnesses are nondeterministic, validity is not). *)
  let inst = Queens.instance ~n:7 in
  let p = Queens.find_placement inst in
  matrix ~group p (fun ~cell result _stats ->
      match result with
      | Some node ->
        Alcotest.(check bool)
          (cell ^ ": placement valid")
          true
          (Queens.is_valid_placement inst (Queens.placement_of inst node))
      | None -> Alcotest.fail (cell ^ ": no placement found for queens-7"))

let decide_queens_unsat group () =
  (* No placement exists for n = 3: agreement on the negative answer
     means no runtime terminates early without exhausting the tree. *)
  let inst = Queens.instance ~n:3 in
  let p = Queens.find_placement inst in
  matrix ~group p (fun ~cell result _stats ->
      match result with
      | None -> ()
      | Some _ -> Alcotest.fail (cell ^ ": phantom placement for queens-3"))

let decide_kclique_unsat group () =
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
      ("seq", Coordination.Sequential);
      ("depthbounded", Coordination.Depth_bounded { dcutoff = 2 });
      ("bestfirst", Coordination.Best_first { dcutoff = 2 });
      ("budget", Coordination.Budget { budget = 50 });
      ("stacksteal", Coordination.Stack_stealing { chunked = false });
      ("stacksteal:chunked", Coordination.Stack_stealing { chunked = true });
      ("randomspawn:4", Coordination.Random_spawn { mean_interval = 4 });
    ]
  in
  matrix ~group ~coords p (fun ~cell result stats ->
      Alcotest.(check bool) (cell ^ ": no witness") true (result = None);
      Alcotest.(check int) (cell ^ ": nodes") seq_stats.Stats.nodes
        stats.Stats.nodes;
      Alcotest.(check int) (cell ^ ": pruned") seq_stats.Stats.pruned
        stats.Stats.pruned)

let cases group =
  [
    Alcotest.test_case "enumerate: queens" `Quick (enumerate_queens group);
    Alcotest.test_case "optimise: maxclique" `Quick (optimise_maxclique group);
    Alcotest.test_case "decide: queens sat" `Quick (decide_queens_sat group);
    Alcotest.test_case "decide: queens unsat" `Quick (decide_queens_unsat group);
    Alcotest.test_case "decide: k-clique unsat" `Quick (decide_kclique_unsat group);
  ]

let () =
  Alcotest.run "parity"
    [
      ("dist", cases forks);
      ("seq+shm", cases in_process);
      ("sim", cases simulated);
    ]
