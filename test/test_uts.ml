module Uts = Yewpar_uts.Uts
module Sequential = Yewpar_core.Sequential

let params = { Uts.b0 = 50; q = 0.22; m = 4; max_depth = 150; seed = 3 }

let deterministic () =
  let a = Sequential.search (Uts.count_problem params) in
  let b = Sequential.search (Uts.count_problem params) in
  Alcotest.(check int) "same params same tree" a b;
  let c = Sequential.search (Uts.count_problem { params with seed = 4 }) in
  Alcotest.(check bool) "different seed different tree" true (a <> c)

let root_branching () =
  let r = Uts.root params in
  Alcotest.(check int) "root depth" 0 r.Uts.depth;
  Alcotest.(check int) "root has b0 children" params.Uts.b0 (Uts.num_children params r);
  Alcotest.(check int) "child count from generator" params.Uts.b0
    (Seq.length (Uts.children params r))

let children_pure () =
  let r = Uts.root params in
  let l1 = List.of_seq (Uts.children params r) in
  let l2 = List.of_seq (Uts.children params r) in
  Alcotest.(check bool) "children reproducible" true (l1 = l2);
  List.iter
    (fun c ->
      Alcotest.(check int) "child depth" 1 c.Uts.depth;
      Alcotest.(check bool) "child count deterministic" true
        (Uts.num_children params c = Uts.num_children params c))
    l1

let distinct_child_states () =
  let r = Uts.root params in
  let states = List.map (fun c -> c.Uts.state) (List.of_seq (Uts.children params r)) in
  Alcotest.(check int) "all child states distinct" (List.length states)
    (List.length (List.sort_uniq compare states))

let depth_cutoff () =
  let shallow = { params with max_depth = 1 } in
  let count = Sequential.search (Uts.count_problem shallow) in
  Alcotest.(check int) "cutoff at depth 1" (1 + shallow.Uts.b0) count

(* The cutoff applies to the root too: at [max_depth = 0] the tree is
   the root alone, as for the geometric variant. *)
let depth_cutoff_at_root () =
  let flat = { params with max_depth = 0 } in
  Alcotest.(check int) "root only" 1
    (Sequential.search (Uts.count_problem flat));
  Alcotest.(check int) "deepest node is the root" 0
    (Sequential.search (Uts.max_depth_problem flat)).Uts.depth;
  Alcotest.(check int) "geometric agrees" 1
    (Sequential.search
       (Uts.geo_count_problem
          { Uts.g_b0 = 30.; decay = 0.5; g_max_depth = 0; g_seed = 9 }))

let tree_is_nontrivial () =
  let count = Sequential.search (Uts.count_problem params) in
  Alcotest.(check bool) "bigger than root fan-out" true (count > params.Uts.b0 + 1)

let irregularity () =
  (* Subtree sizes under the root should be highly variable — the point
     of UTS. Count leaves-vs-nonleaves among root children. *)
  let r = Uts.root params in
  let kinds =
    List.of_seq (Uts.children params r)
    |> List.map (fun c -> Uts.num_children params c > 0)
  in
  Alcotest.(check bool) "some children are leaves" true (List.mem false kinds);
  Alcotest.(check bool) "some children have subtrees" true (List.mem true kinds)

let max_depth_problem () =
  let node = Sequential.search (Uts.max_depth_problem params) in
  Alcotest.(check bool) "deepest node below cutoff" true
    (node.Uts.depth <= params.Uts.max_depth);
  Alcotest.(check bool) "deeper than root" true (node.Uts.depth > 0)

let geo = { Uts.g_b0 = 30.; decay = 0.5; g_max_depth = 60; g_seed = 9 }

let geo_deterministic () =
  let a = Sequential.search (Uts.geo_count_problem geo) in
  let b = Sequential.search (Uts.geo_count_problem geo) in
  Alcotest.(check int) "same params same tree" a b;
  let c = Sequential.search (Uts.geo_count_problem { geo with Uts.g_seed = 10 }) in
  Alcotest.(check bool) "different seed different tree" true (a <> c)

let geo_branching_decays () =
  (* Expected branching halves per level; check it statistically by
     averaging child counts at depth 0 vs depth 2. *)
  let r = Uts.geo_root geo in
  let level1 = List.of_seq (Uts.geo_children geo r) in
  let n1 = List.length level1 in
  Alcotest.(check bool) "root branching near b0" true (n1 = 30 || n1 = 31);
  let level2 = List.concat_map (fun c -> List.of_seq (Uts.geo_children geo c)) level1 in
  let avg2 = float_of_int (List.length level2) /. float_of_int n1 in
  Alcotest.(check bool)
    (Printf.sprintf "level-1 branching decayed (avg %.1f)" avg2)
    true
    (avg2 > 10. && avg2 < 20.)

let geo_depth_cutoff () =
  let shallow = { geo with Uts.g_max_depth = 1 } in
  let count = Sequential.search (Uts.geo_count_problem shallow) in
  Alcotest.(check bool) "only root + level 1" true (count <= 32 && count >= 30)

let geo_finite_and_nontrivial () =
  let count = Sequential.search (Uts.geo_count_problem geo) in
  Alcotest.(check bool) "non-trivial" true (count > 100);
  Alcotest.(check bool) "finite (terminated)" true (count < 10_000_000)

let () =
  Alcotest.run "uts"
    [
      ( "uts",
        [
          Alcotest.test_case "deterministic" `Quick deterministic;
          Alcotest.test_case "root branching" `Quick root_branching;
          Alcotest.test_case "pure children" `Quick children_pure;
          Alcotest.test_case "distinct states" `Quick distinct_child_states;
          Alcotest.test_case "depth cutoff" `Quick depth_cutoff;
          Alcotest.test_case "depth cutoff at the root" `Quick
            depth_cutoff_at_root;
          Alcotest.test_case "non-trivial" `Quick tree_is_nontrivial;
          Alcotest.test_case "irregular" `Quick irregularity;
          Alcotest.test_case "max depth search" `Quick max_depth_problem;
        ] );
      ( "geometric",
        [
          Alcotest.test_case "deterministic" `Quick geo_deterministic;
          Alcotest.test_case "branching decays" `Quick geo_branching_decays;
          Alcotest.test_case "depth cutoff" `Quick geo_depth_cutoff;
          Alcotest.test_case "finite" `Quick geo_finite_and_nontrivial;
        ] );
    ]
