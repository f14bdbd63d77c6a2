module Q = Yewpar_queens.Queens
module Sequential = Yewpar_core.Sequential
module Coordination = Yewpar_core.Coordination
module Sim = Yewpar_sim.Sim
module Config = Yewpar_sim.Config
module Shm = Yewpar_par.Shm

let known_counts () =
  (* OEIS A000170 up to n = 10. *)
  for n = 1 to 10 do
    let count = Sequential.search (Q.count_solutions (Q.instance ~n)) in
    Alcotest.(check int) (Printf.sprintf "%d-queens count" n)
      Q.known_counts.(n - 1) count
  done

let decision_witnesses () =
  (* Solvable exactly when n = 1 or n >= 4. *)
  for n = 1 to 9 do
    let inst = Q.instance ~n in
    match Sequential.search (Q.find_placement inst) with
    | Some node ->
      if not (n = 1 || n >= 4) then
        Alcotest.fail (Printf.sprintf "%d-queens should be unsolvable" n);
      let cols = Q.placement_of inst node in
      Alcotest.(check bool)
        (Printf.sprintf "%d-queens witness valid" n)
        true (Q.is_valid_placement inst cols)
    | None ->
      if n = 1 || n >= 4 then
        Alcotest.fail (Printf.sprintf "%d-queens should be solvable" n)
  done

let validator () =
  let inst = Q.instance ~n:4 in
  Alcotest.(check bool) "known solution" true (Q.is_valid_placement inst [| 1; 3; 0; 2 |]);
  Alcotest.(check bool) "column clash" false (Q.is_valid_placement inst [| 1; 1; 0; 2 |]);
  Alcotest.(check bool) "diagonal clash" false
    (Q.is_valid_placement inst [| 0; 1; 3; 2 |]);
  Alcotest.(check bool) "wrong arity" false (Q.is_valid_placement inst [| 1; 3; 0 |]);
  Alcotest.(check bool) "out of range" false (Q.is_valid_placement inst [| 1; 3; 0; 4 |])

let bounds_checked () =
  Alcotest.check_raises "n too small" (Invalid_argument "Queens.instance: n must be in 1..30")
    (fun () -> ignore (Q.instance ~n:0));
  Alcotest.check_raises "n too large" (Invalid_argument "Queens.instance: n must be in 1..30")
    (fun () -> ignore (Q.instance ~n:31));
  let inst = Q.instance ~n:5 in
  Alcotest.check_raises "partial placement"
    (Invalid_argument "Queens.placement_of: partial placement") (fun () ->
      ignore (Q.placement_of inst (Q.root inst)))

let parallel_agreement () =
  let inst = Q.instance ~n:9 in
  let expected = Sequential.search (Q.count_solutions inst) in
  List.iter
    (fun coordination ->
      let via_sim, _ =
        Sim.run
          ~topology:(Config.topology ~localities:2 ~workers:4)
          ~coordination (Q.count_solutions inst)
      in
      Alcotest.(check int)
        (Printf.sprintf "sim count (%s)" (Coordination.to_string coordination))
        expected via_sim;
      let via_shm = Shm.run ~workers:3 ~coordination (Q.count_solutions inst) in
      Alcotest.(check int)
        (Printf.sprintf "shm count (%s)" (Coordination.to_string coordination))
        expected via_shm)
    [ Coordination.Depth_bounded { dcutoff = 2 };
      Coordination.Stack_stealing { chunked = true };
      Coordination.Budget { budget = 100 } ]

(* Golden trees. Each board's per-depth node counts and an FNV-1a
   digest over the entered nodes' [columns] in Sequential order; any
   change to the tree's shape or child order changes one of the two. *)
module Problem = Yewpar_core.Problem
module Stats = Yewpar_core.Stats
module Depth_profile = Yewpar_core.Depth_profile

let fnv h w = Int64.mul (Int64.logxor h (Int64.of_int w)) 0x100000001b3L

let shape n =
  let pb = Q.count_solutions (Q.instance ~n) in
  let h = ref 0xcbf29ce484222325L in
  let probe =
    Problem.enumerate ~name:pb.Problem.name ~space:pb.Problem.space
      ~root:pb.Problem.root ~children:pb.Problem.children ~empty:0 ~combine:( + )
      ~view:(fun node ->
        h := List.fold_left fnv (fnv !h node.Q.level) node.Q.columns;
        0)
      ()
  in
  let _, stats = Sequential.search_with_stats probe in
  let d = stats.Stats.depths in
  ( List.init (Depth_profile.depths d) (fun i ->
        let n, _, _, _ = Depth_profile.row d i in
        n),
    !h )

(* (n, nodes per depth, order digest), taken from the column-scan
   generator. *)
let golden =
  [ (1, [ 1; 1 ], -2789509273287373682L);
    (2, [ 1; 2 ], 4955376657909747252L);
    (3, [ 1; 3; 2 ], 2377807300818131973L);
    (4, [ 1; 4; 6; 4; 2 ], 6302983020958468809L);
    (5, [ 1; 5; 12; 14; 12; 10 ], -9008470915379471266L);
    (6, [ 1; 6; 20; 36; 46; 40; 4 ], -6524751314965627818L);
    (7, [ 1; 7; 30; 76; 140; 164; 94; 40 ], -3982166072740930693L);
    (8, [ 1; 8; 42; 140; 344; 568; 550; 312; 92 ], 1395034728216747291L);
    (9, [ 1; 9; 56; 234; 732; 1614; 2292; 2038; 1066; 352 ], 6242826219954372338L);
    ( 10,
      [ 1; 10; 72; 364; 1400; 3916; 7552; 9632; 7828; 4040; 724 ],
      6128235957911629720L );
    ( 11,
      [ 1; 11; 90; 536; 2468; 8492; 21362; 37248; 44148; 34774; 15116; 2680 ],
      -6040545246730685787L );
    ( 12,
      [ 1; 12; 110; 756; 4080; 16852; 52856; 120104; 195270; 222720; 160964;
        68264; 14200 ],
      -646355253291954403L ) ]

let golden_trees () =
  List.iter
    (fun (n, rows, digest) ->
      let got_rows, got_digest = shape n in
      Alcotest.(check (list int)) (Printf.sprintf "%d-queens nodes per depth" n)
        rows got_rows;
      Alcotest.(check int64) (Printf.sprintf "%d-queens order digest" n) digest
        got_digest)
    golden

(* Reference generator: scan the columns left to right and place the
   next queen on each one no mask attacks. *)
let reference_children inst (node : Q.node) =
  let n = Q.size inst in
  if node.Q.level >= n then []
  else
    List.filter_map
      (fun col ->
        let bit = 1 lsl col in
        if (node.Q.cols_mask lor node.Q.diag1_mask lor node.Q.diag2_mask) land bit <> 0
        then None
        else
          Some
            { Q.level = node.Q.level + 1;
              columns = col :: node.Q.columns;
              cols_mask = node.Q.cols_mask lor bit;
              diag1_mask = (node.Q.diag1_mask lor bit) lsr 1;
              diag2_mask = (node.Q.diag2_mask lor bit) lsl 1 })
      (List.init n Fun.id)

(* At every node of the n-queens tree, the generator yields the
   reference's children: the same columns in the same order, with all
   three masks equal. *)
let children_reference =
  QCheck.Test.make ~name:"children = column-scan reference" ~count:40
    QCheck.(int_range 1 9)
    (fun n ->
      let inst = Q.instance ~n in
      let rec visit node =
        let expected = reference_children inst node in
        if List.of_seq (Q.children inst node) <> expected then
          QCheck.Test.fail_reportf "%d-queens: children differ at level %d" n
            node.Q.level;
        List.iter visit expected
      in
      visit (Q.root inst);
      true)

let () =
  Alcotest.run "queens"
    [
      ( "queens",
        [
          Alcotest.test_case "OEIS counts" `Quick known_counts;
          Alcotest.test_case "decision witnesses" `Quick decision_witnesses;
          Alcotest.test_case "validator" `Quick validator;
          Alcotest.test_case "bounds" `Quick bounds_checked;
          Alcotest.test_case "parallel agreement" `Quick parallel_agreement;
          Alcotest.test_case "golden trees" `Quick golden_trees;
        ] );
      ("reference", [ QCheck_alcotest.to_alcotest children_reference ]);
    ]
