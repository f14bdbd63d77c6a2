module K = Yewpar_knapsack.Knapsack
module Sequential = Yewpar_core.Sequential
module Problem = Yewpar_core.Problem
module Splitmix = Yewpar_util.Splitmix
module Stats = Yewpar_core.Stats

let item profit weight = { K.profit; weight }

let tiny_known () =
  (* Classic example: capacity 10, optimum 29. *)
  let inst =
    K.instance
      ~items:[ item 10 5; item 13 6; item 16 8; item 5 2 ]
      ~capacity:10
  in
  Alcotest.(check int) "dp optimum" 21 (K.exact_dp inst);
  let node = Sequential.search (K.problem inst) in
  Alcotest.(check int) "search optimum" 21 node.K.profit

let all_fit () =
  let inst = K.instance ~items:[ item 3 1; item 4 1; item 5 1 ] ~capacity:10 in
  let node = Sequential.search (K.problem inst) in
  Alcotest.(check int) "take everything" 12 node.K.profit;
  Alcotest.(check int) "weight" 3 node.K.weight;
  Alcotest.(check int) "three items" 3 (List.length node.K.taken)

let nothing_fits () =
  let inst = K.instance ~items:[ item 10 100; item 20 200 ] ~capacity:50 in
  let node = Sequential.search (K.problem inst) in
  Alcotest.(check int) "empty selection" 0 node.K.profit;
  Alcotest.(check (list int)) "no items" [] node.K.taken

let validation () =
  Alcotest.check_raises "non-positive capacity"
    (Invalid_argument "Knapsack.instance: non-positive capacity") (fun () ->
      ignore (K.instance ~items:[ item 1 1 ] ~capacity:0));
  Alcotest.check_raises "capacity max_int"
    (Invalid_argument "Knapsack.instance: capacity max_int") (fun () ->
      ignore (K.instance ~items:[] ~capacity:max_int));
  List.iter
    (fun items ->
      let inst = K.instance ~items ~capacity:(max_int - 1) in
      let node = Sequential.search (K.problem inst) in
      Alcotest.(check int) "largest capacity" (List.length items) node.K.profit)
    [ []; [ item 1 1 ] ];
  Alcotest.check_raises "non-positive item"
    (Invalid_argument "Knapsack.instance: non-positive item") (fun () ->
      ignore (K.instance ~items:[ item 0 1 ] ~capacity:5))

let density_sorted () =
  let inst = K.instance ~items:[ item 1 10; item 10 1; item 5 5 ] ~capacity:10 in
  let items = K.items inst in
  let density (it : K.item) = float_of_int it.K.profit /. float_of_int it.K.weight in
  for i = 1 to Array.length items - 1 do
    if density items.(i) > density items.(i - 1) +. 1e-9 then
      Alcotest.fail "items must be sorted by non-increasing density"
  done

let taken_is_feasible () =
  let inst = K.Generate.uncorrelated ~seed:1 ~n:20 ~max_value:50 in
  let node = Sequential.search (K.problem inst) in
  let items = K.items inst in
  let w = List.fold_left (fun acc i -> acc + items.(i).K.weight) 0 node.K.taken in
  let p = List.fold_left (fun acc i -> acc + items.(i).K.profit) 0 node.K.taken in
  Alcotest.(check int) "weight consistent" node.K.weight w;
  Alcotest.(check int) "profit consistent" node.K.profit p;
  Alcotest.(check bool) "within capacity" true (w <= K.capacity inst);
  Alcotest.(check int) "indices distinct" (List.length node.K.taken)
    (List.length (List.sort_uniq compare node.K.taken))

let search_matches_dp_all_classes () =
  List.iteri
    (fun i gen ->
      for seed = 0 to 7 do
        let inst = gen ~seed:((seed * 31) + i) ~n:16 ~max_value:60 in
        let expected = K.exact_dp inst in
        let node = Sequential.search (K.problem inst) in
        Alcotest.(check int)
          (Printf.sprintf "class %d seed %d" i seed)
          expected node.K.profit
      done)
    [ K.Generate.uncorrelated; K.Generate.weakly_correlated; K.Generate.strongly_correlated ]

let bound_admissible () =
  (* fractional_bound at any node must dominate the best completion. *)
  let inst = K.Generate.uncorrelated ~seed:5 ~n:12 ~max_value:40 in
  let best_below node =
    let sub =
      Problem.maximise ~name:"sub" ~space:inst ~root:node ~children:K.children
        ~objective:(fun n -> n.K.profit) ()
    in
    (Sequential.search sub).K.profit
  in
  let rec walk node depth =
    if K.fractional_bound inst node < best_below node then
      Alcotest.fail "fractional bound not admissible";
    if depth < 2 then
      Seq.iter (fun c -> walk c (depth + 1)) (K.children inst node)
  in
  walk (K.root inst) 0

let decision_variant () =
  let inst = K.Generate.uncorrelated ~seed:9 ~n:14 ~max_value:50 in
  let optimum = K.exact_dp inst in
  (match Sequential.search (K.decision inst ~target:optimum) with
  | Some node ->
    Alcotest.(check bool) "witness reaches target" true (node.K.profit >= optimum)
  | None -> Alcotest.fail "optimum must be achievable");
  match Sequential.search (K.decision inst ~target:(optimum + 1)) with
  | Some _ -> Alcotest.fail "nothing beats the optimum"
  | None -> ()

let io_roundtrip () =
  let inst = K.Generate.weakly_correlated ~seed:10 ~n:12 ~max_value:40 in
  let inst' = K.parse_string (K.to_string inst) in
  Alcotest.(check int) "capacity preserved" (K.capacity inst) (K.capacity inst');
  Alcotest.(check int) "same optimum" (K.exact_dp inst) (K.exact_dp inst')

let io_errors () =
  let expect s =
    match K.parse_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "expected parse failure"
  in
  expect "";
  expect "2 10\n1 1\n";
  expect "1 10\nx 1\n";
  expect "1 10\n1 1 1\n";
  expect "nonsense";
  (* Values [instance] rejects are parse errors too, not Invalid_argument. *)
  expect "1 0\n1 1\n";
  expect "0 -5\n";
  expect (Printf.sprintf "1 %d\n1 1\n" max_int);
  expect "1 10\n0 1\n";
  expect "1 10\n1 -2\n"

let prop_random_instances =
  QCheck.Test.make ~name:"search = dp on random instances" ~count:60
    QCheck.(pair small_int (int_range 4 14))
    (fun (seed, n) ->
      let rng = Splitmix.of_seed (seed + 1) in
      let items =
        List.init n (fun _ -> item (1 + Splitmix.int rng 30) (1 + Splitmix.int rng 30))
      in
      let total = List.fold_left (fun a (it : K.item) -> a + it.K.weight) 0 items in
      let inst = K.instance ~items ~capacity:(max 1 (total / 2)) in
      let node = Sequential.search (K.problem inst) in
      node.K.profit = K.exact_dp inst)


(* ---- golden Sequential trees ----

   Each case pins the whole Sequential traversal of one instance: the
   node count, the depth, the witness, and an FNV-1a (64-bit) digest of
   the entered nodes in entry order. The objective is read exactly once
   per entered node (root included), so wrapping it observes the
   traversal without changing it. [pruned] is deliberately not pinned:
   how many failed children are materialised is the generator's
   business, the set and order of entered nodes is not. *)

let fnv_int h i =
  let h = ref h in
  for b = 0 to 3 do
    let byte = Int64.of_int ((i lsr (8 * b)) land 0xff) in
    h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
  done;
  !h

let traced (p : (K.instance, K.node, K.node) Problem.t) =
  let digest = ref 0xcbf29ce484222325L in
  let value (n : K.node) =
    digest := fnv_int (List.fold_left fnv_int !digest n.K.taken) (-1);
    n.K.profit
  in
  let kind =
    match p.Problem.kind with
    | Problem.Optimise obj -> Problem.Optimise { obj with Problem.value }
    | Problem.Enumerate _ -> Alcotest.fail "knapsack must be an optimisation"
  in
  ({ p with Problem.kind }, digest)

(* [down_from k] is [k; k - 1; ...; 0]: a witness that takes the densest
   items, newest first. *)
let down_from k = List.init (k + 1) (fun i -> k - i)

type golden = {
  g_nodes : int;
  g_max_depth : int;
  g_profit : int;
  g_taken : int list;
  g_digest : string;
}

let golden_cases =
  [
    ( "knap-ss-20",
      (fun () -> K.Generate.subset_sum ~seed:604 ~n:20 ~max_value:500),
      {
        g_nodes = 161035;
        g_max_depth = 13;
        g_profit = 4778;
        g_taken = [ 19; 14; 8 ] @ down_from 6;
        g_digest = "8bde0d65b8b646e5";
      } );
    ( "knap-ss-22",
      (fun () -> K.Generate.subset_sum ~seed:604 ~n:22 ~max_value:500),
      {
        g_nodes = 612908;
        g_max_depth = 14;
        g_profit = 5234;
        g_taken = [ 16; 14; 10; 8 ] @ down_from 6;
        g_digest = "4b3c1b086fbfb751";
      } );
    ( "subset_sum 1",
      (fun () -> K.Generate.subset_sum ~seed:1 ~n:18 ~max_value:200),
      {
        g_nodes = 42683;
        g_max_depth = 12;
        g_profit = 1746;
        g_taken = [ 16; 10 ] @ down_from 7;
        g_digest = "3e7ff47ac2465bee";
      } );
    ( "subset_sum 2",
      (fun () -> K.Generate.subset_sum ~seed:2 ~n:18 ~max_value:200),
      {
        g_nodes = 44523;
        g_max_depth = 12;
        g_profit = 1634;
        g_taken = [ 12; 10 ] @ down_from 8;
        g_digest = "1e566d45d5d66347";
      } );
    ( "uncorrelated 1",
      (fun () -> K.Generate.uncorrelated ~seed:1 ~n:100 ~max_value:1000),
      {
        g_nodes = 91;
        g_max_depth = 64;
        g_profit = 38936;
        g_taken = [ 64; 63 ] @ down_from 61;
        g_digest = "60c2848c50e78609";
      } );
    ( "uncorrelated 2",
      (fun () -> K.Generate.uncorrelated ~seed:2 ~n:100 ~max_value:1000),
      {
        g_nodes = 155;
        g_max_depth = 65;
        g_profit = 39750;
        g_taken = [ 66 ] @ down_from 62;
        g_digest = "2cd2c3815282e9e8";
      } );
    ( "strongly_correlated 1",
      (fun () -> K.Generate.strongly_correlated ~seed:1 ~n:60 ~max_value:20),
      {
        g_nodes = 2257;
        g_max_depth = 42;
        g_profit = 427;
        g_taken = [ 56; 48 ] @ down_from 39;
        g_digest = "fd8eeafea73d4d02";
      } );
    ( "strongly_correlated 2",
      (fun () -> K.Generate.strongly_correlated ~seed:2 ~n:60 ~max_value:20),
      {
        g_nodes = 7643;
        g_max_depth = 41;
        g_profit = 456;
        g_taken = [ 55; 54; 47 ] @ down_from 37;
        g_digest = "9498f65fdbccef32";
      } );
  ]

let golden_tree make expected () =
  let p, digest = traced (K.problem (make ())) in
  let node, stats = Sequential.search_with_stats p in
  let got =
    {
      g_nodes = stats.Stats.nodes;
      g_max_depth = stats.Stats.max_depth;
      g_profit = node.K.profit;
      g_taken = node.K.taken;
      g_digest = Printf.sprintf "%016Lx" !digest;
    }
  in
  Alcotest.(check int) "nodes" expected.g_nodes got.g_nodes;
  Alcotest.(check int) "max_depth" expected.g_max_depth got.g_max_depth;
  Alcotest.(check int) "profit" expected.g_profit got.g_profit;
  Alcotest.(check (list int)) "taken" expected.g_taken got.g_taken;
  Alcotest.(check string) "entered-node digest" expected.g_digest got.g_digest

let () =
  Alcotest.run "knapsack"
    [
      ( "knapsack",
        [
          Alcotest.test_case "tiny known" `Quick tiny_known;
          Alcotest.test_case "all fit" `Quick all_fit;
          Alcotest.test_case "nothing fits" `Quick nothing_fits;
          Alcotest.test_case "validation" `Quick validation;
          Alcotest.test_case "density sorted" `Quick density_sorted;
          Alcotest.test_case "feasibility" `Quick taken_is_feasible;
          Alcotest.test_case "vs dp (classes)" `Quick search_matches_dp_all_classes;
          Alcotest.test_case "bound admissible" `Quick bound_admissible;
          Alcotest.test_case "decision variant" `Quick decision_variant;
          Alcotest.test_case "io roundtrip" `Quick io_roundtrip;
          Alcotest.test_case "io errors" `Quick io_errors;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_instances ]);
      ( "golden",
        List.map
          (fun (name, make, expected) ->
            Alcotest.test_case name `Quick (golden_tree make expected))
          golden_cases );
    ]
