module Vec = Yewpar_util.Vec
module Splitmix = Yewpar_util.Splitmix
module Heap = Yewpar_util.Heap
module Summary = Yewpar_util.Summary
module Table = Yewpar_util.Table

let vec_basics () =
  let v = Vec.create () in
  Alcotest.(check bool) "fresh is empty" true (Vec.is_empty v);
  Alcotest.(check (option int)) "pop empty" None (Vec.pop v);
  for i = 0 to 99 do Vec.push v i done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 1000;
  Alcotest.(check int) "set" 1000 (Vec.get v 42);
  Alcotest.(check (option int)) "top" (Some 99) (Vec.top v);
  Alcotest.(check (option int)) "pop" (Some 99) (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v);
  Alcotest.check Alcotest.(list int) "of_list/to_list" [ 1; 2; 3 ]
    (Vec.to_list (Vec.of_list [ 1; 2; 3 ]));
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 1000) v);
  Alcotest.(check bool) "exists false" false (Vec.exists (fun x -> x = -1) v);
  Vec.clear v;
  Alcotest.(check int) "clear" 0 (Vec.length v)

let vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get out of range" (Invalid_argument "Vec: index out of range")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "negative index" (Invalid_argument "Vec: index out of range")
    (fun () -> ignore (Vec.get v (-1)))

let vec_fold_order =
  QCheck.Test.make ~name:"vec fold_left agrees with list" ~count:100
    QCheck.(list int)
    (fun xs ->
      let v = Vec.of_list xs in
      Vec.fold_left (fun acc x -> x :: acc) [] v
      = List.fold_left (fun acc x -> x :: acc) [] xs)

let splitmix_deterministic () =
  let a = Splitmix.of_seed 7 and b = Splitmix.of_seed 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next_int64 a) (Splitmix.next_int64 b)
  done;
  let c = Splitmix.of_seed 8 in
  Alcotest.(check bool) "different seeds differ" true
    (Splitmix.next_int64 (Splitmix.of_seed 7) <> Splitmix.next_int64 c)

let splitmix_ranges () =
  let g = Splitmix.of_seed 11 in
  for _ = 1 to 1000 do
    let x = Splitmix.int g 17 in
    if x < 0 || x >= 17 then Alcotest.fail "int out of range";
    let f = Splitmix.float g in
    if f < 0. || f >= 1. then Alcotest.fail "float out of range"
  done;
  Alcotest.check_raises "non-positive bound"
    (Invalid_argument "Splitmix.int: bound must be positive") (fun () ->
      ignore (Splitmix.int g 0))

let splitmix_split_independent () =
  let g = Splitmix.of_seed 3 in
  let g1 = Splitmix.split g in
  let g2 = Splitmix.split g in
  Alcotest.(check bool) "split streams differ" true
    (Splitmix.next_int64 g1 <> Splitmix.next_int64 g2)

let splitmix_string_seed () =
  let a = Splitmix.of_string_seed "brock400_1" in
  let b = Splitmix.of_string_seed "brock400_1" in
  let c = Splitmix.of_string_seed "brock400_2" in
  Alcotest.(check int64) "same name same stream" (Splitmix.next_int64 a)
    (Splitmix.next_int64 b);
  Alcotest.(check bool) "names separate streams" true
    (Splitmix.next_int64 (Splitmix.of_string_seed "brock400_1")
    <> Splitmix.next_int64 c)

let heap_orders =
  QCheck.Test.make ~name:"heap pops in priority order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun prios ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.add h p i) prios;
      let rec drain acc =
        match Heap.pop_min h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare prios)

let heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do Heap.add h 1.0 i done;
  let order = List.init 10 (fun _ ->
      match Heap.pop_min h with Some (_, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "equal priorities pop FIFO" (List.init 10 Fun.id) order

let heap_peek () =
  let h = Heap.create () in
  Alcotest.(check bool) "peek empty" true (Heap.peek_min h = None);
  Heap.add h 2. "b";
  Heap.add h 1. "a";
  (match Heap.peek_min h with
  | Some (p, v) ->
    Alcotest.(check (float 0.)) "peek prio" 1. p;
    Alcotest.(check string) "peek value" "a" v
  | None -> Alcotest.fail "expected an element");
  Alcotest.(check int) "peek does not remove" 2 (Heap.size h)

let summary_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Summary.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "geomean" 2.
    (Summary.geometric_mean [ 1.; 2.; 4. ] /. Summary.geometric_mean [ 1. ]);
  Alcotest.(check (float 1e-9)) "geomean of pair" (sqrt 2.)
    (Summary.geometric_mean [ 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "median odd" 2. (Summary.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "median even" 1.5 (Summary.median [ 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "stddev constant" 0. (Summary.stddev [ 5.; 5.; 5. ]);
  let lo, hi = Summary.min_max [ 3.; -1.; 2. ] in
  Alcotest.(check (float 0.)) "min" (-1.) lo;
  Alcotest.(check (float 0.)) "max" 3. hi;
  Alcotest.(check (float 1e-9)) "percent change" (-50.)
    (Summary.percent_change ~baseline:2. 1.);
  Alcotest.check_raises "geomean rejects non-positive"
    (Invalid_argument "Summary.geometric_mean: non-positive value") (fun () ->
      ignore (Summary.geometric_mean [ 1.; 0. ]))

let table_render () =
  let s = Table.render ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "bb" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "header + rule + rows" 4 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check int) "aligned widths" (String.length (List.hd lines))
        (String.length l))
    lines

let qsuite = List.map QCheck_alcotest.to_alcotest [ vec_fold_order; heap_orders ]

let () =
  Alcotest.run "util"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick vec_basics;
          Alcotest.test_case "bounds" `Quick vec_bounds;
        ] );
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick splitmix_deterministic;
          Alcotest.test_case "ranges" `Quick splitmix_ranges;
          Alcotest.test_case "split" `Quick splitmix_split_independent;
          Alcotest.test_case "string seeds" `Quick splitmix_string_seed;
        ] );
      ( "heap",
        [
          Alcotest.test_case "tie order" `Quick heap_fifo_ties;
          Alcotest.test_case "peek" `Quick heap_peek;
        ] );
      ("summary", [ Alcotest.test_case "stats" `Quick summary_stats ]);
      ("table", [ Alcotest.test_case "render" `Quick table_render ]);
      ("properties", qsuite);
    ]
