module Bitset = Yewpar_bitset.Bitset
module IntSet = Set.Make (Int)

let basics () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "fresh empty" true (Bitset.is_empty s);
  Alcotest.(check int) "capacity" 100 (Bitset.capacity s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 62" false (Bitset.mem s 62);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check (list int)) "elements sorted" [ 0; 64; 99 ] (Bitset.elements s);
  Alcotest.(check int) "first" 0 (Bitset.first s);
  Alcotest.(check int) "next_from" 64 (Bitset.next_from s 1);
  Alcotest.(check int) "next_from exact" 64 (Bitset.next_from s 64);
  Alcotest.(check int) "next_from beyond" (-1) (Bitset.next_from s 100);
  Bitset.clear s;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty s);
  Alcotest.(check int) "first of empty" (-1) (Bitset.first s)

let matrix () =
  let m = Bitset.Matrix.create ~rows:3 130 in
  Alcotest.(check int) "rows" 3 (Bitset.Matrix.rows m);
  List.iter (Bitset.Matrix.add m 1) [ 0; 62; 63; 126; 129 ];
  Bitset.Matrix.add m 2 62;
  Alcotest.(check bool) "mem" true (Bitset.Matrix.mem m 1 63);
  Alcotest.(check bool) "rows are apart" false (Bitset.Matrix.mem m 0 63);
  Alcotest.(check int) "row cardinal" 5 (Bitset.Matrix.cardinal m 1);
  Alcotest.(check int) "empty row" 0 (Bitset.Matrix.cardinal m 0);
  let r = Bitset.Matrix.row m 1 in
  Alcotest.(check (list int)) "row" [ 0; 62; 63; 126; 129 ] (Bitset.elements r);
  Bitset.remove r 0;
  Alcotest.(check bool) "row is a copy" true (Bitset.Matrix.mem m 1 0);
  let s = Bitset.of_list 130 [ 1; 62; 126; 128 ] in
  Alcotest.(check (list int)) "inter_row" [ 62; 126 ]
    (Bitset.elements (Bitset.Matrix.inter_row s m 1));
  Alcotest.(check (list int)) "inter_row leaves s" [ 1; 62; 126; 128 ] (Bitset.elements s);
  Alcotest.check_raises "row out of range" (Invalid_argument "Bitset.Matrix: row out of range")
    (fun () -> Bitset.Matrix.add m 3 0);
  Alcotest.check_raises "column out of range"
    (Invalid_argument "Bitset: element out of range") (fun () ->
      ignore (Bitset.Matrix.mem m 0 130));
  Alcotest.check_raises "inter_row capacity" (Invalid_argument "Bitset: capacity mismatch")
    (fun () -> ignore (Bitset.Matrix.inter_row (Bitset.create 129) m 0));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Bitset.Matrix.create: negative size") (fun () ->
      ignore (Bitset.Matrix.create ~rows:(-1) 4))

let range_checks () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Bitset: element out of range") (fun () -> Bitset.add s 10);
  Alcotest.check_raises "mem out of range"
    (Invalid_argument "Bitset: element out of range") (fun () ->
      ignore (Bitset.mem s (-1)));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Bitset.create: negative capacity") (fun () ->
      ignore (Bitset.create (-1)));
  let t = Bitset.create 11 in
  Alcotest.check_raises "capacity mismatch" (Invalid_argument "Bitset: capacity mismatch")
    (fun () -> Bitset.inter_into s t)

let zero_capacity () =
  let s = Bitset.create 0 in
  Alcotest.(check int) "cardinal" 0 (Bitset.cardinal s);
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Alcotest.(check int) "first" (-1) (Bitset.first s)

let fill_upto () =
  let s = Bitset.create 10 in
  Bitset.fill_upto s 4;
  Alcotest.(check (list int)) "prefix" [ 0; 1; 2; 3 ] (Bitset.elements s);
  let t = Bitset.create 5 in
  Bitset.fill_upto t 50;
  Alcotest.(check int) "clamped to capacity" 5 (Bitset.cardinal t);
  (* Whole words: every boundary of a three-word set, keeping what was
     already there. *)
  let bits = Sys.int_size in
  let cap = 3 * bits in
  List.iter
    (fun k ->
      let s = Bitset.of_list cap [ cap - 1 ] in
      Bitset.fill_upto s k;
      let expected =
        List.sort_uniq compare ((cap - 1) :: List.init (max 0 (min k cap)) Fun.id)
      in
      Alcotest.(check (list int)) (Printf.sprintf "fill_upto %d" k) expected
        (Bitset.elements s))
    [ -1; 0; 1; bits - 1; bits; bits + 1; 2 * bits; cap - 1; cap; cap + 5 ]

(* Elements live in 63-bit words (Sys.int_size); bit 62 is the OCaml
   sign bit. *)
let bits = Sys.int_size

(* Every bit position of a three-word set whose top word is full (so
   bit 62 of each word is in range) and of one whose top word is
   partial. *)
let every_position () =
  List.iter
    (fun cap ->
      let full = Bitset.create cap in
      Bitset.fill_upto full cap;
      Alcotest.(check int) "full cardinal" cap (Bitset.cardinal full);
      for i = 0 to cap - 1 do
        let at = Printf.sprintf "cap %d, bit %d" cap i in
        let s = Bitset.of_list cap [ i ] in
        Alcotest.(check int) (at ^ ": cardinal") 1 (Bitset.cardinal s);
        Alcotest.(check int) (at ^ ": first") i (Bitset.first s);
        Alcotest.(check int) (at ^ ": next_from below") i (Bitset.next_from s 0);
        Alcotest.(check int) (at ^ ": next_from at") i (Bitset.next_from s i);
        Alcotest.(check int) (at ^ ": next_from above") (-1) (Bitset.next_from s (i + 1));
        Alcotest.(check (list int)) (at ^ ": elements") [ i ] (Bitset.elements s);
        let holed = Bitset.copy full in
        Bitset.remove holed i;
        Alcotest.(check int) (at ^ ": holed cardinal") (cap - 1) (Bitset.cardinal holed);
        Alcotest.(check int) (at ^ ": holed first") (if i = 0 then 1 else 0)
          (Bitset.first holed);
        Alcotest.(check int) (at ^ ": holed next_from")
          (if i = cap - 1 then -1 else i + 1)
          (Bitset.next_from holed i);
        let seen = ref 0 and last = ref (-1) in
        Bitset.iter
          (fun j ->
            if j = i || j <= !last then Alcotest.failf "%s: iter visited %d" at j;
            last := j;
            incr seen)
          holed;
        Alcotest.(check int) (at ^ ": holed iter") (cap - 1) !seen
      done)
    [ 3 * bits; (2 * bits) + 4 ]

(* A set that reaches a locality through [Marshal] is not built by
   [Bitset]: forged here by a round trip of a record of [Bitset.t]'s
   shape, it can hold the wrong word count or a bit beyond its
   capacity. *)
type forged = { words : int array; capacity : int }

let forge words capacity : Bitset.t =
  Marshal.from_string (Marshal.to_string { words; capacity } []) 0

(* At every word count from one to six: [validate] passes what [create]
   builds and refuses a long or short word array and a bit at the
   capacity, and [inter_row] refuses a word count other than its
   stride. *)
let malformed_every_width () =
  for words = 1 to 6 do
    let cap = (words * bits) - 1 in
    let at = Printf.sprintf "%d words" words in
    let m = Bitset.Matrix.create ~rows:2 cap in
    Bitset.Matrix.add m 1 (cap - 1);
    let full = Array.make words (-1) in
    full.(words - 1) <- max_int;
    let good = forge full cap in
    Bitset.validate good;
    Bitset.validate (Bitset.create cap);
    Alcotest.(check (list int)) (at ^ ": a well-formed forgery intersects") [ cap - 1 ]
      (Bitset.elements (Bitset.Matrix.inter_row good m 1));
    (* The last field: whether the word count is wrong, which is what
       [inter_row] checks. *)
    let bad =
      [ ("a long word array", forge (Array.make (words + 1) 1) cap, true);
        ( "a bit at the capacity",
          forge (Array.append (Array.make (words - 1) 0) [| min_int |]) cap,
          false ) ]
      @ if words > 1 then [ ("a short word array", forge (Array.make (words - 1) 1) cap, true) ]
        else []
    in
    List.iter
      (fun (label, s, wrong_count) ->
        Alcotest.check_raises (at ^ ": validate refuses " ^ label)
          (Invalid_argument "Bitset.validate: malformed set") (fun () -> Bitset.validate s);
        if wrong_count then
          Alcotest.check_raises (at ^ ": inter_row refuses " ^ label)
            (Invalid_argument "Bitset.Matrix.inter_row: malformed set") (fun () ->
              ignore (Bitset.Matrix.inter_row s m 1)))
      bad
  done;
  (* A capacity whose word count would overflow, with one word. *)
  Alcotest.check_raises "a capacity near max_int"
    (Invalid_argument "Bitset.validate: malformed set") (fun () ->
      Bitset.validate (forge [| 0 |] max_int));
  Alcotest.check_raises "a negative capacity"
    (Invalid_argument "Bitset.validate: malformed set") (fun () ->
      Bitset.validate (forge [| 0 |] (-1)))

(* Property tests against the Set reference model, over the full
   capacity: three words, the top one partial, so the sign bit of the
   lower words and the top word's high bits are both drawn. *)

let cap = (2 * bits) + 4

let bs_of_set s =
  let b = Bitset.create cap in
  IntSet.iter (Bitset.add b) s;
  b

let gen_elts = QCheck.(list (int_bound (cap - 1)))
let gen_pair = QCheck.pair gen_elts gen_elts

let check_op name op set_op =
  QCheck.Test.make ~name ~count:300 gen_pair (fun (xs, ys) ->
      let sa = IntSet.of_list xs and sb = IntSet.of_list ys in
      let a = bs_of_set sa and b = bs_of_set sb in
      op a b;
      Bitset.elements a = IntSet.elements (set_op sa sb))

let prop_inter = check_op "inter_into models Set.inter" Bitset.inter_into IntSet.inter
let prop_union = check_op "union_into models Set.union" Bitset.union_into IntSet.union
let prop_diff = check_op "diff_into models Set.diff" Bitset.diff_into IntSet.diff

let prop_cardinal =
  QCheck.Test.make ~name:"cardinal models Set.cardinal" ~count:300
    gen_elts
    (fun xs ->
      let s = IntSet.of_list xs in
      Bitset.cardinal (bs_of_set s) = IntSet.cardinal s)

let prop_subset =
  QCheck.Test.make ~name:"subset models Set.subset" ~count:300 gen_pair
    (fun (xs, ys) ->
      let sa = IntSet.of_list xs and sb = IntSet.of_list ys in
      Bitset.subset (bs_of_set sa) (bs_of_set sb) = IntSet.subset sa sb)

let prop_equal =
  QCheck.Test.make ~name:"equal is extensional" ~count:300 gen_pair (fun (xs, ys) ->
      let sa = IntSet.of_list xs and sb = IntSet.of_list ys in
      Bitset.equal (bs_of_set sa) (bs_of_set sb) = IntSet.equal sa sb)

let prop_iter_order =
  QCheck.Test.make ~name:"iter visits in increasing order" ~count:200
    gen_elts
    (fun xs ->
      let s = IntSet.of_list xs in
      let order = ref [] in
      Bitset.iter (fun i -> order := i :: !order) (bs_of_set s);
      List.rev !order = IntSet.elements s)

let prop_fold =
  QCheck.Test.make ~name:"fold models Set.fold" ~count:200
    gen_elts
    (fun xs ->
      let s = IntSet.of_list xs in
      Bitset.fold (fun i acc -> acc + i) (bs_of_set s) 0
      = IntSet.fold (fun i acc -> acc + i) s 0)

let prop_copy_independent =
  QCheck.Test.make ~name:"copy is independent" ~count:100
    gen_elts
    (fun xs ->
      let a = bs_of_set (IntSet.of_list xs) in
      let b = Bitset.copy a in
      Bitset.add b 0;
      Bitset.remove b 0;
      Bitset.add a 1;
      Bitset.mem b 1 = IntSet.mem 1 (IntSet.of_list xs))

let prop_first_next_from =
  QCheck.Test.make ~name:"first and next_from model Set.find_first" ~count:300
    QCheck.(pair gen_elts (int_bound (cap + 1)))
    (fun (xs, i) ->
      let s = IntSet.of_list xs in
      let b = bs_of_set s in
      let from j = Option.value ~default:(-1) (IntSet.find_first_opt (fun x -> x >= j) s) in
      Bitset.first b = from 0 && Bitset.next_from b i = from i)

(* Dense sets, the complements of drawn ones: every word carries many
   bits, the sign bit often among them. *)
let prop_dense_cardinal =
  QCheck.Test.make ~name:"cardinal of dense sets" ~count:200 gen_elts (fun xs ->
      let holes = IntSet.of_list xs in
      let b = Bitset.create cap in
      Bitset.fill_upto b cap;
      Bitset.diff_into b (bs_of_set holes);
      let s = IntSet.diff (IntSet.of_list (List.init cap Fun.id)) holes in
      Bitset.cardinal b = IntSet.cardinal s && Bitset.elements b = IntSet.elements s)

(* [copy] and [Matrix.inter_row] build sets of one to four words as
   array literals and longer ones through [Array.copy], so these draw
   capacities of one to six words, each anywhere within its last word. *)
let gen_any_width =
  QCheck.(
    make
      ~print:(fun (cap, xs, ys, zs) ->
        Printf.sprintf "capacity %d, s %s, row %s, other rows %s" cap
          (Print.(list int) xs) (Print.(list int) ys) (Print.(list int) zs))
      Gen.(
        int_range 1 6 >>= fun words ->
        int_range (((words - 1) * bits) + 1) (words * bits) >>= fun cap ->
        let elts = list (int_bound (cap - 1)) in
        quad (return cap) elts elts elts))

let prop_copy_any_width =
  QCheck.Test.make ~name:"copy models a Set copy at 1-6 words" ~count:300 gen_any_width
    (fun (cap, xs, ys, _) ->
      let s = IntSet.of_list xs in
      let a = Bitset.of_list cap xs in
      let b = Bitset.copy a in
      let same = Bitset.elements b = IntSet.elements s && Bitset.capacity b = cap in
      (* Independent both ways. *)
      List.iter (Bitset.add b) ys;
      let a_kept = Bitset.elements a = IntSet.elements s in
      List.iter (Bitset.remove a) xs;
      same && a_kept && Bitset.elements b = IntSet.elements (IntSet.union s (IntSet.of_list ys)))

let prop_inter_row_any_width =
  QCheck.Test.make ~name:"inter_row models Set.inter at 1-6 words" ~count:300 gen_any_width
    (fun (cap, xs, ys, zs) ->
      let m = Bitset.Matrix.create ~rows:3 cap in
      List.iter (Bitset.Matrix.add m 0) zs;
      List.iter (Bitset.Matrix.add m 1) ys;
      List.iter (Bitset.Matrix.add m 2) zs;
      let s = Bitset.of_list cap xs in
      let r = Bitset.Matrix.inter_row s m 1 in
      Bitset.elements r = IntSet.elements (IntSet.inter (IntSet.of_list xs) (IntSet.of_list ys))
      && Bitset.capacity r = cap
      && Bitset.elements s = IntSet.elements (IntSet.of_list xs))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_inter; prop_union; prop_diff; prop_cardinal; prop_subset; prop_equal;
      prop_iter_order; prop_fold; prop_copy_independent; prop_first_next_from;
      prop_dense_cardinal; prop_copy_any_width; prop_inter_row_any_width ]

let () =
  Alcotest.run "bitset"
    [
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick basics;
          Alcotest.test_case "range checks" `Quick range_checks;
          Alcotest.test_case "zero capacity" `Quick zero_capacity;
          Alcotest.test_case "fill_upto" `Quick fill_upto;
          Alcotest.test_case "every bit position" `Quick every_position;
          Alcotest.test_case "matrix" `Quick matrix;
          Alcotest.test_case "malformed sets at every width" `Quick malformed_every_width;
        ] );
      ("properties", qsuite);
    ]
