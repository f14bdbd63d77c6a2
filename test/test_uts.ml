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

(* Golden trees. Each instance's per-depth node counts and an FNV-1a
   digest over the entered nodes' states in Sequential order; any change
   to the tree's shape or child order changes one of the two. *)
module Problem = Yewpar_core.Problem
module Stats = Yewpar_core.Stats
module Depth_profile = Yewpar_core.Depth_profile

let fnv h w = Int64.mul (Int64.logxor h w) 0x100000001b3L

let shape (pb : (_, Uts.node, int) Problem.t) =
  let h = ref 0xcbf29ce484222325L in
  let probe =
    Problem.enumerate ~name:pb.Problem.name ~space:pb.Problem.space
      ~root:pb.Problem.root ~children:pb.Problem.children ~empty:0 ~combine:( + )
      ~view:(fun n ->
        h := fnv !h n.Uts.state;
        1)
      ()
  in
  let count, stats = Sequential.search_with_stats probe in
  let d = stats.Stats.depths in
  let rows =
    List.init (Depth_profile.depths d) (fun i ->
        let n, _, _, _ = Depth_profile.row d i in
        n)
  in
  (count, rows, !h)

let golden name pb ~rows ~digest () =
  let count, got_rows, got_digest = shape pb in
  Alcotest.(check (list int)) (name ^ ": nodes per depth") rows got_rows;
  Alcotest.(check int64) (name ^ ": order digest") digest got_digest;
  Alcotest.(check int) (name ^ ": count") count (Sequential.search pb)

(* The geometric shape of perfbench's enum-steal workload. *)
let enum_shape g_seed =
  { Uts.g_b0 = 16.; decay = 0.7; g_max_depth = 100; g_seed }

(* The registry's uts-geo-c. *)
let geo_c = { Uts.g_b0 = 70.; decay = 0.43; g_max_depth = 200; g_seed = 808 }

(* Reference generators, written from the definitions: b(d) = b0 ·
   decay^d by [**] at every node, and each draw from [mix64]'s top 53
   bits. *)
module Splitmix = Yewpar_util.Splitmix

let reference_draw (node : Uts.node) =
  Int64.to_float (Int64.shift_right_logical (Splitmix.mix64 node.Uts.state) 11)
  *. 0x1p-53

let reference_fan (node : Uts.node) k =
  List.init k (fun i ->
      { Uts.state = Splitmix.hash2 node.Uts.state i; depth = node.Uts.depth + 1 })

let reference_geo_children (p : Uts.geo_params) (node : Uts.node) =
  if node.Uts.depth >= p.Uts.g_max_depth then []
  else begin
    let b = p.Uts.g_b0 *. (p.Uts.decay ** float_of_int node.Uts.depth) in
    let extra = if reference_draw node < b -. Float.floor b then 1 else 0 in
    reference_fan node (int_of_float (Float.floor b) + extra)
  end

let reference_children (p : Uts.params) (node : Uts.node) =
  let k =
    if node.Uts.depth >= p.Uts.max_depth then 0
    else if node.Uts.depth = 0 then p.Uts.b0
    else if reference_draw node < p.Uts.q then p.Uts.m
    else 0
  in
  reference_fan node k

(* Depth-first from [root] over at most [budget] nodes: at each one,
   every generator in [gens] yields exactly [reference]'s children.
   Returns the deepest depth visited, or fails. *)
let agrees_with ~budget ~reference gens root =
  let left = ref budget and deepest = ref 0 in
  let rec visit node =
    if !left > 0 then begin
      decr left;
      deepest := max !deepest node.Uts.depth;
      let expected = reference node in
      List.iter
        (fun gen ->
          if List.of_seq (gen node) <> expected then
            QCheck.Test.fail_reportf "children differ at depth %d" node.Uts.depth)
        gens;
      List.iter visit expected
    end
  in
  visit root;
  !deepest

(* Decays near 1 keep b(d) >= 1 deep into the tree, so the depth-first
   walk runs to [g_max_depth]; that ranges over both sides of the first
   64 depths, where b(d) switches from the problem's table to the
   formula. *)
let geo_params_gen =
  let open QCheck.Gen in
  let* g_b0 = float_range 1. 40. in
  let* decay =
    oneof
      [ map (fun u -> Float.max 1e-9 (Float.min u (1. -. 1e-9))) (float_range 0. 1.);
        map (fun x -> 1. -. (10. ** -.x)) (float_range 1. 3.) ]
  in
  let* g_max_depth = int_range 0 160 in
  let+ g_seed = int_bound 1_000_000 in
  { Uts.g_b0; decay; g_max_depth; g_seed }

let geo_params_arb =
  QCheck.make geo_params_gen ~print:(fun p ->
      Printf.sprintf "{g_b0 = %h; decay = %h; g_max_depth = %d; g_seed = %d}"
        p.Uts.g_b0 p.Uts.decay p.Uts.g_max_depth p.Uts.g_seed)

(* The problem's generator and the exported one both agree with the
   reference. *)
let geo_agrees p =
  agrees_with ~budget:3000 ~reference:(reference_geo_children p)
    [ (Uts.geo_count_problem p).Problem.children p; Uts.geo_children p ]
    (Uts.geo_root p)

let geo_reference =
  QCheck.Test.make ~name:"geometric children = ** reference" ~count:300
    geo_params_arb (fun p ->
      ignore (geo_agrees p);
      true)

(* The property's walk does reach past the table on a tree that stays
   bushy to its cutoff. *)
let geo_reference_deep () =
  let p = { Uts.g_b0 = 3.; decay = 0.999; g_max_depth = 130; g_seed = 5 } in
  Alcotest.(check int) "walk reaches the cutoff" 130 (geo_agrees p)

(* The inverse of [Splitmix.mix64], so that a test can give a node any
   [top53] it likes: undo each xor-shift, then multiply by the inverse
   of each odd constant (Newton's iteration, exact mod 2^64). *)
let unmix64 z =
  let open Int64 in
  let unshift z k =
    let y = ref z in
    for _ = 1 to 64 / k do
      y := logxor z (shift_right_logical !y k)
    done;
    !y
  in
  let inverse a =
    let x = ref a in
    for _ = 1 to 5 do
      x := mul !x (sub 2L (mul a !x))
    done;
    !x
  in
  let z = mul (unshift z 31) (inverse 0x94D049BB133111EBL) in
  let z = mul (unshift z 27) (inverse 0xBF58476D1CE4E5B9L) in
  unshift z 30

let node_with_top53 ~depth t =
  { Uts.state = unmix64 (Int64.shift_left (Int64.of_int t) 11); depth }

(* b(d) at a depth the problem tables: a random one, an integral or
   dyadic one (cut 0, or a fraction of few bits), or the fractions
   nearest 0 and nearest 1 above an integer. *)
let tabled_gen =
  let open QCheck.Gen in
  let g_seed = 0 and g_max_depth = 64 in
  oneof
    [ (let* g_b0 = float_range 0. 40. in
       let* decay = float_range 1e-9 (1. -. 1e-9) in
       let+ d = int_range 0 63 in
       ({ Uts.g_b0; decay; g_max_depth; g_seed }, d));
      (let* k = int_range 0 40 in
       let+ d = int_range 0 6 in
       ({ Uts.g_b0 = float_of_int k; decay = 0.5; g_max_depth; g_seed }, d));
      (let* k = int_range 0 40 in
       let* g_b0 =
         oneofl [ Float.succ (float_of_int k); Float.pred (float_of_int (k + 1)) ]
       in
       let+ decay = float_range 0.01 0.99 in
       ({ Uts.g_b0; decay; g_max_depth; g_seed }, 0)) ]

(* At every tabled depth, the problem's child count is [floor b +
   (draw < b - floor b)], for random states and for the states whose
   [top53] sits next to [frac b · 2^53], where the extra child starts
   or stops. *)
let geo_table_count =
  let arb =
    QCheck.make
      QCheck.Gen.(pair tabled_gen (list_size (return 8) int64))
      ~print:(fun ((p, d), _) ->
        Printf.sprintf "{g_b0 = %h; decay = %h}, depth %d" p.Uts.g_b0 p.Uts.decay d)
  in
  QCheck.Test.make ~name:"tabled count = floor b + (draw < frac b)" ~count:500 arb
    (fun ((p, depth), states) ->
      let children = (Uts.geo_count_problem p).Problem.children p in
      let b = p.Uts.g_b0 *. (p.Uts.decay ** float_of_int depth) in
      let frac = b -. Float.floor b in
      let edge = int_of_float (frac *. 0x1p53) in
      let edges =
        List.filter_map
          (fun t ->
            if t < 0 || t >= 1 lsl 53 then None
            else Some (node_with_top53 ~depth t))
          [ edge - 1; edge; edge + 1; edge + 2 ]
      in
      List.for_all
        (fun node ->
          let expected =
            int_of_float (Float.floor b) + if reference_draw node < frac then 1 else 0
          in
          Seq.length (children node) = expected
          && Seq.length (Uts.geo_children p node) = expected)
        (edges @ List.map (fun state -> { Uts.state; depth }) states))

(* The inverse really is one, and puts [top53] where it is asked to. *)
let unmix_inverts () =
  List.iter
    (fun z ->
      Alcotest.(check int64) "mix64 (unmix64 z)" z (Splitmix.mix64 (unmix64 z)))
    [ 0L; 1L; -1L; 0x123456789ABCDEFL; Int64.min_int ];
  List.iter
    (fun t ->
      Alcotest.(check int) "top53" t
        (Splitmix.top53 (node_with_top53 ~depth:0 t).Uts.state))
    [ 0; 1; 12345; (1 lsl 53) - 1 ]

let bin_params_arb =
  QCheck.make
    ~print:(fun p ->
      Printf.sprintf "{b0 = %d; q = %h; m = %d; max_depth = %d; seed = %d}"
        p.Uts.b0 p.Uts.q p.Uts.m p.Uts.max_depth p.Uts.seed)
    QCheck.Gen.(
      let* b0 = int_range 0 40 in
      let* q = float_range 0. 1. in
      let* m = int_range 0 6 in
      let* max_depth = int_range 0 100 in
      let+ seed = int_bound 1_000_000 in
      { Uts.b0; q; m; max_depth; seed })

let bin_reference =
  QCheck.Test.make ~name:"binomial children = reference" ~count:200
    bin_params_arb (fun p ->
      ignore
        (agrees_with ~budget:3000 ~reference:(reference_children p)
           [ (Uts.count_problem p).Problem.children p ]
           (Uts.root p));
      true)

(* Malformed parameters end in a typed error, not a search that never
   ends. *)
let rejects fn what f =
  Alcotest.check_raises what (Invalid_argument (fn ^ ": " ^ what)) (fun () ->
      ignore (f ()))

let geo_rejects what ps () =
  List.iter
    (fun p -> rejects "Uts.geo_count_problem" what (fun () -> Uts.geo_count_problem p))
    ps

let bin_rejects what ps () =
  List.iter
    (fun p ->
      rejects "Uts.count_problem" what (fun () -> Uts.count_problem p);
      rejects "Uts.max_depth_problem" what (fun () -> Uts.max_depth_problem p))
    ps

let rejections =
  [ Alcotest.test_case "decay outside (0, 1)" `Quick
      (geo_rejects "decay must be in (0, 1)"
         (List.map
            (fun decay -> { geo with Uts.decay })
            [ 1.; 1.5; 0.; -0.5; Float.nan; Float.infinity ]));
    Alcotest.test_case "g_b0 negative or not finite" `Quick
      (geo_rejects "g_b0 must be finite and non-negative"
         (List.map
            (fun g_b0 -> { geo with Uts.g_b0 })
            [ -1.; Float.infinity; Float.neg_infinity; Float.nan ]));
    Alcotest.test_case "g_max_depth negative" `Quick
      (geo_rejects "g_max_depth must be non-negative" [ { geo with Uts.g_max_depth = -1 } ]);
    Alcotest.test_case "q outside [0, 1]" `Quick
      (bin_rejects "q must be in [0, 1]"
         (List.map (fun q -> { params with Uts.q }) [ 1.01; -0.1; Float.nan ]));
    Alcotest.test_case "m negative" `Quick
      (bin_rejects "m must be non-negative" [ { params with Uts.m = -1 } ]);
    Alcotest.test_case "b0 negative" `Quick
      (bin_rejects "b0 must be non-negative" [ { params with Uts.b0 = -1 } ]) ]


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
      ( "golden",
        [
          Alcotest.test_case "enum-steal shape, seed 1" `Quick
            (golden "geo seed 1"
               (Uts.geo_count_problem (enum_shape 1))
               ~rows:
                 [ 1; 16; 177; 1388; 7604; 29228; 78392; 147513; 194320; 179208;
                   115670; 52179; 16467; 3582; 586; 55; 3 ]
               ~digest:(-8234722870316230637L));
          Alcotest.test_case "enum-steal shape, seed 2" `Quick
            (golden "geo seed 2"
               (Uts.geo_count_problem (enum_shape 2))
               ~rows:
                 [ 1; 16; 178; 1390; 7605; 29196; 78485; 147835; 194652; 179496;
                   115984; 52259; 16365; 3629; 603; 59; 1 ]
               ~digest:5536488283141647806L);
          Alcotest.test_case "enum-steal shape, seed 3" `Quick
            (golden "geo seed 3"
               (Uts.geo_count_problem (enum_shape 3))
               ~rows:
                 [ 1; 16; 180; 1413; 7747; 29709; 79849; 150269; 197889; 182392;
                   117891; 53454; 16936; 3818; 578; 54; 4 ]
               ~digest:8100337137968865830L);
          Alcotest.test_case "uts-geo-c" `Quick
            (golden "uts-geo-c" (Uts.geo_count_problem geo_c)
               ~rows:
                 [ 1; 70; 2106; 27256; 151622; 362950; 373449; 165680; 31562;
                   2529; 91; 1 ]
               ~digest:(-1092198566431639186L));
          Alcotest.test_case "default" `Quick
            (golden "default" (Uts.count_problem Uts.default)
               ~rows:
                 [ 1; 120; 100; 84; 92; 84; 104; 84; 96; 92; 72; 56; 40; 52; 44;
                   24; 16; 12; 4; 4 ]
               ~digest:(-1187046745013390682L));
        ] );
      ( "reference",
        Alcotest.test_case "walk reaches past the table" `Quick geo_reference_deep
        :: Alcotest.test_case "unmix64 inverts mix64" `Quick unmix_inverts
        :: List.map QCheck_alcotest.to_alcotest
             [ geo_reference; geo_table_count; bin_reference ] );
      ("rejections", rejections);
    ]
