module Engine = Yewpar_core.Engine
module Problem = Yewpar_core.Problem
module Knowledge = Yewpar_core.Knowledge
module Ops = Yewpar_core.Ops
module Sequential = Yewpar_core.Sequential
module Coordination = Yewpar_core.Coordination
module Stats = Yewpar_core.Stats
module Depth_profile = Yewpar_core.Depth_profile

(* An explicit rose tree as a toy search space. *)
type tree = T of int * tree list

let value (T (v, _)) = v
let children_of () (T (_, cs)) = List.to_seq cs

let rec size (T (_, cs)) = 1 + List.fold_left (fun acc c -> acc + size c) 0 cs
let rec max_value (T (v, cs)) = List.fold_left (fun acc c -> max acc (max_value c)) v cs

(* A cap on the engine transitions (one per entered and one per left
   node) a test may spend on a tree of [n] nodes: twice what a
   traversal takes, so an engine that stops advancing a frame fails
   the test instead of hanging it. *)
let step_cap n = (4 * n) + 16

(* [children_of] for a problem searched through [Sequential.search],
   which takes no step bound: every child kept or pruned, and every
   exhausted node, forces one cell of these sequences, and the search
   fails the test once it has forced [step_cap] cells on the tree
   [root]. *)
let capped_children root =
  let left = ref (step_cap (size root)) in
  let rec capped s () =
    decr left;
    if !left < 0 then Alcotest.fail "search exceeded its step cap";
    match s () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (c, rest) -> Seq.Cons (c, capped rest)
  in
  fun () n -> capped (children_of () n)

(*      1
      / | \
     2  5  3
    / \     \
   7   4     9   *)
let sample =
  T (1, [ T (2, [ T (7, []); T (4, []) ]); T (5, []); T (3, [ T (9, []) ]) ])

let count_problem root =
  Problem.count_nodes ~name:"count" ~space:() ~root
    ~children:(capped_children root) ()

let max_problem root =
  Problem.maximise ~name:"max" ~space:() ~root ~children:(capped_children root)
    ~objective:value ()

(* Run [e] to its end, returning the values of the nodes it entered in
   order. *)
let drive ?(keep = fun _ -> true) e =
  let visited = ref [] in
  let process n =
    visited := value n :: !visited;
    true
  in
  let paused =
    Engine.run ~steps:(step_cap (size (Engine.root e))) ~prune_rest:false ~keep
      ~process ~stop:(Atomic.make false) e
  in
  Alcotest.(check bool) "ran to the end" false paused;
  List.rev !visited

(* One transition of [e], keeping every child. *)
type transition = Enter of int | Leave | Exhausted

let step e =
  let entered = ref None and backtracks = Engine.backtracks e in
  let process n =
    entered := Some n;
    true
  in
  let paused =
    Engine.run ~steps:1 ~prune_rest:false ~keep:(fun _ -> true) ~process
      ~stop:(Atomic.make false) e
  in
  match !entered with
  | Some n -> Enter (value n)
  | None when Engine.backtracks e > backtracks -> Leave
  | None ->
    Alcotest.(check bool) "no transition left" false paused;
    Exhausted

let engine_traversal_order () =
  (* The engine must visit nodes in depth-first, left-to-right order. *)
  let e = Engine.make ~space:() ~children:children_of ~root_depth:0 sample in
  Alcotest.(check (list int)) "dfs order" [ 2; 7; 4; 5; 3; 9 ] (drive e);
  Alcotest.(check int) "backtracks = nodes+1 pops" 7 (Engine.backtracks e);
  Alcotest.(check int) "entered" 6 (Engine.nodes_entered e);
  Alcotest.(check int) "max depth" 2 (Engine.max_depth e);
  Alcotest.(check int) "exhausted depth" (-1) (Engine.current_depth e)

let engine_pruning () =
  (* Pruning the subtree rooted at 2 skips 7 and 4. *)
  let e = Engine.make ~space:() ~children:children_of ~root_depth:0 sample in
  Alcotest.(check (list int)) "pruned traversal" [ 5; 3; 9 ]
    (drive ~keep:(fun n -> value n <> 2) e);
  Alcotest.(check int) "pruned count" 1 (Engine.nodes_pruned e)

let engine_split_one () =
  let e = Engine.make ~space:() ~children:children_of ~root_depth:0 sample in
  (* Before any step, split_one removes the first root child (2). *)
  (match Engine.split_one e with
  | Some (n, d) ->
    Alcotest.(check int) "lowest split is leftmost child" 2 (value n);
    Alcotest.(check int) "depth" 1 d
  | None -> Alcotest.fail "expected a split");
  (* The remaining traversal must skip the whole subtree of 2. *)
  Alcotest.(check (list int)) "rest of tree" [ 5; 3; 9 ] (drive e)

let engine_split_lowest () =
  let e = Engine.make ~space:() ~children:children_of ~root_depth:3 sample in
  let cs, d = Engine.split_lowest e in
  Alcotest.(check (list int)) "all root children split" [ 2; 5; 3 ]
    (List.map value cs);
  Alcotest.(check int) "absolute depth honours root_depth" 4 d;
  Alcotest.(check (pair (list int) int)) "nothing left to split" ([], 0)
    (let cs, d = Engine.split_lowest e in
     (List.map value cs, d));
  if step e <> Leave then Alcotest.fail "expected immediate backtrack after full split";
  if step e <> Exhausted then Alcotest.fail "expected exhaustion"

let engine_split_lowest_mid_search () =
  let e = Engine.make ~space:() ~children:children_of ~root_depth:0 sample in
  (* Enter node 2; lowest unexplored frame is then the root (5, 3). *)
  if step e <> Enter 2 then Alcotest.fail "expected to enter 2";
  let cs, d = Engine.split_lowest e in
  Alcotest.(check (list int)) "root remainder split" [ 5; 3 ] (List.map value cs);
  Alcotest.(check int) "depth 1" 1 d;
  (* 7 and 4 (children of 2) remain. *)
  Alcotest.(check (list int)) "kept subtree of 2" [ 7; 4 ] (drive e)

let engine_cut_rest () =
  let e = Engine.make ~space:() ~children:children_of ~root_depth:0 sample in
  (* Enter 2, then cut the root frame: 5 and 3 are discarded, the
     subtree of 2 is not. Cutting a depth no frame sits at is a no-op. *)
  if step e <> Enter 2 then Alcotest.fail "expected to enter 2";
  Engine.cut_rest e ~depth:0;
  Engine.cut_rest e ~depth:7;
  Alcotest.(check (list int)) "only the subtree of 2" [ 7; 4 ] (drive e)

let engine_depth_tracking () =
  let e = Engine.make ~space:() ~children:children_of ~root_depth:5 sample in
  Alcotest.(check int) "initial depth = root_depth" 5 (Engine.current_depth e);
  Alcotest.(check int) "stack size 1" 1 (Engine.stack_size e);
  if step e <> Enter 2 then Alcotest.fail "expected to enter 2";
  Alcotest.(check int) "descended" 6 (Engine.current_depth e);
  Alcotest.(check int) "stack grew" 2 (Engine.stack_size e);
  Alcotest.(check int) "root anchor preserved" 1 (value (Engine.root e))

(* No retention: once the engine has left a subtree, or been restarted,
   nothing it holds keeps that subtree's nodes alive. Every node is a
   fresh block registered in a weak array, tagged with the subtree it
   belongs to (the index of its depth-1 ancestor, or -1 for the root). *)
type wnode = { wdepth : int; top : int }

let engine_no_retention () =
  let nodes = Weak.create 1024 and tops = Array.make 1024 (-2) in
  let made = ref 0 in
  let mk wdepth top =
    let n = { wdepth; top } in
    Weak.set nodes !made (Some n);
    tops.(!made) <- top;
    incr made;
    n
  in
  (* A complete ternary tree of depth 3, generated afresh on demand. *)
  let children () n =
    if n.wdepth >= 3 then Seq.empty
    else
      Seq.init 3 (fun i ->
          mk (n.wdepth + 1) (if n.wdepth = 0 then i else n.top))
  in
  let live top =
    let k = ref 0 in
    for i = 0 to !made - 1 do
      if tops.(i) = top && Weak.check nodes i then incr k
    done;
    !k
  in
  (* Kept out of line so no local of the test holds a node. *)
  let[@inline never] start () =
    Engine.make ~space:() ~children ~root_depth:0 (mk 0 (-1))
  in
  let e = start () in
  let stop = Atomic.make false in
  let step () =
    if
      not
        (Engine.run ~steps:1 ~prune_rest:false ~keep:(fun _ -> true)
           ~process:(fun _ -> true) ~stop e)
    then Alcotest.fail "exhausted inside subtree 0"
  in
  (* Walk subtree 0 and stop on the leave that pops its root. *)
  let rec walk () =
    let backtracks = Engine.backtracks e in
    step ();
    if not (Engine.backtracks e > backtracks && Engine.current_depth e = 0)
    then walk ()
  in
  walk ();
  (* Enter the root of subtree 1 so the engine is mid-traversal. *)
  let entered = Engine.nodes_entered e in
  step ();
  Alcotest.(check int) "entered subtree 1" (entered + 1) (Engine.nodes_entered e);
  Gc.full_major ();
  Alcotest.(check int) "left subtree collected" 0 (live 0);
  Alcotest.(check bool) "current branch still alive" true (live 1 > 0);
  let[@inline never] restart () = Engine.restart e ~root_depth:0 (mk 0 (-3)) in
  restart ();
  Gc.full_major ();
  Alcotest.(check int) "previous root collected after restart" 0 (live (-1));
  Alcotest.(check int) "abandoned branch collected after restart" 0 (live 1)

let sequential_count () =
  let r, stats = Sequential.search_with_stats (count_problem sample) in
  Alcotest.(check int) "counts all nodes" (size sample) r;
  Alcotest.(check int) "stats nodes" (size sample) stats.Stats.nodes

let sequential_max () =
  let n = Sequential.search (max_problem sample) in
  Alcotest.(check int) "finds max" (max_value sample) (value n)

let sequential_decide () =
  let dec target =
    Problem.decide ~name:"dec" ~space:() ~root:sample
      ~children:(capped_children sample)
      ~objective:value ~target ()
  in
  (match Sequential.search (dec 9) with
  | Some n -> Alcotest.(check int) "witness value" 9 (value n)
  | None -> Alcotest.fail "expected witness");
  (match Sequential.search (dec 10) with
  | Some _ -> Alcotest.fail "no witness above 9"
  | None -> ());
  (* Root itself can be a witness. *)
  match Sequential.search (dec 1) with
  | Some n -> Alcotest.(check int) "root witness" 1 (value n)
  | None -> Alcotest.fail "root should satisfy"

let sequential_shortcircuit_stops () =
  (* With a short-circuiting target, the nodes counter must stop early:
     target 2 is hit at the very first entered node. *)
  let stats = Stats.create () in
  let dec =
    Problem.decide ~name:"dec" ~space:() ~root:sample
      ~children:(capped_children sample)
      ~objective:value ~target:2 ()
  in
  (match Sequential.search ~stats dec with
  | Some n -> Alcotest.(check int) "first witness in order" 2 (value n)
  | None -> Alcotest.fail "expected witness");
  Alcotest.(check int) "stopped after two nodes" 2 stats.Stats.nodes

let sequential_bound_prunes () =
  (* With the exact-subtree-max bound, only the path to one maximum plus
     bound-failed siblings is visited. *)
  let rec bound (T (v, cs)) = List.fold_left (fun acc c -> max acc (bound c)) v cs in
  let stats = Stats.create () in
  let p =
    Problem.maximise ~name:"maxb" ~space:() ~root:sample
      ~children:(capped_children sample)
      ~bound ~objective:value ()
  in
  let n = Sequential.search ~stats p in
  Alcotest.(check int) "still optimal with pruning" 9 (value n);
  Alcotest.(check bool) "pruning happened" true (stats.Stats.pruned > 0)

let sequential_depth_profile () =
  (* The per-depth profile collected alongside stats must column-sum to
     the run's scalar counters (sequential search spawns no tasks and
     applies no shared incumbent, so those columns are zero). *)
  let rec bound (T (v, cs)) = List.fold_left (fun acc c -> max acc (bound c)) v cs in
  let stats = Stats.create () in
  let p =
    Problem.maximise ~name:"maxb" ~space:() ~root:sample
      ~children:(capped_children sample)
      ~bound ~objective:value ()
  in
  ignore (Sequential.search ~stats p);
  let nodes, pruned, spawned, bounds = Depth_profile.totals stats.Stats.depths in
  Alcotest.(check int) "nodes column" stats.Stats.nodes nodes;
  Alcotest.(check int) "pruned column" stats.Stats.pruned pruned;
  Alcotest.(check int) "no spawns" 0 spawned;
  Alcotest.(check int) "no bound updates" 0 bounds;
  (* Root lives at depth 0; the deepest row must match max_depth. *)
  Alcotest.(check int) "rows = max depth + 1" (stats.Stats.max_depth + 1)
    (Depth_profile.depths stats.Stats.depths);
  let r0_nodes, _, _, _ = Depth_profile.row stats.Stats.depths 0 in
  Alcotest.(check int) "one root node" 1 r0_nodes;
  (* The CSV export carries one line per depth plus the header. *)
  let csv = Depth_profile.to_csv stats.Stats.depths in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "csv rows"
    (Depth_profile.depths stats.Stats.depths + 1)
    (List.length lines);
  Alcotest.(check string) "csv header" "depth,nodes,pruned,spawned,bound_updates"
    (List.hd lines)

let enumeration_monoid () =
  (* Sum of values, a different monoid from counting. *)
  let p =
    Problem.enumerate ~name:"sum" ~space:() ~root:sample
      ~children:(capped_children sample)
      ~empty:0 ~combine:( + ) ~view:value ()
  in
  Alcotest.(check int) "sum over tree" (1 + 2 + 7 + 4 + 5 + 3 + 9) (Sequential.search p)

let knowledge_basics () =
  let k = Knowledge.make_atomic () in
  Alcotest.(check int) "initial bound" min_int (Knowledge.best_obj k);
  Alcotest.(check bool) "first submit improves" true (k.Knowledge.submit "a" 3);
  Alcotest.(check bool) "equal does not improve" false (k.Knowledge.submit "b" 3);
  Alcotest.(check bool) "lower does not improve" false (k.Knowledge.submit "c" 1);
  Alcotest.(check bool) "higher improves" true (k.Knowledge.submit "d" 5);
  Alcotest.(check int) "best obj" 5 (Knowledge.best_obj k);
  Alcotest.(check (option (pair int string))) "best node" (Some (5, "d"))
    (k.Knowledge.best_node ());
  (* A floor raises the word only: the witness and what submit
     compares with stay the store's own. *)
  Knowledge.adopt_floor k 9;
  Knowledge.adopt_floor k 7;
  Alcotest.(check int) "floor raises the word" 9 (Knowledge.best_obj k);
  Alcotest.(check bool) "below the floor, above the witness" true
    (k.Knowledge.submit "e" 6);
  Alcotest.(check int) "word keeps the floor" 9 (Knowledge.best_obj k);
  Alcotest.(check (option (pair int string))) "witness is the store's own"
    (Some (6, "e")) (k.Knowledge.best_node ())

let knowledge_atomic_races () =
  (* Hammer the atomic store from several domains; the maximum must
     win and the witness must be consistent with it. A fifth domain
     samples the word and then the witness meanwhile: the word never
     falls and never exceeds the witness read after it. *)
  let k = Knowledge.make_atomic () in
  let writers_done = Atomic.make false in
  let sampler =
    Domain.spawn (fun () ->
        let bad = ref [] and last = ref min_int in
        let sample () =
          let w = Knowledge.best_obj k in
          (match k.Knowledge.best_node () with
          | Some (v, n) when n = v && w <= v -> ()
          | None when w = min_int -> ()
          | Some (v, n) -> bad := Printf.sprintf "word %d, witness %d at %d" w n v :: !bad
          | None -> bad := Printf.sprintf "word %d, no witness" w :: !bad);
          if w < !last then bad := Printf.sprintf "word fell %d -> %d" !last w :: !bad;
          last := w
        in
        while not (Atomic.get writers_done) do
          sample ()
        done;
        sample ();
        (!bad, !last))
  in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 999 do
              ignore (k.Knowledge.submit ((d * 1000) + i) ((d * 1000) + i))
            done))
  in
  List.iter Domain.join domains;
  Atomic.set writers_done true;
  let bad, last = Domain.join sampler in
  Alcotest.(check (list string)) "every sample coherent" [] bad;
  Alcotest.(check int) "sampler ends at the max" 3999 last;
  Alcotest.(check int) "max wins" 3999 (Knowledge.best_obj k);
  Alcotest.(check (option (pair int int))) "witness matches" (Some (3999, 3999))
    (k.Knowledge.best_node ())

let ops_enum_merges_views () =
  let spec = { Problem.empty = 0; combine = ( + ); view = (fun n -> n) } in
  let h = Ops.harness (Problem.Enumerate spec) in
  let k = Knowledge.make_atomic () in
  let v1 = h.Ops.view k and v2 = h.Ops.view k in
  ignore (v1.Ops.process 5);
  ignore (v2.Ops.process 7);
  ignore (v1.Ops.process 1);
  Alcotest.(check int) "accumulators merge" 13 (h.Ops.result k)

(* A node whose view is the monoid identity is not combined: queens-8
   calls [combine] once per solution, 92 times, not once per node
   (2,057), and once more to fold the one worker's accumulator into the
   answer. *)
let ops_enum_skips_identity () =
  let calls = ref 0 in
  let p = Yewpar_queens.Queens.count_solutions (Yewpar_queens.Queens.instance ~n:8) in
  let p =
    match p.Problem.kind with
    | Problem.Enumerate spec ->
      let combine a b = incr calls; spec.Problem.combine a b in
      { p with Problem.kind = Problem.Enumerate { spec with Problem.combine } }
  in
  let check name run =
    calls := 0;
    Alcotest.(check int) (name ^ ": solutions") 92 (run ());
    Alcotest.(check int) (name ^ ": combine calls") (92 + 1) !calls
  in
  check "Sequential.search" (fun () -> Sequential.search p);
  List.iter
    (fun (name, coordination) ->
      check ("Shm.run ~workers:1 " ^ name) (fun () ->
          Yewpar_par.Shm.run ~workers:1 ~coordination p))
    [ ("seq", Coordination.Sequential);
      ("depthbounded:2", Coordination.Depth_bounded { dcutoff = 2 }) ]

let ops_decide_keep () =
  let h =
    Ops.harness
      (Problem.Decide
         { objective = { value = Fun.id; bound = Some (fun n -> n + 1); monotone = false }; target = 10 })
  in
  let k = Knowledge.make_atomic () in
  let v = h.Ops.view k in
  Alcotest.(check bool) "bound below target pruned" false (Ops.keeps v 8);
  Alcotest.(check bool) "bound reaching target kept" true (Ops.keeps v 9);
  Alcotest.(check bool) "below target continues" true (v.Ops.process 9);
  Alcotest.(check bool) "target short-circuits" false (v.Ops.process 10);
  Alcotest.(check (option int)) "witness recorded" (Some 10) (h.Ops.result k)

(* A lease's view offers every node to its partial, also one that only
   ties the store's incumbent: a lease re-issued to a locality whose
   floor came from the lost copy of that same lease must still put its
   witness into its own partial. Harness views may skip such a node;
   an algebra view must not. *)
let ops_lease_partial_takes_ties () =
  let obj = { Problem.value = snd; bound = Some snd; monotone = false } in
  let (Ops.Algebra alg) = Ops.algebra (Problem.Optimise obj) in
  let k = Knowledge.make_atomic () in
  ignore (k.Knowledge.submit ("lost copy", 7) 7 : bool);
  let cell = ref alg.Ops.empty in
  let view = alg.Ops.view cell k in
  Alcotest.(check bool) "search goes on" true (view.Ops.process ("re-run", 7));
  Alcotest.(check (pair string int)) "witness in the lease partial"
    ("re-run", 7) (alg.Ops.answer !cell)

let coordination_strings () =
  Alcotest.(check string) "seq" "seq" (Coordination.to_string Coordination.Sequential);
  (match Coordination.of_string "depthbounded:3" with
  | Ok (Coordination.Depth_bounded { dcutoff }) ->
    Alcotest.(check int) "dcutoff parsed" 3 dcutoff
  | _ -> Alcotest.fail "parse depthbounded");
  (match Coordination.of_string "stacksteal:chunked" with
  | Ok (Coordination.Stack_stealing { chunked }) ->
    Alcotest.(check bool) "chunked" true chunked
  | _ -> Alcotest.fail "parse stacksteal");
  (match Coordination.of_string "budget:100000" with
  | Ok (Coordination.Budget { budget }) -> Alcotest.(check int) "budget" 100000 budget
  | _ -> Alcotest.fail "parse budget");
  (match Coordination.of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject unknown");
  (match Coordination.of_string "bestfirst:3" with
  | Ok (Coordination.Best_first { dcutoff }) ->
    Alcotest.(check int) "bestfirst parsed" 3 dcutoff
  | _ -> Alcotest.fail "parse bestfirst");
  (match Coordination.of_string "randomspawn:64" with
  | Ok (Coordination.Random_spawn { mean_interval }) ->
    Alcotest.(check int) "randomspawn parsed" 64 mean_interval
  | _ -> Alcotest.fail "parse randomspawn");
  (match Coordination.of_string "ordered:3" with
  | Ok (Coordination.Ordered { dcutoff }) ->
    Alcotest.(check int) "ordered parsed" 3 dcutoff
  | _ -> Alcotest.fail "parse ordered");
  (match Coordination.of_string "ordered" with
  | Ok (Coordination.Ordered { dcutoff }) ->
    Alcotest.(check int) "bare ordered cutoff" 2 dcutoff
  | _ -> Alcotest.fail "parse bare ordered");
  List.iter
    (fun s ->
      match Coordination.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("should reject " ^ s))
    [ "ordered:-1"; "ordered:x" ];
  match Coordination.of_string "budget:-2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject negative budget"

let stats_accounting () =
  let a = Stats.create () in
  a.Stats.nodes <- 10;
  a.Stats.max_depth <- 3;
  a.Stats.tasks <- 2;
  a.Stats.steal_attempts <- 5;
  a.Stats.steals <- 1;
  let b = Stats.copy a in
  b.Stats.nodes <- 7;
  b.Stats.max_depth <- 9;
  Alcotest.(check int) "copy is independent" 10 a.Stats.nodes;
  Alcotest.(check int) "copy carried steal attempts" 5 b.Stats.steal_attempts;
  Stats.add a b;
  Alcotest.(check int) "nodes summed" 17 a.Stats.nodes;
  Alcotest.(check int) "max depth maxed" 9 a.Stats.max_depth;
  Alcotest.(check int) "tasks summed" 4 a.Stats.tasks;
  Alcotest.(check int) "steal attempts summed" 10 a.Stats.steal_attempts;
  Alcotest.(check int) "steals summed" 2 a.Stats.steals;
  let rendered = Format.asprintf "%a" Stats.pp a in
  Alcotest.(check bool) "pp shows steals/attempts"
    true
    (let re = Str.regexp_string "steals=2/10" in
     match Str.search_forward re rendered 0 with
     | _ -> true
     | exception Not_found -> false)

let codec_roundtrip () =
  let codec = Yewpar_core.Codec.marshal () in
  let node = T (3, [ T (1, []); T (4, [ T (1, []) ]) ]) in
  Alcotest.(check bool) "marshal codec roundtrips" true
    (codec.Yewpar_core.Codec.decode (codec.Yewpar_core.Codec.encode node) = node);
  let s = Yewpar_core.Codec.string in
  Alcotest.(check string) "string codec is identity" "payload"
    (s.Yewpar_core.Codec.decode (s.Yewpar_core.Codec.encode "payload"))

let dot_export () =
  let dot =
    Yewpar_core.Dot.export ~max_depth:5 ~max_nodes:100
      ~label:(fun n -> string_of_int (value n))
      (count_problem sample)
  in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let count_sub sub =
    let re = Str.regexp_string sub in
    let rec go i acc =
      match Str.search_forward re dot i with
      | j -> go (j + 1) (acc + 1)
      | exception Not_found -> acc
    in
    go 0 0
  in
  ignore count_sub;
  (* 7 nodes and 6 edges in the sample tree. *)
  let edges =
    String.split_on_char '\n' dot
    |> List.filter (fun l ->
           match String.index_opt l '>' with Some _ -> true | None -> false)
  in
  Alcotest.(check int) "six edges" 6 (List.length edges)

let dot_truncation () =
  let dot =
    Yewpar_core.Dot.export ~max_depth:1 ~max_nodes:100
      ~label:(fun n -> Printf.sprintf "v=%d \"quoted\"" (value n))
      (count_problem sample)
  in
  Alcotest.(check bool) "escaped quotes" true
    (let re = Str.regexp_string "\\\"quoted\\\"" in
     match Str.search_forward re dot 0 with
     | _ -> true
     | exception Not_found -> false);
  Alcotest.(check bool) "dashed truncation markers" true
    (let re = Str.regexp_string "style=dashed" in
     match Str.search_forward re dot 0 with
     | _ -> true
     | exception Not_found -> false)

let ordered_core_paths () =
  let module OC = Yewpar_core.Ordered_core in
  Alcotest.(check bool) "ancestor first" true (OC.path_compare [ 1 ] [ 1; 0 ] < 0);
  Alcotest.(check bool) "sibling order" true (OC.path_compare [ 0; 9 ] [ 1 ] < 0);
  Alcotest.(check int) "equal" 0 (OC.path_compare [ 2; 3 ] [ 2; 3 ]);
  let entries =
    [ { OC.e_path = [ 0 ]; e_value = 5; e_node = "a" };
      { OC.e_path = [ 2 ]; e_value = 9; e_node = "b" };
      { OC.e_path = [ 1; 1 ]; e_value = 9; e_node = "c" } ]
  in
  Alcotest.(check int) "left best of [1]" 5 (OC.left_best entries [ 1 ]);
  Alcotest.(check int) "left best of [3]" 9 (OC.left_best entries [ 3 ]);
  Alcotest.(check int) "left best of [0]" min_int (OC.left_best entries [ 0 ]);
  Alcotest.(check (option string)) "select leftmost max" (Some "c")
    (OC.select entries);
  Alcotest.(check (option string)) "select empty" None (OC.select [])

let ordered_core_lift () =
  let module OC = Yewpar_core.Ordered_core in
  let obj = { Problem.value; bound = None; monotone = false } in
  let p = OC.lift ~dcutoff:1 obj (max_problem sample) in
  let kids c = List.of_seq (p.Problem.children () c) in
  (* Depth-1 cutoff: the root's children get their own positions... *)
  let level1 = kids p.Problem.root in
  Alcotest.(check (list (list int))) "positions in order"
    [ [ 0 ]; [ 1 ]; [ 2 ] ]
    (List.map (fun c -> c.OC.path) level1);
  (* ...and deeper nodes share their task's position physically. *)
  let first = List.hd level1 in
  Alcotest.(check bool) "below the cutoff shares the path" true
    (List.for_all (fun c -> c.OC.path == first.OC.path) (kids first));
  Alcotest.(check int) "lifted optimum" 9 (value (Sequential.search p).OC.node)

(* A view without a pruning predicate ([keep = None]) lets the engine
   keep every child without a call: enumerations and unbounded
   searches, Ordered's included. Every bounded view has one. *)
let views_keep_all () =
  let objective bound = { Problem.value = Fun.id; bound; monotone = false } in
  let bound = Some (fun n -> n + 1) in
  let k = Knowledge.make_atomic () in
  let harness kind = (Ops.harness kind).Ops.view k in
  let algebra kind =
    let (Ops.Algebra alg) = Ops.algebra kind in
    alg.Ops.view (ref alg.Ops.empty) k
  in
  let ordered bound =
    let module OC = Yewpar_core.Ordered_core in
    Option.is_none
      ((OC.harness (objective bound)).Ops.view (Knowledge.make_atomic ())).Ops.keep
  in
  let enum = Problem.Enumerate { empty = 0; combine = ( + ); view = Fun.id } in
  let check label keeps_all (view : int Ops.view) =
    Alcotest.(check bool) label keeps_all (Option.is_none view.Ops.keep)
  in
  check "enumerate" true (harness enum);
  check "enumerate, algebra" true (algebra enum);
  List.iter
    (fun (label, bound, keeps_all) ->
      let opt = Problem.Optimise (objective bound)
      and dec = Problem.Decide { objective = objective bound; target = 10 } in
      check ("optimise, " ^ label) keeps_all (harness opt);
      check ("optimise algebra, " ^ label) keeps_all (algebra opt);
      check ("decide, " ^ label) keeps_all (harness dec);
      check ("decide algebra, " ^ label) keeps_all (algebra dec);
      Alcotest.(check bool) ("ordered, " ^ label) keeps_all (ordered bound))
    [ ("no bound", None, true); ("bounded", bound, false) ];
  Alcotest.(check bool) "no predicate keeps" true
    (Ops.keeps (harness enum) 0)

let ordered_core_harness () =
  let module OC = Yewpar_core.Ordered_core in
  (* Nodes are (id, value); the bound is the value itself. *)
  let obj = { Problem.value = snd; bound = Some snd; monotone = false } in
  let h = OC.harness obj in
  let k = Knowledge.make_atomic () in
  let left = h.Ops.view k and right = h.Ops.view k in
  let at path node = { OC.path; node } in
  ignore (right.Ops.process (at [ 1 ] ("right", 5)));
  Alcotest.(check int) "entries reach the store" 5 (Knowledge.best_obj k);
  (* A right incumbent never prunes to its left... *)
  Alcotest.(check bool) "right does not prune left" true
    (Ops.keeps left (at [ 0 ] ("left", 5)));
  ignore (left.Ops.process (at [ 0 ] ("left", 5)));
  (* ...a left one does, and so do the task's own improvements. *)
  let task = [ 2 ] in
  let third = h.Ops.view k in
  Alcotest.(check bool) "left prunes right" false
    (Ops.keeps third (at task ("third", 5)));
  ignore (third.Ops.process (at task ("own", 7)));
  Alcotest.(check bool) "own improvement prunes" false
    (Ops.keeps third (at task ("worse", 6)));
  Alcotest.(check (pair string int)) "leftmost maximum" ("own", 7)
    (h.Ops.result k);
  let h = OC.harness obj in
  let v = h.Ops.view k in
  ignore (v.Ops.process (at [ 1 ] ("b", 3)));
  ignore (v.Ops.process (at [ 0 ] ("a", 3)));
  Alcotest.(check (pair string int)) "ties go left" ("a", 3) (h.Ops.result k)

(* Property: sequential count equals the rose-tree size for random trees. *)
let tree_gen =
  let open QCheck.Gen in
  let rec build depth =
    if depth = 0 then map (fun v -> T (v, [])) small_int
    else
      small_int >>= fun v ->
      list_size (int_bound 3) (build (depth - 1)) >>= fun cs -> return (T (v, cs))
  in
  build 4

let tree_arb = QCheck.make tree_gen

let prop_count =
  QCheck.Test.make ~name:"sequential count = tree size" ~count:100 tree_arb (fun t ->
      Sequential.search (count_problem t) = size t)

let prop_max =
  QCheck.Test.make ~name:"sequential max = tree max" ~count:100 tree_arb (fun t ->
      value (Sequential.search (max_problem t)) = max_value t)

let prop_prune_safe =
  (* An admissible bound must never change the optimisation answer. *)
  QCheck.Test.make ~name:"admissible pruning preserves optimum" ~count:100 tree_arb
    (fun t ->
      let rec bound (T (v, cs)) =
        List.fold_left (fun acc c -> max acc (bound c)) v cs
      in
      let p =
        Problem.maximise ~name:"m" ~space:() ~root:t
          ~children:(capped_children t) ~bound
          ~objective:value ()
      in
      value (Sequential.search p) = max_value t)

(* Splitting soundness: interleave random low-depth splits with the
   traversal; the nodes visited by the engine plus the nodes in the
   split-off subtrees must exactly cover the tree (each node once). *)
let prop_split_soundness =
  QCheck.Test.make ~name:"splits partition the tree" ~count:150
    QCheck.(pair tree_arb (list (int_bound 2)))
    (fun (t, choices) ->
      let rec subtree_size (T (_, cs)) =
        1 + List.fold_left (fun a c -> a + subtree_size c) 0 cs
      in
      let engine = Engine.make ~space:() ~children:children_of ~root_depth:0 t in
      let visited = ref 1 (* the root, processed by the caller *) in
      let split_off = ref 0 in
      let choices = ref choices in
      let next_choice () =
        match !choices with
        | [] -> 99 (* no more splits *)
        | c :: rest ->
          choices := rest;
          c
      in
      (* Whether the traversal ended within the step cap. *)
      let rec drive left =
        (match next_choice () with
        | 0 -> (
          match Engine.split_one engine with
          | Some (n, _) -> split_off := !split_off + subtree_size n
          | None -> ())
        | 1 ->
          let cs, _ = Engine.split_lowest engine in
          List.iter (fun n -> split_off := !split_off + subtree_size n) cs
        | _ -> ());
        let process _ =
          incr visited;
          true
        in
        left > 0
        && ((not
               (Engine.run ~steps:1 ~prune_rest:false ~keep:(fun _ -> true)
                  ~process ~stop:(Atomic.make false) engine))
           || drive (left - 1))
      in
      drive (step_cap (size t)) && !visited + !split_off = size t)

(* The engine, paused and resumed at random step budgets, against a
   plain recursive depth-first search written here: the same nodes
   processed in the same order, the same counters, and the same
   depth-profile and progress rows, for an enumeration, an
   optimisation pruning with a monotone bound under [prune_rest], and
   a decision that stops at its first witness. *)
let rec subtree_max (T (v, cs)) =
  List.fold_left (fun acc c -> max acc (subtree_max c)) v cs

(* One search kind, with fresh state: the children of a node, [keep],
   [process] (recording the processed values, newest first) and
   [prune_rest]. *)
let search_kind kind =
  let order = ref [] and incumbent = ref min_int in
  let by_bound (T (_, cs)) =
    List.stable_sort (fun a b -> compare (subtree_max b) (subtree_max a)) cs
  in
  let record n = order := value n :: !order in
  let children, keep, process, prune_rest =
    match kind with
    | `Enum ->
      ( (fun (T (_, cs)) -> cs),
        (fun _ -> true),
        (fun n ->
          record n;
          true),
        false )
    | `Opt ->
      ( by_bound,
        (fun n -> subtree_max n > !incumbent),
        (fun n ->
          record n;
          incumbent := max !incumbent (value n);
          true),
        true )
    | `Dec target ->
      ( by_bound,
        (fun n -> subtree_max n >= target),
        (fun n ->
          record n;
          value n < target),
        true )
  in
  (children, keep, process, prune_rest, order, incumbent)

(* The reference also tallies its progress rows itself, apart from
   [Depth_profile], so the profile's row layout is checked as well:
   depth -> (nodes, completed, kept children, sum of kept²). *)
let reference_dfs kind t prof =
  let children, keep, process, prune_rest, order, incumbent = search_kind kind in
  let entered = ref 0 and pruned = ref 0 and backtracks = ref 0 in
  let max_depth = ref 0 in
  let tally = Hashtbl.create 16 in
  let bump d (n, c, k, sq) =
    let n', c', k', sq' =
      Option.value (Hashtbl.find_opt tally d) ~default:(0, 0, 0, 0.)
    in
    Hashtbl.replace tally d (n + n', c + c', k + k', sq +. sq')
  in
  let note_node d =
    Depth_profile.note_node prof d;
    bump d (1, 0, 0, 0.)
  in
  let exception Witness in
  let rec expand n depth =
    let kept = ref 0 in
    let rec visit = function
      | [] -> ()
      | c :: rest ->
        if keep c then begin
          incr kept;
          incr entered;
          max_depth := max !max_depth (depth + 1);
          note_node (depth + 1);
          if not (process c) then raise Witness;
          expand c (depth + 1);
          visit rest
        end
        else begin
          incr pruned;
          Depth_profile.note_prune prof (depth + 1);
          if not prune_rest then visit rest
        end
    in
    visit (children n);
    incr backtracks;
    Depth_profile.note_complete prof depth !kept;
    bump depth (0, 1, !kept, float_of_int (!kept * !kept))
  in
  note_node 0;
  (if process t then try expand t 0 with Witness -> ());
  let progress_rows =
    List.init (Hashtbl.length tally) (fun d -> Hashtbl.find tally d)
  in
  ( (List.rev !order, !incumbent, (!entered, !pruned, !backtracks, !max_depth)),
    progress_rows )

(* [List.to_seq []] is a fresh closure, never [Seq.empty], so only a
   generator that gives a leaf [Seq.empty] itself reaches the engine's
   fused enter-then-leave step. *)
let fresh_tails_of children () n = List.to_seq (children n)

let empty_leaves_of children () n =
  match children n with [] -> Seq.empty | cs -> List.to_seq cs

(* An [on_leave] hook logging what it sees, newest first. *)
let leave_log e =
  let log = ref [] in
  (log, fun () -> log := (Engine.backtracks e, Engine.current_depth e) :: !log)

let engine_dfs kind t prof ~generator budgets =
  let children, keep, process, prune_rest, order, incumbent = search_kind kind in
  let e =
    Engine.make ~prof ~space:() ~children:(generator children) ~root_depth:0 t
  in
  let stop = Atomic.make false and log, on_leave = leave_log e in
  let run steps = Engine.run ~on_leave ~steps ~prune_rest ~keep ~process ~stop e in
  (* Whether the search ended; the last resume is capped. *)
  let rec resume = function
    | [] -> not (run (step_cap (size t)))
    | steps :: rest -> (not (run steps)) || resume rest
  in
  Depth_profile.note_node prof 0;
  let ended = (not (process t)) || resume budgets in
  ( ( ended,
      List.rev !order,
      !incumbent,
      ( Engine.nodes_entered e,
        Engine.nodes_pruned e,
        Engine.backtracks e,
        Engine.max_depth e ) ),
    List.rev !log )

let profile_rows prof =
  ( List.init (Depth_profile.depths prof) (Depth_profile.row prof),
    List.init
      (Depth_profile.progress_depths prof)
      (Depth_profile.progress_row prof) )

(* The engine's profile is recorded in one of three modes (both views
   on, profiled only, progress only) against a reference that records
   both: each view that is on must equal the reference's, and progress
   rows, which must not depend on whether profiling is on, must equal
   the reference's own tally. The engine runs four times, with fresh
   tails and with [Seq.empty] leaves, each at the random budgets and
   one step at a time: order, counters, profile rows and the
   [on_leave] log must be the same in all four, so the fused leaf and
   cut steps take exactly the transitions a one-step caller sees. *)
let prop_engine_is_reference_dfs =
  QCheck.Test.make ~name:"paused engine = recursive reference DFS" ~count:300
    QCheck.(quad tree_arb (int_bound 4) (list (int_bound 5)) (int_bound 2))
    (fun (t, k, budgets, mode) ->
      let kind =
        match k with
        | 0 -> `Enum
        | 1 -> `Opt
        | k -> `Dec (subtree_max t - (k - 2))
      in
      let profiled = mode <> 2 and progress = mode <> 1 in
      let prof_ref = Depth_profile.create () in
      let expected, tally = reference_dfs kind t prof_ref in
      let one_step = List.init (step_cap (size t)) (fun _ -> 1) in
      let run (generator, budgets) =
        let prof = Depth_profile.create ~profiled ~progress () in
        let got = engine_dfs kind t prof ~generator budgets in
        (got, profile_rows prof)
      in
      let first = run (fresh_tails_of, budgets) in
      let ((ended, order, best, counts), _), (rows, progress_rows) = first in
      let got = (order, best, counts) in
      let rows_ref, progress_rows_ref = profile_rows prof_ref in
      List.for_all
        (fun r -> run r = first)
        [ (fresh_tails_of, one_step); (empty_leaves_of, budgets);
          (empty_leaves_of, one_step) ]
      && ended
      && got = expected
      && ((not profiled) || rows = rows_ref)
      && progress_rows_ref = tally
      && progress_rows = (if progress then tally else [])
      && (kind <> `Opt || best = max_value t))

(* The engine writes a child's tail back into its frame only when it is
   a different sequence, so a generator that is its own tail (as every
   benchmarked app's cursor is) and one with a fresh tail per child
   (List.to_seq) must run alike. Both are driven through one sequence
   of random step budgets, [split_lowest] and [split_one] calls, with
   the total transitions capped so that an engine that loses a fresh
   tail (re-entering the same child forever) ends and is caught. So
   must a cursor that gives a leaf [Seq.empty], which the engine enters
   and leaves in one step, and that cursor again with every budget cut
   into single steps. Each run also logs what its [on_leave] hook
   sees. *)
let cursor_of children () n =
  let left = ref (children n) in
  let rec next () =
    match !left with
    | [] -> Seq.Nil
    | c :: rest ->
      left := rest;
      Seq.Cons (c, next)
  in
  next

let empty_leaf_cursor_of children () n =
  match children n with [] -> Seq.empty | _ -> cursor_of children () n

type tail_op = Steps of int | Split_lowest | Split_one

let tail_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun n -> Steps (n + 1)) (int_bound 6));
        (1, return Split_lowest);
        (1, return Split_one) ])

let drive_tails kind t ~generator ops =
  let children, keep, process, prune_rest, order, _ = search_kind kind in
  let keep = match kind with `Enum -> None | `Opt | `Dec _ -> Some keep in
  let prof = Depth_profile.create () in
  let e =
    Engine.make ~prof ~space:() ~children:(generator children) ~root_depth:0 t
  in
  let stop = Atomic.make false and split = ref [] and log, on_leave = leave_log e in
  let budget = ref ((4 * size t) + 16) in
  let run steps =
    budget := !budget - steps;
    Engine.run ~on_leave ~steps ~prune_rest ?keep ~process ~stop e
  in
  (* Whether the traversal ended within the cap. *)
  let rec go ops =
    if !budget <= 0 then false
    else
      match ops with
      | [] -> not (run !budget)
      | Steps n :: ops -> (not (run n)) || go ops
      | Split_lowest :: ops ->
        let cs, depth = Engine.split_lowest e in
        split := (depth, List.map value cs) :: !split;
        go ops
      | Split_one :: ops ->
        (match Engine.split_one e with
        | Some (c, depth) -> split := (depth, [ value c ]) :: !split
        | None -> ());
        go ops
  in
  let ended = (not (process t)) || go ops in
  ( ended,
    List.rev !order,
    List.rev !split,
    ( Engine.nodes_entered e,
      Engine.nodes_pruned e,
      Engine.backtracks e,
      Engine.max_depth e ),
    profile_rows prof,
    List.rev !log )

let one_step_ops =
  List.concat_map (function Steps n -> List.init n (fun _ -> Steps 1) | op -> [ op ])

let prop_own_tail_is_fresh_tail =
  QCheck.Test.make ~name:"own-tail cursor = fresh-tail generator" ~count:300
    QCheck.(
      triple tree_arb (int_bound 3)
        (make QCheck.Gen.(list_size (int_bound 30) tail_op_gen)))
    (fun (t, k, ops) ->
      let kind =
        match k with 0 | 1 -> `Enum | 2 -> `Opt | _ -> `Dec (subtree_max t)
      in
      let cursor = drive_tails kind t ~generator:cursor_of ops in
      let ended, _, _, _, _, _ = cursor in
      ended
      && drive_tails kind t ~generator:fresh_tails_of ops = cursor
      && drive_tails kind t ~generator:empty_leaf_cursor_of ops = cursor
      && drive_tails kind t ~generator:empty_leaf_cursor_of (one_step_ops ops)
         = cursor)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_count; prop_max; prop_prune_safe; prop_split_soundness;
      prop_engine_is_reference_dfs; prop_own_tail_is_fresh_tail ]

let () =
  Alcotest.run "core"
    [
      ( "engine",
        [
          Alcotest.test_case "traversal order" `Quick engine_traversal_order;
          Alcotest.test_case "pruning" `Quick engine_pruning;
          Alcotest.test_case "split one" `Quick engine_split_one;
          Alcotest.test_case "split lowest" `Quick engine_split_lowest;
          Alcotest.test_case "split lowest mid-search" `Quick
            engine_split_lowest_mid_search;
          Alcotest.test_case "cut rest" `Quick engine_cut_rest;
          Alcotest.test_case "depth tracking" `Quick engine_depth_tracking;
          Alcotest.test_case "no retention" `Quick engine_no_retention;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "count" `Quick sequential_count;
          Alcotest.test_case "max" `Quick sequential_max;
          Alcotest.test_case "decide" `Quick sequential_decide;
          Alcotest.test_case "short-circuit" `Quick sequential_shortcircuit_stops;
          Alcotest.test_case "bound prunes" `Quick sequential_bound_prunes;
          Alcotest.test_case "depth profile" `Quick sequential_depth_profile;
          Alcotest.test_case "other monoid" `Quick enumeration_monoid;
        ] );
      ( "knowledge",
        [
          Alcotest.test_case "store basics" `Quick knowledge_basics;
          Alcotest.test_case "atomic store races" `Quick knowledge_atomic_races;
        ] );
      ( "ops",
        [
          Alcotest.test_case "enum merges views" `Quick ops_enum_merges_views;
          Alcotest.test_case "enum skips the identity" `Quick ops_enum_skips_identity;
          Alcotest.test_case "decide keep/process" `Quick ops_decide_keep;
          Alcotest.test_case "lease partial takes ties" `Quick
            ops_lease_partial_takes_ties;
          Alcotest.test_case "views that keep every child" `Quick views_keep_all;
        ] );
      ("coordination", [ Alcotest.test_case "parsing" `Quick coordination_strings ]);
      ( "stats",
        [
          Alcotest.test_case "add/copy/pp" `Quick stats_accounting;
          Alcotest.test_case "codec roundtrip" `Quick codec_roundtrip;
        ] );
      ( "ordered-core",
        [
          Alcotest.test_case "paths and selection" `Quick ordered_core_paths;
          Alcotest.test_case "lift" `Quick ordered_core_lift;
          Alcotest.test_case "left-only harness" `Quick ordered_core_harness;
        ] );
      ( "dot",
        [
          Alcotest.test_case "export" `Quick dot_export;
          Alcotest.test_case "truncation + escaping" `Quick dot_truncation;
        ] );
      ("properties", qsuite);
    ]
