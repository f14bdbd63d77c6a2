module Word = Yewpar_semantics.Word
module Subtree = Yewpar_semantics.Subtree
module Model = Yewpar_semantics.Model
module Tree_gen = Yewpar_semantics.Tree_gen
module Splitmix = Yewpar_util.Splitmix

let word_order () =
  Alcotest.(check int) "root least" (-1) (Word.compare [] [ 0 ]);
  Alcotest.(check bool) "prefix before extension" true (Word.compare [ 1 ] [ 1; 0 ] < 0);
  Alcotest.(check bool) "sibling order" true (Word.compare [ 0; 5 ] [ 1 ] < 0);
  Alcotest.(check bool) "prefix refl" true (Word.is_prefix [ 1; 2 ] [ 1; 2 ]);
  Alcotest.(check bool) "strict prefix" true (Word.is_strict_prefix [ 1 ] [ 1; 2 ]);
  Alcotest.(check bool) "not prefix" false (Word.is_prefix [ 2 ] [ 1; 2 ]);
  Alcotest.(check (option (list int))) "parent" (Some [ 1 ]) (Word.parent [ 1; 2 ]);
  Alcotest.(check (option (list int))) "root parent" None (Word.parent []);
  Alcotest.(check (list int)) "child" [ 1; 2; 3 ] (Word.child [ 1; 2 ] 3);
  Alcotest.(check int) "depth" 2 (Word.depth [ 4; 4 ])

let subtree_ops () =
  (* Tree: ε, 0, 0.0, 0.1, 1, 2, 2.0 *)
  let nodes =
    Subtree.WSet.of_list [ []; [ 0 ]; [ 0; 0 ]; [ 0; 1 ]; [ 1 ]; [ 2 ]; [ 2; 0 ] ]
  in
  let s = Subtree.whole nodes in
  Alcotest.(check int) "cardinal" 7 (Subtree.cardinal s);
  Alcotest.(check (option (list int))) "next of root" (Some [ 0 ]) (Subtree.next s []);
  Alcotest.(check (option (list int))) "next mid" (Some [ 0; 1 ]) (Subtree.next s [ 0; 0 ]);
  Alcotest.(check (option (list int))) "next backtracks" (Some [ 1 ])
    (Subtree.next s [ 0; 1 ]);
  Alcotest.(check (option (list int))) "last has no next" None (Subtree.next s [ 2; 0 ]);
  Alcotest.(check (list (list int))) "children of root" [ [ 0 ]; [ 1 ]; [ 2 ] ]
    (Subtree.children s []);
  Alcotest.(check int) "subtree at 0" 3 (Subtree.cardinal (Subtree.subtree_at s [ 0 ]));
  Alcotest.(check int) "remove subtree" 4
    (Subtree.cardinal (Subtree.remove_subtree s [ 0 ]));
  Alcotest.(check int) "remove below keeps node" 5
    (Subtree.cardinal (Subtree.remove_below s [ 0 ]));
  Alcotest.(check (list (list int))) "lowest after 0.0" [ [ 1 ]; [ 2 ] ]
    (Subtree.lowest_after s [ 0; 0 ]);
  Alcotest.(check (option (list int))) "next lowest" (Some [ 1 ])
    (Subtree.next_lowest s [ 0; 0 ]);
  Alcotest.(check int) "successors of 1" 2 (Subtree.strict_successors_count s [ 1 ])

let h_sum v = List.fold_left ( + ) 1 v  (* arbitrary positive objective *)

let spec_enum = Model.Enum { h = h_sum }

let mk_opt tree =
  (* Exact-subtree-max pruning relation (admissible by construction). *)
  let justifies u v = h_sum u >= Model.exact_bound tree h_sum v in
  Model.Opt { h = h_sum; justifies }

let mk_dec tree top =
  let h v = min (h_sum v) top in
  let justifies u v = h u >= Model.exact_bound tree h v in
  Model.Dec { h; top; justifies }

let all_spawns = { Model.dcutoff = Some 2; kbudget = Some 2; stack_spawn = true; generic_spawn = true }

let random_tree seed =
  let rng = Splitmix.of_seed seed in
  Tree_gen.random_tree ~rng ~max_children:3 ~max_depth:4 ~target_size:25

(* Theorem 3.1: enumeration yields the reference sum under any
   interleaving and spawn discipline. *)
let theorem_3_1 () =
  for seed = 0 to 19 do
    let tree = random_tree seed in
    let expected = Model.enum_reference h_sum tree in
    let rng = Splitmix.of_seed (1000 + seed) in
    match Model.run ~rng spec_enum all_spawns ~n_threads:3 tree with
    | Model.Acc x, _ ->
      Alcotest.(check int) (Printf.sprintf "enum seed %d" seed) expected x
    | Model.Inc _, _ -> Alcotest.fail "enumeration must end in an accumulator"
  done

(* Theorem 3.2 (optimisation): the final incumbent maximises h. *)
let theorem_3_2_opt () =
  for seed = 0 to 19 do
    let tree = random_tree seed in
    let expected = Model.max_reference h_sum tree in
    let rng = Splitmix.of_seed (2000 + seed) in
    match Model.run ~rng (mk_opt tree) all_spawns ~n_threads:3 tree with
    | Model.Inc u, _ ->
      Alcotest.(check int) (Printf.sprintf "opt seed %d" seed) expected (h_sum u)
    | Model.Acc _, _ -> Alcotest.fail "optimisation must end in an incumbent"
  done

(* Theorem 3.2 (decision): with the cut-off objective the incumbent
   reaches min(top, true max). *)
let theorem_3_2_dec () =
  for seed = 0 to 19 do
    let tree = random_tree seed in
    let top = 4 in
    let h v = min (h_sum v) top in
    let expected = min top (Model.max_reference h_sum tree) in
    let rng = Splitmix.of_seed (3000 + seed) in
    match Model.run ~rng (mk_dec tree top) all_spawns ~n_threads:3 tree with
    | Model.Inc u, _ ->
      Alcotest.(check int) (Printf.sprintf "dec seed %d" seed) expected (h u)
    | Model.Acc _, _ -> Alcotest.fail "decision must end in an incumbent"
  done

(* Theorem 3.3: the refined measure strictly lexicographically decreases
   at every reduction step, for every rule. *)
let measure_decreases () =
  let lex_lt (a, b, c) (a', b', c') =
    a < a' || (a = a' && (b < b' || (b = b' && c < c')))
  in
  for seed = 0 to 9 do
    let tree = random_tree seed in
    let rng = Splitmix.of_seed (4000 + seed) in
    let c = ref (Model.initial (mk_opt tree) ~n_threads:3 tree) in
    let continue = ref true in
    while !continue do
      match Model.enabled (mk_opt tree) all_spawns !c with
      | [] ->
        Alcotest.(check bool) "final config" true (Model.is_final !c);
        continue := false
      | rules ->
        let rule = List.nth rules (Splitmix.int rng (List.length rules)) in
        let c' = Model.apply (mk_opt tree) all_spawns !c rule in
        if not (lex_lt (Model.measure c') (Model.measure !c)) then
          Alcotest.fail "measure failed to decrease";
        c := c'
    done
  done

(* Single-threaded, no-spawn runs are deterministic sequential search. *)
let sequential_deterministic () =
  let tree = random_tree 5 in
  let rng = Splitmix.of_seed 1 in
  let k1, steps1 = Model.run ~rng spec_enum Model.no_spawns ~n_threads:1 tree in
  let rng = Splitmix.of_seed 99 in
  let k2, steps2 = Model.run ~rng spec_enum Model.no_spawns ~n_threads:1 tree in
  Alcotest.(check bool) "same knowledge" true (k1 = k2);
  Alcotest.(check int) "same steps" steps1 steps2

(* Degenerate trees. *)
let degenerate_trees () =
  let check_tree name tree =
    let expected = Model.enum_reference h_sum tree in
    let rng = Splitmix.of_seed 7 in
    match Model.run ~rng spec_enum all_spawns ~n_threads:2 tree with
    | Model.Acc x, _ -> Alcotest.(check int) name expected x
    | Model.Inc _, _ -> Alcotest.fail "expected accumulator"
  in
  check_tree "singleton" (Subtree.whole (Subtree.WSet.singleton []));
  check_tree "path" (Tree_gen.path 6);
  check_tree "uniform" (Tree_gen.uniform ~breadth:2 ~depth:3)

(* Short-circuit: a decision search whose top is reachable can stop with
   unexplored tasks, yet the incumbent is correct. *)
let shortcircuit_correct () =
  let tree = Tree_gen.uniform ~breadth:3 ~depth:3 in
  let top = 2 in
  for seed = 0 to 9 do
    let rng = Splitmix.of_seed (5000 + seed) in
    match Model.run ~rng (mk_dec tree top) all_spawns ~n_threads:2 tree with
    | Model.Inc u, _ ->
      Alcotest.(check int) "top reached" top (min (h_sum u) top)
    | Model.Acc _, _ -> Alcotest.fail "expected incumbent"
  done

(* More threads than work still terminates and is correct. *)
let many_threads () =
  let tree = Tree_gen.path 3 in
  let rng = Splitmix.of_seed 8 in
  match Model.run ~rng spec_enum all_spawns ~n_threads:8 tree with
  | Model.Acc x, _ ->
    Alcotest.(check int) "tiny tree, many threads" (Model.enum_reference h_sum tree) x
  | Model.Inc _, _ -> Alcotest.fail "expected accumulator"

(* Property: Theorem 3.1 under random interleavings via qcheck seeds. *)
let prop_enum_any_interleaving =
  QCheck.Test.make ~name:"theorem 3.1 (qcheck seeds)" ~count:60 QCheck.small_int
    (fun seed ->
      let tree = random_tree (seed mod 40) in
      let rng = Splitmix.of_seed (seed * 7919) in
      match Model.run ~rng spec_enum all_spawns ~n_threads:2 tree with
      | Model.Acc x, _ -> x = Model.enum_reference h_sum tree
      | Model.Inc _, _ -> false)

let prop_opt_any_interleaving =
  QCheck.Test.make ~name:"theorem 3.2 (qcheck seeds)" ~count:60 QCheck.small_int
    (fun seed ->
      let tree = random_tree (seed mod 40) in
      let rng = Splitmix.of_seed (seed * 104729) in
      match Model.run ~rng (mk_opt tree) all_spawns ~n_threads:2 tree with
      | Model.Inc u, _ -> h_sum u = Model.max_reference h_sum tree
      | Model.Acc _, _ -> false)

(* The derived pruning relation must satisfy the three admissibility
   conditions of §3.5 for the exact-subtree-max bound. *)
let prop_admissibility =
  QCheck.Test.make ~name:"derived pruning relation admissible (3.5)" ~count:40
    QCheck.small_int
    (fun seed ->
      let tree = random_tree (seed mod 30) in
      let bound = Model.exact_bound tree h_sum in
      let justifies u v = h_sum u >= bound v in
      let nodes = Subtree.WSet.elements tree.Subtree.nodes in
      List.for_all
        (fun u ->
          List.for_all
            (fun v ->
              (* 1: u ▷ v ⇒ h(u) ⊒ h(v). *)
              ((not (justifies u v)) || h_sum u >= h_sum v)
              (* 2: stronger incumbents also justify. *)
              && List.for_all
                   (fun u' ->
                     (not (justifies u v)) || h_sum u' < h_sum u
                     || justifies u' v)
                   nodes
              (* 3: descendants of pruned nodes are pruned. *)
              && List.for_all
                   (fun v' ->
                     (not (justifies u v))
                     || (not (Word.is_prefix v v'))
                     || justifies u v')
                   nodes)
            nodes)
        nodes)

(* Exhaustive small-scope model checking: explore EVERY reachable
   configuration of the semantics for a small tree and 2 threads (all
   interleavings, all spawn choices), and assert that (a) no non-final
   configuration is stuck and (b) every final configuration carries the
   reference result. Far stronger than random interleavings at this
   scope. *)
let exhaustive_model_check () =
  let tree = Tree_gen.uniform ~breadth:2 ~depth:2 in
  (* 7 nodes *)
  let spec = mk_opt tree in
  let params =
    { Model.dcutoff = Some 1; kbudget = Some 1; stack_spawn = true;
      generic_spawn = false }
  in
  let expected = Model.max_reference h_sum tree in
  (* Canonical representation for the visited-set. *)
  let canon (c : Model.config) =
    let subtree_repr (s : Subtree.t) = Subtree.WSet.elements s.Subtree.nodes in
    let thread_repr = function
      | Model.Idle -> None
      | Model.Active a -> Some (subtree_repr a.Model.task, a.Model.pos, a.Model.bt)
    in
    ( (match c.Model.knowledge with Model.Acc x -> `A x | Model.Inc u -> `I u),
      List.map subtree_repr c.Model.tasks,
      Array.to_list (Array.map thread_repr c.Model.threads) )
  in
  let visited = Hashtbl.create 1024 in
  let finals = ref 0 in
  let rec explore c =
    let key = canon c in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.replace visited key ();
      match Model.enabled spec params c with
      | [] ->
        incr finals;
        if not (Model.is_final c) then Alcotest.fail "stuck non-final configuration";
        (match c.Model.knowledge with
        | Model.Inc u ->
          if h_sum u <> expected then
            Alcotest.fail
              (Printf.sprintf "final incumbent %d <> reference %d" (h_sum u) expected)
        | Model.Acc _ -> Alcotest.fail "optimisation ended in accumulator")
      | rules -> List.iter (fun r -> explore (Model.apply spec params c r)) rules
    end
  in
  explore (Model.initial spec ~n_threads:2 tree);
  Alcotest.(check bool)
    (Printf.sprintf "state space explored (%d configs, %d final)"
       (Hashtbl.length visited) !finals)
    true
    (Hashtbl.length visited > 100 && !finals > 0)

(* A cap on the engine transitions (one per entered and one per left
   node) a test may spend on [tree]: twice what a traversal takes, so
   an engine that stops advancing a frame fails the test instead of
   hanging it. *)
let step_cap tree = (4 * Subtree.cardinal tree) + 16

(* Model ↔ implementation correspondence: the core Engine's visit
   order over a word-tree equals the semantics' traversal order ≪ (the
   sorted order of the word set), as §4's factoring of Figure 2 into
   the engine requires. *)
let engine_follows_traversal_order () =
  for seed = 0 to 9 do
    let tree = random_tree (600 + seed) in
    let children (s : Subtree.t) (w : Word.t) = List.to_seq (Subtree.children s w) in
    let engine =
      Yewpar_core.Engine.make ~space:tree ~children ~root_depth:0 []
    in
    let visited = ref [ [] ] in
    let process w =
      visited := w :: !visited;
      true
    in
    let steps = step_cap tree in
    if
      Yewpar_core.Engine.run ~steps ~prune_rest:false ~keep:(fun _ -> true)
        ~process ~stop:(Atomic.make false) engine
    then
      Alcotest.failf "traversal did not end within %d steps (seed %d)" steps
        seed;
    let got = List.rev !visited in
    let expected = Subtree.WSet.elements tree.Subtree.nodes in
    if got <> expected then
      Alcotest.fail (Printf.sprintf "traversal order mismatch (seed %d)" seed)
  done

(* Split partition: random steps interleaved with the engine's split
   operations, every split-off node traversed as a subtree of its own
   (as a spawned task is), credited back to its donor frame as the
   workers do. Every node of the tree must be visited exactly once and
   complete exactly once, at its own depth, with a kept count (engine
   entries plus credits) equal to its number of children. *)
let prop_split_partition =
  QCheck.Test.make ~name:"engine splits partition the tree" ~count:200
    QCheck.(pair small_int (list (int_bound 5)))
    (fun (seed, choices) ->
      let module E = Yewpar_core.Engine in
      let module DP = Yewpar_core.Depth_profile in
      let rng = Splitmix.of_seed (seed + 1000) in
      let tree =
        Tree_gen.random_tree ~rng ~max_children:4 ~max_depth:6 ~target_size:60
      in
      (* An ephemeral generator: forcing a sequence twice would skip a
         child, so the splits' pinning of forced sequences is tested. *)
      let children (s : Subtree.t) w =
        let next = ref (Subtree.children s w) in
        Seq.of_dispenser (fun () ->
            match !next with
            | [] -> None
            | c :: rest ->
              next := rest;
              Some c)
      in
      (* node -> times visited; node -> kept count of each completion *)
      let visits = Hashtbl.create 64 and completions = Hashtbl.create 64 in
      let visit w =
        Hashtbl.replace visits w
          (1 + Option.value ~default:0 (Hashtbl.find_opt visits w))
      and complete w kept =
        Hashtbl.replace completions w
          (kept :: Option.value ~default:[] (Hashtbl.find_opt completions w))
      in
      let choices = ref choices in
      let next_choice () =
        match !choices with
        | [] -> 0
        | c :: rest ->
          choices := rest;
          c
      in
      let pending = Queue.create () in
      let ok = ref true in
      (* Engine transitions left across every traversal; running out
         ends the property false. *)
      let left = ref (step_cap tree) in
      let traverse (root, root_depth) =
        if Word.depth root <> root_depth then ok := false;
        visit root;
        let prof = DP.create () in
        let e = E.make ~prof ~space:tree ~children ~root_depth root in
        let split (cs, d) =
          List.iter (fun c -> Queue.push (c, d) pending) cs;
          E.credit_kept e ~depth:(d - 1) ~n:(List.length cs)
        in
        (* The current branch, top first: pushed on each entered
           node, popped on each leave. *)
        let branch = ref [ root ] in
        let process w =
          visit w;
          branch := w :: !branch;
          true
        in
        let rec drive () =
          (match next_choice () with
          | 1 -> (
            match E.split_one e with
            | Some (c, d) -> split ([ c ], d)
            | None -> ())
          | 2 -> split (E.split_lowest e)
          | _ -> ());
          let d = E.current_depth e and backtracks = E.backtracks e in
          let _, _, before, _ = DP.progress_row prof d in
          let paused =
            E.run ~steps:1 ~prune_rest:false ~keep:(fun _ -> true) ~process
              ~stop:(Atomic.make false) e
          in
          (if E.backtracks e > backtracks then
             match !branch with
             | w :: rest ->
               let _, _, after, _ = DP.progress_row prof d in
               if d <> Word.depth w then ok := false;
               complete w (after - before);
               branch := rest
             | [] -> ok := false);
          decr left;
          if !left < 0 then ok := false
          else if paused then drive ()
        in
        drive ()
      in
      Queue.push ([], 0) pending;
      while not (Queue.is_empty pending) do
        traverse (Queue.pop pending)
      done;
      !ok
      && Hashtbl.length visits = Subtree.cardinal tree
      && Subtree.WSet.for_all
           (fun w ->
             Hashtbl.find_opt visits w = Some 1
             && Hashtbl.find_opt completions w
                = Some [ List.length (Subtree.children tree w) ])
           tree.Subtree.nodes)

(* Applying any enabled rule must succeed; applying a rule for an idle
   thread (never enabled except Schedule) must raise. *)
let prop_enabled_apply_consistent =
  QCheck.Test.make ~name:"enabled rules always apply" ~count:60 QCheck.small_int
    (fun seed ->
      let tree = random_tree (seed mod 30) in
      let rng = Splitmix.of_seed (seed * 31 + 7) in
      let spec = mk_opt tree in
      let c = ref (Model.initial spec ~n_threads:2 tree) in
      let steps = ref 0 in
      let ok = ref true in
      let continue = ref true in
      while !continue && !steps < 2000 do
        incr steps;
        match Model.enabled spec all_spawns !c with
        | [] -> continue := false
        | rules ->
          (* every enabled rule applies without raising *)
          List.iter
            (fun r ->
              match Model.apply spec all_spawns !c r with
              | _ -> ()
              | exception _ -> ok := false)
            rules;
          let r = List.nth rules (Splitmix.int rng (List.length rules)) in
          c := Model.apply spec all_spawns !c r
      done;
      (* a rule targeting an idle thread must be rejected *)
      let idle_cfg = Model.initial spec ~n_threads:1 tree in
      (match Model.apply spec all_spawns idle_cfg (Model.Expand 0) with
      | _ -> ok := false
      | exception Invalid_argument _ -> ());
      !ok)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_enum_any_interleaving; prop_opt_any_interleaving; prop_admissibility;
      prop_enabled_apply_consistent; prop_split_partition ]

let () =
  Alcotest.run "semantics"
    [
      ( "structures",
        [
          Alcotest.test_case "word order" `Quick word_order;
          Alcotest.test_case "subtree ops" `Quick subtree_ops;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "3.1 enumeration" `Quick theorem_3_1;
          Alcotest.test_case "3.2 optimisation" `Quick theorem_3_2_opt;
          Alcotest.test_case "3.2 decision" `Quick theorem_3_2_dec;
          Alcotest.test_case "3.3 termination measure" `Quick measure_decreases;
          Alcotest.test_case "exhaustive model check" `Quick exhaustive_model_check;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "sequential deterministic" `Quick sequential_deterministic;
          Alcotest.test_case "degenerate trees" `Quick degenerate_trees;
          Alcotest.test_case "short-circuit" `Quick shortcircuit_correct;
          Alcotest.test_case "many threads" `Quick many_threads;
          Alcotest.test_case "engine = traversal order" `Quick
            engine_follows_traversal_order;
        ] );
      ("properties", qsuite);
    ]
