(* The sibling-monotone bound contract.

   A problem built with [~monotone_bound:true] promises that the bounds
   of a node's children never increase in generator order, so that the
   engine may cut every later sibling of a child that fails its bound
   check without building it. A broken promise silently loses
   solutions, so every declaring problem is walked here on random
   instances, checking the promise at each node. Knapsack's bound is
   also checked against a plain greedy Dantzig loop, the reference it
   must equal exactly. *)

module K = Yewpar_knapsack.Knapsack
module Mc = Yewpar_maxclique.Maxclique
module Graph_gen = Yewpar_graph.Gen
module Problem = Yewpar_core.Problem
module Splitmix = Yewpar_util.Splitmix

let objective_of : type n r. (n, r) Problem.kind -> n Problem.objective = function
  | Problem.Optimise o -> o
  | Problem.Decide { objective; _ } -> objective
  | Problem.Enumerate _ -> invalid_arg "objective_of: enumeration"

(* Nodes visited per walk: enough to reach the leaves of the small
   instances below while keeping each case fast. *)
let budget = 2000

(* Depth-first over the first [budget] nodes of the unpruned tree,
   calling [at_node] on each node and its children in generator order.
   Generators may be ephemeral, so each is forced exactly once. *)
let walk (p : ('s, 'n, 'r) Problem.t) at_node =
  let left = ref budget in
  let rec go node =
    if !left > 0 then begin
      decr left;
      let kids = List.of_seq (p.Problem.children p.Problem.space node) in
      at_node node kids;
      List.iter go kids
    end
  in
  go p.Problem.root

(* [Ok ()] when the problem declares the contract and keeps it on the
   first [budget] nodes; otherwise the first violation. *)
let check_monotone (p : ('s, 'n, 'r) Problem.t) =
  let obj = objective_of p.Problem.kind in
  match obj.Problem.bound with
  | None -> Error "no bound"
  | Some _ when not obj.Problem.monotone -> Error "monotone_bound not declared"
  | Some bound ->
    let bad = ref None in
    walk p (fun _ kids ->
        let rec scan i = function
          | a :: (b :: _ as rest) ->
            if bound b > bound a && !bad = None then
              bad := Some (Printf.sprintf "child %d bound %d > child %d bound %d"
                             (i + 1) (bound b) i (bound a));
            scan (i + 1) rest
          | _ -> ()
        in
        scan 0 kids);
    (match !bad with None -> Ok () | Some e -> Error e)

let holds name = function
  | Ok () -> true
  | Error e -> QCheck.Test.fail_reportf "%s: %s" name e

(* ---- knapsack instances ---- *)

(* Items drawn from a few base densities, each scaled by 1..4, so many
   items tie on density and tie-breaking by input order is exercised. *)
let tied ~seed ~n =
  let rng = Splitmix.of_seed seed in
  let bases = [| (1, 1); (2, 1); (1, 2); (3, 2); (5, 3) |] in
  let items =
    List.init n (fun _ ->
        let p, w = bases.(Splitmix.int rng (Array.length bases)) in
        let k = 1 + Splitmix.int rng 4 in
        { K.profit = p * k; weight = w * k })
  in
  let total = List.fold_left (fun a (it : K.item) -> a + it.K.weight) 0 items in
  K.instance ~items ~capacity:(max 1 (total / 2))

let classes =
  [|
    ("uncorrelated", fun ~seed ~n -> K.Generate.uncorrelated ~seed ~n ~max_value:30);
    ("weakly", fun ~seed ~n -> K.Generate.weakly_correlated ~seed ~n ~max_value:30);
    ("strongly", fun ~seed ~n -> K.Generate.strongly_correlated ~seed ~n ~max_value:30);
    ("subset_sum", fun ~seed ~n -> K.Generate.subset_sum ~seed ~n ~max_value:30);
    ("tied", tied);
  |]

let knapsack_arb =
  QCheck.(
    map
      (fun (c, seed, n) ->
        let name, make = classes.(c) in
        (Printf.sprintf "%s seed %d n %d" name seed n, make ~seed ~n))
      (triple (int_bound (Array.length classes - 1)) small_nat (int_range 4 14)))
  |> QCheck.set_print fst

let prop_knapsack_monotone =
  QCheck.Test.make ~name:"knapsack problem and decision keep the contract"
    ~count:300 knapsack_arb (fun (name, inst) ->
      holds name (check_monotone (K.problem inst))
      && holds name (check_monotone (K.decision inst ~target:(K.exact_dp inst))))

(* The Dantzig bound as the plain greedy loop: fill the residual
   capacity with items [next ..] in density order, then a fraction of
   the first that does not fit. *)
let greedy_bound inst (node : K.node) =
  let items = K.items inst in
  let n = Array.length items in
  let rec go i profit room =
    if i >= n || room = 0 then profit
    else
      let it = items.(i) in
      if it.K.weight <= room then go (i + 1) (profit + it.K.profit) (room - it.K.weight)
      else profit + (it.K.profit * room / it.K.weight)
  in
  go node.K.next node.K.profit (K.capacity inst - node.K.weight)

let prop_bound_is_greedy =
  QCheck.Test.make ~name:"knapsack bound = greedy Dantzig loop at every node"
    ~count:300 knapsack_arb (fun (name, inst) ->
      let bad = ref None in
      walk (K.problem inst) (fun node _ ->
          let fast = K.fractional_bound inst node and slow = greedy_bound inst node in
          if fast <> slow && !bad = None then bad := Some (fast, slow));
      match !bad with
      | None -> true
      | Some (fast, slow) ->
        QCheck.Test.fail_reportf "%s: bound %d, greedy loop %d" name fast slow)

(* ---- MaxClique ---- *)

let graph_arb =
  QCheck.(
    map
      (fun (seed, n, p10, k) ->
        let p = float_of_int p10 /. 10. in
        (Printf.sprintf "seed %d n %d p %.1f k %d" seed n p k, Graph_gen.uniform ~seed n p, k))
      (quad small_nat (int_range 5 30) (int_range 2 9) (int_range 2 7)))
  |> QCheck.set_print (fun (name, _, _) -> name)

let prop_clique_monotone =
  QCheck.Test.make ~name:"max_clique and k_clique keep the contract" ~count:100
    graph_arb (fun (name, g, k) ->
      holds name (check_monotone (Mc.max_clique g))
      && holds name (check_monotone (Mc.k_clique g ~k)))

let () =
  Alcotest.run "monotone"
    [
      ( "contract",
        List.map QCheck_alcotest.to_alcotest
          [ prop_knapsack_monotone; prop_bound_is_greedy; prop_clique_monotone ] );
    ]
