(* The cursor contract of the benchmarked Lazy Node Generators.

   Each [children] call returns one cursor: a closure that advances
   state belonging to that call and is its own tail. Two calls on one
   node are therefore independent sequences. Here both are forced
   interleaved, in an order qcheck picks, and each must give the app's
   reference child list, computed here without the generator; a cursor
   that has returned [Nil] must keep returning it. Cursor state kept in
   a cell shared between calls fails this. The nodes are reached by
   random walks from the root along the reference children. *)

module Queens = Yewpar_queens.Queens
module Uts = Yewpar_uts.Uts
module Knapsack = Yewpar_knapsack.Knapsack
module Maxclique = Yewpar_maxclique.Maxclique
module Bitset = Yewpar_bitset.Bitset
module Graph = Yewpar_graph.Graph
module Gen = Yewpar_graph.Gen
module Splitmix = Yewpar_util.Splitmix

(* ---------------------- forcing two cursors ----------------------- *)

type 'a side = {
  mutable seq : 'a Seq.t;
  mutable got : 'a list;  (* newest first *)
  mutable ended : bool;
}

let step side =
  if not side.ended then
    match side.seq () with
    | Seq.Nil -> side.ended <- true
    | Seq.Cons (x, rest) ->
      side.got <- x :: side.got;
      side.seq <- rest

(* Force [a] where [picks] says [true] and [b] where it says [false],
   then both alternately until each has returned [Nil]. Returns both
   child lists and whether each exhausted tail still returns [Nil] on
   three more forces. *)
let interleave picks a b =
  let a = { seq = a; got = []; ended = false }
  and b = { seq = b; got = []; ended = false } in
  List.iter (fun pick -> step (if pick then a else b)) picks;
  while not (a.ended && b.ended) do
    step a;
    step b
  done;
  let stays_nil s =
    List.for_all
      (fun () -> match s.seq () with Seq.Nil -> true | Seq.Cons _ -> false)
      [ (); (); () ]
  in
  (List.rev a.got, List.rev b.got, stays_nil a && stays_nil b)

(* A node [walk] steps below [root]: each step takes the reference
   child the walk's next number picks, and a leaf ends the walk. *)
let rec descend reference node = function
  | [] -> node
  | w :: walk -> (
    match reference node with
    | [] -> node
    | cs -> descend reference (List.nth cs (w mod List.length cs)) walk)

(* One property per generator: [instance seed] builds the space, its
   root and reference, and [equal] compares children. *)
let contract ~name ~equal ~children instance =
  let gen =
    QCheck.Gen.(
      triple (int_bound 10_000)
        (list_size (int_bound 12) (int_bound 1_000))
        (list_size (int_bound 40) bool))
  in
  let print (seed, walk, picks) =
    Printf.sprintf "seed %d, walk [%s], picks [%s]" seed
      (String.concat ";" (List.map string_of_int walk))
      (String.concat "" (List.map (fun b -> if b then "a" else "b") picks))
  in
  QCheck.Test.make ~name ~count:300 (QCheck.make ~print gen)
    (fun (seed, walk, picks) ->
      let space, root, reference = instance seed in
      let node = descend reference root walk in
      let want = reference node in
      let la, lb, nil = interleave picks (children space node) (children space node) in
      let same l = List.length l = List.length want && List.for_all2 equal l want in
      same la && same lb && nil)

(* ------------------------- the references ------------------------- *)

(* Queens: a column is free when no earlier queen shares it or a
   diagonal, judged from [columns] alone; masks follow the node's
   documented layout. *)
let queens_reference inst (p : Queens.node) =
  let rows = List.mapi (fun i c -> (p.level - 1 - i, c)) p.columns in
  let free c =
    List.for_all (fun (r, c') -> c <> c' && abs (c - c') <> p.level - r) rows
  in
  List.filter free (List.init (Queens.size inst) Fun.id)
  |> List.map (fun c ->
         let bit = 1 lsl c in
         { Queens.level = p.level + 1;
           columns = c :: p.columns;
           cols_mask = p.cols_mask lor bit;
           diag1_mask = (p.diag1_mask lor bit) lsr 1;
           diag2_mask = (p.diag2_mask lor bit) lsl 1 })

let queens =
  contract ~name:"queens: two interleaved cursors" ~equal:( = )
    ~children:Queens.children (fun seed ->
      let inst = Queens.instance ~n:(4 + (seed mod 7)) in
      (inst, Queens.root inst, queens_reference inst))

(* UTS: child [i] hashes the parent's state with [i]. *)
let uts_fan (p : Uts.node) k =
  List.init k (fun i -> { Uts.state = Splitmix.hash2 p.state i; depth = p.depth + 1 })

let uts_binomial =
  contract ~name:"uts binomial: two interleaved cursors" ~equal:( = )
    ~children:Uts.children (fun seed ->
      let p = { Uts.b0 = 12; q = 0.3; m = 3; max_depth = 9; seed } in
      (p, Uts.root p, fun node -> uts_fan node (Uts.num_children p node)))

(* b(d) = g_b0 * decay^d children: its floor, plus one more when the
   node's draw falls below its fraction. *)
let geo_params seed = { Uts.g_b0 = 5.; decay = 0.75; g_max_depth = 10; g_seed = seed }

let geo_reference (p : Uts.geo_params) (node : Uts.node) =
  let k =
    if node.depth >= p.g_max_depth then 0
    else begin
      let b = p.g_b0 *. (p.decay ** float_of_int node.depth) in
      let base = Float.floor b in
      let draw = float_of_int (Splitmix.top53 node.state) *. 0x1p-53 in
      int_of_float base + if draw < b -. base then 1 else 0
    end
  in
  uts_fan node k

let uts_geometric =
  contract ~name:"uts geometric: two interleaved cursors" ~equal:( = )
    ~children:Uts.geo_children (fun seed ->
      let p = geo_params seed in
      (p, Uts.geo_root p, geo_reference p))

(* The problem's generator reads b(d) from its table. *)
let uts_geometric_tabled =
  contract ~name:"uts geometric (tabled): two interleaved cursors" ~equal:( = )
    ~children:(fun p -> (Uts.geo_count_problem p).children p)
    (fun seed ->
      let p = geo_params seed in
      (p, Uts.geo_root p, geo_reference p))

(* Knapsack: every later item that still fits, in item order. *)
let knapsack_reference inst (p : Knapsack.node) =
  let items = Knapsack.items inst in
  List.init (Array.length items - p.next) (fun k -> p.next + k)
  |> List.filter (fun j ->
         p.weight + items.(j).Knapsack.weight <= Knapsack.capacity inst)
  |> List.map (fun j ->
         { Knapsack.next = j + 1;
           profit = p.profit + items.(j).Knapsack.profit;
           weight = p.weight + items.(j).Knapsack.weight;
           taken = j :: p.taken })

let knapsack =
  contract ~name:"knapsack: two interleaved cursors" ~equal:( = )
    ~children:Knapsack.children (fun seed ->
      let inst = Knapsack.Generate.uncorrelated ~seed ~n:12 ~max_value:30 in
      (inst, Knapsack.root inst, knapsack_reference inst))

(* MaxClique: candidates in reverse greedy-colouring order; each child
   keeps the neighbours of its vertex among the candidates not yet
   taken by an earlier sibling, and its colour less one as bound. *)
let maxclique_reference g (p : Maxclique.node) =
  if Bitset.is_empty p.candidates then []
  else begin
    let coloured = Bitset.greedy_colour p.candidates ~adj:(Graph.adjacency g) in
    let order =
      List.init (Array.length coloured / 2) (fun i ->
          (coloured.(2 * i), coloured.(2 * i + 1)))
      |> List.rev
    in
    let taken = ref [] in
    List.map
      (fun (v, colour) ->
        taken := v :: !taken;
        let keep u = Graph.has_edge g v u && not (List.mem u !taken) in
        { Maxclique.clique = v :: p.clique;
          size = p.size + 1;
          candidates =
            Bitset.of_list (Bitset.capacity p.candidates)
              (List.filter keep (Bitset.elements p.candidates));
          bound = colour - 1 })
      order
  end

let maxclique_equal (a : Maxclique.node) (b : Maxclique.node) =
  a.clique = b.clique && a.size = b.size && a.bound = b.bound
  && Bitset.equal a.candidates b.candidates

let maxclique =
  contract ~name:"maxclique: two interleaved cursors" ~equal:maxclique_equal
    ~children:Maxclique.children (fun seed ->
      let g = Gen.uniform ~seed 24 0.5 in
      (g, Maxclique.root g, maxclique_reference g))

let () =
  Alcotest.run "generators"
    [
      ( "cursor contract",
        List.map QCheck_alcotest.to_alcotest
          [ queens; uts_binomial; uts_geometric; uts_geometric_tabled; knapsack;
            maxclique ] );
    ]
