(* Seeded inputs, their oracles and the checks every timed call must
   pass.

   Each workload draws its instances from the seed argument; the
   library under test only ever sees the generated instances. Every
   input carries a Sequential oracle computed at set-up: enumerations
   must match its count exactly, optimisations its objective value
   (with a valid witness), unsatisfiable decisions must return [None],
   and inputs whose tree does not depend on timing must also match its
   node count exactly. *)

module Problem = Yewpar_core.Problem
module Sequential = Yewpar_core.Sequential
module Stats = Yewpar_core.Stats
module Splitmix = Yewpar_util.Splitmix
module Queens = Yewpar_queens.Queens
module Uts = Yewpar_uts.Uts
module Knapsack = Yewpar_knapsack.Knapsack
module Mc = Yewpar_maxclique.Maxclique
module Gen = Yewpar_graph.Gen
module Graph = Yewpar_graph.Graph

type input =
  | Input : {
      label : string;  (** Unique per run; also the served registry name. *)
      app : string;
      problem : ('s, 'n, 'r) Problem.t;
      show : 'r -> string;
          (** Renders an answer; served jobs must reproduce the
              oracle's rendering exactly. *)
      verify : 'r -> string option;
          (** [None] when an answer agrees with the oracle. *)
      oracle : string;  (** [show] of the oracle's answer. *)
      nodes : int;  (** The oracle's node count. *)
      exact : bool;
          (** The tree does not depend on timing (enumerations and
              unsatisfiable decisions), so every runtime must process
              exactly [nodes] nodes. Subset-sum knapsack is not exact:
              its bound closes on small remainders, so spawn order
              moves its count (depth-bounded shm, served jobs). *)
      oracle_s : float;  (** Wall seconds of the oracle search. *)
      spec : (unit -> string option) option;
          (** MaxClique only: one [Mc.Specialised] run, checked
              against the oracle's clique size. *)
    }
      -> input

(* Inputs whose instances are generated but whose oracles are not yet
   computed, so set-up can time the two steps apart. *)
type pending = unit -> input list

let label (Input i) = i.label
let app (Input i) = i.app

(* A child seed for the [i]th instance of a workload seed. *)
let derive seed i =
  Int64.to_int (Splitmix.hash2 (Int64.of_int seed) i) land 0x3fff_ffff

let make ~label ~app ~exact ~show ~agree ?(reference = fun _ -> None) ?spec
    problem =
  let t0 = Spans.now () in
  let r, st = Sequential.search_with_stats problem in
  let oracle_s = Spans.now () -. t0 in
  (match reference r with
  | Some e -> failwith (Printf.sprintf "%s: oracle disagrees: %s" label e)
  | None -> ());
  Input
    {
      label;
      app;
      problem;
      show;
      verify = agree r;
      oracle = show r;
      nodes = st.Stats.nodes;
      exact;
      oracle_s;
      spec;
    }

let one x = [ x ]

let same_int ~what o r =
  if r = o then None else Some (Printf.sprintf "%d %s, oracle %d" r what o)

(* OEIS A000170, beyond the library's own table. *)
let queens_solutions = [ (8, 92); (9, 352); (10, 724); (11, 2680); (12, 14200); (13, 73712) ]

let queens n : pending =
 fun () ->
  one
  @@ make
    ~label:(Printf.sprintf "queens-%d" n)
    ~app:"queens" ~exact:true ~show:string_of_int
    ~agree:(same_int ~what:"solutions")
    ~reference:(fun r ->
      match List.assoc_opt n queens_solutions with
      | Some k when k <> r -> Some (Printf.sprintf "%d solutions, OEIS %d" r k)
      | _ -> None)
    (Queens.count_solutions (Queens.instance ~n))

let uts ~seed ~b0 ~decay : pending =
  let p = { Uts.g_b0 = b0; decay; g_max_depth = 100; g_seed = seed } in
  fun () ->
    one
    @@ make
         ~label:(Printf.sprintf "uts-geo-%d" seed)
      ~app:"uts" ~exact:true ~show:string_of_int ~agree:(same_int ~what:"nodes")
      (Uts.geo_count_problem p)

let knapsack ~seed ~n : pending =
  let inst = Knapsack.Generate.subset_sum ~seed ~n ~max_value:500 in
  let items = Knapsack.items inst in
  let valid (nd : Knapsack.node) =
    let w, p =
      List.fold_left
        (fun (w, p) i ->
          (w + items.(i).Knapsack.weight, p + items.(i).Knapsack.profit))
        (0, 0) nd.Knapsack.taken
    in
    w = nd.Knapsack.weight && p = nd.Knapsack.profit
    && w <= Knapsack.capacity inst
    && List.length (List.sort_uniq compare nd.Knapsack.taken)
       = List.length nd.Knapsack.taken
  in
  let show (nd : Knapsack.node) =
    Printf.sprintf "profit %d%s" nd.Knapsack.profit
      (if valid nd then "" else " (invalid selection)")
  in
  fun () ->
    one
    @@ make
         ~label:(Printf.sprintf "knap-ss%d-%d" n seed)
      ~app:"knapsack" ~exact:false ~show
      ~agree:(fun o r ->
        if not (valid r) then Some "invalid selection"
        else same_int ~what:"profit" o.Knapsack.profit r.Knapsack.profit)
      ~reference:(fun r ->
        same_int ~what:"profit (dynamic programming)" (Knapsack.exact_dp inst)
          r.Knapsack.profit)
      (Knapsack.problem inst)

let clique_ok g (nd : Mc.node) =
  Graph.is_clique g nd.Mc.clique && List.length nd.Mc.clique = nd.Mc.size

(* MaxClique on [g], with the hand-written [Mc.Specialised] solver as
   the reference and as Table 1's comparison point. Returns the input
   and the clique number so a k-clique input can be built above it. *)
let maxclique ~label g =
  let omega, vs = Mc.Specialised.max_clique_size g in
  if not (Graph.is_clique g vs && List.length vs = omega) then
    failwith (label ^ ": Mc.Specialised returned a non-clique");
  let spec () =
    let s, vs = Mc.Specialised.max_clique_size g in
    if s <> omega then Some (Printf.sprintf "clique %d, oracle %d" s omega)
    else if not (Graph.is_clique g vs) then Some "not a clique"
    else None
  in
  let show (nd : Mc.node) =
    Printf.sprintf "clique %d%s" nd.Mc.size
      (if clique_ok g nd then "" else " (not a clique)")
  in
  let input =
    make ~label ~app:"maxclique" ~exact:false ~show ~spec
      ~agree:(fun o r ->
        if not (clique_ok g r) then Some "not a clique"
        else same_int ~what:"clique size" o.Mc.size r.Mc.size)
      ~reference:(fun r -> same_int ~what:"clique size (specialised)" omega r.Mc.size)
      (Mc.max_clique g)
  in
  (input, omega)

(* The unsatisfiable decision "is there a clique of [omega + 1]
   vertices?": its tree is fixed by the static target, so its node
   count is exact on every runtime. *)
let kclique_unsat ~label g ~omega =
  let show = function
    | None -> "none"
    | Some (nd : Mc.node) -> Printf.sprintf "clique %d" nd.Mc.size
  in
  make ~label ~app:"kclique" ~exact:true ~show
    ~agree:(fun _ r ->
      match r with
      | None -> None
      | Some nd -> Some (Printf.sprintf "found a %d-clique above the maximum" nd.Mc.size))
    ~reference:(fun r -> if r = None then None else Some "satisfiable")
    (Mc.k_clique g ~k:(omega + 1))

(* A hidden-clique graph whose unsatisfiable k-clique tree is closest
   to [target] nodes among [candidates] drawn from [seed], as a
   MaxClique input and a k-clique input. Every seed then yields about
   the same amount of work at the same set-up cost, so per-run medians
   compare across seeds. Generating candidates counts as oracle time. *)
let clique_pair ~seed ~candidates ~target ~n ~p ~k : pending =
 fun () ->
  let candidate c =
    let s = derive seed c in
    let g = Gen.hidden_clique ~seed:s n p k in
    let omega, _ = Mc.Specialised.max_clique_size g in
    (s, g, kclique_unsat ~label:(Printf.sprintf "kclq-%d" s) g ~omega)
  in
  let off (_, _, Input i) = abs (i.nodes - target) in
  let best =
    List.fold_left
      (fun b c -> if off c < off b then c else b)
      (candidate 0)
      (List.init (candidates - 1) (fun c -> candidate (c + 1)))
  in
  let s, g, kc = best in
  [ fst (maxclique ~label:(Printf.sprintf "mc-%d" s) g); kc ]

(* The input list closest to [target] nodes (its last input's oracle)
   among [candidates] from [candidate], for the same reason. *)
let calibrated ~target ~candidates (candidate : int -> pending) : pending =
 fun () ->
  let off l =
    match List.rev l with Input i :: _ -> abs (i.nodes - target) | [] -> max_int
  in
  List.fold_left
    (fun b k ->
      let c = candidate k () in
      if off c < off b then c else b)
    (candidate 0 ())
    (List.init (candidates - 1) (fun k -> k + 1))
