module Graph = Yewpar_graph.Graph
module Gen = Yewpar_graph.Gen
module Mc = Yewpar_maxclique.Maxclique
module Knapsack = Yewpar_knapsack.Knapsack
module Tsp = Yewpar_tsp.Tsp
module Sip = Yewpar_sip.Sip
module Uts = Yewpar_uts.Uts
module Numsemi = Yewpar_numsemi.Numsemi
module Queens = Yewpar_queens.Queens

type packed =
  | Packed : ('s, 'n, 'r) Yewpar_core.Problem.t * ('r -> string) -> packed

(* Result renderers per application. *)
let show_clique (n : Mc.node) =
  Printf.sprintf "clique of size %d: {%s}" n.Mc.size
    (String.concat ", " (List.map string_of_int (Mc.vertices_of n)))

let show_clique_opt = function
  | Some n -> "found " ^ show_clique n
  | None -> "no clique of the requested size"

let show_count c = Printf.sprintf "%d nodes" c

let show_knapsack (n : Knapsack.node) =
  Printf.sprintf "profit %d, weight %d, %d items" n.Knapsack.profit
    n.Knapsack.weight (List.length n.Knapsack.taken)

let show_tsp inst (n : Tsp.node) =
  Printf.sprintf "tour length %d: %s" (Tsp.closed_length inst n)
    (String.concat " -> " (List.map string_of_int (Tsp.tour_of inst n)))

let show_sip inst = function
  | Some n ->
    Printf.sprintf "embedding: %s"
      (String.concat ", "
         (List.map
            (fun (p, t) -> Printf.sprintf "%d->%d" p t)
            (Sip.embedding_of inst n)))
  | None -> "no embedding exists"

type t = {
  name : string;
  app : string;
  problem : packed Lazy.t;
}

(* --- Clique graphs (Table 1): scaled stand-ins for the 18 DIMACS
   instances the paper uses, keeping each family's structure:
   brock = hidden clique in G(n,p); p_hat = wide degree spread;
   san/sanr = uniform density; MANN = very dense uniform. Sizes are
   roughly a fifth of the originals so the whole table runs in
   minutes on one core. *)

let clique_graphs =
  let u name seed n p = (name, lazy (Gen.uniform ~seed n p)) in
  let hidden name seed n p k = (name, lazy (Gen.hidden_clique ~seed n p k)) in
  let phat name seed n lo hi = (name, lazy (Gen.two_level ~seed n lo hi)) in
  [
    u "MANN_a45-s" 1001 110 0.85;
    hidden "brock400_1-s" 1002 200 0.70 21;
    hidden "brock400_2-s" 1003 200 0.70 22;
    hidden "brock400_3-s" 1004 190 0.70 20;
    hidden "brock400_4-s" 1005 180 0.70 20;
    hidden "brock800_4-s" 1006 230 0.65 20;
    phat "p_hat1000-2-s" 1007 260 0.20 0.85;
    phat "p_hat1500-1-s" 1008 300 0.10 0.70;
    phat "p_hat300-3-s" 1009 200 0.40 0.95;
    phat "p_hat500-3-s" 1010 210 0.40 0.90;
    phat "p_hat700-2-s" 1011 240 0.30 0.90;
    phat "p_hat700-3-s" 1012 230 0.40 0.90;
    u "san1000-s" 1013 250 0.60;
    u "san400_0.7_2-s" 1014 150 0.74;
    u "san400_0.7_3-s" 1015 135 0.78;
    u "san400_0.9_1-s" 1016 120 0.82;
    u "sanr200_0.9-s" 1017 100 0.90;
    u "sanr400_0.7-s" 1018 160 0.72;
  ]

let table1 =
  List.map
    (fun (name, graph) ->
      { name; app = "maxclique";
        problem = lazy (Packed (Mc.max_clique (Lazy.force graph), show_clique)) })
    clique_graphs

(* --- Figure 4: a k-clique decision instance standing in for the
   H(4,4) spreads search, sized to keep hundreds of simulated workers
   busy. The planted clique has k-1 vertices, so the k-clique search
   proves NON-existence — it must exhaust the (pruned) space, which
   makes scaling measurements robust to witness-finding luck (the
   paper's artifact similarly proves non-existence of a 28-clique in
   brock400_1). *)

let figure4_graph = lazy (Gen.hidden_clique ~seed:4444 280 0.72 28)
let figure4_k = 29

let figure4 =
  ( {
      name = "kclique-spreads-s";
      app = "kclique";
      problem =
        lazy
          (Packed
             (Mc.k_clique (Lazy.force figure4_graph) ~k:figure4_k, show_clique_opt));
    },
    figure4_graph,
    figure4_k )

(* --- Table 2 suites: a few instances per application. *)

let mk name app p = { name; app; problem = lazy (p ()) }

let maxclique_suite =
  List.filter_map
    (fun (name, graph) ->
      if List.mem name [ "brock400_1-s"; "p_hat700-3-s"; "sanr200_0.9-s" ] then
        Some
          { name; app = "maxclique";
            problem = lazy (Packed (Mc.max_clique (Lazy.force graph), show_clique)) }
      else None)
    clique_graphs

let tsp_suite =
  List.map
    (fun (name, seed, n) ->
      mk name "tsp" (fun () ->
          let inst = Tsp.random_euclidean ~seed ~n ~size:1000 in
          Packed (Tsp.problem inst, show_tsp inst)))
    [ ("rand15-a", 501, 15); ("rand14-b", 502, 14); ("rand15-c", 503, 15) ]

let knapsack_suite =
  [
    mk "knap-ss-20" "knapsack" (fun () ->
        Packed
          ( Knapsack.problem (Knapsack.Generate.subset_sum ~seed:604 ~n:20 ~max_value:500),
            show_knapsack ));
    mk "knap-ss-22" "knapsack" (fun () ->
        Packed
          ( Knapsack.problem (Knapsack.Generate.subset_sum ~seed:604 ~n:22 ~max_value:500),
            show_knapsack ));
    mk "knap-strong-60" "knapsack" (fun () ->
        Packed
          ( Knapsack.problem
              (Knapsack.Generate.strongly_correlated ~seed:603 ~n:60 ~max_value:20),
            show_knapsack ));
  ]

let sip_suite =
  let pair name seed pattern_n sat =
    mk name "sip" (fun () ->
        let target_n = if seed = 703 then 50 else 55 in
        let pattern, target =
          Gen.pattern_in_target ~seed ~target_n ~target_p:0.45 ~pattern_n ~sat
        in
        let inst = Sip.instance ~pattern ~target in
        Packed (Sip.problem inst, show_sip inst))
  in
  (* Generated with [~sat:false], which only makes an embedding
     unlikely: seed 705 has one, so its name says it is satisfiable. *)
  [ pair "sip-sat-13a" 705 13 false;
    pair "sip-unsat-13b" 706 13 false;
    pair "sip-unsat-12" 703 12 false ]

let uts_suite =
  let p name b0 q m seed =
    mk name "uts" (fun () ->
        Packed (Uts.count_problem { Uts.b0; q; m; max_depth = 400; seed }, show_count))
  in
  [ p "uts-bin-a" 1000 0.2499 4 801;
    p "uts-bin-b" 1200 0.24985 4 807;
    mk "uts-geo-c" "uts" (fun () ->
        Packed
          ( Uts.geo_count_problem
              { Uts.g_b0 = 70.; decay = 0.43; g_max_depth = 200; g_seed = 808 },
            show_count )) ]

(* Queens: not a paper application, but the canonical smoke-test family
   — and (with MaxClique and Knapsack) one of the three applications
   whose nodes carry a task codec, so these instances also run under
   the distributed runtime. *)
let queens_suite =
  List.map
    (fun n ->
      mk (Printf.sprintf "queens-%d" n) "queens" (fun () ->
          Packed
            ( Queens.count_solutions (Queens.instance ~n),
              Printf.sprintf "%d solutions" )))
    [ 8; 10; 12 ]

let ns_suite =
  List.map
    (fun g ->
      mk (Printf.sprintf "ns-genus-%d" g) "ns" (fun () ->
          Packed (Numsemi.count_tree (Numsemi.space ~gmax:g), show_count)))
    [ 21; 22; 23 ]

let table2_suite =
  [
    ("MaxClique", maxclique_suite);
    ("TSP", tsp_suite);
    ("Knapsack", knapsack_suite);
    ("SIP", sip_suite);
    ("NS", ns_suite);
    ("UTS", uts_suite);
  ]

let all () =
  let fig4, _, _ = figure4 in
  let everything =
    table1 @ [ fig4 ] @ List.concat_map snd table2_suite @ queens_suite
  in
  (* The Table 2 MaxClique suite reuses Table 1 instances; keep the
     first registration of each name. *)
  let seen = Hashtbl.create 64 in
  List.filter
    (fun i ->
      if Hashtbl.mem seen i.name then false
      else begin
        Hashtbl.add seen i.name ();
        true
      end)
    everything

let find name =
  match List.find_opt (fun i -> i.name = name) (all ()) with
  | Some i -> i
  | None -> raise Not_found
