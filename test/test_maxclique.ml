module Bitset = Yewpar_bitset.Bitset
module Graph = Yewpar_graph.Graph
module Gen = Yewpar_graph.Gen
module Mc = Yewpar_maxclique.Maxclique
module Sequential = Yewpar_core.Sequential
module Problem = Yewpar_core.Problem
module Dimacs = Yewpar_graph.Dimacs
module Stats = Yewpar_core.Stats

(* Exponential reference: maximum clique by plain recursion, no bounds.
   Only for small graphs. *)
let brute_force_max_clique g =
  let n = Graph.n_vertices g in
  let best = ref 0 in
  let rec go size candidates =
    if size > !best then best := size;
    List.iteri
      (fun i v ->
        let candidates' =
          List.filteri (fun j u -> j > i && Graph.has_edge g u v) candidates
        in
        ignore i;
        go (size + 1) candidates')
      candidates
  in
  ignore n;
  go 0 (Graph.vertices g);
  !best

let figure1_max () =
  let g, name = Gen.figure1 () in
  let node = Sequential.search (Mc.max_clique g) in
  Alcotest.(check int) "figure 1 maximum clique size" 4 node.Mc.size;
  let names = List.map name (Mc.vertices_of node) in
  Alcotest.(check (list string)) "figure 1 witness" [ "a"; "d"; "f"; "g" ] names;
  Alcotest.(check bool) "witness is a clique" true
    (Graph.is_clique g (Mc.vertices_of node))

let figure1_kclique () =
  let g, _ = Gen.figure1 () in
  (match Sequential.search (Mc.k_clique g ~k:3) with
  | Some node ->
    Alcotest.(check int) "3-clique found" 3 node.Mc.size;
    Alcotest.(check bool) "3-clique valid" true
      (Graph.is_clique g (Mc.vertices_of node))
  | None -> Alcotest.fail "expected a 3-clique");
  (match Sequential.search (Mc.k_clique g ~k:5) with
  | Some _ -> Alcotest.fail "no 5-clique exists in figure 1"
  | None -> ())

let complete_graph () =
  let g = Gen.complete 9 in
  let node = Sequential.search (Mc.max_clique g) in
  Alcotest.(check int) "K9 max clique" 9 node.Mc.size

let empty_graph () =
  let g = Graph.create 7 in
  let node = Sequential.search (Mc.max_clique g) in
  Alcotest.(check int) "edgeless graph" 1 node.Mc.size

let singleton_graph () =
  let g = Graph.create 1 in
  let node = Sequential.search (Mc.max_clique g) in
  Alcotest.(check int) "one vertex" 1 node.Mc.size

let cycle_graph () =
  let g = Gen.cycle 8 in
  let node = Sequential.search (Mc.max_clique g) in
  Alcotest.(check int) "C8 max clique" 2 node.Mc.size

let hidden_clique_found () =
  let g = Gen.hidden_clique ~seed:7 40 0.3 9 in
  let node = Sequential.search (Mc.max_clique g) in
  Alcotest.(check bool) "planted clique recovered" true (node.Mc.size >= 9);
  Alcotest.(check bool) "witness valid" true
    (Graph.is_clique g (Mc.vertices_of node))

(* The kernel's packed result as (vertices, colours). *)
let split_coloured a = (Array.map Bitset.entry_vertex a, Array.map Bitset.entry_colour a)

let colour_order_properties () =
  let g = Gen.uniform ~seed:3 30 0.5 in
  let p = Bitset.create 30 in
  Bitset.fill_upto p 30;
  let coloured = Bitset.greedy_colour p ~adj:(Graph.adjacency g) in
  Alcotest.(check int) "one entry per vertex" 30 (Array.length coloured);
  let p_vertex, p_colour = split_coloured coloured in
  let n = Array.length p_vertex in
  Alcotest.(check int) "all vertices coloured" 30 n;
  let seen = Hashtbl.create 30 in
  Array.iter (fun v -> Hashtbl.replace seen v ()) p_vertex;
  Alcotest.(check int) "orders a permutation" 30 (Hashtbl.length seen);
  for i = 1 to n - 1 do
    if p_colour.(i) < p_colour.(i - 1) then
      Alcotest.fail "prefix colour counts must be non-decreasing"
  done;
  (* A colour count never exceeds the prefix length. *)
  for i = 0 to n - 1 do
    if p_colour.(i) > i + 1 then Alcotest.fail "colour count exceeds prefix size"
  done

(* The colouring as it was written before the word-level kernel: one
   fresh copy of the uncoloured set per colour class, rescanned from
   its first element for every vertex. The reference for
   Bitset.greedy_colour. *)
let reference_colour_order g p =
  let n = Bitset.cardinal p in
  let p_vertex = Array.make (max n 1) 0 in
  let p_colour = Array.make (max n 1) 0 in
  let uncoloured = Bitset.copy p in
  let idx = ref 0 in
  let colour = ref 0 in
  while not (Bitset.is_empty uncoloured) do
    incr colour;
    let colourable = Bitset.copy uncoloured in
    let rec fill () =
      let v = Bitset.first colourable in
      if v >= 0 then begin
        Bitset.remove uncoloured v;
        Bitset.remove colourable v;
        Bitset.diff_into colourable (Graph.neighbours g v);
        p_vertex.(!idx) <- v;
        p_colour.(!idx) <- !colour;
        incr idx;
        fill ()
      end
    in
    fill ()
  done;
  (p_vertex, p_colour, n)

(* A random graph of up to five words, its size drawn half the time
   from either side of a word boundary or of the kernel selection (up
   to 252 vertices, four words, the narrow kernel; from 253, the wide
   one), and a random subset of its vertices to colour. *)
let gen_colouring_case =
  QCheck.(
    quad
      (oneof
         [ int_bound 300; oneofl [ 1; 62; 63; 64; 125; 126; 127; 188; 189; 190; 252; 253; 300 ] ])
      (int_bound 100) (int_bound 10_000) (int_bound 100)
    |> map (fun (n, dp, seed, keep) ->
           let g = Yewpar_graph.Gen.uniform ~seed n (float_of_int dp /. 100.) in
           let rng = Random.State.make [| seed |] in
           let p = Bitset.create n in
           for v = 0 to n - 1 do
             if Random.State.int rng 100 < keep then Bitset.add p v
           done;
           (g, p)))

let prop_greedy_colour =
  QCheck.Test.make ~name:"greedy_colour is MCSa's colouring" ~count:300
    gen_colouring_case (fun (g, p) ->
      let n = Bitset.cardinal p in
      let coloured = Bitset.greedy_colour p ~adj:(Graph.adjacency g) in
      let order, colours = split_coloured coloured in
      let ok = ref (Array.length coloured = n) in
      (* A permutation of p. *)
      ok := !ok && List.sort compare (Array.to_list order) = Bitset.elements p;
      for i = 1 to n - 1 do
        (* Colours non-decreasing; vertices increasing within a class. *)
        if colours.(i) < colours.(i - 1) then ok := false;
        if colours.(i) = colours.(i - 1) && order.(i) <= order.(i - 1) then ok := false
      done;
      if n > 0 && colours.(0) <> 1 then ok := false;
      (* A proper colouring: no class holds an edge. *)
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if colours.(i) = colours.(j) && Graph.has_edge g order.(i) order.(j) then
            ok := false
        done
      done;
      (* Bit-identical to the pre-kernel colouring. *)
      let rv, rc, rn = reference_colour_order g p in
      !ok && rn = n && Array.sub rv 0 n = order && Array.sub rc 0 n = colours)

let greedy_colour_checks () =
  let g = Gen.uniform ~seed:5 70 0.5 in
  let p = Bitset.create 70 in
  Bitset.fill_upto p 70;
  let adj = Graph.adjacency g in
  (* The kernel sizes its own output: exactly one entry per vertex,
     never a short array. *)
  Alcotest.(check int) "output holds n entries" 70
    (Array.length (Bitset.greedy_colour p ~adj));
  Bitset.remove p 69;
  Alcotest.(check int) "output shrinks with p" 69
    (Array.length (Bitset.greedy_colour p ~adj));
  let other = Gen.uniform ~seed:5 71 0.5 in
  Alcotest.check_raises "another graph's matrix" (Invalid_argument "Bitset: capacity mismatch")
    (fun () -> ignore (Bitset.greedy_colour p ~adj:(Graph.adjacency other)));
  Alcotest.check_raises "rows of another capacity"
    (Invalid_argument "Bitset: capacity mismatch") (fun () ->
      ignore (Bitset.greedy_colour p ~adj:(Bitset.Matrix.create ~rows:70 71)));
  Alcotest.check_raises "too few rows" (Invalid_argument "Bitset: capacity mismatch")
    (fun () -> ignore (Bitset.greedy_colour p ~adj:(Bitset.Matrix.create ~rows:69 70)));
  Alcotest.(check (array int)) "empty set" [||]
    (Bitset.greedy_colour (Bitset.create 70) ~adj);
  (* 189 vertices fill three words and 252 four (the widest the narrow
     kernel takes), so bit 62 of each word (the sign bit, isolated as
     min_int) is a vertex. *)
  List.iter
    (fun n ->
      let p = Bitset.create n in
      Bitset.fill_upto p n;
      let pairs = Alcotest.(pair (array int) (array int)) in
      Alcotest.check pairs
        (Printf.sprintf "edgeless graph of %d: one class in order" n)
        (Array.init n Fun.id, Array.make n 1)
        (split_coloured (Bitset.greedy_colour p ~adj:(Graph.adjacency (Graph.create n))));
      Alcotest.check pairs
        (Printf.sprintf "complete graph of %d: n singleton classes" n)
        (Array.init n Fun.id, Array.init n (fun i -> i + 1))
        (split_coloured
           (Bitset.greedy_colour p
              ~adj:(Graph.adjacency (Graph.complement (Graph.create n))))))
    [ 189; 252 ]

(* An entry decodes to what was packed, up to the largest vertex and
   colour that the kernel's capacity guard lets through. *)
let entry_round_trips () =
  let top = Bitset.max_colour_capacity in
  List.iter
    (fun (vertex, colour) ->
      let e = Bitset.colour_entry ~vertex ~colour in
      Alcotest.(check (pair int int))
        (Printf.sprintf "vertex %d, colour %d" vertex colour)
        (vertex, colour)
        (Bitset.entry_vertex e, Bitset.entry_colour e))
    [ (0, 1); (top - 1, top); (top - 1, 1); (0, top); (62, 63); (top / 2, top - 1) ]

(* Candidate sets that reach a locality through Marshal, as MaxClique
   nodes do under the default codec, are not built by Bitset: a corrupt
   or version-skewed message can hold a word array of the wrong length
   or a bit beyond the capacity. The kernel must refuse each one, not
   loop forever (a long array holds bits its loops never reach) or
   read past an array. The records are forged by a Marshal round trip of a record of
   Bitset.t's shape. *)
type forged = { words : int array; capacity : int }

let forge words capacity : Bitset.t =
  Marshal.from_string (Marshal.to_string { words; capacity } []) 0

type forged_matrix = { data : int array; rows : int; capacity : int; stride : int }

let malformed_sets () =
  let adj = Graph.adjacency (Gen.uniform ~seed:9 100 0.5) in
  Alcotest.(check int) "a well-formed forgery colours" 3
    (Array.length (Bitset.greedy_colour (forge [| 1; (1 lsl 36) + 2 |] 100) ~adj));
  List.iter
    (fun (label, p) ->
      Alcotest.check_raises label
        (Invalid_argument "Bitset.greedy_colour: malformed set or matrix")
        (fun () -> ignore (Bitset.greedy_colour p ~adj)))
    [ ("a long word array", forge [| 1; 0; 7 |] 100);
      ("a short word array", forge [| 1 |] 100);
      ("a stray bit at 101 of capacity 100", forge [| 0; 1 lsl 38 |] 100);
      ("a stray bit at 100 of capacity 100", forge [| 0; 1 lsl 37 |] 100) ];
  (* A capacity beyond the packing is refused before anything is read;
     forged, as a real set and matrix of that size would not fit. *)
  let top = Bitset.max_colour_capacity + 1 in
  let huge : Bitset.Matrix.t =
    Marshal.from_string
      (Marshal.to_string { data = [||]; rows = top; capacity = top; stride = 1 } [])
      0
  in
  Alcotest.check_raises "capacity beyond the packing"
    (Invalid_argument "Bitset.greedy_colour: capacity beyond the colouring's packing")
    (fun () -> ignore (Bitset.greedy_colour (forge [| 0 |] top) ~adj:huge))

(* [inter_row] copies the set's words and ANDs the row's stride of
   them, so a long word array would keep its extra words: bits beyond
   the capacity. It checks the word count, as the kernel does. *)
let malformed_inter_row () =
  let m = Graph.adjacency (Gen.uniform ~seed:9 100 0.5) in
  Alcotest.(check (list int)) "a well-formed forgery intersects"
    (List.filter (Bitset.Matrix.mem m 0) [ 0; 99 ])
    (Bitset.elements (Bitset.Matrix.inter_row (forge [| 1; 1 lsl 36 |] 100) m 0));
  Alcotest.check_raises "a long word array"
    (Invalid_argument "Bitset.Matrix.inter_row: malformed set") (fun () ->
      ignore (Bitset.Matrix.inter_row (forge [| 1; 0; 7 |] 100) m 0))

(* MaxClique's codec is the one registered codec that ships a Bitset
   between localities, so its decode checks the candidate set once: a
   forged node whose set has three words at capacity 100 would
   otherwise decode, and Bitset.cardinal would read 4. *)
type forged_node = { clique : int list; size : int; candidates : forged; bound : int }

let codec_validates () =
  let codec = Option.get (Mc.max_clique (Gen.uniform ~seed:9 100 0.5)).Problem.codec in
  let ship candidates = Marshal.to_string { clique = [ 3 ]; size = 1; candidates; bound = 2 } [] in
  let node = codec.decode (ship { words = [| 1; 1 lsl 36 |]; capacity = 100 }) in
  Alcotest.(check (list int)) "a well-formed node decodes" [ 0; 99 ]
    (Bitset.elements node.Mc.candidates);
  Alcotest.(check int) "what a long word array would count" 4
    (Bitset.cardinal (forge [| 1; 0; 7 |] 100));
  List.iter
    (fun (label, candidates) ->
      Alcotest.check_raises label (Invalid_argument "Bitset.validate: malformed set")
        (fun () -> ignore (codec.decode (ship candidates))))
    [ ("a long word array", { words = [| 1; 0; 7 |]; capacity = 100 });
      ("a short word array", { words = [| 1 |]; capacity = 100 });
      ("a stray bit at 100 of capacity 100", { words = [| 0; 1 lsl 37 |]; capacity = 100 }) ];
  let enc = codec.encode (Mc.root (Gen.uniform ~seed:9 100 0.5)) in
  Alcotest.(check int) "a root round-trips" 100 (Bitset.cardinal (codec.decode enc).Mc.candidates)

let matches_brute_force () =
  for seed = 0 to 14 do
    let n = 8 + (seed mod 6) in
    let g = Gen.uniform ~seed:(100 + seed) n 0.5 in
    let expected = brute_force_max_clique g in
    let node = Sequential.search (Mc.max_clique g) in
    Alcotest.(check int)
      (Printf.sprintf "seed %d agrees with brute force" seed)
      expected node.Mc.size
  done

let matches_specialised () =
  for seed = 0 to 9 do
    let g = Gen.uniform ~seed:(200 + seed) 30 0.6 in
    let size, vs = Mc.Specialised.max_clique_size g in
    let node = Sequential.search (Mc.max_clique g) in
    Alcotest.(check int)
      (Printf.sprintf "seed %d specialised = skeleton" seed)
      size node.Mc.size;
    Alcotest.(check bool) "specialised witness valid" true (Graph.is_clique g vs)
  done

let bound_admissible () =
  (* The colouring bound at a node dominates the best clique size
     reachable in that node's subtree. *)
  let g = Gen.uniform ~seed:17 18 0.6 in
  let best_below node =
    let sub =
      Problem.maximise ~name:"sub" ~space:g ~root:node ~children:Mc.children
        ~objective:(fun n -> n.Mc.size) ()
    in
    (Sequential.search sub).Mc.size
  in
  let rec walk node depth =
    if depth < 2 then
      Seq.iter
        (fun c ->
          if Mc.upper_bound c < best_below c then
            Alcotest.fail "upper bound not admissible";
          walk c (depth + 1))
        (Mc.children g node)
  in
  walk (Mc.root g) 0

(* Golden Sequential trees. The node counts were recorded before the
   colouring moved into Bitset.greedy_colour; any change to the order in
   which candidates are coloured or branched on changes them. Each case
   is (label, graph, omega, MaxClique nodes, unsat (omega+1)-clique
   nodes). *)
let dimacs_fixture name =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "fixtures" name; Filename.concat "test/fixtures" name ]
  in
  Dimacs.parse_file path

let golden_cases () =
  let hidden seed = Gen.hidden_clique ~seed 140 0.6 14 in
  [
    ("hidden seed 31", hidden 31, 14, 5299, 1918);
    ("hidden seed 32", hidden 32, 14, 2305, 1928);
    ("hidden seed 33", hidden 33, 14, 2240, 1844);
    ("two_level_140.clq", dimacs_fixture "two_level_140.clq", 14, 6300, 5985);
  ]

let golden_trees () =
  List.iter
    (fun (label, g, omega, mc_nodes, kc_nodes) ->
      let node, st = Sequential.search_with_stats (Mc.max_clique g) in
      Alcotest.(check int) (label ^ ": omega") omega node.Mc.size;
      Alcotest.(check bool) (label ^ ": witness valid") true
        (Graph.is_clique g (Mc.vertices_of node));
      Alcotest.(check int) (label ^ ": MaxClique nodes") mc_nodes st.Stats.nodes;
      let spec, vs = Mc.Specialised.max_clique_size g in
      Alcotest.(check int) (label ^ ": skeleton = specialised") node.Mc.size spec;
      Alcotest.(check bool) (label ^ ": specialised witness valid") true
        (Graph.is_clique g vs);
      let r, st = Sequential.search_with_stats (Mc.k_clique g ~k:(omega + 1)) in
      Alcotest.(check bool) (label ^ ": no (omega+1)-clique") true (r = None);
      Alcotest.(check int) (label ^ ": unsat k-clique nodes") kc_nodes st.Stats.nodes)
    (golden_cases ())

let () =
  Alcotest.run "maxclique"
    [
      ( "maxclique",
        [
          Alcotest.test_case "figure1 maximum" `Quick figure1_max;
          Alcotest.test_case "figure1 k-clique" `Quick figure1_kclique;
          Alcotest.test_case "complete graph" `Quick complete_graph;
          Alcotest.test_case "empty graph" `Quick empty_graph;
          Alcotest.test_case "singleton graph" `Quick singleton_graph;
          Alcotest.test_case "cycle graph" `Quick cycle_graph;
          Alcotest.test_case "hidden clique" `Quick hidden_clique_found;
          Alcotest.test_case "colour order" `Quick colour_order_properties;
          Alcotest.test_case "vs brute force" `Quick matches_brute_force;
          Alcotest.test_case "vs specialised" `Quick matches_specialised;
          Alcotest.test_case "bound admissible" `Quick bound_admissible;
          Alcotest.test_case "golden trees" `Quick golden_trees;
          Alcotest.test_case "greedy_colour checks" `Quick greedy_colour_checks;
          Alcotest.test_case "colour entries round trip" `Quick entry_round_trips;
          Alcotest.test_case "malformed candidate sets" `Quick malformed_sets;
          Alcotest.test_case "malformed inter_row set" `Quick malformed_inter_row;
          Alcotest.test_case "codec refuses malformed sets" `Quick codec_validates;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_greedy_colour ]);
    ]
