module Bitset = Yewpar_bitset.Bitset

type t = { adj : Bitset.Matrix.t; mutable edges : int }

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { adj = Bitset.Matrix.create ~rows:n n; edges = 0 }

let n_vertices g = Bitset.Matrix.rows g.adj
let n_edges g = g.edges

let check g v =
  if v < 0 || v >= n_vertices g then invalid_arg "Graph: vertex out of range"

let has_edge g u v =
  check g u;
  check g v;
  Bitset.Matrix.mem g.adj u v

let add_edge g u v =
  check g u;
  check g v;
  if u <> v && not (has_edge g u v) then begin
    Bitset.Matrix.add g.adj u v;
    Bitset.Matrix.add g.adj v u;
    g.edges <- g.edges + 1
  end

let neighbours g v =
  check g v;
  Bitset.Matrix.row g.adj v

let degree g v =
  check g v;
  Bitset.Matrix.cardinal g.adj v

let adjacency g = g.adj

let density g =
  let n = n_vertices g in
  if n < 2 then 0.
  else float_of_int g.edges /. (float_of_int n *. float_of_int (n - 1) /. 2.)

let vertices g = List.init (n_vertices g) Fun.id

let is_clique g vs =
  let rec pairwise = function
    | [] -> true
    | v :: rest -> List.for_all (fun u -> u <> v && has_edge g u v) rest && pairwise rest
  in
  pairwise vs

let complement g =
  let n = n_vertices g in
  let c = create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if not (has_edge g u v) then add_edge c u v
    done
  done;
  c

let induced g vs =
  let vs = Array.of_list vs in
  let n = Array.length vs in
  let h = create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if has_edge g vs.(i) vs.(j) then add_edge h i j
    done
  done;
  h

let degeneracy_order g =
  let n = n_vertices g in
  let order = Array.init n Fun.id in
  let deg = Array.init n (degree g) in
  (* Stable sort on (-degree, vertex id) keeps the order deterministic. *)
  Array.sort
    (fun u v ->
      let c = compare deg.(v) deg.(u) in
      if c <> 0 then c else compare u v)
    order;
  order
