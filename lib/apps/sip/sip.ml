module Bitset = Yewpar_bitset.Bitset
module Graph = Yewpar_graph.Graph
module Problem = Yewpar_core.Problem

type instance = {
  pattern : Graph.t;
  target : Graph.t;
  order : int array;  (* pattern vertices, most-constrained first *)
  p_deg : int array;  (* per pattern vertex: its degree *)
  t_deg : int array;  (* per target vertex: its degree *)
  t_by_degree : int list;  (* target vertices, highest degree first *)
  p_nds : int array array;  (* per pattern vertex: neighbour degrees, desc *)
  t_nds : int array array;  (* per target vertex: neighbour degrees, desc *)
}

let degrees g = Array.init (Graph.n_vertices g) (Graph.degree g)

(* Sorted-descending degrees of a vertex's neighbourhood, given the
   graph's degree array. *)
let neighbour_degrees g deg v =
  let ds = Bitset.fold (fun u acc -> deg.(u) :: acc) (Graph.neighbours g v) [] in
  let a = Array.of_list ds in
  Array.sort (fun x y -> compare y x) a;
  a

(* Can each pattern-neighbour degree be matched by a distinct
   target-neighbour degree at least as large? With both sequences
   sorted descending this is the pointwise test. *)
let dominates t_seq p_seq =
  Array.length t_seq >= Array.length p_seq
  &&
  let ok = ref true in
  Array.iteri (fun i d -> if t_seq.(i) < d then ok := false) p_seq;
  !ok

let instance ~pattern ~target =
  let np = Graph.n_vertices pattern in
  if np = 0 then invalid_arg "Sip.instance: empty pattern";
  if np > Graph.n_vertices target then
    invalid_arg "Sip.instance: pattern larger than target";
  let p_deg = degrees pattern and t_deg = degrees target in
  (* Highest target degree first (maximise future adjacency options),
     ties by vertex id: the order every node's candidates come in. *)
  let t_by_degree =
    List.sort
      (fun a b ->
        let c = compare t_deg.(b) t_deg.(a) in
        if c <> 0 then c else compare a b)
      (Graph.vertices target)
  in
  {
    pattern;
    target;
    order = Graph.degeneracy_order pattern;
    p_deg;
    t_deg;
    t_by_degree;
    p_nds = Array.init np (neighbour_degrees pattern p_deg);
    t_nds = Array.init (Graph.n_vertices target) (neighbour_degrees target t_deg);
  }

let pattern inst = inst.pattern
let target inst = inst.target

type node = {
  level : int;
  assignment : int array;
  used : Bitset.t;
}

let root inst =
  {
    level = 0;
    assignment = Array.make (Graph.n_vertices inst.pattern) (-1);
    used = Bitset.create (Graph.n_vertices inst.target);
  }

(* Target vertices consistent with assigning the next pattern vertex:
   unused, degree-compatible, and adjacent to the images of all
   previously assigned pattern neighbours. *)
let candidates inst node =
  let np = Graph.n_vertices inst.pattern in
  if node.level >= np then []
  else begin
    let pv = inst.order.(node.level) in
    let pdeg = inst.p_deg.(pv) in
    let ok t =
      (not (Bitset.mem node.used t))
      && inst.t_deg.(t) >= pdeg
      (* Neighbourhood-degree-sequence filter (McCreesh & Prosser-style
         supplemental invariant): the neighbours of [pv] must embed
         injectively into the neighbours of [t]. *)
      && dominates inst.t_nds.(t) inst.p_nds.(pv)
      &&
      let rec consistent i =
        i >= node.level
        ||
        let pu = inst.order.(i) in
        ((not (Graph.has_edge inst.pattern pv pu))
        || Graph.has_edge inst.target t node.assignment.(i))
        && consistent (i + 1)
      in
      consistent 0
    in
    List.filter ok inst.t_by_degree
  end

(* A dead end gets [Seq.empty] itself, so the engine enters and leaves
   it in one step. *)
let children inst parent =
  match candidates inst parent with
  | [] -> Seq.empty
  | cs ->
    List.to_seq cs
    |> Seq.map (fun t ->
           let assignment = Array.copy parent.assignment in
           assignment.(parent.level) <- t;
           let used = Bitset.copy parent.used in
           Bitset.add used t;
           { level = parent.level + 1; assignment; used })

let problem inst =
  let np = Graph.n_vertices inst.pattern in
  Problem.decide ~name:"sip" ~space:inst ~root:(root inst) ~children
    ~bound:(fun _ -> np) (* depth can always grow to np unless the
                            generator runs dry, which is the real filter *)
    ~objective:(fun n -> n.level)
    ~target:np ()

let embedding_of inst node =
  if node.level <> Graph.n_vertices inst.pattern then
    invalid_arg "Sip.embedding_of: incomplete assignment";
  List.init node.level (fun i -> (inst.order.(i), node.assignment.(i)))
  |> List.sort compare

let check_embedding inst pairs =
  let np = Graph.n_vertices inst.pattern in
  List.length pairs = np
  && List.length (List.sort_uniq compare (List.map snd pairs)) = np
  &&
  let img = Array.make np (-1) in
  List.iter (fun (p, t) -> img.(p) <- t) pairs;
  let ok = ref true in
  for u = 0 to np - 1 do
    for v = u + 1 to np - 1 do
      if Graph.has_edge inst.pattern u v && not (Graph.has_edge inst.target img.(u) img.(v))
      then ok := false
    done
  done;
  !ok

let brute_force inst =
  let np = Graph.n_vertices inst.pattern in
  let nt = Graph.n_vertices inst.target in
  let img = Array.make np (-1) in
  let used = Array.make nt false in
  let rec assign p =
    if p = np then true
    else begin
      let rec try_t t =
        if t >= nt then false
        else if
          (not used.(t))
          &&
          let rec consistent u =
            u >= p
            || (((not (Graph.has_edge inst.pattern p u))
                || Graph.has_edge inst.target t img.(u))
               && consistent (u + 1))
          in
          consistent 0
        then begin
          img.(p) <- t;
          used.(t) <- true;
          if assign (p + 1) then true
          else begin
            used.(t) <- false;
            try_t (t + 1)
          end
        end
        else try_t (t + 1)
      in
      try_t 0
    end
  in
  assign 0
