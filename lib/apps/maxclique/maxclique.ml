module Bitset = Yewpar_bitset.Bitset
module Graph = Yewpar_graph.Graph
module Problem = Yewpar_core.Problem

type node = {
  clique : int list;
  size : int;
  candidates : Bitset.t;
  bound : int;
}

let root g =
  let n = Graph.n_vertices g in
  let candidates = Bitset.create n in
  Bitset.fill_upto candidates n;
  { clique = []; size = 0; candidates; bound = n }

let upper_bound node = node.size + node.bound

(* Greedy colouring (the paper's greedy_colour) is the word-level
   kernel in Bitset, reading the graph's adjacency matrix: entry i of
   its result packs the i-th candidate in colouring order and the
   colours used on the prefix up to it. Within a class vertices come in
   increasing index order, which makes the traversal heuristic
   deterministic. *)
let children g parent =
  if Bitset.is_empty parent.candidates then Seq.empty
  else begin
    let adj = Graph.adjacency g in
    let coloured = Bitset.greedy_colour parent.candidates ~adj in
    (* Iterate in reverse colouring order: heuristically best (highest
       colour) candidate first, exactly as Listing 1's [next]. This
       call's [remaining] set and position [k] are the cursor's state,
       so the sequence is ephemeral (the engine forces each cell exactly
       once), and [next] is its own tail. *)
    let remaining = Bitset.copy parent.candidates in
    let k = ref (Array.length coloured - 1) in
    let rec next () =
      let k0 = !k in
      if k0 < 0 then Seq.Nil
      else begin
        k := k0 - 1;
        let e = coloured.(k0) in
        let v = Bitset.entry_vertex e in
        Bitset.remove remaining v;
        let candidates = Bitset.Matrix.inter_row remaining adj v in
        (* The child's candidates avoid v's whole colour class (they are
           neighbours of v; class-mates are not), so its colour - 1
           colours suffice for any further extension -- the standard
           MCSa bound, matching the hand-coded solver's cut. *)
        let child =
          { clique = v :: parent.clique; size = parent.size + 1; candidates;
            bound = Bitset.entry_colour e - 1 }
        in
        Seq.Cons (child, next)
      end
    in
    next
  end

(* Nodes are plain data (an int list plus a bitset, itself an int
   array), so the default Marshal codec ships them between localities
   as-is. A decoded candidate set was not built by Bitset, and a corrupt
   or version-skewed message can hold a malformed one, so decode checks
   it once, where it enters the process. *)
let codec : node Yewpar_core.Codec.t =
  let marshal = Yewpar_core.Codec.marshal () in
  { marshal with
    decode =
      (fun s ->
        let node : node = marshal.decode s in
        Bitset.validate node.candidates;
        node) }

(* Children are emitted in non-increasing colour-bound order, so a
   failed bound check legitimately cuts all remaining siblings —
   exactly the early loop exit of the hand-coded solvers. *)
let max_clique g =
  Problem.maximise ~codec ~name:"maxclique" ~space:g ~root:(root g) ~children
    ~bound:upper_bound ~monotone_bound:true ~objective:(fun n -> n.size) ()

let k_clique g ~k =
  Problem.decide ~codec ~name:"kclique" ~space:g ~root:(root g) ~children
    ~bound:upper_bound ~monotone_bound:true ~objective:(fun n -> n.size)
    ~target:k ()

let vertices_of node = List.sort compare node.clique

module Specialised = struct
  (* Direct MCSa1-style recursion: one packed vertex/colour array, early
     loop exit on the bound (colour classes are non-increasing towards
     lower indices, so the first failing candidate cuts all the rest),
     no Seq or skeleton machinery. Mirrors the hand-crafted sequential
     C++ implementation YewPar is compared against in Table 1. *)
  let max_clique_size g =
    let best_size = ref 0 in
    let best = ref [] in
    let adj = Graph.adjacency g in
    let rec expand clique size candidates =
      if size > !best_size then begin
        best_size := size;
        best := clique
      end;
      if not (Bitset.is_empty candidates) then begin
        let coloured = Bitset.greedy_colour candidates ~adj in
        let remaining = Bitset.copy candidates in
        let rec loop k =
          if k >= 0 && size + Bitset.entry_colour coloured.(k) > !best_size then begin
            let v = Bitset.entry_vertex coloured.(k) in
            Bitset.remove remaining v;
            let candidates' = Bitset.Matrix.inter_row remaining adj v in
            expand (v :: clique) (size + 1) candidates';
            loop (k - 1)
          end
        in
        loop (Array.length coloured - 1)
      end
    in
    let all = Bitset.create (Graph.n_vertices g) in
    Bitset.fill_upto all (Graph.n_vertices g);
    expand [] 0 all;
    (!best_size, List.sort compare !best)
end
