module Bitset = Yewpar_bitset.Bitset
module Splitmix = Yewpar_util.Splitmix
module Problem = Yewpar_core.Problem

type instance = { dist : int array array; n : int }

(* Sentinel objective for incomplete tours: far below any real tour yet
   far from [min_int] so bound arithmetic cannot overflow. *)
let incomplete_objective = min_int / 4

let of_matrix dist =
  let n = Array.length dist in
  if n = 0 then invalid_arg "Tsp.of_matrix: empty matrix";
  Array.iteri
    (fun i row ->
      if Array.length row <> n then invalid_arg "Tsp.of_matrix: not square";
      Array.iteri
        (fun j d ->
          if d < 0 then invalid_arg "Tsp.of_matrix: negative distance";
          if i = j && d <> 0 then invalid_arg "Tsp.of_matrix: non-zero diagonal";
          if dist.(j).(i) <> d then invalid_arg "Tsp.of_matrix: not symmetric")
        row)
    dist;
  { dist; n }

let random_euclidean ~seed ~n ~size =
  let rng = Splitmix.of_seed seed in
  let pts =
    Array.init n (fun _ ->
        (Splitmix.int rng size, Splitmix.int rng size))
  in
  let dist =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let xi, yi = pts.(i) and xj, yj = pts.(j) in
            let dx = float_of_int (xi - xj) and dy = float_of_int (yi - yj) in
            int_of_float (Float.round (sqrt ((dx *. dx) +. (dy *. dy))))))
  in
  of_matrix dist

let n_cities inst = inst.n
let distance inst i j = inst.dist.(i).(j)

type node = {
  visited : Bitset.t;
  last : int;
  length : int;
  tour_rev : int list;
}

let root inst =
  let visited = Bitset.create inst.n in
  Bitset.add visited 0;
  { visited; last = 0; length = 0; tour_rev = [ 0 ] }

let is_complete inst node = Bitset.cardinal node.visited = inst.n

let children inst parent =
  (* Unvisited cities, nearest to the current city first. *)
  let unvisited =
    List.filter (fun c -> not (Bitset.mem parent.visited c))
      (List.init inst.n Fun.id)
  in
  let ordered =
    List.sort
      (fun a b ->
        let c = compare inst.dist.(parent.last).(a) inst.dist.(parent.last).(b) in
        if c <> 0 then c else compare a b)
      unvisited
  in
  (* A complete tour gets [Seq.empty] itself, so the engine enters and
     leaves it in one step. *)
  match ordered with
  | [] -> Seq.empty
  | cities ->
    List.to_seq cities
    |> Seq.map (fun city ->
           let visited = Bitset.copy parent.visited in
           Bitset.add visited city;
           {
             visited;
             last = city;
             length = parent.length + inst.dist.(parent.last).(city);
             tour_rev = city :: parent.tour_rev;
           })

let closed_length inst node = node.length + inst.dist.(node.last).(0)

let tour_of inst node =
  if not (is_complete inst node) then invalid_arg "Tsp.tour_of: incomplete tour";
  List.rev node.tour_rev

let objective inst node =
  if is_complete inst node then -closed_length inst node else incomplete_objective

let lower_bound_remaining inst node =
  if is_complete inst node then 0
  else begin
    (* Cheapest departure of the current city into the unvisited set,
       plus, for every unvisited city, its cheapest departure towards
       another unvisited city or home (0). Every completion uses one
       distinct such edge per term, so the sum is admissible. *)
    let min_edge from allow =
      let best = ref max_int in
      for c = 0 to inst.n - 1 do
        if c <> from && allow c then best := min !best inst.dist.(from).(c)
      done;
      !best
    in
    let unvisited c = not (Bitset.mem node.visited c) in
    let total = ref (min_edge node.last unvisited) in
    for u = 0 to inst.n - 1 do
      if unvisited u then
        total := !total + min_edge u (fun c -> c = 0 || (unvisited c && c <> u))
    done;
    !total
  end

let problem inst =
  Problem.maximise ~name:"tsp" ~space:inst ~root:(root inst)
    ~children
    ~bound:(fun node -> -(node.length + lower_bound_remaining inst node))
    ~objective:(objective inst) ()

let decision inst ~max_length =
  Problem.decide ~name:"tsp-dec" ~space:inst ~root:(root inst) ~children
    ~bound:(fun node -> -(node.length + lower_bound_remaining inst node))
    ~objective:(objective inst) ~target:(-max_length) ()

let exact_held_karp inst =
  let n = inst.n in
  if n = 1 then 0
  else begin
    let m = n - 1 in
    let full = (1 lsl m) - 1 in
    (* dp.(mask).(j): cheapest path 0 → … → (j+1) visiting exactly the
       cities of mask (bit i = city i+1). *)
    let dp = Array.make_matrix (full + 1) m max_int in
    for j = 0 to m - 1 do
      dp.(1 lsl j).(j) <- inst.dist.(0).(j + 1)
    done;
    for mask = 1 to full do
      for j = 0 to m - 1 do
        if mask land (1 lsl j) <> 0 && dp.(mask).(j) < max_int then
          for k = 0 to m - 1 do
            if mask land (1 lsl k) = 0 then begin
              let mask' = mask lor (1 lsl k) in
              let cand = dp.(mask).(j) + inst.dist.(j + 1).(k + 1) in
              if cand < dp.(mask').(k) then dp.(mask').(k) <- cand
            end
          done
      done
    done;
    let best = ref max_int in
    for j = 0 to m - 1 do
      if dp.(full).(j) < max_int then
        best := min !best (dp.(full).(j) + inst.dist.(j + 1).(0))
    done;
    !best
  end
