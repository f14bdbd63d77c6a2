module Splitmix = Yewpar_util.Splitmix
module Problem = Yewpar_core.Problem

type params = {
  b0 : int;
  q : float;
  m : int;
  max_depth : int;
  seed : int;
}

let default = { b0 = 120; q = 0.220; m = 4; max_depth = 200; seed = 19 }

type node = { state : int64; depth : int }

let root p = { state = Splitmix.mix64 (Int64.of_int p.seed); depth = 0 }

let num_children p node =
  if node.depth = 0 then p.b0
  else if node.depth >= p.max_depth then 0
  else begin
    (* Draw from the node's own state: the top 53 bits as a uniform
       float, compared against q — pure and platform-independent. *)
    let bits = Int64.shift_right_logical (Splitmix.mix64 node.state) 11 in
    let u = Int64.to_float bits *. 0x1p-53 in
    if u < p.q then p.m else 0
  end

let children p parent =
  let k = num_children p parent in
  let rec gen i () =
    if i >= k then Seq.Nil
    else
      Seq.Cons
        ({ state = Splitmix.hash2 parent.state i; depth = parent.depth + 1 }, gen (i + 1))
  in
  gen 0

let count_problem p =
  Problem.count_nodes ~name:"uts" ~space:p ~root:(root p) ~children ()

let max_depth_problem p =
  Problem.maximise ~name:"uts-depth" ~space:p ~root:(root p) ~children
    ~objective:(fun n -> n.depth) ()

type geo_params = {
  g_b0 : float;
  decay : float;
  g_max_depth : int;
  g_seed : int;
}

let geo_root p = { state = Splitmix.mix64 (Int64.of_int p.g_seed); depth = 0 }

(* Pure child count: [floor b(d)] plus one more with probability
   [frac b(d)], drawn from the node's hash. *)
let geo_num_children p node =
  if node.depth >= p.g_max_depth then 0
  else begin
    let b = p.g_b0 *. (p.decay ** float_of_int node.depth) in
    let base = int_of_float (Float.floor b) in
    let frac = b -. Float.floor b in
    let bits = Int64.shift_right_logical (Splitmix.mix64 node.state) 11 in
    let u = Int64.to_float bits *. 0x1p-53 in
    base + (if u < frac then 1 else 0)
  end

let geo_children p parent =
  let k = geo_num_children p parent in
  let rec gen i () =
    if i >= k then Seq.Nil
    else
      Seq.Cons
        ({ state = Splitmix.hash2 parent.state i; depth = parent.depth + 1 }, gen (i + 1))
  in
  gen 0

let geo_count_problem p =
  Problem.count_nodes ~name:"uts-geo" ~space:p ~root:(geo_root p)
    ~children:geo_children ()
