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

(* The node's own uniform draw in [0, 1): the top 53 bits of its mixed
   state, pure and platform-independent, with no boxed [int64]. *)
let[@inline] draw node = float_of_int (Splitmix.top53 node.state) *. 0x1p-53

let num_children p node =
  if node.depth >= p.max_depth then 0
  else if node.depth = 0 then p.b0
  else if draw node < p.q then p.m
  else 0

(* The first [k] children of [parent]: child [i]'s state hashes the
   parent's with [i]. A leaf allocates nothing; otherwise one cursor
   per call advances this call's index and is its own tail. *)
let fan parent k =
  if k = 0 then Seq.empty
  else begin
    let i = ref 0 in
    let rec next () =
      let j = !i in
      if j >= k then Seq.Nil
      else begin
        i := j + 1;
        Seq.Cons
          ({ state = Splitmix.hash2 parent.state j; depth = parent.depth + 1 }, next)
      end
    in
    next
  end

let children p parent = fan parent (num_children p parent)

let check fn p =
  let reject what = invalid_arg (fn ^ ": " ^ what) in
  if not (p.q >= 0. && p.q <= 1.) then reject "q must be in [0, 1]";
  if p.m < 0 then reject "m must be non-negative";
  if p.b0 < 0 then reject "b0 must be non-negative"

let count_problem p =
  check "Uts.count_problem" p;
  Problem.count_nodes ~name:"uts" ~space:p ~root:(root p) ~children ()

let max_depth_problem p =
  check "Uts.max_depth_problem" p;
  Problem.maximise ~name:"uts-depth" ~space:p ~root:(root p) ~children
    ~objective:(fun n -> n.depth) ()

type geo_params = {
  g_b0 : float;
  decay : float;
  g_max_depth : int;
  g_seed : int;
}

let geo_root p = { state = Splitmix.mix64 (Int64.of_int p.g_seed); depth = 0 }

(* b(d) for the first depths is tabled once per problem; past this
   many depths it is computed per node, so the tables stay small
   whatever [g_max_depth] is. *)
let geo_table_depths = 64

let[@inline] geo_branching p d = p.g_b0 *. (p.decay ** float_of_int d)

(* Pure child count: [floor b(d)] plus one more with probability
   [frac b(d)], drawn from the node's hash. At every depth [d] the
   tables cover, [whole.(d)] is [floor b(d)] and [cut.(d)] is
   [ceil (frac b(d) · 2^53)]. The draw [top53 / 2^53] is below
   [frac b(d)] exactly when the integer [top53] is below [cut.(d)],
   because [top53 < 2^53] and scaling by 2^53 is exact; so a tabled
   depth costs no float at all. The tables are never written after
   they are built, so workers on several domains can share them. *)
let geo_num_children whole cut p node =
  let d = node.depth in
  if d >= p.g_max_depth then 0
  else if d < Array.length whole then
    whole.(d) + (if Splitmix.top53 node.state < cut.(d) then 1 else 0)
  else begin
    let b = geo_branching p d in
    let base = Float.floor b in
    int_of_float base + (if draw node < b -. base then 1 else 0)
  end

let geo_generator whole cut p parent = fan parent (geo_num_children whole cut p parent)

let geo_children p parent = geo_generator [||] [||] p parent

let geo_count_problem p =
  let reject what = invalid_arg ("Uts.geo_count_problem: " ^ what) in
  if not (p.decay > 0. && p.decay < 1.) then reject "decay must be in (0, 1)";
  if not (Float.is_finite p.g_b0 && p.g_b0 >= 0.) then
    reject "g_b0 must be finite and non-negative";
  if p.g_max_depth < 0 then reject "g_max_depth must be non-negative";
  let branching = Array.init (min p.g_max_depth geo_table_depths) (geo_branching p) in
  let whole = Array.map (fun b -> int_of_float (Float.floor b)) branching in
  let cut =
    Array.map (fun b -> int_of_float (Float.ceil ((b -. Float.floor b) *. 0x1p53))) branching
  in
  Problem.count_nodes ~name:"uts-geo" ~space:p ~root:(geo_root p)
    ~children:(geo_generator whole cut) ()
