module Problem = Yewpar_core.Problem

type space = { gmax : int; bound : int }

let space ~gmax =
  if gmax < 0 then invalid_arg "Numsemi.space: negative genus limit";
  (* Frobenius <= 2g - 1 and minimal generators <= Frobenius +
     multiplicity <= 3g, so membership up to 3·gmax + 3 always
     suffices (see the interface documentation). *)
  { gmax; bound = (3 * gmax) + 3 }

type node = {
  members : Bytes.t;  (* members.(i) = '\001' iff i is in the semigroup *)
  genus : int;
  frobenius : int;
  multiplicity : int;
}

let genus n = n.genus
let frobenius n = n.frobenius
let multiplicity n = n.multiplicity

let mem n x = x >= 0 && x < Bytes.length n.members && Bytes.get n.members x = '\001'

let root sp =
  { members = Bytes.make sp.bound '\001'; genus = 0; frobenius = -1; multiplicity = 1 }

(* x is a minimal generator iff x ∈ S, x > 0, and x is not the sum of
   two non-zero members; only splits s + (x - s) with 0 < s <= x/2 need
   checking. *)
let is_minimal_generator n x =
  mem n x && x > 0
  &&
  let rec no_split s =
    s > x / 2 || ((not (mem n s && mem n (x - s))) && no_split (s + 1))
  in
  no_split 1

let minimal_generators_above_frobenius sp n =
  (* Removable generators live in (frobenius, frobenius+multiplicity];
     the multiplicity itself is always a minimal generator, which the
     window would miss exactly when frobenius < 0 (the root ℕ, whose
     sole generator is 1). *)
  let lo = n.frobenius + 1 in
  let hi = min (max (n.frobenius + n.multiplicity) n.multiplicity) (sp.bound - 1) in
  let rec collect x acc =
    if x > hi then List.rev acc
    else collect (x + 1) (if is_minimal_generator n x then x :: acc else acc)
  in
  collect (max 1 lo) []

let remove sp n x =
  let members = Bytes.copy n.members in
  Bytes.set members x '\000';
  let multiplicity =
    if x = n.multiplicity then begin
      let rec first i = if Bytes.get members i = '\001' then i else first (i + 1) in
      first (x + 1)
    end
    else n.multiplicity
  in
  ignore sp;
  { members; genus = n.genus + 1; frobenius = x; multiplicity }

(* A leaf gets [Seq.empty] itself, so the engine enters and leaves it
   in one step. *)
let children sp parent =
  if parent.genus >= sp.gmax then Seq.empty
  else
    match minimal_generators_above_frobenius sp parent with
    | [] -> Seq.empty
    | xs -> List.to_seq xs |> Seq.map (fun x -> remove sp parent x)

let count_at_genus sp ~g =
  if g > sp.gmax then invalid_arg "Numsemi.count_at_genus: beyond gmax";
  Problem.enumerate ~name:"numsemi" ~space:sp ~root:(root sp) ~children ~empty:0
    ~combine:( + )
    ~view:(fun n -> if n.genus = g then 1 else 0)
    ()

let count_tree sp =
  Problem.count_nodes ~name:"numsemi-tree" ~space:sp ~root:(root sp) ~children ()

let genus_histogram sp =
  (* The monoid: length-(gmax+1) count vectors under pointwise sum.
     [combine] is pure (fresh array) so partial task results can merge
     in any order. *)
  Problem.enumerate ~name:"numsemi-histogram" ~space:sp ~root:(root sp) ~children
    ~empty:(Array.make (sp.gmax + 1) 0)
    ~combine:(fun a b -> Array.init (sp.gmax + 1) (fun i -> a.(i) + b.(i)))
    ~view:(fun n ->
      let h = Array.make (sp.gmax + 1) 0 in
      h.(n.genus) <- 1;
      h)
    ()

let known_counts =
  [| 1; 1; 2; 4; 7; 12; 23; 39; 67; 118; 204; 343; 592; 1001; 1693; 2857; 4806;
     8045; 13467; 22464; 37396; 62194; 103246 |]
