module Problem = Yewpar_core.Problem

type instance = { n : int }

let instance ~n =
  if n < 1 || n > 30 then invalid_arg "Queens.instance: n must be in 1..30";
  { n }

let size inst = inst.n

type node = {
  level : int;
  columns : int list;
  cols_mask : int;
  diag1_mask : int;
  diag2_mask : int;
}

let root _inst =
  { level = 0; columns = []; cols_mask = 0; diag1_mask = 0; diag2_mask = 0 }

(* Column of an isolated bit [1 lsl c], [c < 32]: a de Bruijn multiply
   puts a different five-bit pattern in bits 27..31 of the product for
   every [c], and [column_of] maps it back to [c]. *)
let column_slot bit = ((bit * 0x077C_B531) lsr 27) land 31

let column_of =
  let t = Array.make 32 0 in
  for c = 0 to 31 do
    t.(column_slot (1 lsl c)) <- c
  done;
  t

let children inst parent =
  let attacked = parent.cols_mask lor parent.diag1_mask lor parent.diag2_mask in
  let free = lnot attacked land ((1 lsl inst.n) - 1) in
  (* A full board attacks every column, and a node with no free column
     allocates nothing. *)
  if free = 0 then Seq.empty
  else begin
    (* Masks are kept aligned to the next row: an anti-diagonal attack
       moves one column left per row, a main-diagonal one column right.
       The free columns are visited lowest bit first, which is left to
       right. One cursor per call: [next] clears the bit it yields from
       this call's [left] and is its own tail, so a child costs its
       cell and its node. *)
    let left = ref free in
    let rec next () =
      let free = !left in
      if free = 0 then Seq.Nil
      else begin
        let bit = free land -free in
        left := free lxor bit;
        Seq.Cons
          ( {
              level = parent.level + 1;
              columns = column_of.(column_slot bit) :: parent.columns;
              cols_mask = parent.cols_mask lor bit;
              diag1_mask = (parent.diag1_mask lor bit) lsr 1;
              diag2_mask = (parent.diag2_mask lor bit) lsl 1;
            },
            next )
      end
    in
    next
  end

(* Nodes are plain data (ints and an int list), so the default Marshal
   codec ships them between localities as-is. *)
let codec : node Yewpar_core.Codec.t = Yewpar_core.Codec.marshal ()

let count_solutions inst =
  Problem.enumerate ~codec ~name:"queens" ~space:inst ~root:(root inst) ~children
    ~empty:0 ~combine:( + )
    ~view:(fun node -> if node.level = inst.n then 1 else 0)
    ()

let find_placement inst =
  Problem.decide ~codec ~name:"queens-dec" ~space:inst ~root:(root inst) ~children
    ~objective:(fun node -> node.level)
    ~target:inst.n ()

let placement_of inst node =
  if node.level <> inst.n then invalid_arg "Queens.placement_of: partial placement";
  Array.of_list (List.rev node.columns)

let is_valid_placement inst cols =
  Array.length cols = inst.n
  &&
  let ok = ref true in
  for i = 0 to inst.n - 1 do
    for j = i + 1 to inst.n - 1 do
      if cols.(i) = cols.(j) || abs (cols.(i) - cols.(j)) = j - i then ok := false
    done
  done;
  Array.for_all (fun c -> c >= 0 && c < inst.n) cols && !ok

let known_counts = [| 1; 0; 0; 2; 10; 4; 40; 92; 352; 724; 2680; 14200 |]
