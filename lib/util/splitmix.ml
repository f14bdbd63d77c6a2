type gen = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Inlined at every call in this module, so [top53] computes on
   unboxed words. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let top53 h = Int64.to_int (Int64.shift_right_logical (mix64 h) 11)

let of_seed s = { state = mix64 (Int64.of_int s) }

let of_string_seed s =
  (* A simple FNV-1a over the bytes feeds the mixer; quality comes from
     mix64, the string hash only needs to separate distinct names. *)
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  { state = mix64 !h }

let copy g = { state = g.state }

let next_int64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix64 g.state

let split g =
  let s = next_int64 g in
  { state = mix64 s }

let int g n =
  if n <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit int non-negatively.
     Rejection-free modulo is fine here: biases are < 2^-38 for the
     bound sizes we use (< 2^24). *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2) in
  v mod n

let float g =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 g) 11) in
  v *. 0x1p-53

let bool g = Int64.logand (next_int64 g) 1L = 1L

let hash2 h i = mix64 (Int64.add (Int64.mul h 0x2545F4914F6CDD1DL) (Int64.of_int (i + 1)))
