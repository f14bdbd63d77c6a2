(* Bits are packed into OCaml native ints (62 usable bits, keeping
   arithmetic unboxed). Word w, bit b encode element w * bits_per_word + b. *)

let bits_per_word = Sys.int_size (* 63 on 64-bit platforms *)

type t = { words : int array; capacity : int }

let words_for n = (n / bits_per_word) + if n mod bits_per_word = 0 then 0 else 1

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make (max 1 (words_for n)) 0; capacity = n }

let capacity s = s.capacity

(* Sets of one to four words are built as array literals, which are
   allocated inline; [Array.copy] would be a C call. *)
let copy_words (w : int array) =
  match Array.length w with
  | 1 -> [| Array.unsafe_get w 0 |]
  | 2 -> [| Array.unsafe_get w 0; Array.unsafe_get w 1 |]
  | 3 -> [| Array.unsafe_get w 0; Array.unsafe_get w 1; Array.unsafe_get w 2 |]
  | 4 ->
    [| Array.unsafe_get w 0; Array.unsafe_get w 1; Array.unsafe_get w 2;
       Array.unsafe_get w 3 |]
  | _ -> Array.copy w

let copy s = { words = copy_words s.words; capacity = s.capacity }

let check s i =
  if i < 0 || i >= s.capacity then invalid_arg "Bitset: element out of range"

let add s i =
  check s i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) <- s.words.(w) lor (1 lsl b)

let remove s i =
  check s i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) <- s.words.(w) land lnot (1 lsl b)

let mem s i =
  check s i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) land (1 lsl b) <> 0

(* SWAR popcount: sum bit pairs, then nibbles, then bytes, and gather
   the byte sums in the top byte with one multiply. The 64-bit masks do
   not fit an OCaml int, so the sum runs over the low 62 bits and the
   sign bit (bit 62) is added apart; every step is a word operation. *)
let[@inline] popcount x =
  let y = x land max_int in
  let y = y - ((y lsr 1) land 0x1555_5555_5555_5555) in
  let y = (y land 0x3333_3333_3333_3333) + ((y lsr 2) land 0x3333_3333_3333_3333) in
  let y = (y + (y lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  ((y * 0x0101_0101_0101_0101) lsr 56) + (x lsr 62)

let cardinal s =
  let n = ref 0 in
  for w = 0 to Array.length s.words - 1 do
    n := !n + popcount s.words.(w)
  done;
  !n

let is_empty s =
  let rec go i = i >= Array.length s.words || (s.words.(i) = 0 && go (i + 1)) in
  go 0

(* What [create] and every operation keep: exactly the capacity's word
   count, and no bit at or above the capacity in the last word (the
   earlier words lie wholly below it). [words_for] cannot overflow, so
   a forged capacity near [max_int] does not pass as one word. *)
let well_formed s =
  let nw = Array.length s.words in
  s.capacity >= 0
  && nw = max 1 (words_for s.capacity)
  && (s.capacity >= nw * bits_per_word
      || Array.unsafe_get s.words (nw - 1) lsr (s.capacity - ((nw - 1) * bits_per_word))
         = 0)

let validate s = if not (well_formed s) then invalid_arg "Bitset.validate: malformed set"

let check_pair a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let inter_into dst src =
  check_pair dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let union_into dst src =
  check_pair dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let diff_into dst src =
  check_pair dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land lnot src.words.(i)
  done

let equal a b =
  check_pair a b;
  let rec go i = i >= Array.length a.words || (a.words.(i) = b.words.(i) && go (i + 1)) in
  go 0

let subset a b =
  check_pair a b;
  let rec go i =
    i >= Array.length a.words || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1))
  in
  go 0

(* De Bruijn bit index. For an isolated bit b = 1 lsl k, the product is
   the constant shifted left by k; under OCaml's wrapping 63-bit
   multiply, its bits 56..61 differ for every k in 0..62, min_int
   (k = 62) included, and [bit_index] maps those six bits back to k. The
   usual window of a 64-bit lookup, bits 58..63, runs past the 63 bits
   of an OCaml int, and what is left of it collides. *)
let bit_slot b = ((b * 0x03f7_9d71_b4cb_0a89) lsr 56) land 63

let bit_index =
  let t = Array.make 64 0 in
  for k = 0 to bits_per_word - 1 do
    t.(bit_slot (1 lsl k)) <- k
  done;
  t

(* x <> 0; index of its least significant set bit: isolate it with
   x land (-x), then one multiply, one shift and one table read. *)
let lowest_bit_index x = bit_index.(bit_slot (x land -x))

let first s =
  let rec go w =
    if w >= Array.length s.words then -1
    else if s.words.(w) = 0 then go (w + 1)
    else (w * bits_per_word) + lowest_bit_index s.words.(w)
  in
  go 0

let next_from s i =
  if i >= s.capacity then -1
  else begin
    let i = max i 0 in
    let w0 = i / bits_per_word and b0 = i mod bits_per_word in
    let masked = s.words.(w0) land (-1 lsl b0) in
    if masked <> 0 then (w0 * bits_per_word) + lowest_bit_index masked
    else begin
      let rec go w =
        if w >= Array.length s.words then -1
        else if s.words.(w) = 0 then go (w + 1)
        else (w * bits_per_word) + lowest_bit_index s.words.(w)
      in
      go (w0 + 1)
    end
  end

(* Word at a time: take the lowest set bit, then clear it with
   x land (x - 1). *)
let iter f s =
  for w = 0 to Array.length s.words - 1 do
    let x = ref s.words.(w) in
    while !x <> 0 do
      f ((w * bits_per_word) + lowest_bit_index !x);
      x := !x land (!x - 1)
    done
  done

let fold f s acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list n xs =
  let s = create n in
  List.iter (add s) xs;
  s

let clear s = Array.fill s.words 0 (Array.length s.words) 0

let fill_upto s k =
  let k = min k s.capacity in
  if k > 0 then begin
    let full = k / bits_per_word and rest = k mod bits_per_word in
    Array.fill s.words 0 full (-1);
    if rest > 0 then s.words.(full) <- s.words.(full) lor ((1 lsl rest) - 1)
  end

(* Row-major: row r is words [r * stride, (r + 1) * stride) of [data],
   and [stride] is the word count of a set of the same capacity, so word
   w of a row lines up with word w of such a set. *)
module Matrix = struct
  type set = t
  type t = { data : int array; rows : int; capacity : int; stride : int }

  let create ~rows n =
    if rows < 0 || n < 0 then invalid_arg "Bitset.Matrix.create: negative size";
    let stride = max 1 (words_for n) in
    { data = Array.make (rows * stride) 0; rows; capacity = n; stride }

  let rows m = m.rows

  let check_row m r =
    if r < 0 || r >= m.rows then invalid_arg "Bitset.Matrix: row out of range"

  let check m r i =
    check_row m r;
    if i < 0 || i >= m.capacity then invalid_arg "Bitset: element out of range"

  let add m r i =
    check m r i;
    let k = (r * m.stride) + (i / bits_per_word) in
    m.data.(k) <- m.data.(k) lor (1 lsl (i mod bits_per_word))

  let mem m r i =
    check m r i;
    m.data.((r * m.stride) + (i / bits_per_word)) land (1 lsl (i mod bits_per_word)) <> 0

  let cardinal m r =
    check_row m r;
    let base = r * m.stride and n = ref 0 in
    for w = base to base + m.stride - 1 do
      n := !n + popcount m.data.(w)
    done;
    !n

  let row m r =
    check_row m r;
    { words = Array.sub m.data (r * m.stride) m.stride; capacity = m.capacity }

  (* Word [i] of [s ∩ row]: [s] has been checked to hold [stride]
     words, so [i < stride] is in range of it. *)
  let[@inline] and_at (s : int array) (d : int array) base i =
    Array.unsafe_get s i land d.(base + i)

  let inter_row (s : set) m r =
    check_row m r;
    if s.capacity <> m.capacity then invalid_arg "Bitset: capacity mismatch";
    if Array.length s.words <> m.stride then
      invalid_arg "Bitset.Matrix.inter_row: malformed set";
    let base = r * m.stride and s = s.words and d = m.data in
    let words =
      match m.stride with
      | 1 -> [| and_at s d base 0 |]
      | 2 -> [| and_at s d base 0; and_at s d base 1 |]
      | 3 -> [| and_at s d base 0; and_at s d base 1; and_at s d base 2 |]
      | 4 ->
        [| and_at s d base 0; and_at s d base 1; and_at s d base 2; and_at s d base 3 |]
      | _ ->
        let words = Array.copy s in
        for w = 0 to m.stride - 1 do
          words.(w) <- words.(w) land d.(base + w)
        done;
        words
    in
    { words; capacity = m.capacity }
end

(* A colouring entry packs a vertex into the low [vertex_bits] bits and
   its colour above them. A colour is at most the number of vertices
   coloured, so with capacity at most 2^30 the largest entry is
   2^30 lsl 30 lor (2^30 - 1) < 2^61: positive, and both fields decode
   with one operation. *)
let vertex_bits = 30
let max_colour_capacity = 1 lsl vertex_bits
let colour_entry ~vertex ~colour = (colour lsl vertex_bits) lor vertex
let entry_vertex e = e land (max_colour_capacity - 1)
let entry_colour e = e lsr vertex_bits

(* MCSa's greedy colouring, one word at a time. A class is built from
   the uncoloured vertices in increasing order: the lowest bit of the
   current word is taken and cleared with x land (x - 1), and the
   vertex's row of [adj] is struck from the rest of that word and from
   the later words of the class's colourable words (the earlier words
   are already spent). A vertex's index comes from its isolated bit by
   the de Bruijn lookup.

   Two kernels run that walk; they differ in where the words live.
   - [colour_narrow], for a stride of at most four words (252
     vertices), keeps the uncoloured words in [u0..u3] and the
     colourable ones in [q1..q3] (word 0's colourable word is the
     uncoloured one, as no vertex of the class precedes it), so it
     allocates only its output. It has one loop per word, each
     striking a vertex's row from the later words under [nw > k]
     tests, which are the same all through a call; a taken vertex's
     bit is cleared from the uncoloured word at once.
   - [colour_wide], for any stride, keeps both in one scratch block:
     the uncoloured words at [0, nw) and the colourable words at
     [nw, 2 nw), filled from [p] by the loop that counts [p]. The
     class's vertices leave an uncoloured word once per word, through
     the [taken] mask.

   Every access of the kernels is unchecked, and in range because of
   [greedy_colour]'s guard:
   - [words.(w)], [scratch.(w)] and [scratch.(nw + w)]: [w < nw], and
     [words] has exactly [nw] words (so [n] counts every bit the loops
     visit); [scratch] has [2 nw];
   - [scratch.(lo)]: while [idx < n], a vertex is still uncoloured, and
     the words below [lo] are empty, so [lo] stops below [nw];
   - [data.(v * nw + w')]: [v] is a bit of [p], below its capacity
     (no bit at or above it in the last word; the earlier words lie
     wholly below it), which is the matrix's row count, and [w' < nw],
     so the index is below [rows * nw], the length of [data];
   - [out.(idx)]: each vertex is written once, so [idx < n];
   - [bit_index.(bit_slot b)]: [bit_slot] is six bits, the table 64. *)
let colour_narrow words data nw =
  let u0 = ref (Array.unsafe_get words 0)
  and u1 = ref (if nw > 1 then Array.unsafe_get words 1 else 0)
  and u2 = ref (if nw > 2 then Array.unsafe_get words 2 else 0)
  and u3 = ref (if nw > 3 then Array.unsafe_get words 3 else 0) in
  let n = popcount !u0 + popcount !u1 + popcount !u2 + popcount !u3 in
  let out = Array.make n 0 in
  let idx = ref 0 and colour = ref 0 in
  while !idx < n do
    incr colour;
    let q1 = ref !u1 and q2 = ref !u2 and q3 = ref !u3 in
    let x = ref !u0 in
    while !x <> 0 do
      let b = !x land - !x in
      let v = Array.unsafe_get bit_index (bit_slot b) in
      let base = v * nw in
      Array.unsafe_set out !idx (colour_entry ~vertex:v ~colour:!colour);
      incr idx;
      u0 := !u0 lxor b;
      x := !x land (!x - 1) land lnot (Array.unsafe_get data base);
      if nw > 1 then q1 := !q1 land lnot (Array.unsafe_get data (base + 1));
      if nw > 2 then q2 := !q2 land lnot (Array.unsafe_get data (base + 2));
      if nw > 3 then q3 := !q3 land lnot (Array.unsafe_get data (base + 3))
    done;
    let x = ref !q1 in
    while !x <> 0 do
      let b = !x land - !x in
      let v = bits_per_word + Array.unsafe_get bit_index (bit_slot b) in
      let base = v * nw in
      Array.unsafe_set out !idx (colour_entry ~vertex:v ~colour:!colour);
      incr idx;
      u1 := !u1 lxor b;
      x := !x land (!x - 1) land lnot (Array.unsafe_get data (base + 1));
      if nw > 2 then q2 := !q2 land lnot (Array.unsafe_get data (base + 2));
      if nw > 3 then q3 := !q3 land lnot (Array.unsafe_get data (base + 3))
    done;
    let x = ref !q2 in
    while !x <> 0 do
      let b = !x land - !x in
      let v = (2 * bits_per_word) + Array.unsafe_get bit_index (bit_slot b) in
      let base = v * nw in
      Array.unsafe_set out !idx (colour_entry ~vertex:v ~colour:!colour);
      incr idx;
      u2 := !u2 lxor b;
      x := !x land (!x - 1) land lnot (Array.unsafe_get data (base + 2));
      if nw > 3 then q3 := !q3 land lnot (Array.unsafe_get data (base + 3))
    done;
    let x = ref !q3 in
    while !x <> 0 do
      let b = !x land - !x in
      let v = (3 * bits_per_word) + Array.unsafe_get bit_index (bit_slot b) in
      Array.unsafe_set out !idx (colour_entry ~vertex:v ~colour:!colour);
      incr idx;
      u3 := !u3 lxor b;
      x := !x land (!x - 1) land lnot (Array.unsafe_get data ((v * nw) + 3))
    done
  done;
  out

let colour_wide words data nw =
  let scratch = Array.make (2 * nw) 0 in
  let n = ref 0 in
  for w = 0 to nw - 1 do
    let x = Array.unsafe_get words w in
    Array.unsafe_set scratch w x;
    n := !n + popcount x
  done;
  let n = !n in
  let out = Array.make n 0 in
  let lo = ref 0 and idx = ref 0 and colour = ref 0 in
  while !idx < n do
    while Array.unsafe_get scratch !lo = 0 do
      incr lo
    done;
    incr colour;
    for w = !lo to nw - 1 do
      Array.unsafe_set scratch (nw + w) (Array.unsafe_get scratch w)
    done;
    for w = !lo to nw - 1 do
      let x = ref (Array.unsafe_get scratch (nw + w)) and taken = ref 0 in
      while !x <> 0 do
        let b = !x land - !x in
        let v = (w * bits_per_word) + Array.unsafe_get bit_index (bit_slot b) in
        let base = v * nw in
        taken := !taken lor b;
        Array.unsafe_set out !idx (colour_entry ~vertex:v ~colour:!colour);
        incr idx;
        x := !x land (!x - 1) land lnot (Array.unsafe_get data (base + w));
        for w' = w + 1 to nw - 1 do
          Array.unsafe_set scratch (nw + w')
            (Array.unsafe_get scratch (nw + w') land lnot (Array.unsafe_get data (base + w')))
        done
      done;
      Array.unsafe_set scratch w (Array.unsafe_get scratch w land lnot !taken)
    done
  done;
  out

let greedy_colour p ~(adj : Matrix.t) =
  if adj.rows <> p.capacity || adj.capacity <> p.capacity then
    invalid_arg "Bitset: capacity mismatch";
  if p.capacity < 0 || p.capacity > max_colour_capacity then
    invalid_arg "Bitset.greedy_colour: capacity beyond the colouring's packing";
  let nw = adj.stride in
  if Array.length p.words <> nw
     || (not (well_formed p))
     || Array.length adj.data <> adj.rows * nw
  then invalid_arg "Bitset.greedy_colour: malformed set or matrix";
  if nw <= 4 then colour_narrow p.words adj.data nw else colour_wide p.words adj.data nw

let pp ppf s =
  Format.fprintf ppf "{%s}" (String.concat ", " (List.map string_of_int (elements s)))
