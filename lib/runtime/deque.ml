(* Bounded Chase-Lev work-stealing deque on OCaml 5 atomics.

   The owner pushes and pops at the bottom without locks; thieves
   CAS the top. OCaml's atomics are sequentially consistent, which is
   strictly stronger than the acquire/release fences of the original
   algorithm, so the classic correctness argument carries over:

   - a thief reads [top] before [bottom], so by monotonicity of [top]
     a stale [bottom] can never make it target the slot the owner is
     taking in the uncontended pop path;
   - the only contended slot is the last element, resolved by the CAS
     on [top] (owner and thief race, exactly one wins);
   - a stale buffer read after a wrap-around is always discarded,
     because overwriting slot [i] requires [top > i], which makes the
     thief's CAS from [i] fail.

   The buffer is fixed-size on purpose: overflow is not this module's
   problem. A full [push] returns [false] and the caller migrates work
   to the overflow tier (the ordered pool in [Two_tier]), which is where
   order-preserving spill semantics live. *)

type 'a t = {
  top : int Atomic.t;  (* next slot to steal; only ever increases *)
  bottom : int Atomic.t;  (* next slot to push; owner-written *)
  buf : 'a option array;  (* capacity is a power of two *)
  mask : int;
}

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Deque.create: capacity must be >= 1";
  let cap = ref 1 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  {
    top = Atomic.make 0;
    bottom = Atomic.make 0;
    buf = Array.make !cap None;
    mask = !cap - 1;
  }

let capacity t = Array.length t.buf

(* Racy but monotonic enough for telemetry and hunger probes: both
   reads are atomic, the difference may be momentarily stale. *)
let size t =
  let b = Atomic.get t.bottom in
  let tp = Atomic.get t.top in
  if b > tp then b - tp else 0

let is_empty t = size t = 0

let push t x =
  let b = Atomic.get t.bottom in
  let tp = Atomic.get t.top in
  if b - tp >= Array.length t.buf then false
  else begin
    t.buf.(b land t.mask) <- Some x;
    (* Publish: the SC store orders the slot write before any thief
       that observes the new bottom. *)
    Atomic.set t.bottom (b + 1);
    true
  end

let pop t =
  let b = Atomic.get t.bottom - 1 in
  Atomic.set t.bottom b;
  let tp = Atomic.get t.top in
  if tp > b then begin
    (* Empty: restore the canonical empty shape (bottom = top). *)
    Atomic.set t.bottom tp;
    None
  end
  else begin
    let x = t.buf.(b land t.mask) in
    if tp < b then begin
      (* At least one element remains below: no thief can reach slot
         [b] while [bottom = b], so the owner may clear it. *)
      t.buf.(b land t.mask) <- None;
      x
    end
    else if Atomic.compare_and_set t.top tp (tp + 1) then begin
      (* Last element: we beat any thief to it. *)
      Atomic.set t.bottom (tp + 1);
      x
    end
    else begin
      (* Last element: a thief took it first. *)
      Atomic.set t.bottom (tp + 1);
      None
    end
  end

let steal t =
  let tp = Atomic.get t.top in
  let b = Atomic.get t.bottom in
  if tp >= b then None
  else begin
    let x = t.buf.(tp land t.mask) in
    if Atomic.compare_and_set t.top tp (tp + 1) then x else None
  end
