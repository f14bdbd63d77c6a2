type 'node t = {
  best : int Atomic.t;
  best_node : unit -> (int * 'node) option;
  submit : 'node -> int -> bool;
}

let[@inline] best_obj k = Atomic.get k.best

let rec raise_to word v =
  let cur = Atomic.get word in
  if v > cur && not (Atomic.compare_and_set word cur v) then raise_to word v

let adopt_floor k v = raise_to k.best v

let make_atomic () =
  let best = Atomic.make min_int in
  let cell = Atomic.make None in
  let rec submit n v =
    match Atomic.get cell with
    | Some (cur, _) when v <= cur -> false
    | old ->
      if Atomic.compare_and_set cell old (Some (v, n)) then begin
        raise_to best v;
        true
      end
      else submit n v
  in
  { best; best_node = (fun () -> Atomic.get cell); submit }
