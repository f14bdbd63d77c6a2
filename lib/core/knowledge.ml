type 'node t = {
  best_obj : unit -> int;
  best_node : unit -> 'node option;
  submit : 'node -> int -> bool;
}

let make_ref () =
  let obj = ref min_int in
  let node = ref None in
  {
    best_obj = (fun () -> !obj);
    best_node = (fun () -> !node);
    submit =
      (fun n v ->
        if v > !obj then begin
          obj := v;
          node := Some n;
          true
        end
        else false);
  }

let make_atomic () =
  let cell = Atomic.make (min_int, None) in
  let rec submit n v =
    let ((cur, _) as old) = Atomic.get cell in
    if v <= cur then false
    else if Atomic.compare_and_set cell old (v, Some n) then true
    else submit n v
  in
  {
    best_obj = (fun () -> fst (Atomic.get cell));
    best_node = (fun () -> snd (Atomic.get cell));
    submit;
  }

let best k =
  match k.best_node () with Some n -> Some (k.best_obj (), n) | None -> None
