let rec path_compare a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a', y :: b' -> if x <> y then compare x y else path_compare a' b'

type 'n entry = { e_path : int list; e_value : int; e_node : 'n }

let left_best entries path =
  List.fold_left
    (fun acc e -> if path_compare e.e_path path < 0 then max acc e.e_value else acc)
    min_int entries

let select entries =
  List.fold_left
    (fun acc e ->
      match acc with
      | None -> Some e
      | Some b ->
        if e.e_value > b.e_value
           || (e.e_value = b.e_value && path_compare e.e_path b.e_path < 0)
        then Some e
        else Some b)
    None entries
  |> Option.map (fun e -> e.e_node)

type 'n positioned = { path : int list; node : 'n }

let lift ~dcutoff (obj : 'n Problem.objective) (p : ('s, 'n, _) Problem.t) :
    ('s, 'n positioned, 'n positioned) Problem.t =
  let children space { path; node } =
    let kids = p.Problem.children space node in
    if List.length path < dcutoff then
      Seq.mapi (fun i c -> { path = path @ [ i ]; node = c }) kids
    else
      (* Below the cutoff every node shares its task's path physically,
         which is what lets a view cache its floor per task. *)
      Seq.map (fun c -> { path; node = c }) kids
  in
  {
    Problem.name = p.Problem.name;
    space = p.Problem.space;
    root = { path = []; node = p.Problem.root };
    children;
    kind =
      Problem.Optimise
        {
          Problem.value = (fun c -> obj.Problem.value c.node);
          bound = Option.map (fun b c -> b c.node) obj.Problem.bound;
          monotone = obj.Problem.monotone;
        };
    codec = None;
  }

let harness (obj : 'n Problem.objective) : ('n positioned, 'n) Ops.harness =
  let mutex = Mutex.create () in
  let log = ref [] in
  let view (k : 'n positioned Knowledge.t) =
    (* The task this view last saw (by physical path; a fresh list
       matches none) and its floor: the best entry strictly left of the
       task when first seen, raised by the task's own improvements. *)
    let task = ref [ -1 ] in
    let floor = ref min_int in
    let sync path =
      if path != !task then begin
        task := path;
        floor := Mutex.protect mutex (fun () -> left_best !log path)
      end
    in
    let keep =
      Option.map
        (fun bound c ->
          sync c.path;
          bound c.node > !floor)
        obj.Problem.bound
    in
    let process c =
      sync c.path;
      let v = obj.Problem.value c.node in
      if v > !floor then begin
        floor := v;
        Mutex.protect mutex (fun () ->
            log := { e_path = c.path; e_value = v; e_node = c.node } :: !log);
        ignore (k.Knowledge.submit c v)
      end;
      true
    in
    {
      Ops.process;
      keep;
      prune_siblings = obj.Problem.monotone && obj.Problem.bound <> None;
      priority = (fun _ -> 0);
    }
  in
  let result _ =
    match select (Mutex.protect mutex (fun () -> !log)) with
    | Some n -> n
    | None -> failwith "Ordered_core: optimisation finished without processing the root"
  in
  { Ops.view; result }
