module Vec = Yewpar_util.Vec
module IntMap = Map.Make (Int)

type policy = Depth | Priority | Fifo

type 'a t = {
  policy : policy;
  buckets : 'a Queue.t Vec.t;  (* Depth/Fifo: index = depth (0 for Fifo) *)
  mutable prio : 'a Queue.t IntMap.t;  (* Priority: keyed by priority *)
  mutable count : int;
  mutable deepest : int;  (* upper bound on the deepest non-empty bucket *)
  mutable shallowest : int;  (* lower bound on the shallowest non-empty bucket *)
}

let create ?(policy = Depth) () =
  { policy; buckets = Vec.create (); prio = IntMap.empty; count = 0;
    deepest = -1; shallowest = 0 }

let size p = p.count
let is_empty p = p.count = 0

let bucket p depth =
  while Vec.length p.buckets <= depth do
    Vec.push p.buckets (Queue.create ())
  done;
  Vec.get p.buckets depth

let push p ~depth ?(priority = 0) x =
  if depth < 0 then invalid_arg "Workpool.push: negative depth";
  (match p.policy with
  | Priority ->
    let q =
      match IntMap.find_opt priority p.prio with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        p.prio <- IntMap.add priority q p.prio;
        q
    in
    Queue.push x q
  | Depth | Fifo ->
    let depth = if p.policy = Fifo then 0 else depth in
    Queue.push x (bucket p depth);
    if depth > p.deepest then p.deepest <- depth;
    if depth < p.shallowest then p.shallowest <- depth);
  p.count <- p.count + 1

let pop_priority p =
  (* Highest priority first; empty buckets are pruned as found. *)
  let rec go () =
    match IntMap.max_binding_opt p.prio with
    | None -> None
    | Some (key, q) -> (
      match Queue.take_opt q with
      | Some x ->
        p.count <- p.count - 1;
        Some x
      | None ->
        p.prio <- IntMap.remove key p.prio;
        go ())
  in
  go ()

let pop_local p =
  if p.count = 0 then None
  else
    match p.policy with
    | Priority -> pop_priority p
    | Depth | Fifo ->
      (* Scan down from the deepest known bucket; the bound only ever
         moves with pops, so the scan is amortised constant. *)
      let rec go d =
        if d < 0 then None
        else
          match Queue.take_opt (Vec.get p.buckets d) with
          | Some x ->
            p.deepest <- d;
            p.count <- p.count - 1;
            Some x
          | None -> go (d - 1)
      in
      go (min p.deepest (Vec.length p.buckets - 1))

let pop_steal p =
  if p.count = 0 then None
  else
    match p.policy with
    | Priority -> pop_priority p
    | Depth | Fifo ->
      let n = Vec.length p.buckets in
      let rec go d =
        if d >= n then None
        else
          match Queue.take_opt (Vec.get p.buckets d) with
          | Some x ->
            p.shallowest <- d;
            p.count <- p.count - 1;
            Some x
          | None -> go (d + 1)
      in
      go (max 0 p.shallowest)
