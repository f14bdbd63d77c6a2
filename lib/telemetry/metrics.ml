type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  bounds : float array;  (* strictly increasing upper bounds, no +Inf *)
  counts : int array;  (* per-bucket (not cumulative); length bounds + 1 *)
  mutable sum : float;
  mutable count : int;
}

type value = Counter of counter | Gauge of gauge | Histogram of histogram
type metric = { name : string; help : string; value : value }
type t = { mutable metrics : metric list (* newest first *) }

let create () = { metrics = [] }

let find t name = List.find_opt (fun m -> m.name = name) t.metrics

let register t name help value =
  t.metrics <- { name; help; value } :: t.metrics;
  value

let counter t ?(help = "") name =
  match find t name with
  | Some { value = Counter c; _ } -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None -> (
    match register t name help (Counter { c = 0 }) with
    | Counter c -> c
    | _ -> assert false)

let gauge t ?(help = "") name =
  match find t name with
  | Some { value = Gauge g; _ } -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")
  | None -> (
    match register t name help (Gauge { g = 0. }) with
    | Gauge g -> g
    | _ -> assert false)

let buckets_125 ~lo ~hi =
  if lo <= 0. || hi < lo then invalid_arg "Metrics.buckets_125";
  let eps = 1e-9 in
  let value e i =
    let m = match i with 0 -> 1. | 1 -> 2. | _ -> 5. in
    m *. (10. ** e)
  in
  let next e i = if i = 2 then (e +. 1., 0) else (e, i + 1) in
  (* Walk up from below [lo] so the series starts at the largest grid
     value <= lo (5*10^(E-1) <= 10^E <= lo is a safe floor). *)
  let rec start e i =
    let e', i' = next e i in
    if value e' i' <= lo *. (1. +. eps) then start e' i' else (e, i)
  in
  let e0, i0 = start (Float.floor (Float.log10 lo +. eps) -. 1.) 2 in
  let rec go e i acc =
    let v = value e i in
    if v >= hi *. (1. -. eps) then List.rev (v :: acc)
    else
      let e', i' = next e i in
      go e' i' (v :: acc)
  in
  go e0 i0 []

let buckets_pow2 ~hi =
  if hi < 1 then invalid_arg "Metrics.buckets_pow2";
  let rec gen v acc = if v >= hi then List.rev (v :: acc) else gen (2 * v) (v :: acc) in
  List.map float_of_int (gen 1 [])

let default_buckets () = buckets_125 ~lo:1e-6 ~hi:10.

let histogram t ?(help = "") ?buckets name =
  match find t name with
  | Some { value = Histogram h; _ } -> h
  | Some _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")
  | None ->
    let bounds =
      Array.of_list (match buckets with Some b -> b | None -> default_buckets ())
    in
    Array.iteri
      (fun i b ->
        if i > 0 && b <= bounds.(i - 1) then
          invalid_arg "Metrics.histogram: buckets must be strictly increasing")
      bounds;
    let h =
      { bounds; counts = Array.make (Array.length bounds + 1) 0; sum = 0.; count = 0 }
    in
    (match register t name help (Histogram h) with
    | Histogram h -> h
    | _ -> assert false)

let inc ?(by = 1) c = c.c <- c.c + by
let set g v = g.g <- v

let observe h v =
  let n = Array.length h.bounds in
  let rec slot i = if i >= n || v <= h.bounds.(i) then i else slot (i + 1) in
  h.counts.(slot 0) <- h.counts.(slot 0) + 1;
  h.sum <- h.sum +. v;
  h.count <- h.count + 1

let histogram_count h = h.count
let histogram_sum h = h.sum

let histogram_buckets h =
  let acc = ref 0 in
  let finite =
    Array.to_list
      (Array.mapi
         (fun i b ->
           acc := !acc + h.counts.(i);
           (b, !acc))
         h.bounds)
  in
  finite @ [ (infinity, h.count) ]

(* Prometheus renders numbers as Go does; %.12g round-trips every value
   we produce while avoiding 0.30000000000000004 noise. *)
let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let flabel v = if v = infinity then "+Inf" else fnum v

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let header name help typ =
    if help <> "" then
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ)
  in
  List.iter
    (fun m ->
      match m.value with
      | Counter c ->
        header m.name m.help "counter";
        Buffer.add_string buf (Printf.sprintf "%s %d\n" m.name c.c)
      | Gauge g ->
        header m.name m.help "gauge";
        Buffer.add_string buf (Printf.sprintf "%s %s\n" m.name (fnum g.g))
      | Histogram h ->
        header m.name m.help "histogram";
        List.iter
          (fun (le, cum) ->
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" m.name (flabel le) cum))
          (histogram_buckets h);
        Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" m.name (fnum h.sum));
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" m.name h.count))
    (List.rev t.metrics);
  Buffer.contents buf
