(* One flat int array, one row of [stride] counters per depth: the four
   profile columns (nodes, pruned, spawned, bound updates), then the
   three progress columns (expansions completed, kept children, sum of
   kept²; integer, so a note never converts to float). A note is one
   switch test, one bounds check against [rows] and its stores; growth
   is out of line, and the extents are found by scanning for the last
   non-zero row only when something reads them. Single-writer; merged
   after the parallel join. *)
type t = {
  on : bool;  (* the pruned, spawned and bound columns *)
  progress : bool;  (* the three progress columns *)
  any : bool;  (* [on || progress]: the nodes column, which both read *)
  mutable last : int;
      (* depth of the last noted node, where [note_bound] books an
         improvement; written only when a switch is on, so [null] is
         never written *)
  mutable rows : int array;
}

let stride = 7
let nodes = 0
let pruned = 1
let spawned = 2
let bounds = 3
let completed = 4
let kept = 5
let kept_sq = 6
let first_rows = 16

let create ?(profiled = true) ?(progress = true) () =
  let any = profiled || progress in
  { on = profiled; progress; any; last = 0;
    rows = (if any then Array.make (stride * first_rows) 0 else [||]) }

let null = { on = false; progress = false; any = false; last = 0; rows = [||] }

let[@inline never] grow t d =
  let have = Array.length t.rows / stride in
  let b = Array.make (stride * max (d + 1) (max first_rows (2 * have))) 0 in
  Array.blit t.rows 0 b 0 (Array.length t.rows);
  t.rows <- b

let[@inline] bump a i n = Array.unsafe_set a i (Array.unsafe_get a i + n)

(* A note's fast path is a leaf: a row beyond [rows] is grown and
   noted by an out-of-line tail call, so the fast path spills nothing
   and needs no stack frame. Every unsafe access is within a row the
   test before it found in [rows]. *)
let[@inline never] grow_bump t d col =
  grow t d;
  bump t.rows ((stride * d) + col) 1

let[@inline] note_col t d col =
  let a = t.rows and i = stride * d in
  if i < Array.length a then bump a (i + col) 1 else grow_bump t d col

let[@inline] add_completion a i k =
  bump a (i + completed) 1;
  bump a (i + kept) k;
  bump a (i + kept_sq) (k * k)

let[@inline never] grow_complete t d k =
  grow t d;
  add_completion t.rows (stride * d) k

let[@inline] note_node t d =
  if t.any && d >= 0 then begin
    t.last <- d;
    note_col t d nodes
  end

let[@inline] note_complete t d k =
  if t.progress && d >= 0 then begin
    let a = t.rows and i = stride * d in
    if i < Array.length a then add_completion a i k else grow_complete t d k
  end

let[@inline] note_prune t d = if t.on && d >= 0 then note_col t d pruned
let note_spawn t d = if t.on && d >= 0 then note_col t d spawned
let note_bound t = if t.on then note_col t t.last bounds

(* 1 + the last row of [a] with a non-zero column among [cols]. *)
let extent a cols =
  let rec go d =
    if d < 0 then 0
    else if List.exists (fun c -> a.((stride * d) + c) <> 0) cols then d + 1
    else go (d - 1)
  in
  go ((Array.length a / stride) - 1)

let depths t = extent t.rows [ nodes; pruned; spawned; bounds ]

(* The pruned, spawned and bound columns are left out so the progress
   view's extent does not depend on profiling. *)
let progress_depths t =
  if t.progress then extent t.rows [ nodes; completed ] else 0

let row t d =
  let a = t.rows and i = stride * d in
  if d < 0 || i >= Array.length a then (0, 0, 0, 0)
  else (a.(i + nodes), a.(i + pruned), a.(i + spawned), a.(i + bounds))

let totals t =
  let a = t.rows and n = ref 0 and p = ref 0 and s = ref 0 and b = ref 0 in
  for d = 0 to (Array.length a / stride) - 1 do
    let i = stride * d in
    n := !n + a.(i + nodes);
    p := !p + a.(i + pruned);
    s := !s + a.(i + spawned);
    b := !b + a.(i + bounds)
  done;
  (!n, !p, !s, !b)

let is_empty t = totals t = (0, 0, 0, 0)

(* A profile that records anything takes the four profile columns of
   what it merges (so a progress-only one keeps the nodes column whole);
   the progress columns only when its own progress view is on. *)
let merge acc s =
  let b = s.rows in
  let n = extent b (List.init stride Fun.id) in
  if acc.any && n > 0 then begin
    if stride * n > Array.length acc.rows then grow acc (n - 1);
    let a = acc.rows and cols = if acc.progress then stride else completed in
    for d = 0 to n - 1 do
      for c = 0 to cols - 1 do
        let i = (stride * d) + c in
        a.(i) <- a.(i) + b.(i)
      done
    done
  end

let copy t = { t with rows = Array.copy t.rows }

(* Racy cross-domain snapshot of one progress row: [rows] is read once
   and the row bounds-checked against that array, so a concurrent
   growth can at worst hide the newest rows. *)
let progress_row t d =
  let a = t.rows and i = stride * d in
  if d < 0 || i >= Array.length a then (0, 0, 0, 0.)
  else
    ( a.(i + nodes), a.(i + completed), a.(i + kept),
      float_of_int a.(i + kept_sq) )

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "depth,nodes,pruned,spawned,bound_updates\n";
  for d = 0 to depths t - 1 do
    let n, p, s, b = row t d in
    Buffer.add_string buf (Printf.sprintf "%d,%d,%d,%d,%d\n" d n p s b)
  done;
  Buffer.contents buf

let pp ppf t =
  let line label (n, p, s, b) =
    label :: List.map string_of_int [ n; p; s; b ]
  in
  let rows = List.init (depths t) (fun d -> line (string_of_int d) (row t d)) in
  Format.pp_print_string ppf
    (Yewpar_util.Table.render
       ~header:[ "depth"; "nodes"; "pruned"; "spawned"; "bounds" ]
       (rows @ [ line "total" (totals t) ]))
