module Table = Yewpar_util.Table

(* ------------------------- minimal JSON -------------------------- *)

(* Just enough JSON for the formats we produce ourselves (journal
   lines, bench records, the job server's API bodies): objects, arrays, strings, numbers,
   literals. \uXXXX escapes decode to UTF-8, pairing surrogates, so
   non-ASCII worker labels survive a round trip through an exporter
   that escapes them. *)
type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "json: %s at offset %d" msg !pos) in
  let peek () = if !pos < n then s.[!pos] else fail "unexpected end" in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    advance ()
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad hex digit in \\u escape"
    in
    let v =
      (digit s.[!pos] lsl 12)
      lor (digit s.[!pos + 1] lsl 8)
      lor (digit s.[!pos + 2] lsl 4)
      lor digit s.[!pos + 3]
    in
    pos := !pos + 4;
    v
  in
  (* One \uXXXX escape (the 'u' already consumed), possibly the high
     half of a surrogate pair; emits UTF-8. A lone or mismatched
     surrogate becomes U+FFFD, like every lenient JSON decoder. *)
  let parse_unicode_escape b =
    let add u = Buffer.add_utf_8_uchar b (Uchar.of_int u) in
    let u = hex4 () in
    if u >= 0xD800 && u <= 0xDBFF then
      if !pos + 6 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
        pos := !pos + 2;
        let lo = hex4 () in
        if lo >= 0xDC00 && lo <= 0xDFFF then
          add (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
        else begin
          (* High half followed by a non-low escape: replace the
             orphan, keep the second escape's character. *)
          add 0xFFFD;
          if lo >= 0xD800 && lo <= 0xDFFF then add 0xFFFD else add lo
        end
      end
      else add 0xFFFD
    else if u >= 0xDC00 && u <= 0xDFFF then add 0xFFFD
    else add u
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | 'u' ->
          advance ();
          parse_unicode_escape b
        | c ->
          advance ();
          Buffer.add_char b
            (match c with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c));
        loop ()
      | c ->
        advance ();
        Buffer.add_char b c;
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            members ((k, v) :: acc)
          | '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "bad object"
        in
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            elements (v :: acc)
          | ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "bad array"
        in
        elements []
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        advance ()
      done;
      if !pos = start then fail "junk";
      Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let num_or d = function Some (Num f) -> f | _ -> d
let str_or d = function Some (Str s) -> s | _ -> d

let to_string json =
  let buf = Buffer.create 256 in
  let add_escaped s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
    | Str s -> add_escaped s
    | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped k;
          Buffer.add_char buf ':';
          go v)
        kvs;
      Buffer.add_char buf '}'
  in
  go json;
  Buffer.contents buf

(* ---------------------------- helpers ---------------------------- *)

let percentile p sorted =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

(* ------------------------- bench compare ------------------------- *)

type bench = { schema_version : int; records : (string * float) list }

let record_key r =
  Printf.sprintf "%s/%s/%s/%s/%dx%d"
    (str_or "?" (member "experiment" r))
    (str_or "?" (member "problem" r))
    (str_or "?" (member "skeleton" r))
    (str_or "?" (member "runtime" r))
    (int_of_float (num_or 0. (member "localities" r)))
    (int_of_float (num_or 0. (member "workers" r)))

let load_bench content =
  let json = parse_json content in
  let schema_version, records =
    match json with
    | Arr records -> (0, records)
    | Obj _ -> (
      match (member "schema_version" json, member "records" json) with
      | Some (Num v), Some (Arr records) -> (int_of_float v, records)
      | _ -> failwith "bench json: expected schema_version and records")
    | _ -> failwith "bench json: expected an object or array"
  in
  (* Seed sweeps repeat a key; average them so the comparison is
     per-configuration. *)
  let sums = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun r ->
      let key = record_key r in
      let elapsed = num_or nan (member "elapsed" r) in
      if not (Float.is_nan elapsed) then
        match Hashtbl.find_opt sums key with
        | Some (total, count) -> Hashtbl.replace sums key (total +. elapsed, count + 1)
        | None ->
          Hashtbl.add sums key (elapsed, 1);
          order := key :: !order)
    records;
  let records =
    List.rev_map
      (fun key ->
        let total, count = Hashtbl.find sums key in
        (key, total /. float_of_int count))
      !order
  in
  { schema_version; records }

type verdict = {
  regressions : (string * float * float * float) list;
  report : string;
}

let compare_bench ~threshold_pct ~old_ ~new_ =
  let old_tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace old_tbl k v) old_.records;
  let new_tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace new_tbl k v) new_.records;
  let joined =
    List.filter_map
      (fun (k, old_e) ->
        match Hashtbl.find_opt new_tbl k with
        | Some new_e ->
          let delta =
            if old_e > 0. then 100. *. ((new_e /. old_e) -. 1.) else 0.
          in
          Some (k, old_e, new_e, delta)
        | None -> None)
      old_.records
  in
  let only_old =
    List.filter (fun (k, _) -> not (Hashtbl.mem new_tbl k)) old_.records
  in
  let only_new =
    List.filter (fun (k, _) -> not (Hashtbl.mem old_tbl k)) new_.records
  in
  let regressions =
    List.filter (fun (_, _, _, d) -> d > threshold_pct) joined
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)
  in
  let buf = Buffer.create 1024 in
  if old_.schema_version <> new_.schema_version then
    Buffer.add_string buf
      (Printf.sprintf "note: schema versions differ (old %d, new %d)\n\n"
         old_.schema_version new_.schema_version);
  Buffer.add_string buf
    (Table.render
       ~header:[ "benchmark"; "old (s)"; "new (s)"; "delta %" ]
       (List.map
          (fun (k, o, ne, d) ->
            [ (k ^ if d > threshold_pct then " !" else "");
              Printf.sprintf "%.6f" o; Printf.sprintf "%.6f" ne;
              Printf.sprintf "%+.2f" d ])
          (List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) joined)));
  Buffer.add_char buf '\n';
  List.iter
    (fun (k, _) ->
      Buffer.add_string buf (Printf.sprintf "missing in new: %s\n" k))
    only_old;
  List.iter
    (fun (k, _) -> Buffer.add_string buf (Printf.sprintf "new benchmark: %s\n" k))
    only_new;
  Buffer.add_string buf
    (Printf.sprintf
       "%d/%d compared benchmarks regressed beyond +%.1f%% (%d removed, %d \
        added)\n"
       (List.length regressions) (List.length joined) threshold_pct
       (List.length only_old) (List.length only_new));
  { regressions; report = Buffer.contents buf }
