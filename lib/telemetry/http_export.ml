type t = {
  bound : int;
  wake : Unix.file_descr;  (* the write end of the accept loop's self-pipe *)
  server : unit Domain.t;
  mutable stopped : bool;
}

type request = {
  meth : string;
  path : string;
  query : string;
  body : string;
}

type response = { status : int; content_type : string; body : string }

(* Bodies bigger than this are a client error, not a request. *)
let max_body = 4 * 1024 * 1024
let crlf = "\r\n"

let status_text = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 202 -> "Accepted"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 409 -> "Conflict"
  | 413 -> "Payload Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

(* Every response — errors included — carries Content-Length and
   Connection: close, so HTTP/1.0 clients never hang waiting for more
   of a 400. *)
let render { status; content_type; body } =
  Printf.sprintf
    "HTTP/1.0 %d %s%sContent-Type: %s%sContent-Length: %d%sConnection: \
     close%s%s%s"
    status (status_text status) crlf content_type crlf (String.length body)
    crlf crlf crlf body

let text status body = { status; content_type = "text/plain"; body }

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  try
    while !off < n do
      off := !off + Unix.write fd b !off (n - !off)
    done
  with Unix.Unix_error _ -> ()

(* Index pair (end of headers, start of body), accepting both CRLF and
   bare-LF blank lines so hand-written test clients work too. *)
let header_split s =
  let n = String.length s in
  let rec go i =
    if i >= n then None
    else if s.[i] = '\n' then
      if i + 1 < n && s.[i + 1] = '\n' then Some (i, i + 2)
      else if i + 2 < n && s.[i + 1] = '\r' && s.[i + 2] = '\n' then
        Some (i, i + 3)
      else go (i + 1)
    else go (i + 1)
  in
  go 0

let content_length header_lines =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.trim (String.sub line 0 i))
             = "content-length" -> (
        let v = String.sub line (i + 1) (String.length line - i - 1) in
        match int_of_string_opt (String.trim v) with
        | Some n -> Some n
        | None -> acc)
      | _ -> acc)
    None header_lines

(* Read a whole request: headers, then exactly Content-Length body
   bytes. None means the client hung up, stalled past the deadline,
   sent garbage, or claimed an oversized body — all of which the
   dispatcher answers with a 400. *)
let read_request fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let read_more () =
    if Unix.gettimeofday () > deadline || Buffer.length buf > max_body + 16384
    then false
    else
      match Unix.select [ fd ] [] [] 0.5 with
      | [], _, _ -> true
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> false
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
        | exception Unix.Unix_error _ -> false)
  in
  let rec headers () =
    let s = Buffer.contents buf in
    match header_split s with
    | Some (head_end, body_start) ->
      Some (String.sub s 0 head_end, body_start)
    | None -> if read_more () then headers () else None
  in
  match headers () with
  | None -> None
  | Some (head, body_start) -> (
    match String.split_on_char '\n' head |> List.map String.trim with
    | [] -> None
    | request_line :: header_lines -> (
      match
        String.split_on_char ' ' request_line
        |> List.filter (fun s -> s <> "")
      with
      | [ meth; target; _version ] ->
        let want = Option.value ~default:0 (content_length header_lines) in
        if want < 0 || want > max_body then None
        else
          let rec body () =
            if Buffer.length buf - body_start >= want then
              Some (String.sub (Buffer.contents buf) body_start want)
            else if read_more () then body ()
            else None
          in
          Option.map
            (fun body ->
              let path, query =
                match String.index_opt target '?' with
                | Some i ->
                  ( String.sub target 0 i,
                    String.sub target (i + 1) (String.length target - i - 1)
                  )
                | None -> (target, "")
              in
              { meth = String.uppercase_ascii meth; path; query; body })
            (body ())
      | _ -> None))

let dispatch ~routes ~handler req =
  match req with
  | None -> text 400 "bad request\n"
  | Some req -> (
    let routed =
      if req.meth = "GET" then List.assoc_opt req.path routes else None
    in
    match routed with
    | Some h -> (
      match h () with
      | content_type, body -> { status = 200; content_type; body }
      | exception e -> text 500 (Printexc.to_string e ^ "\n"))
    | None -> (
      match handler with
      | Some h -> (
        try h req with e -> text 500 (Printexc.to_string e ^ "\n"))
      | None ->
        if req.meth = "GET" then text 404 "not found\n"
        else text 405 "GET only\n"))

let handle ~routes ~handler fd =
  write_all fd (render (dispatch ~routes ~handler (read_request fd)))

(* The accept loop sleeps in [select] until a client connects or
   {!stop} writes to the self-pipe [woken]. *)
let serve sock woken routes handler () =
  let rec loop () =
    match Unix.select [ sock; woken ] [] [] (-1.) with
    | ready, _, _ when List.mem woken ready -> ()
    | _ ->
      (match Unix.accept sock with
      | client, _ ->
        (try handle ~routes ~handler client with _ -> ());
        (try Unix.close client with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ());
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ sock; woken ]

let start ?(port = 0) ?(routes = []) ?handler () =
  (* A vanished client must surface as EPIPE on write, not kill us. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen sock 16
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let bound =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let woken, wake = Unix.pipe ~cloexec:true () in
  let server = Domain.spawn (serve sock woken routes handler) in
  { bound; wake; server; stopped = false }

let port t = t.bound

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    ignore (Unix.write_substring t.wake "x" 0 1 : int);
    Domain.join t.server;
    Unix.close t.wake
  end

(* One-shot HTTP/1.0 exchange: send the payload, read to EOF. *)
let raw ~timeout ~port payload =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      (try Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
       with Unix.Unix_error (e, _, _) ->
         failwith
           (Printf.sprintf "Http_export: connect: %s" (Unix.error_message e)));
      write_all sock payload;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let deadline = Unix.gettimeofday () +. timeout in
      let rec drain () =
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then failwith "Http_export: timeout"
        else
          match Unix.select [ sock ] [] [] left with
          | [], _, _ -> failwith "Http_export: timeout"
          | _ -> (
            match Unix.read sock chunk 0 (Bytes.length chunk) with
            | 0 -> Buffer.contents buf
            | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ())
      in
      drain ())

let get ?(timeout = 5.0) ~port path =
  raw ~timeout ~port
    (Printf.sprintf "GET %s HTTP/1.0%sHost: localhost%s%s" path crlf crlf crlf)

let request ?(timeout = 5.0) ?(meth = "GET") ?(body = "") ~port path =
  let payload =
    Printf.sprintf
      "%s %s HTTP/1.0%sHost: localhost%sContent-Length: %d%s%s%s" meth path
      crlf crlf (String.length body) crlf crlf body
  in
  let resp = raw ~timeout ~port payload in
  let first_line =
    match String.index_opt resp '\n' with
    | Some i -> String.sub resp 0 i
    | None -> resp
  in
  let status =
    match
      String.split_on_char ' ' (String.trim first_line)
      |> List.filter (fun s -> s <> "")
    with
    | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
    | _ -> 0
  in
  let body =
    match header_split resp with
    | Some (_, b) -> String.sub resp b (String.length resp - b)
    | None -> ""
  in
  (status, body)
