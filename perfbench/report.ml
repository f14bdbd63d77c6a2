(* Operation accounting and metric output.

   Every checked operation (a timed search call, a served job, an
   oracle) is one attempt; a wrong answer, an exception, a job that
   does not end [done] or a non-2xx reply is one failure, printed as
   it happens. Metrics are printed by name with their unit as they are
   added, and the last line of standard output is the JSON summary. *)

type metric = { name : string; unit_ : string; value : float }

type t = {
  mu : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : metric list;  (** Newest first. *)
}

let create () = { mu = Mutex.create (); attempted = 0; failed = 0; metrics = [] }
let note fmt = Printf.ksprintf (fun s -> print_endline s) fmt

let fail t what msg =
  Mutex.protect t.mu (fun () ->
      t.failed <- t.failed + 1;
      Printf.printf "FAIL %s: %s\n%!" what msg)

let attempt t = Mutex.protect t.mu (fun () -> t.attempted <- t.attempted + 1)

(* Run one checked operation: [f] returns [Some reason] on a wrong
   answer; that, or an exception, is a failure. Only a passing
   operation returns its value, so a failed one never contributes a
   measurement. *)
let checked t what f =
  attempt t;
  match f () with
  | v, None -> Some v
  | _, Some reason ->
    fail t what reason;
    None
  | exception e ->
    fail t what (Printexc.to_string e);
    None

let fail_ratio t =
  Mutex.protect t.mu (fun () ->
      if t.attempted = 0 then 0.
      else float_of_int t.failed /. float_of_int t.attempted)

(* Record a metric and print it; [why] names what it should move. Only
   the metrics {!summary} selects enter the JSON line. *)
let add t ?(why = "") name unit_ value =
  (* JSON has no NaN: a metric that could not be computed (no passing
     call to summarise) is reported as 0 and counted as a failure. *)
  let value =
    if Float.is_finite value then value
    else begin
      fail t name "not measured (no passing samples)";
      0.
    end
  in
  Mutex.protect t.mu (fun () -> t.metrics <- { name; unit_; value } :: t.metrics);
  if why = "" then Printf.printf "metric %-34s %16.6g %s\n%!" name value unit_
  else Printf.printf "metric %-34s %16.6g %-6s  %s\n%!" name value unit_ why

let find t name = List.find_opt (fun m -> m.name = name) t.metrics

(* The summary line: [keys] selects (in order) which recorded metrics
   enter it; a key never recorded is an error of the benchmark. *)
let summary t ~keys =
  let missing = List.filter (fun k -> find t k = None) keys in
  List.iter (fun k -> fail t "summary" ("metric not measured: " ^ k)) missing;
  let fields =
    List.filter_map
      (fun k ->
        Option.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name
              m.value m.unit_)
          (find t k))
      keys
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0) (max 1 t.attempted) t.failed (String.concat ", " fields)
