type field = {
  name : string;
  key : string;
  help : string;
  read : unit -> float option;
}

let int ?key name help f =
  let key = Option.value key ~default:name in
  { name; key; help; read = (fun () -> Some (float_of_int (f ()))) }

let float name help f =
  { name; key = name; help; read = (fun () -> Some (f ())) }

let incumbent name help f =
  let read () =
    let b = f () in
    if b > min_int then Some (float_of_int b) else None
  in
  { name; key = name; help; read }

(* Neither JSON nor the gauges carry infinities: an unbounded
   confidence limit or an unknown ETA renders as the -1 sentinel. *)
let finite v = if Float.is_finite v then v else -1.

let progress_fields =
  let open Progress in
  [
    ("nodes", "Nodes processed so far", fun r -> float_of_int r.r_nodes);
    ("est_total", "Estimated total tree size (nodes)", fun r -> r.r_total);
    ("est_lo", "Lower confidence bound on est_total", fun r -> r.r_lo);
    ("est_hi", "Upper confidence bound (-1 unbounded)", fun r -> r.r_hi);
    ( "completed_fraction", "Estimated completed fraction of the search",
      fun r -> r.r_fraction );
    ("rate", "Smoothed node-processing rate (nodes/sec)", fun r -> r.r_rate);
    ( "eta_seconds", "Estimated seconds to completion (-1 unknown)",
      fun r -> r.r_eta );
  ]

let start ~port ~runtime ~started ?progress ?(extra = fun () -> []) fields =
  let uptime () = Unix.gettimeofday () -. started in
  let metrics () =
    let registry = Metrics.create () in
    let gauge prefix name help v =
      Metrics.set (Metrics.gauge registry ~help (prefix ^ name)) (finite v)
    in
    List.iter
      (fun f -> Option.iter (gauge "yewpar_live_" f.name f.help) (f.read ()))
      fields;
    gauge "yewpar_live_" "uptime_seconds" "Seconds since the run started"
      (uptime ());
    Option.iter
      (fun report ->
        let r = report () in
        List.iter
          (fun (name, help, v) -> gauge "yewpar_progress_" name help (v r))
          progress_fields)
      progress;
    Metrics.to_prometheus registry
  in
  let status () =
    let open Analyze in
    let num v = Num (finite v) in
    let progress =
      match progress with
      | None -> []
      | Some report ->
        let r = report () in
        [
          ( "progress",
            Obj
              (List.map (fun (name, _, v) -> (name, num (v r))) progress_fields
              @ [ ("exact", Bool r.Progress.r_exact) ]) );
        ]
    in
    let field f =
      (f.key, match f.read () with Some v -> num v | None -> Null)
    in
    to_string
      (Obj
         ([
            ("schema_version", Num 1.);
            ("runtime", Str runtime);
            ("uptime", num (uptime ()));
          ]
         @ List.map field fields @ extra () @ progress))
  in
  Http_export.start ~port
    ~routes:
      [
        ("/metrics", fun () -> ("text/plain; version=0.0.4", metrics ()));
        ("/status", fun () -> ("application/json", status ()));
      ]
    ()
