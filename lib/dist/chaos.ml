module Splitmix = Yewpar_util.Splitmix

type fault =
  | Kill_locality of { locality : int; after : float }
  | Kill_at_lease of { locality : int; lease : int }
  | Drop_frame of { frame : string; prob : float }
  | Delay of { seconds : float }

type t = fault list

let float_of_suffixed s suffix =
  let s =
    if String.length s >= String.length suffix
       && String.sub s (String.length s - String.length suffix)
            (String.length suffix)
          = suffix
    then String.sub s 0 (String.length s - String.length suffix)
    else s
  in
  float_of_string_opt s

(* The frames a locality acts on when they arrive, the only ones a drop
   can affect: drops apply to inbound frames only, and a locality
   never receives the frames it sends ([task], [idle], [report], ...).
   [shutdown] is accepted but never dropped (see [should_drop]). *)
let droppable = [ "steal_reply"; "steal_request"; "bound_update"; "ping"; "shutdown" ]

let parse_one spec =
  match String.split_on_char ':' (String.trim spec) with
  | [ "kill-locality"; rest ] -> (
    match String.split_on_char '@' rest with
    | [ id; at ] -> (
      match (int_of_string_opt id, float_of_suffixed at "s") with
      | Some locality, Some after when locality >= 0 && after >= 0. ->
        Ok (Kill_locality { locality; after })
      | _ -> Error (Printf.sprintf "chaos: bad kill-locality spec %S" spec))
    | _ ->
      Error
        (Printf.sprintf "chaos: kill-locality wants ID@TIMEs, got %S" spec))
  | [ "kill-locality"; rest; n ] -> (
    match (String.split_on_char '@' rest, int_of_string_opt n) with
    | [ id; "leases" ], Some lease -> (
      match int_of_string_opt id with
      | Some locality when locality >= 0 && lease >= 1 ->
        Ok (Kill_at_lease { locality; lease })
      | _ -> Error (Printf.sprintf "chaos: bad kill-locality spec %S" spec))
    | _ ->
      Error
        (Printf.sprintf "chaos: kill-locality wants ID@leases:N, got %S" spec))
  | [ "drop-frame"; frame; prob ] -> (
    let frame = String.lowercase_ascii frame in
    if not (List.mem frame droppable) then
      Error
        (Printf.sprintf "chaos: drop-frame wants one of %s, got %S"
           (String.concat ", " droppable) frame)
    else
      match float_of_string_opt prob with
      | Some p when p >= 0. && p <= 1. -> Ok (Drop_frame { frame; prob = p })
      | _ -> Error (Printf.sprintf "chaos: bad drop-frame probability %S" prob))
  | [ "delay"; d ] -> (
    match float_of_suffixed d "ms" with
    | Some ms when ms >= 0. -> Ok (Delay { seconds = ms /. 1000. })
    | _ -> Error (Printf.sprintf "chaos: bad delay %S (want Nms)" d))
  | _ -> Error (Printf.sprintf "chaos: unknown fault %S" spec)

let parse s =
  let specs =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if specs = [] then Error "chaos: empty spec"
  else
    List.fold_left
      (fun acc spec ->
        match (acc, parse_one spec) with
        | Error _, _ -> acc
        | _, (Error _ as e) -> e
        | Ok fs, Ok f -> Ok (f :: fs))
      (Ok []) specs
    |> Result.map List.rev

(* The lowercase constructor name used by [drop-frame] specs. *)
let frame_name : Wire.msg -> string = function
  | Task _ -> "task"
  | Steal_request -> "steal_request"
  | Steal_reply _ -> "steal_reply"
  | Bound_update _ -> "bound_update"
  | Witness _ -> "witness"
  | Idle _ -> "idle"
  | Ping -> "ping"
  | Pong -> "pong"
  | Heartbeat _ -> "heartbeat"
  | Report _ -> "report"
  | Failed _ -> "failed"
  | Shutdown -> "shutdown"
  | Job_start _ -> "job_start"
  | Quit -> "quit"

type plan = {
  kill_after : float option;
  kill_at_lease : int option;
  drops : (string * float) list;
  delay : float;
  rng : Splitmix.gen;
}

let plan faults ~seed ~locality =
  (* The earliest of this locality's kills of one kind, if any. *)
  let earliest pick =
    List.fold_left
      (fun acc f ->
        match (pick f, acc) with
        | Some x, Some a -> Some (min x a)
        | (Some _ as x), None -> x
        | None, _ -> acc)
      None faults
  in
  let kill_after =
    earliest (function
      | Kill_locality { locality = l; after } when l = locality -> Some after
      | _ -> None)
  in
  let kill_at_lease =
    earliest (function
      | Kill_at_lease { locality = l; lease } when l = locality -> Some lease
      | _ -> None)
  in
  let drops =
    List.filter_map
      (function Drop_frame { frame; prob } -> Some (frame, prob) | _ -> None)
      faults
  in
  let delay =
    List.fold_left
      (fun acc -> function Delay { seconds } -> acc +. seconds | _ -> acc)
      0. faults
  in
  if kill_after = None && kill_at_lease = None && drops = [] && delay = 0.
  then None
  else
    (* Per-locality stream so localities under the same seed make
       independent drop decisions. *)
    let rng = Splitmix.of_seed (seed lxor ((locality + 1) * 0x9e3779b9)) in
    Some { kill_after; kill_at_lease; drops; delay; rng }

let should_drop p msg =
  match msg with
  (* Dropping job-control frames would only hang the harness. *)
  | Wire.Shutdown | Wire.Job_start _ | Wire.Quit -> false
  | _ ->
    let name = frame_name msg in
    List.exists
      (fun (frame, prob) -> frame = name && Splitmix.float p.rng < prob)
      p.drops

let describe faults =
  String.concat ", "
    (List.map
       (function
         | Kill_locality { locality; after } ->
           Printf.sprintf "kill-locality:%d@%gs" locality after
         | Kill_at_lease { locality; lease } ->
           Printf.sprintf "kill-locality:%d@leases:%d" locality lease
         | Drop_frame { frame; prob } ->
           Printf.sprintf "drop-frame:%s:%g" frame prob
         | Delay { seconds } -> Printf.sprintf "delay:%gms" (seconds *. 1000.))
       faults)
