type t =
  | Sequential
  | Depth_bounded of { dcutoff : int }
  | Stack_stealing of { chunked : bool }
  | Budget of { budget : int }
  | Best_first of { dcutoff : int }
  | Random_spawn of { mean_interval : int }
  | Ordered of { dcutoff : int }

let to_string = function
  | Sequential -> "seq"
  | Depth_bounded { dcutoff } -> Printf.sprintf "depthbounded[d=%d]" dcutoff
  | Stack_stealing { chunked } ->
    if chunked then "stacksteal[chunked]" else "stacksteal"
  | Budget { budget } -> Printf.sprintf "budget[b=%d]" budget
  | Best_first { dcutoff } -> Printf.sprintf "bestfirst[d=%d]" dcutoff
  | Random_spawn { mean_interval } -> Printf.sprintf "randomspawn[n=%d]" mean_interval
  | Ordered { dcutoff } -> Printf.sprintf "ordered[d=%d]" dcutoff

(* A depth cutoff parameter: a non-negative integer. *)
let cutoff d make =
  match int_of_string_opt d with
  | Some d when d >= 0 -> Ok (make d)
  | _ -> Error (Printf.sprintf "invalid depth cutoff %S" d)

let of_string s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "seq" ] | [ "sequential" ] -> Ok Sequential
  | [ "depthbounded"; d ] | [ "depth-bounded"; d ] ->
    cutoff d (fun dcutoff -> Depth_bounded { dcutoff })
  | [ "depthbounded" ] | [ "depth-bounded" ] -> Ok (Depth_bounded { dcutoff = 2 })
  | [ "stacksteal" ] | [ "stack-stealing" ] -> Ok (Stack_stealing { chunked = false })
  | [ "stacksteal"; "chunked" ] | [ "stack-stealing"; "chunked" ] ->
    Ok (Stack_stealing { chunked = true })
  | [ "budget"; b ] -> (
    match int_of_string_opt b with
    | Some b when b > 0 -> Ok (Budget { budget = b })
    | _ -> Error (Printf.sprintf "invalid budget %S" b))
  | [ "budget" ] -> Ok (Budget { budget = 10_000 })
  | [ "bestfirst"; d ] | [ "best-first"; d ] ->
    cutoff d (fun dcutoff -> Best_first { dcutoff })
  | [ "bestfirst" ] | [ "best-first" ] -> Ok (Best_first { dcutoff = 2 })
  | [ "randomspawn"; n ] | [ "random-spawn"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 -> Ok (Random_spawn { mean_interval = n })
    | _ -> Error (Printf.sprintf "invalid spawn interval %S" n))
  | [ "randomspawn" ] | [ "random-spawn" ] -> Ok (Random_spawn { mean_interval = 64 })
  | [ "ordered"; d ] -> cutoff d (fun dcutoff -> Ordered { dcutoff })
  | [ "ordered" ] -> Ok (Ordered { dcutoff = 2 })
  | _ -> Error (Printf.sprintf "unknown skeleton %S" s)
