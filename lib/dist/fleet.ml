let fork n child =
  (* A locality death must surface as Transport.Closed, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Children inherit the channel buffers and flush them when their
     domains exit; empty the buffers now so output is printed once. *)
  flush stdout;
  flush stderr;
  let pairs =
    Array.init n (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let pids =
    Array.init n (fun i ->
        match Unix.fork () with
        | 0 ->
          (* Child: keep only our own socket end. Exit with _exit so the
             parent's buffered output is not re-flushed, and nonzero
             whenever the parent vanished first. *)
          let code =
            try
              Array.iteri
                (fun j (parent_fd, child_fd) ->
                  Unix.close parent_fd;
                  if j <> i then Unix.close child_fd)
                pairs;
              (* Ctrl-C hits the whole foreground process group; the
                 parent turns it into an orderly shutdown instead of
                 having children die mid-frame. *)
              Sys.set_signal Sys.sigint Sys.Signal_ignore;
              let conn = Transport.create (snd pairs.(i)) in
              child i conn;
              Transport.close conn;
              0
            with _ -> 1
          in
          Unix._exit code
        | pid -> pid)
  in
  Array.iter (fun (_, child_fd) -> Unix.close child_fd) pairs;
  Array.mapi (fun i pid -> (pid, Transport.create (fst pairs.(i)))) pids

let reap pid =
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end
      else begin
        ignore (Unix.select [] [] [] 0.01);
        go ()
      end
    | _, _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()
