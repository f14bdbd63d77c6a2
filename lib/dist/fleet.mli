(** Locality processes: forking them over socket pairs and reaping
    them, shared by {!Dist} and the job server.

    OCaml 5 cannot fork once a domain has been spawned, so callers fork
    every process they will ever need before starting any domain. *)

val fork : int -> (int -> Transport.t -> unit) -> (int * Transport.t) array
(** [fork n child] forks [n] processes, each connected to the caller by
    a Unix-domain socket pair, and returns each child's pid with the
    caller's end. Child [i] closes every other descriptor of the pairs,
    ignores SIGINT (the parent orchestrates ^C), runs [child i conn] on
    its end, and exits with [_exit] 0 — or 1 if [child] raised (e.g. the
    parent vanished). Before forking, SIGPIPE is ignored in the caller
    (a dead child surfaces as {!Transport.Closed}) and stdout/stderr are
    flushed so no buffered output is printed twice. *)

val reap : int -> unit
(** [reap pid] waits up to 2 s for the child to exit, then SIGKILLs and
    collects it, so no child outlives its parent. Tolerates a child
    already collected. *)
