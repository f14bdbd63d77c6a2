(** Minimal HTTP/1.0 endpoint for live run monitoring and the job
    server.

    A tiny single-purpose server bound to [127.0.0.1], serving from a
    dedicated domain so a running search can be scraped — or a search
    job submitted — while it executes:

    - [routes] — [GET]-only [(path, handler)] pairs where the handler
      returns [(content_type, body)]: the [--monitor-port] endpoints
      ([GET /metrics], [GET /status]);
    - [handler] — a catch-all for everything the routes don't match,
      receiving the parsed {!request} (method, path, query,
      [Content-Length]-delimited body) and returning a {!response}
      with a numeric status: the [yewpar serve] job API
      ([POST /jobs], [DELETE /jobs/:id], ...).

    The server closes the connection after each response (HTTP/1.0
    semantics) and stamps {e every} response — errors included — with
    [Content-Length] and [Connection: close], which keeps it
    compatible with [curl], Prometheus and browsers alike without
    pulling in an HTTP library. Handlers run on the server's domain,
    concurrently with the search: they must be prepared to read shared
    state that other domains are mutating, and should treat what they
    see as a best-effort snapshot.

    Unparsable requests (bad request line, oversized or truncated
    body, stalled client) get a 400; without a catch-all [handler],
    unknown [GET] paths get a 404 and non-[GET] methods a 405; a
    handler that raises turns into a 500 rather than killing the
    server. *)

type t

type request = {
  meth : string;  (** Request method, uppercased: [GET], [POST], ... *)
  path : string;  (** Request path with any query string stripped. *)
  query : string;  (** The query string after [?], or [""]. *)
  body : string;  (** Exactly [Content-Length] bytes ([""] if none). *)
}

type response = { status : int; content_type : string; body : string }

val start :
  ?port:int ->
  ?routes:(string * (unit -> string * string)) list ->
  ?handler:(request -> response) ->
  unit ->
  t
(** [start ~port ~routes ~handler ()] binds [127.0.0.1:port] (default
    and [0]: an ephemeral port, see {!port}) and dispatches each
    request: exact-path [GET] routes first, then the catch-all
    [handler].
    @raise Unix.Unix_error if the port is taken. *)

val port : t -> int
(** The actually-bound port (useful with [~port:0]). *)

val stop : t -> unit
(** Wake the accept loop at once (through a self-pipe in its
    [select]), close the socket and join the server domain; a request
    being handled is finished first. Idempotent. *)

val raw : timeout:float -> port:int -> string -> string
(** [raw ~timeout ~port payload] sends [payload] verbatim over a fresh
    connection and returns the whole raw response (status line, headers
    and body) — how the malformed-request tests reach the 400 path.
    @raise Failure on timeout or connection errors. *)

val get : ?timeout:float -> port:int -> string -> string
(** A one-shot blocking [GET] client for tests and tooling:
    [get ~port path] connects to [127.0.0.1:port], sends the request
    and returns the whole raw response (headers and body).
    @raise Failure on timeout (default 5s) or connection errors. *)

val request :
  ?timeout:float ->
  ?meth:string ->
  ?body:string ->
  port:int ->
  string ->
  int * string
(** A one-shot blocking client that parses the response:
    [request ~meth ~body ~port path] sends [body] with a
    [Content-Length] header (default [meth] [GET], empty body) and
    returns [(status, response_body)].
    @raise Failure on timeout (default 5s) or connection errors. *)
