(** Per-depth search profile.

    Buckets the four per-node events of a search — nodes processed,
    subtrees pruned, tasks spawned and incumbent improvements applied —
    by global tree depth, so a run's shape is inspectable after the
    fact: where the tree was widest, where pruning bit, where the
    parallel coordinations actually spawned. Collected by the
    sequential, shared-memory and distributed runtimes whenever
    statistics are requested, and carried inside {!Stats.t} (so
    distributed localities ship their profiles in the same frame as
    their counters and {!Stats.add} aggregates them).

    A profile is one flat [int array] holding a row of seven counters
    per depth: nodes, pruned, spawned, bound updates, then the
    progress columns — expansions completed, kept children, and the
    sum of kept² (integer, so a note never converts to float). {!create}
    allocates the first sixteen rows when a switch is on; a deeper row
    doubles the array, out of line. A note costs one switch test, one
    bounds check against the array and its stores, and {!note_node},
    {!note_prune} and {!note_complete} are inlined into their callers
    (in the release build, which does not compile with [-opaque]), so
    only the growth is a call. No extent is kept,
    so {!depths} and {!progress_depths} scan for the last non-zero
    row when they are read (by {!merge}, progress sampling and the
    CSV and table renderers). Recording is single-writer (one profile
    per worker, merged after the join); a disabled profile ({!null},
    an empty array) reduces every note to its switch test and is
    never written. *)

type t

val create : ?profiled:bool -> ?progress:bool -> unit -> t
(** A fresh all-zero profile. [profiled] (default true) enables the
    pruned, spawned and bound-update columns; [progress] (default true)
    independently enables the progress columns feeding the tree-size
    estimator ({!Progress}): expansions completed and kept children
    credited per depth. The [nodes] column, which both views read, is
    kept when either is on. Either may be switched off alone
    (profiling without progress for overhead A/B runs, progress without
    profiling when statistics were not requested). *)

val null : t
(** The disabled profile: never records, merges as empty. *)

val note_node : t -> int -> unit
(** [note_node t d] counts one node processed at depth [d] in the
    [nodes] column (one row bump, whichever views are on), and makes
    [d] the depth {!note_bound} books at. *)

val note_complete : t -> int -> int -> unit
(** [note_complete t d kept] records that the expansion of one depth-[d]
    node finished, having committed [kept] children to the search (kept
    = passed the keep/bound filter and either recursed into or spawned;
    pruned siblings are excluded). These per-depth completed/children
    tallies are the raw material of the {!Progress} estimator. *)

val note_prune : t -> int -> unit
(** One subtree discarded by the bound check, rooted at depth [d]. *)

val note_spawn : t -> int -> unit
(** One task spawned whose root sits at depth [d]. *)

val note_bound : t -> unit
(** One incumbent improvement applied while processing the last node
    noted by {!note_node} (depth 0 if none was). An improvement is
    only found while a node is processed, and that node is always the
    last one its profile noted, so no caller tracks a depth. *)

val depths : t -> int
(** Number of rows in use (1 + deepest depth recorded); 0 when
    nothing was recorded. *)

val row : t -> int -> int * int * int * int
(** [row t d] is [(nodes, pruned, spawned, bound_updates)] at depth
    [d] (all zero beyond {!depths}). *)

val totals : t -> int * int * int * int
(** Column sums over every depth — by construction equal to the
    [nodes]/[pruned]/[tasks]/[bound_updates] counters of the run's
    {!Stats.t} (the test suite enforces this). *)

val merge : t -> t -> unit
(** [merge acc s] adds [s]'s rows into [acc] (row-wise sums): the four
    profile columns when [acc] records anything, the progress columns
    when [acc]'s progress view is on. [s] must not be recording
    (merge after the join). Merging into {!null} is a no-op. *)

val copy : t -> t
(** An independent snapshot. *)

val progress_depths : t -> int
(** Progress rows in use (1 + deepest depth with a node or a
    completion); 0 when progress is disabled or nothing was recorded. *)

val progress_row : t -> int -> int * int * int * float
(** [progress_row t d] is [(nodes, completed, children, children_sq)]
    at depth [d]: the [nodes] column's row and the progress columns'
    (all zero beyond {!progress_depths}). Safe to call
    from another domain while the owner records: reads are
    bounds-checked against the one array actually observed, so a
    racing growth at worst hides the newest rows. *)

val is_empty : t -> bool
(** No event was ever recorded. *)

val to_csv : t -> string
(** [depth,nodes,pruned,spawned,bound_updates] rows, one per depth in
    use, with a header line. *)

val pp : Format.formatter -> t -> unit
(** Column-aligned table of the same rows plus a totals line. *)
