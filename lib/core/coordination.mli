(** Search coordination methods and their parameters (paper §4.2).

    A skeleton is a coordination plus a search type; the coordination
    decides when subtrees become tasks:

    - [Sequential]: no spawning — plain depth-first search.
    - [Depth_bounded]: every node above [dcutoff] spawns its children as
      tasks ([spawn-depth]); eager, cheap, but starves on narrow trees.
    - [Stack_stealing]: split on demand when an idle worker asks
      ([spawn-stack]); [chunked] steals all lowest-depth children at
      once instead of one.
    - [Budget]: a task that backtracks [budget] times without finishing
      sheds all its lowest-depth subtrees and resets ([spawn-budget]).

    Two extension coordinations implement the additions the paper names
    when discussing extensibility (§4: "best-first search or random
    task creation"):

    - [Best_first]: spawns like Depth-Bounded but workpools release the
      task with the best optimistic bound first;
    - [Random_spawn]: a running task sheds its first lowest-depth
      subtree with probability [1/mean_interval] after each backtrack —
      the simplest fully-decentralised work generator.

    And the replicable skeleton the paper cites (§2.1, [4]):

    - [Ordered]: spawns like Depth-Bounded, but every node carries its
      position and prunes only with incumbents from its left
      ({!Ordered_core}), so the witness is the leftmost optimum —
      Sequential's — on every run. Optimisation problems only, and
      only on the in-process runtimes. *)

type t =
  | Sequential
  | Depth_bounded of { dcutoff : int }
  | Stack_stealing of { chunked : bool }
  | Budget of { budget : int }
  | Best_first of { dcutoff : int }
  | Random_spawn of { mean_interval : int }
  | Ordered of { dcutoff : int }

val to_string : t -> string
(** Short human-readable rendering, e.g. ["depthbounded[d=2]"]. This
    bracket form is display text, not CLI syntax ({!of_string} does not
    parse it). It is also the [skeleton] field that keys the [figure4]
    records of [BENCH_baseline.json], so changing it breaks the
    baseline comparison. *)

val of_string : string -> (t, string) result
(** Parse CLI syntax: ["seq"], ["depthbounded:D"], ["stacksteal"],
    ["stacksteal:chunked"], ["budget:B"], ["bestfirst:D"],
    ["randomspawn:N"], ["ordered:D"] (bare ["depthbounded"],
    ["bestfirst"] and ["ordered"] mean [D = 2]). *)
