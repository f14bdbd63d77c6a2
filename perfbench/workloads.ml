(* The four workloads, each generated from the seed argument, with the
   reason each was chosen. A machine with two cores runs every search
   on at most two worker domains. *)

module Coordination = Yewpar_core.Coordination

type search = {
  coordination : Coordination.t;  (** How the 2-worker calls split work. *)
  inputs : int -> Inputs.pending list;  (** Instances drawn from a seed. *)
}

type kind = Search of search | Serve

type t = { name : string; why : string; kind : kind }

(* enum-steal: cheap nodes (~100-170 ns) and an exact node count, so
   Engine, Worker, the Two_tier steal sweep and Counters/Progress do
   most of the work and any time change is an overhead change.
   Knowledge, Wire and Server do no work here. Queens is fixed; the
   geometric UTS tree (about 0.84M nodes, within a few percent across
   seeds, like queens-12's 0.86M) is drawn from the seed. Calls of
   ~0.1 s leave enough samples per run for a tail. *)
let enum_steal =
  {
    name = "enum-steal";
    why =
      "cheap nodes with exact counts: engine, worker, steal sweep and \
       progress counters dominate; knowledge, wire and server idle";
    kind =
      Search
        {
          coordination = Coordination.Stack_stealing { chunked = false };
          inputs =
            (fun seed ->
              [ Inputs.queens 12;
                Inputs.uts ~seed:(Inputs.derive seed 1) ~b0:16. ~decay:0.7 ]);
        };
  }

(* bnb-spawn: the same scheduler layer used the other way round. A
   small budget pushes tens of thousands of tiny tasks through
   enqueue/take, deque spills go to the overflow tier instead of being
   stolen, and every [keep] reads the incumbent. Subset-sum is the
   class whose bound almost never closes, so its tree (and node
   count) barely depends on timing. Each instance is the closest of ten
   drawn from the seed to 250k nodes (sizes at n = 21 range over
   0.13-0.5M by seed). *)
let bnb_spawn =
  {
    name = "bnb-spawn";
    why =
      "optimisation with a small budget: thousands of tiny tasks through \
       enqueue/take and overflow spills, incumbent read on every keep";
    kind =
      Search
        {
          coordination = Coordination.Budget { budget = 100 };
          inputs =
            (fun seed ->
              List.init 4 (fun slot ->
                  Inputs.calibrated ~target:250_000 ~candidates:10 (fun k ->
                      Inputs.knapsack
                        ~seed:(Inputs.derive seed ((100 * k) + 10 + slot))
                        ~n:21)));
        };
  }

(* clique: a node costs microseconds of colouring and bitset work, so
   the app generator dominates and the scheduler's share is small; a
   scheduler change should leave it unchanged, a generator change
   should show. MaxClique runs Mc.Specialised against
   Sequential.search (Table 1); the 2-worker calls run the
   unsatisfiable k-clique decision, whose tree is deterministic.
   Each graph is the closest of six drawn from the seed to 18k
   k-clique nodes (6-34k by seed otherwise). *)
let clique =
  {
    name = "clique";
    why =
      "expensive nodes (colouring, bitsets): the app generator dominates; \
       Table 1 specialised vs skeleton; scheduler share small";
    kind =
      Search
        {
          coordination = Coordination.Depth_bounded { dcutoff = 2 };
          inputs =
            (fun seed ->
              List.init 3 (fun slot ->
                  Inputs.clique_pair ~seed:(Inputs.derive seed (20 + slot))
                    ~candidates:6 ~target:18_000 ~n:150 ~p:0.7 ~k:18));
        };
  }

(* serve: a closed loop of short jobs, so the HTTP front end, the job
   queue, Coordinator, Wire and Codec dominate; the only workload that
   crosses process boundaries (see Serve). *)
let serve =
  {
    name = "serve";
    why =
      "closed loop of short served jobs over a 2-locality fleet: HTTP, \
       job queue, coordinator, wire and codec dominate";
    kind = Serve;
  }

let all = [ enum_steal; bnb_spawn; clique; serve ]
let find name = List.find_opt (fun w -> w.name = name) all
