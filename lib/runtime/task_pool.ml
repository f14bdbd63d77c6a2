module Workpool = Yewpar_core.Workpool
module Coordination = Yewpar_core.Coordination

type 'n task = { tag : int; node : 'n; depth : int }

let policy_for = function
  | Coordination.Best_first _ -> Workpool.Priority
  | Coordination.Ordered _ -> Workpool.Fifo
  | Coordination.Sequential | Coordination.Depth_bounded _
  | Coordination.Stack_stealing _ | Coordination.Budget _
  | Coordination.Random_spawn _ ->
    Workpool.Depth
