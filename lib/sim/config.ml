type topology = {
  localities : int;
  workers_per_locality : int;
}

let topology ~localities ~workers =
  if localities <= 0 || workers <= 0 then
    invalid_arg "Config.topology: non-positive size";
  { localities; workers_per_locality = workers }

let n_workers t = t.localities * t.workers_per_locality

type costs = {
  node_cost : float;
  task_overhead : float;
  spawn_cost : float;
  steal_local_latency : float;
  steal_remote_latency : float;
  bound_broadcast_latency : float;
  batch : int;
  fifo_pool : bool;
}

let default =
  {
    node_cost = 1e-6;
    task_overhead = 4e-6;
    spawn_cost = 1e-6;
    steal_local_latency = 5e-6;
    steal_remote_latency = 1e-4;
    bound_broadcast_latency = 5e-5;
    batch = 64;
    fifo_pool = false;
  }

let openmp_like =
  {
    default with
    task_overhead = 5e-7;
    spawn_cost = 2e-7;
    steal_local_latency = 1e-6;
    steal_remote_latency = 1e-6;
  }
