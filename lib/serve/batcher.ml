open Tilelink_machine
module Chaos = Tilelink_core.Chaos
module Runtime = Tilelink_core.Runtime
module Attention = Tilelink_workloads.Attention
module Attention_baselines = Tilelink_baselines.Attention_baselines

type entry = {
  e_req : Trace_gen.request;
  mutable e_kv : int;
  mutable e_remaining : int;
  mutable e_first_us : float option;
}

(* What a cached step cost prices: the simulated overlapped tile
   program, or the serialized comm-then-compute baseline. *)
type cost_kind = Simulated | Serialized

type t = {
  machine : Spec.t;
  topology : Topology.t option;
  mutable world : int;
  head_dim : int;
  kv_capacity : int;
  mutable running : entry list;  (** newest first *)
  costs : (cost_kind * int * int * int, float) Hashtbl.t;
      (** (kind, world, batch_q, kv_q) -> step cost µs *)
}

let tile = 8
let config = { Attention.q_tile = tile; kv_tile = tile }

let create ?topology ~machine ~world_size ~head_dim ~kv_capacity () =
  if world_size < 2 then invalid_arg "Batcher.create: world_size must be >= 2";
  if head_dim < 1 then invalid_arg "Batcher.create: head_dim must be >= 1";
  if kv_capacity < 1 then invalid_arg "Batcher.create: kv_capacity must be >= 1";
  {
    machine;
    topology;
    world = world_size;
    head_dim;
    kv_capacity;
    running = [];
    costs = Hashtbl.create 32;
  }

let world t = t.world
let topology t = t.topology
let running t = List.rev t.running
let batch_size t = List.length t.running
let kv_used t = List.fold_left (fun acc e -> acc + e.e_kv) 0 t.running

let fits t r = kv_used t + r.Trace_gen.rq_prompt <= t.kv_capacity

let admit t r =
  if not (fits t r) then invalid_arg "Batcher.admit: KV residency exceeded";
  t.running <-
    { e_req = r; e_kv = r.Trace_gen.rq_prompt; e_remaining = r.Trace_gen.rq_decode;
      e_first_us = None }
    :: t.running

let evict t r =
  t.running <-
    List.filter (fun e -> e.e_req.Trace_gen.rq_id <> r.Trace_gen.rq_id) t.running

(* Quantize a batch to a simulation signature: batch to the next power
   of two, KV length to the tile lattice (seq mod (world * kv_tile) = 0
   with seq/world >= kv_tile, i.e. at least one KV tile per rank) —
   the divisibility invariants Attention.program enforces. *)
let pow2_ceil n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let quantize t ~batch ~max_kv =
  let lattice = t.world * tile in
  let kv_q = ((max max_kv 1 + lattice - 1) / lattice) * lattice in
  (pow2_ceil (max batch 1), max lattice kv_q)

let spec_of t ~batch_q ~kv_q =
  {
    Attention.batch_heads = batch_q;
    seq = kv_q;
    head_dim = t.head_dim;
    world_size = t.world;
    causal = false;
  }

let max_kv t = List.fold_left (fun acc e -> max acc e.e_kv) 0 t.running

(* Every step cost is a pure function of its kind and signature at the
   current world, so each is computed once per serve.  The world is in
   the key because a crash step shrinks it. *)
let memo t kind ~batch_q ~kv_q compute =
  let key = (kind, t.world, batch_q, kv_q) in
  match Hashtbl.find_opt t.costs key with
  | Some c -> c
  | None ->
    let c = compute (spec_of t ~batch_q ~kv_q) in
    Hashtbl.replace t.costs key c;
    c

(* Overlapped step cost: the makespan of the simulated tile program
   (timing only — no tensor data). *)
let overlapped_cost t ~batch_q ~kv_q =
  memo t Simulated ~batch_q ~kv_q (fun spec ->
      let program = Attention.program ~config spec ~spec_gpu:t.machine in
      let cluster =
        Cluster.create ?topology:t.topology t.machine ~world_size:t.world
      in
      (Runtime.run cluster program).Runtime.makespan)

(* Serialized step cost: the ring AllGather then the compute kernel —
   the Nonoverlap tier's charge and the crash step's fallback. *)
let serialized_cost t ~batch_q ~kv_q =
  memo t Serialized ~batch_q ~kv_q (Attention_baselines.torch_time t.machine)

let est_step_us t ~tier ~extra =
  let batch_q, kv_q =
    quantize t ~batch:(batch_size t + extra) ~max_kv:(max_kv t)
  in
  match (tier : Degrade.tier) with
  | Overlapped | Shrunk ->
    (* Ideal overlap: the longer of the two phases hides the other. *)
    let spec = spec_of t ~batch_q ~kv_q in
    Float.max
      (Attention.flash_only_time t.machine spec ~config)
      (Attention.comm_only_time t.machine spec)
  | Nonoverlap -> serialized_cost t ~batch_q ~kv_q

type crash_config = { ck_seed : int; ck_ranks : int }

type outcome = {
  o_cost_us : float;
  o_faulted : bool;
  o_fell_back : bool;
  o_failed_over : int;
  o_replayed_tiles : int;
  o_retries : int;
  o_completed : entry list;
}

(* The fault harness's watchdog scaling: poll well inside the ideal
   makespan, suspect lost signals at 2x, declare structural stalls at
   8x, bounded retries with backoff. *)
let scaled_watchdog ~ideal =
  {
    Chaos.poll_interval_us = Float.max 1.0 (ideal /. 50.0);
    wait_timeout_us = Float.max 20.0 (ideal *. 2.0);
    stall_timeout_us = Float.max 100.0 (ideal *. 8.0);
    max_retries = 5;
    backoff_base_us = Float.max 2.0 (ideal /. 10.0);
    retry = true;
    policy = Chaos.Failover;
  }

(* One step under a planned rank crash: seeded schedule, failover
   watchdog, data run with a rebuild hook so replayed flash tasks get
   fresh accumulators.  Chaos.Stall (no survivors, unrecoverable
   channel) falls back to the serialized baseline — the step always
   completes. *)
let crash_step t ~crash ~batch_q ~kv_q =
  let ideal = overlapped_cost t ~batch_q ~kv_q in
  let spec = spec_of t ~batch_q ~kv_q in
  let build () = Attention.program ~config spec ~spec_gpu:t.machine in
  let layout =
    Option.map (fun topo -> Topology.layout topo ~world_size:t.world) t.topology
  in
  let schedule =
    Chaos.plan
      ~spec:(Chaos.no_machine_faults Chaos.default_spec)
      ?layout
      ~horizon_us:(Float.max 1.0 (ideal *. 1.5))
      ~crash_ranks:crash.ck_ranks ~seed:crash.ck_seed ~world_size:t.world ()
  in
  let control =
    Chaos.control ~schedule ~watchdog:(scaled_watchdog ~ideal) ()
  in
  let cluster =
    Cluster.create ?topology:t.topology t.machine ~world_size:t.world
  in
  let memory = Attention.alloc spec ~seed:crash.ck_seed in
  let result =
    Fun.protect
      ~finally:(fun () -> Cluster.clear_disturbance cluster)
      (fun () ->
        match
          Runtime.run ~data:true ~memory ~chaos:control ~rebuild:build cluster
            (build ())
        with
        | r -> Ok r.Runtime.makespan
        (* Chaos.Stall is the one legitimate bail-out: no survivors
           left (or an unrecoverable channel).  Multi-rank crashes —
           including a second crash mid-replay of the first — are the
           failover coordinator's job and must complete the step. *)
        | exception Chaos.Stall _ -> Error ())
  in
  let rec_ = control.Chaos.c_recovery in
  let failed_over = List.length rec_.Chaos.failed_over in
  let cost, fell_back =
    match result with
    | Ok makespan -> (makespan, false)
    | Error () -> (serialized_cost t ~batch_q ~kv_q, true)
  in
  (* The crashed ranks stay dead: later steps run on the survivors. *)
  t.world <- max 2 (t.world - crash.ck_ranks);
  {
    o_cost_us = cost;
    o_faulted = true;
    o_fell_back = fell_back;
    o_failed_over = failed_over;
    o_replayed_tiles = rec_.Chaos.replayed_tiles;
    o_retries = rec_.Chaos.retries + (if fell_back then 1 else 0);
    o_completed = [];
  }

let step ?crash t ~tier =
  if t.running = [] then invalid_arg "Batcher.step: empty batch";
  let batch_q, kv_q = quantize t ~batch:(batch_size t) ~max_kv:(max_kv t) in
  let outcome =
    match crash with
    | Some ck -> crash_step t ~crash:ck ~batch_q ~kv_q
    | None ->
      let cost =
        match (tier : Degrade.tier) with
        | Overlapped | Shrunk -> overlapped_cost t ~batch_q ~kv_q
        | Nonoverlap -> serialized_cost t ~batch_q ~kv_q
      in
      {
        o_cost_us = cost;
        o_faulted = false;
        o_fell_back = false;
        o_failed_over = 0;
        o_replayed_tiles = 0;
        o_retries = 0;
        o_completed = [];
      }
  in
  (* Advance every sequence by one output token. *)
  List.iter
    (fun e ->
      e.e_kv <- e.e_kv + 1;
      e.e_remaining <- e.e_remaining - 1)
    t.running;
  let completed, still = List.partition (fun e -> e.e_remaining <= 0) t.running in
  t.running <- still;
  { outcome with o_completed = List.rev completed }
