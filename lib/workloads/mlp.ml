(* Tensor-parallel MLP kernels built from tile-centric primitives.

   Two overlapped kernels (Figure 1 / Figure 4 of the paper):

   - [ag_gemm_program]: AllGather of the activation over M, overlapped
     with GEMM.  It is the planner's AllGather+GEMM operator graph
     ([ag_gemm_graph]) synthesized at one design point: the
     communication role pulls (or pushes) shard tiles and signals
     producer channels; GEMM consumer tiles wait only for the rows they
     read.

   - [gemm_rs_program]: GEMM producing a partial [M, N] overlapped with
     a ring ReduceScatter consumer exactly as in Figure 4 — per-tile
     producer/consumer signals between GEMM and the reducer,
     peer-to-peer signals between ranks along the ring.  The consumer
     is [Ring_rs.tasks], shared with MoE part 2.

   Buffer layout conventions are documented on each builder; data
   actions implement real tensor semantics so the same programs verify
   numerically at small shapes. *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine

type ag_gemm_spec = {
  m : int;          (* global rows (batch x seq) *)
  k : int;          (* hidden dim (gather width) *)
  n : int;          (* output columns per rank *)
  world_size : int;
}

let access = Instr.access

(* ------------------------------------------------------------------ *)
(* AllGather + GEMM                                                    *)
(* ------------------------------------------------------------------ *)

(* Buffers per rank:
   - "x_shard" [m / world, k]  local input shard
   - "x_full"  [m, k]          gather destination
   - "w"       [k, n]          local weight shard
   - "y"       [m, n]          local output *)

let ag_gemm_alloc spec ~seed =
  let memory = Memory.create ~world_size:spec.world_size in
  let shard_rows = spec.m / spec.world_size in
  for rank = 0 to spec.world_size - 1 do
    Memory.bind memory ~rank ~name:"x_shard"
      (Tensor.random ~seed:(seed + rank)
         (Shape.of_list [ shard_rows; spec.k ]));
    Memory.bind memory ~rank ~name:"w"
      (Tensor.random ~seed:(seed + 1000 + rank)
         (Shape.of_list [ spec.k; spec.n ]));
    ignore
      (Memory.alloc memory ~rank ~name:"x_full"
         (Shape.of_list [ spec.m; spec.k ]));
    ignore
      (Memory.alloc memory ~rank ~name:"y" (Shape.of_list [ spec.m; spec.n ]))
  done;
  memory

let ag_gemm_reference memory spec ~rank =
  let shards =
    List.init spec.world_size (fun r ->
        Memory.find memory ~rank:r ~name:"x_shard")
  in
  Linalg.gemm (Tensor.concat_rows shards)
    (Memory.find memory ~rank ~name:"w")

let ag_gemm_graph spec =
  Planner.graph ~name:"ag_gemm" ~rows:spec.m ~cols:spec.k ~world:spec.world_size
    [
      Planner.consumer ~name:"gemm" ~out:"y"
        (Planner.Gemm { weights = "w"; n = spec.n });
    ]

(* The fixed design point: the planner's candidate with the inner loop
   over k split in two chunks. *)
let ag_gemm_program ?(transfer = `Pull) ~config spec ~spec_gpu =
  let pl_transfer =
    match transfer with `Pull -> Planner.Pull | `Push -> Planner.Push
  in
  Planner.synthesize (ag_gemm_graph spec)
    { Planner.pl_config = config; pl_transfer; pl_chunks = 2 }
    ~spec_gpu

(* ------------------------------------------------------------------ *)
(* GEMM + ring ReduceScatter (Figure 4)                                *)
(* ------------------------------------------------------------------ *)

type gemm_rs_spec = {
  rs_m : int;        (* global output rows (batch x seq) *)
  rs_k : int;        (* per-rank reduction dim (I / world) *)
  rs_n : int;        (* output width (hidden) *)
  rs_world : int;
}

(* Buffers per rank:
   - "act"       [m, k]        local activation shard (K-parallel)
   - "w2"        [k, n]        local weight shard
   - "gemm_out"  [m, n]        local partial product
   - "rs_buffer" [m, n]        ring receive buffer (globally indexed)
   - "rs_send"   [m, n]        staging for outgoing partial sums
   - "out"       [m / world, n] final reduced shard *)

let gemm_rs_alloc spec ~seed =
  let memory = Memory.create ~world_size:spec.rs_world in
  for rank = 0 to spec.rs_world - 1 do
    Memory.bind memory ~rank ~name:"act"
      (Tensor.random ~seed:(seed + rank)
         (Shape.of_list [ spec.rs_m; spec.rs_k ]));
    Memory.bind memory ~rank ~name:"w2"
      (Tensor.random ~seed:(seed + 2000 + rank)
         (Shape.of_list [ spec.rs_k; spec.rs_n ]));
    List.iter
      (fun name ->
        ignore
          (Memory.alloc memory ~rank ~name
             (Shape.of_list [ spec.rs_m; spec.rs_n ])))
      [ "gemm_out"; "rs_buffer"; "rs_send" ];
    ignore
      (Memory.alloc memory ~rank ~name:"out"
         (Shape.of_list [ spec.rs_m / spec.rs_world; spec.rs_n ]))
  done;
  memory

let gemm_rs_reference memory spec ~rank =
  let partials =
    List.init spec.rs_world (fun r ->
        Linalg.gemm
          (Memory.find memory ~rank:r ~name:"act")
          (Memory.find memory ~rank:r ~name:"w2"))
  in
  let total = Tilelink_comm.Collective.reduce_data partials in
  let per = spec.rs_m / spec.rs_world in
  Tensor.row_slice total ~lo:(rank * per) ~hi:((rank + 1) * per)

let gemm_rs_program ~(config : Design_space.config) spec ~(spec_gpu : Spec.t)
    =
  let r = spec.rs_world in
  if spec.rs_m mod r <> 0 then invalid_arg "Mlp.gemm_rs: m not divisible";
  let m_per_rank = spec.rs_m / r in
  let gemm_tm, gemm_tn = config.Design_space.compute_tile in
  let rs_tm, rs_tn = config.Design_space.comm_tile in
  if gemm_tm < 1 || gemm_tn < 1 then
    invalid_arg "Mlp.gemm_rs: tile dimensions must be positive";
  if m_per_rank mod gemm_tm <> 0 then
    invalid_arg "Mlp.gemm_rs: gemm tile must divide the rank shard";
  let gemm_grid =
    Tile.grid ~extent_m:spec.rs_m ~extent_n:spec.rs_n ~tile_m:gemm_tm
      ~tile_n:gemm_tn
  in
  (* Producer link: gemm_out rows guarded per gemm_tm rows, one notify
     per (row tile, column tile). *)
  let mapping =
    Mapping.static
      ~multiplicity:(Tile.tiles_n gemm_grid)
      ~extent:spec.rs_m ~ranks:r
      ~channels_per_rank:(m_per_rank / gemm_tm)
      ~tile:gemm_tm ()
  in
  let rs_grid =
    Tile.grid ~extent_m:m_per_rank ~extent_n:spec.rs_n ~tile_m:rs_tm
      ~tile_n:rs_tn
  in
  let plans =
    Array.init r (fun rank ->
        let bc = Block_channel.create ~rank ~world_size:r mapping in
        (* --- producer GEMM --- *)
        let gemm_task tile =
          let lo, hi = Tile.rows gemm_grid tile in
          let clo, chi = Tile.cols gemm_grid tile in
          let tid_m = tile.Tile.tid_m in
          let label = Label.int2 "gemm[" tid_m "," tile.Tile.tid_n "]" in
          let action memory ~rank =
            let a = Memory.find memory ~rank ~name:"act" in
            let w = Memory.find memory ~rank ~name:"w2" in
            let g = Memory.find memory ~rank ~name:"gemm_out" in
            Tensor.set_block g ~row_lo:lo ~col_lo:clo
              (Linalg.gemm ~block:config.Design_space.micro_block
                 (Tensor.row_slice a ~lo ~hi)
                 (Tensor.col_slice w ~lo:clo ~hi:chi))
          in
          let stmts =
            [
              Primitive.Load
                (access ~buffer:"act" ~row:(lo, hi) ~col:(0, spec.rs_k) ());
              Primitive.Load
                (access ~buffer:"w2" ~row:(0, spec.rs_k) ~col:(clo, chi) ());
              Primitive.Compute
                {
                  label;
                  cost =
                    Instr.Gemm_tile
                      { tm = hi - lo; tn = chi - clo; k = spec.rs_k };
                  reads =
                    [ access ~buffer:"act" ~row:(lo, hi) ~col:(0, spec.rs_k) () ];
                  writes =
                    [ access ~buffer:"gemm_out" ~row:(lo, hi) ~col:(clo, chi) () ];
                  action = Some action;
                };
              Primitive.Store
                (access ~buffer:"gemm_out" ~row:(lo, hi) ~col:(clo, chi) ());
              Primitive.Producer_tile_notify { tid = tid_m; mode = Primitive.P2p };
            ]
          in
          {
            Program.label = label;
            instrs = Block_channel.lower bc stmts;
          }
        in
        let gemm_tasks =
          List.map gemm_task
            (Tile.enumerate ~rank gemm_grid config.Design_space.compute_order)
        in
        (* --- consumer ring ReduceScatter (Figure 4 lines 11-26) --- *)
        let rs_tasks = Ring_rs.tasks bc ~src:"gemm_out" rs_grid in
        (* Resource binding for the RS consumer. *)
        let comm_roles, comm_sms =
          match config.Design_space.binding with
          | Design_space.Comm_on_sm sms ->
            ( [
                {
                  Program.role_name = "ring-rs-sm";
                  resource = Program.Sm_partition sms;
                  lane = Tilelink_sim.Trace.Comm_sm;
                  tasks = rs_tasks;
                };
              ],
              sms )
          | Design_space.Comm_on_dma ->
            (* Whole consumer chain driven from the copy-engine side. *)
            ( [
                {
                  Program.role_name = "ring-rs-dma";
                  resource = Program.Dma_engines (min 2 spec_gpu.Spec.gpu.dma_channels);
                  lane = Tilelink_sim.Trace.Dma;
                  tasks = rs_tasks;
                };
              ],
              0 )
          | Design_space.Comm_hybrid { dma_fraction = _; sms } ->
            (* Hybrid: reduction tasks stay on SMs; the bulk pushes are
               already Copy instructions inside the same tasks, so the
               hybrid split here gives the reducer a small SM partition
               while pushes ride the NVLink servers (DMA-like).  This
               matches the paper's "scatter on DMA + reduce on SM". *)
            ( [
                {
                  Program.role_name = "ring-rs-hybrid";
                  resource = Program.Sm_partition sms;
                  lane = Tilelink_sim.Trace.Comm_sm;
                  tasks = rs_tasks;
                };
              ],
              sms )
        in
        let gemm_sms = max 1 (spec_gpu.Spec.gpu.num_sms - comm_sms) in
        {
          Program.role_name = "gemm";
          resource = Program.Sm_partition gemm_sms;
          lane = Tilelink_sim.Trace.Compute_sm;
          tasks = gemm_tasks;
        }
        :: comm_roles)
  in
  Program.create ~name:"gemm_rs" ~world_size:r
    ~pc_channels:(Mapping.num_channels mapping)
    ~peer_channels:(Tile.tile_count rs_grid) plans
