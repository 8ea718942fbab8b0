(* Tensor-parallel MoE kernels with dynamic tile-centric mapping
   (Figure 5 and §7.2 of the paper).

   Part 1 — AllGather + Gather + GroupGEMM:
     tokens are gathered over M while expert-grouped GEMM tiles consume
     them; which producer channels a GroupGEMM tile must wait on
     depends on the *runtime routing* (its tokens are scattered over
     the gathered buffer), so consumer waits go through lookup tables.

   Part 2 — GroupGEMM + Scatter + TopkReduce + ReduceScatter:
     a three-stage producer/consumer chain inside one fused kernel:
     GroupGEMM tiles (permuted row space) -> Scatter+TopkReduce tiles
     (token row space, dynamic mapping from tokens to permuted rows) ->
     ring ReduceScatter (peer signals), demonstrating the extended
     chains §7.2 describes.  The ring stage is [Ring_rs.tasks], the
     same Figure 4 consumer GEMM+RS uses, over "red_out".

   Expert layout: per-rank weights are stored flattened —
   "w1" : [E*H, I/R] (expert e in rows [e*H, (e+1)*H)) and
   "w2" : [E*(I/R), H]. *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine

type spec = {
  tokens : int;        (* M: global token count *)
  hidden : int;        (* H *)
  intermediate : int;  (* I (per expert, before TP split) *)
  experts : int;       (* E *)
  topk : int;
  world_size : int;
}

let access = Instr.access

let i_per_rank spec = spec.intermediate / spec.world_size
let permuted_rows spec = spec.tokens * spec.topk

(* Checked before any tile arithmetic, so a bad shape or tile is an
   [Invalid_argument] (a skipped build for [Tune]), never a
   [Division_by_zero] or a silently truncated expert width. *)
let check_build ~what spec tile_rows =
  if spec.intermediate mod spec.world_size <> 0 then
    invalid_arg (what ^ ": intermediate must divide over the world");
  if List.exists (fun rows -> rows < 1) tile_rows then
    invalid_arg (what ^ ": tile rows must be positive")

(* Deterministic routing shared by every rank (same seed, same gate). *)
let routing spec ~seed =
  Routing.random ~seed ~num_tokens:spec.tokens ~num_experts:spec.experts
    ~topk:spec.topk

(* Expert-aligned 1-D tiling of the permuted row space: tiles never
   cross expert boundaries (the vLLM-style block alignment).  Returns
   (expert, row_lo, row_hi) in permuted coordinates. *)
let expert_tiles (perm : Routing.permutation) ~tile_rows =
  let segments = Array.length perm.Routing.segment_offsets - 1 in
  List.concat
    (List.init segments (fun expert ->
         let seg_lo = perm.Routing.segment_offsets.(expert) in
         let seg_hi = perm.Routing.segment_offsets.(expert + 1) in
         let rows = seg_hi - seg_lo in
         let tiles = (rows + tile_rows - 1) / tile_rows in
         List.init tiles (fun i ->
             ( expert,
               seg_lo + (i * tile_rows),
               min seg_hi (seg_lo + ((i + 1) * tile_rows)) ))))

(* ------------------------------------------------------------------ *)
(* Part 1: AG + Gather + GroupGEMM                                     *)
(* ------------------------------------------------------------------ *)

(* Buffers per rank:
   - "tok_shard" [M/R, H]   local token shard
   - "tokens"    [M, H]     gathered tokens
   - "w1"        [E*H, I/R] expert up-projection weights
   - "moe_mid"   [M*topk, I/R] permuted expert outputs *)

let part1_alloc spec ~seed =
  let memory = Memory.create ~world_size:spec.world_size in
  let ipr = i_per_rank spec in
  for rank = 0 to spec.world_size - 1 do
    Memory.bind memory ~rank ~name:"tok_shard"
      (Tensor.random ~seed:(seed + rank)
         (Shape.of_list [ spec.tokens / spec.world_size; spec.hidden ]));
    Memory.bind memory ~rank ~name:"w1"
      (Tensor.random ~seed:(seed + 3000 + rank)
         (Shape.of_list [ spec.experts * spec.hidden; ipr ]));
    ignore
      (Memory.alloc memory ~rank ~name:"tokens"
         (Shape.of_list [ spec.tokens; spec.hidden ]));
    ignore
      (Memory.alloc memory ~rank ~name:"moe_mid"
         (Shape.of_list [ permuted_rows spec; ipr ]))
  done;
  memory

let gathered_tokens memory spec =
  Tensor.concat_rows
    (List.init spec.world_size (fun r ->
         Memory.find memory ~rank:r ~name:"tok_shard"))

let part1_reference memory spec route ~rank =
  let ipr = i_per_rank spec in
  let tokens = gathered_tokens memory spec in
  let w1 = Memory.find memory ~rank ~name:"w1" in
  let perm = Routing.permutation route in
  let out = Tensor.zeros (Shape.of_list [ permuted_rows spec; ipr ]) in
  Array.iteri
    (fun row (expert, token, _slot) ->
      let token_vec = Tensor.row_slice tokens ~lo:token ~hi:(token + 1) in
      let w_block =
        Tensor.row_slice w1 ~lo:(expert * spec.hidden)
          ~hi:((expert + 1) * spec.hidden)
      in
      Tensor.set_row_slice out ~lo:row (Linalg.gemm token_vec w_block))
    perm.Routing.entries;
  out

type part1_config = {
  comm_tile_rows : int;     (* AllGather tile over M *)
  group_tile_rows : int;    (* GroupGEMM tile over permuted rows *)
  comm_binding : Design_space.resource_binding;
}

let default_part1_config =
  {
    comm_tile_rows = 128;
    group_tile_rows = 128;
    comm_binding = Design_space.Comm_on_dma;
  }

let part1_program ?(config = default_part1_config) spec route
    ~(spec_gpu : Spec.t) =
  check_build ~what:"Moe.part1" spec
    [ config.comm_tile_rows; config.group_tile_rows ];
  let r = spec.world_size in
  let ipr = i_per_rank spec in
  let shard_rows = spec.tokens / r in
  if shard_rows mod config.comm_tile_rows <> 0 then
    invalid_arg "Moe.part1: comm tile must divide the shard";
  let mapping =
    Mapping.static ~extent:spec.tokens ~ranks:r
      ~channels_per_rank:(shard_rows / config.comm_tile_rows)
      ~tile:config.comm_tile_rows ()
  in
  let perm = Routing.permutation route in
  let tiles = expert_tiles perm ~tile_rows:config.group_tile_rows in
  let comm_grid =
    Tile.grid ~extent_m:spec.tokens ~extent_n:spec.hidden
      ~tile_m:config.comm_tile_rows ~tile_n:spec.hidden
  in
  let plans =
    Array.init r (fun rank ->
        let bc = Block_channel.create ~rank ~world_size:r mapping in
        let comm_task tile =
          let tid = Tile.linearize comm_grid tile in
          let lo, hi = Mapping.shape_range mapping ~tid in
          let stmts =
            [
              Primitive.Tile_pull_data
                {
                  tid;
                  src_buffer = "tok_shard";
                  src_view = `Shard;
                  col = (0, spec.hidden);
                  dst =
                    access ~buffer:"tokens" ~row:(lo, hi)
                      ~col:(0, spec.hidden) ();
                  action = None;
                };
              Primitive.Producer_tile_notify { tid; mode = Primitive.P2p };
            ]
          in
          { Program.label = Printf.sprintf "ag[%d]" tid;
            instrs = Block_channel.lower bc stmts }
        in
        let comm_tasks =
          List.map comm_task
            (Tile.enumerate ~rank comm_grid
               (Tile.Ring_from_self { segments = r }))
        in
        (* GroupGEMM tile with fused gather: the tokens this tile needs
           are scattered, so the wait set comes from the routing
           tables — the dynamic mapping in action. *)
        let group_task index (expert, plo, phi) =
          let needed_tokens =
            List.init (phi - plo) (fun i ->
                let _e, token, _slot = perm.Routing.entries.(plo + i) in
                token)
          in
          let action memory ~rank =
            let tokens = Memory.find memory ~rank ~name:"tokens" in
            let w1 = Memory.find memory ~rank ~name:"w1" in
            let mid = Memory.find memory ~rank ~name:"moe_mid" in
            let gathered =
              Tensor.concat_rows
                (List.map
                   (fun token ->
                     Tensor.row_slice tokens ~lo:token ~hi:(token + 1))
                   needed_tokens)
            in
            let w_block =
              Tensor.row_slice w1 ~lo:(expert * spec.hidden)
                ~hi:((expert + 1) * spec.hidden)
            in
            Tensor.set_row_slice mid ~lo:plo (Linalg.gemm gathered w_block)
          in
          let stmts =
            [
              Primitive.Consumer_tile_wait_rows
                {
                  rows = needed_tokens;
                  buffer = "tokens";
                  col = (0, spec.hidden);
                };
              Primitive.Load
                (access ~buffer:"tokens" ~row:(0, spec.tokens)
                   ~col:(0, spec.hidden) ());
              Primitive.Load
                (access ~buffer:"w1"
                   ~row:(expert * spec.hidden, (expert + 1) * spec.hidden)
                   ~col:(0, ipr) ());
              Primitive.Compute
                {
                  label = Printf.sprintf "ggemm[e%d,%d]" expert index;
                  cost =
                    Instr.Gemm_tile
                      { tm = phi - plo; tn = ipr; k = spec.hidden };
                  reads =
                    [
                      access ~buffer:"tokens" ~row:(0, spec.tokens)
                        ~col:(0, spec.hidden) ();
                    ];
                  writes =
                    [ access ~buffer:"moe_mid" ~row:(plo, phi) ~col:(0, ipr) () ];
                  action = Some action;
                };
              Primitive.Store
                (access ~buffer:"moe_mid" ~row:(plo, phi) ~col:(0, ipr) ());
            ]
          in
          { Program.label = Printf.sprintf "ggemm[%d]" index;
            instrs = Block_channel.lower bc stmts }
        in
        let group_tasks = List.mapi group_task tiles in
        let comm_roles, comm_sms =
          match config.comm_binding with
          | Design_space.Comm_on_sm sms ->
            ( [
                {
                  Program.role_name = "ag-sm";
                  resource = Program.Sm_partition sms;
                  lane = Tilelink_sim.Trace.Comm_sm;
                  tasks = comm_tasks;
                };
              ],
              sms )
          | Design_space.Comm_on_dma | Design_space.Comm_hybrid _ ->
            ( [
                {
                  Program.role_name = "ag-dma";
                  resource =
                    Program.Dma_engines (min 2 spec_gpu.Spec.gpu.dma_channels);
                  lane = Tilelink_sim.Trace.Dma;
                  tasks = comm_tasks;
                };
              ],
              0 )
        in
        comm_roles
        @ [
            {
              Program.role_name = "group-gemm";
              resource =
                Program.Sm_partition
                  (max 1 (spec_gpu.Spec.gpu.num_sms - comm_sms));
              lane = Tilelink_sim.Trace.Compute_sm;
              tasks = group_tasks;
            };
          ])
  in
  Program.create ~name:"ag_moe" ~world_size:r
    ~pc_channels:(Mapping.num_channels mapping)
    ~peer_channels:1 plans

(* ------------------------------------------------------------------ *)
(* Part 2: GroupGEMM + Scatter + TopkReduce + ring ReduceScatter       *)
(* ------------------------------------------------------------------ *)

(* Buffers per rank:
   - "mid_act"   [M*topk, I/R] activations entering the down projection
   - "w2"        [E*(I/R), H]  expert down-projection weights
   - "gg_out"    [M*topk, H]   permuted partial outputs
   - "red_out"   [M, H]        topk-reduced partial (token space)
   - "rs_buffer" [M, H]        ring receive buffer
   - "rs_send"   [M, H]        ring staging
   - "out"       [M/R, H]      final shard *)

let part2_alloc spec ~seed =
  let memory = Memory.create ~world_size:spec.world_size in
  let ipr = i_per_rank spec in
  for rank = 0 to spec.world_size - 1 do
    Memory.bind memory ~rank ~name:"mid_act"
      (Tensor.random ~seed:(seed + 100 + rank)
         (Shape.of_list [ permuted_rows spec; ipr ]));
    Memory.bind memory ~rank ~name:"w2"
      (Tensor.random ~seed:(seed + 4000 + rank)
         (Shape.of_list [ spec.experts * ipr; spec.hidden ]));
    List.iter
      (fun name ->
        ignore
          (Memory.alloc memory ~rank ~name
             (Shape.of_list [ spec.tokens; spec.hidden ])))
      [ "red_out"; "rs_buffer"; "rs_send" ];
    ignore
      (Memory.alloc memory ~rank ~name:"gg_out"
         (Shape.of_list [ permuted_rows spec; spec.hidden ]));
    ignore
      (Memory.alloc memory ~rank ~name:"out"
         (Shape.of_list [ spec.tokens / spec.world_size; spec.hidden ]))
  done;
  memory

(* Per-rank partial after scatter + topk-reduce (before RS). *)
let part2_partial memory spec route ~rank =
  let ipr = i_per_rank spec in
  let mid = Memory.find memory ~rank ~name:"mid_act" in
  let w2 = Memory.find memory ~rank ~name:"w2" in
  let perm = Routing.permutation route in
  let red = Tensor.zeros (Shape.of_list [ spec.tokens; spec.hidden ]) in
  Array.iteri
    (fun row (expert, token, slot) ->
      let x = Tensor.row_slice mid ~lo:row ~hi:(row + 1) in
      let w_block =
        Tensor.row_slice w2 ~lo:(expert * ipr) ~hi:((expert + 1) * ipr)
      in
      let y = Linalg.gemm x w_block in
      let weight = (Routing.weights_of_token route token).(slot) in
      Tensor.add_row_slice red ~lo:token (Tensor.scale weight y))
    perm.Routing.entries;
  red

let part2_reference memory spec route ~rank =
  let partials =
    List.init spec.world_size (fun r -> part2_partial memory spec route ~rank:r)
  in
  let total = Tilelink_comm.Collective.reduce_data partials in
  let per = spec.tokens / spec.world_size in
  Tensor.row_slice total ~lo:(rank * per) ~hi:((rank + 1) * per)

type part2_config = {
  gg_tile_rows : int;     (* GroupGEMM tile over permuted rows *)
  reduce_tile_rows : int; (* TopkReduce tile over token rows *)
  rs_tile_rows : int;     (* RS tile over per-rank token rows *)
  reduce_sms : int;
  rs_sms : int;
}

let default_part2_config =
  {
    gg_tile_rows = 128;
    reduce_tile_rows = 128;
    rs_tile_rows = 128;
    (* Worker caps, not static partitions: the runtime arbitrates SMs
       per task, so the reducer and the ring RS borrow the chip once
       the GroupGEMM drains. *)
    reduce_sms = 64;
    rs_sms = 32;
  }

let part2_program ?(config = default_part2_config) spec route
    ~(spec_gpu : Spec.t) =
  check_build ~what:"Moe.part2" spec
    [ config.gg_tile_rows; config.reduce_tile_rows; config.rs_tile_rows ];
  let r = spec.world_size in
  let ipr = i_per_rank spec in
  let m = spec.tokens in
  let m_per_rank = m / r in
  if m mod config.reduce_tile_rows <> 0 then
    invalid_arg "Moe.part2: reduce tile must divide the token count";
  let perm = Routing.permutation route in
  let gg_tiles = expert_tiles perm ~tile_rows:config.gg_tile_rows in
  let num_gg_tiles = List.length gg_tiles in
  (* Link A (dynamic): GroupGEMM tiles -> TopkReduce.  One channel per
     producer tile; the tables are exactly the runtime-filled f_S / f_R
     / f_C of the paper.  Channels are spread over ranks' channel
     arrays round-robin via global ids. *)
  let channels_per_rank_a = (num_gg_tiles + r - 1) / r in
  let f_s_low = Array.make num_gg_tiles 0 in
  let f_s_high = Array.make num_gg_tiles 0 in
  let f_r = Array.make num_gg_tiles 0 in
  let f_c = Array.make num_gg_tiles 0 in
  List.iteri
    (fun i (_expert, plo, phi) ->
      f_s_low.(i) <- plo;
      f_s_high.(i) <- phi;
      f_r.(i) <- i mod r;
      f_c.(i) <- i)
    gg_tiles;
  let mapping_a =
    Mapping.dynamic ~ranks:r ~channels_per_rank:channels_per_rank_a ~f_s_low
      ~f_s_high ~f_r ~f_c ()
  in
  (* Link B (static): TopkReduce tiles (token rows) -> ring RS. *)
  let mapping_b =
    Mapping.static ~extent:m ~ranks:r
      ~channels_per_rank:(m_per_rank / config.reduce_tile_rows)
      ~tile:config.reduce_tile_rows ()
  in
  let base_b = Mapping.num_channels mapping_a in
  (* Permuted positions of each token (token -> rows of gg_out). *)
  let token_positions = Array.make m [] in
  Array.iteri
    (fun row (_e, token, _slot) ->
      token_positions.(token) <- row :: token_positions.(token))
    perm.Routing.entries;
  let rs_grid =
    Tile.grid ~extent_m:m_per_rank ~extent_n:spec.hidden
      ~tile_m:config.rs_tile_rows ~tile_n:spec.hidden
  in
  let plans =
    Array.init r (fun rank ->
        let bc_a = Block_channel.create ~rank ~world_size:r mapping_a in
        let bc_b =
          Block_channel.create ~channel_base:base_b ~rank ~world_size:r
            mapping_b
        in
        (* --- role A: GroupGEMM producer --- *)
        let gg_task index (expert, plo, phi) =
          let action memory ~rank =
            let mid = Memory.find memory ~rank ~name:"mid_act" in
            let w2 = Memory.find memory ~rank ~name:"w2" in
            let gg = Memory.find memory ~rank ~name:"gg_out" in
            let w_block =
              Tensor.row_slice w2 ~lo:(expert * ipr) ~hi:((expert + 1) * ipr)
            in
            Tensor.set_row_slice gg ~lo:plo
              (Linalg.gemm (Tensor.row_slice mid ~lo:plo ~hi:phi) w_block)
          in
          let stmts =
            [
              Primitive.Load
                (access ~buffer:"mid_act" ~row:(plo, phi) ~col:(0, ipr) ());
              Primitive.Compute
                {
                  label = Printf.sprintf "gg[e%d,%d]" expert index;
                  cost =
                    Instr.Gemm_tile { tm = phi - plo; tn = spec.hidden; k = ipr };
                  reads =
                    [ access ~buffer:"mid_act" ~row:(plo, phi) ~col:(0, ipr) () ];
                  writes =
                    [
                      access ~buffer:"gg_out" ~row:(plo, phi)
                        ~col:(0, spec.hidden) ();
                    ];
                  action = Some action;
                };
              Primitive.Store
                (access ~buffer:"gg_out" ~row:(plo, phi) ~col:(0, spec.hidden)
                   ());
              Primitive.Producer_tile_notify
                { tid = index; mode = Primitive.P2p };
            ]
          in
          { Program.label = Printf.sprintf "gg[%d]" index;
            instrs = Block_channel.lower bc_a stmts }
        in
        let gg_tasks = List.mapi gg_task gg_tiles in
        (* --- role B: Scatter + TopkReduce --- *)
        let reduce_tiles = m / config.reduce_tile_rows in
        let reduce_task ti =
          let tlo = ti * config.reduce_tile_rows in
          let thi = tlo + config.reduce_tile_rows in
          let needed_rows =
            List.concat
              (List.init (thi - tlo) (fun i -> token_positions.(tlo + i)))
          in
          let action memory ~rank =
            let gg = Memory.find memory ~rank ~name:"gg_out" in
            let red = Memory.find memory ~rank ~name:"red_out" in
            for token = tlo to thi - 1 do
              let weights = Routing.weights_of_token route token in
              let acc = Tensor.zeros (Shape.of_list [ 1; spec.hidden ]) in
              let rows = token_positions.(token) in
              List.iter
                (fun row ->
                  (* recover the slot of this permuted row *)
                  let _e, _t, slot = perm.Routing.entries.(row) in
                  Tensor.add_inplace acc
                    (Tensor.scale weights.(slot)
                       (Tensor.row_slice gg ~lo:row ~hi:(row + 1))))
                rows;
              Tensor.set_row_slice red ~lo:token acc
            done
          in
          let stmts =
            [
              Primitive.Consumer_tile_wait_rows
                { rows = needed_rows; buffer = "gg_out"; col = (0, spec.hidden) };
              Primitive.Load
                (access ~buffer:"gg_out" ~row:(0, permuted_rows spec)
                   ~col:(0, spec.hidden) ());
              Primitive.Compute
                {
                  label = Printf.sprintf "topk-reduce[%d]" ti;
                  cost =
                    Instr.Memory_tile
                      {
                        rows = (thi - tlo) * spec.topk;
                        cols = spec.hidden;
                        passes = 2;
                      };
                  reads =
                    [
                      access ~buffer:"gg_out" ~row:(0, permuted_rows spec)
                        ~col:(0, spec.hidden) ();
                    ];
                  writes =
                    [
                      access ~buffer:"red_out" ~row:(tlo, thi)
                        ~col:(0, spec.hidden) ();
                    ];
                  action = Some action;
                };
              Primitive.Store
                (access ~buffer:"red_out" ~row:(tlo, thi) ~col:(0, spec.hidden)
                   ());
              Primitive.Producer_tile_notify
                { tid = tlo / config.reduce_tile_rows; mode = Primitive.P2p };
            ]
          in
          (* Waits resolve through link A's tables; the trailing notify
             goes to link B, so lower the two halves separately. *)
          let rec split acc = function
            | [ last ] -> (List.rev acc, [ last ])
            | x :: rest -> split (x :: acc) rest
            | [] -> (List.rev acc, [])
          in
          let front, back = split [] stmts in
          {
            Program.label = Printf.sprintf "reduce[%d]" ti;
            instrs = Block_channel.lower bc_a front @ Block_channel.lower bc_b back;
          }
        in
        let reduce_tasks = List.init reduce_tiles reduce_task in
        (* --- role C: ring ReduceScatter over red_out (Figure 4) --- *)
        let rs_tasks = Ring_rs.tasks bc_b ~src:"red_out" rs_grid in
        let gg_sms = spec_gpu.Spec.gpu.num_sms in
        [
          {
            Program.role_name = "group-gemm";
            resource = Program.Sm_partition gg_sms;
            lane = Tilelink_sim.Trace.Compute_sm;
            tasks = gg_tasks;
          };
          {
            Program.role_name = "topk-reduce";
            resource = Program.Sm_partition config.reduce_sms;
            lane = Tilelink_sim.Trace.Compute_sm;
            tasks = reduce_tasks;
          };
          {
            Program.role_name = "ring-rs";
            resource = Program.Sm_partition config.rs_sms;
            lane = Tilelink_sim.Trace.Comm_sm;
            tasks = rs_tasks;
          };
        ])
  in
  Program.create ~name:"moe_rs" ~world_size:r
    ~pc_channels:(Mapping.num_channels mapping_a + Mapping.num_channels mapping_b)
    ~peer_channels:(Tile.tile_count rs_grid) plans
