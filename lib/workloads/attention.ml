(* Sequence-parallel self-attention: AllGather KV + flash attention
   (Figure 6 of the paper).

   Communication uses *host-side* primitives: a host stream issues
   rank_copy_data transfers (copy engine) segment by segment and
   signals producer channels; the flash-attention kernel's consumer
   tiles wait per KV segment and fold blocks into online-softmax state
   in arrival order.

   Layout: (batch x heads) flattens to a leading z index.
   - "q"       [z * s_per_rank, d]   local queries
   - "k_shard" [z * s_per_rank, d]   local KV shards
   - "v_shard" [z * s_per_rank, d]
   - "k_full"  [z * seq, d]          gathered KV (row = z*seq + j)
   - "v_full"  [z * seq, d]
   - "o"       [z * s_per_rank, d]   output *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine

type spec = {
  batch_heads : int;  (* z = batch x heads *)
  seq : int;          (* global KV sequence length *)
  head_dim : int;
  world_size : int;
  causal : bool;
}

let access = Instr.access

let s_per_rank spec = spec.seq / spec.world_size

let alloc spec ~seed =
  let memory = Memory.create ~world_size:spec.world_size in
  let spr = s_per_rank spec in
  let local_rows = spec.batch_heads * spr in
  let full_rows = spec.batch_heads * spec.seq in
  for rank = 0 to spec.world_size - 1 do
    List.iteri
      (fun i name ->
        Memory.bind memory ~rank ~name
          (Tensor.random
             ~seed:(seed + (100 * i) + rank)
             (Shape.of_list [ local_rows; spec.head_dim ])))
      [ "q"; "k_shard"; "v_shard" ];
    List.iter
      (fun name ->
        ignore
          (Memory.alloc memory ~rank ~name
             (Shape.of_list [ full_rows; spec.head_dim ])))
      [ "k_full"; "v_full" ];
    ignore
      (Memory.alloc memory ~rank ~name:"o"
         (Shape.of_list [ local_rows; spec.head_dim ]))
  done;
  memory

(* Gathered K (or V) for one z: shard r contributes rows
   [z*spr, (z+1)*spr) into segment r. *)
let gathered memory spec ~name ~z =
  let spr = s_per_rank spec in
  Tensor.concat_rows
    (List.init spec.world_size (fun r ->
         Tensor.row_slice
           (Memory.find memory ~rank:r ~name)
           ~lo:(z * spr) ~hi:((z + 1) * spr)))

let mask spec ~rank =
  if spec.causal then
    Nn.Causal { q_offset = rank * s_per_rank spec }
  else Nn.No_mask

let reference memory spec ~rank =
  let spr = s_per_rank spec in
  let out =
    Tensor.zeros (Shape.of_list [ spec.batch_heads * spr; spec.head_dim ])
  in
  for z = 0 to spec.batch_heads - 1 do
    let q =
      Tensor.row_slice
        (Memory.find memory ~rank ~name:"q")
        ~lo:(z * spr) ~hi:((z + 1) * spr)
    in
    let k = gathered memory spec ~name:"k_shard" ~z in
    let v = gathered memory spec ~name:"v_shard" ~z in
    Tensor.set_row_slice out ~lo:(z * spr)
      (Nn.attention ~mask:(mask spec ~rank) q k v)
  done;
  out

type config = {
  q_tile : int;   (* query rows per consumer tile *)
  kv_tile : int;  (* KV rows consumed per flash step *)
}

let default_config = { q_tile = 128; kv_tile = 512 }

let program ?(config = default_config) spec ~(spec_gpu : Spec.t) =
  let r = spec.world_size in
  let spr = s_per_rank spec in
  if spr mod config.q_tile <> 0 then
    invalid_arg "Attention.program: q tile must divide the query shard";
  if spec.seq mod config.kv_tile <> 0 then
    invalid_arg "Attention.program: kv tile must divide the sequence";
  if config.kv_tile > spr then
    invalid_arg "Attention.program: kv tile larger than a segment";
  (* One producer tile (and one channel) per rank segment of KV. *)
  let mapping =
    Mapping.static ~extent:spec.seq ~ranks:r ~channels_per_rank:1 ~tile:spr
      ()
  in
  let d = spec.head_dim in
  let plans =
    Array.init r (fun rank ->
        let bc = Block_channel.create ~rank ~world_size:r mapping in
        (* --- host stream: copy-engine AllGather of K and V ---
           One rank_copy_data per (tensor, segment): the copy engine
           moves the whole z-strided segment in a single transfer; the
           strided scatter into the full buffer is the custom data
           action. *)
        let copy_segment src_rank =
          let strided_blit ~shard ~full memory ~rank =
            let src = Memory.find memory ~rank:src_rank ~name:shard in
            let dst = Memory.find memory ~rank ~name:full in
            for z = 0 to spec.batch_heads - 1 do
              Tensor.set_row_slice dst
                ~lo:((z * spec.seq) + (src_rank * spr))
                (Tensor.row_slice src ~lo:(z * spr) ~hi:((z + 1) * spr))
            done
          in
          List.map
            (fun (shard, full) ->
              Primitive.Rank_copy_data
                {
                  src =
                    access ~rank:src_rank ~buffer:shard
                      ~row:(0, spec.batch_heads * spr)
                      ~col:(0, d) ();
                  dst =
                    access ~buffer:full
                      ~row:(src_rank * spr, (src_rank + 1) * spr)
                      ~col:(0, d) ();
                  action = Some (strided_blit ~shard ~full);
                })
            [ ("k_shard", "k_full"); ("v_shard", "v_full") ]
          @ [ Primitive.Producer_tile_notify { tid = src_rank; mode = Primitive.P2p } ]
        in
        let host_tasks =
          (* Own segment first (local copies), then ring order. *)
          List.init r (fun step ->
              let src_rank = (rank + step) mod r in
              {
                Program.label = Label.int1 "agkv[" src_rank "]";
                instrs = Block_channel.lower bc (copy_segment src_rank);
              })
        in
        (* --- flash attention consumer --- *)
        let attn_task z mt =
          let qlo = (z * spr) + (mt * config.q_tile) in
          let qhi = qlo + config.q_tile in
          (* Online-softmax state lives across this task's steps. *)
          let state = ref None in
          let tile_mask =
            if spec.causal then
              Nn.Causal { q_offset = (rank * spr) + (mt * config.q_tile) }
            else Nn.No_mask
          in
          let get_state () =
            match !state with
            | Some s -> s
            | None ->
              let s = Nn.Flash.create ~mask:tile_mask ~m:config.q_tile ~d () in
              state := Some s;
              s
          in
          let kv_steps = spec.seq / config.kv_tile in
          let step_stmts step =
            (* Start at the local segment, walk the ring. *)
            let steps_per_segment = spr / config.kv_tile in
            let segment = (rank + (step / steps_per_segment)) mod r in
            let klo =
              (segment * spr) + (step mod steps_per_segment * config.kv_tile)
            in
            let khi = klo + config.kv_tile in
            let action memory ~rank =
              let state = get_state () in
              let q_block =
                Tensor.row_slice
                  (Memory.find memory ~rank ~name:"q")
                  ~lo:qlo ~hi:qhi
              in
              let k_block =
                Tensor.row_slice
                  (Memory.find memory ~rank ~name:"k_full")
                  ~lo:((z * spec.seq) + klo)
                  ~hi:((z * spec.seq) + khi)
              in
              let v_block =
                Tensor.row_slice
                  (Memory.find memory ~rank ~name:"v_full")
                  ~lo:((z * spec.seq) + klo)
                  ~hi:((z * spec.seq) + khi)
              in
              Nn.Flash.update state q_block k_block v_block ~kv_offset:klo
            in
            [
              Primitive.Consumer_tile_wait
                { lo = klo; hi = khi; buffer = "k_full"; col = (0, d) };
              Primitive.Load
                (access ~buffer:"k_full"
                   ~row:((z * spec.seq) + klo, (z * spec.seq) + khi)
                   ~col:(0, d) ());
              Primitive.Load
                (access ~buffer:"v_full"
                   ~row:((z * spec.seq) + klo, (z * spec.seq) + khi)
                   ~col:(0, d) ());
              Primitive.Compute
                {
                  label = Label.int3 "flash[z" z ",m" mt ",s" step "]";
                  cost =
                    Instr.Attention_tile
                      { tq = config.q_tile; tkv = config.kv_tile; d };
                  reads =
                    [
                      access ~buffer:"k_full"
                        ~row:((z * spec.seq) + klo, (z * spec.seq) + khi)
                        ~col:(0, d) ();
                    ];
                  writes = [];
                  action = Some action;
                };
            ]
          in
          let finish_action memory ~rank =
            let state = get_state () in
            Tensor.set_row_slice
              (Memory.find memory ~rank ~name:"o")
              ~lo:qlo (Nn.Flash.finish state)
          in
          let stmts =
            [
              Primitive.Load (access ~buffer:"q" ~row:(qlo, qhi) ~col:(0, d) ());
            ]
            @ List.concat (List.init kv_steps step_stmts)
            @ [
                Primitive.Compute
                  {
                    label = Label.int2 "finish[z" z ",m" mt "]";
                    cost =
                      Instr.Memory_tile
                        { rows = config.q_tile; cols = d; passes = 1 };
                    reads = [];
                    writes =
                      [ access ~buffer:"o" ~row:(qlo, qhi) ~col:(0, d) () ];
                    action = Some finish_action;
                  };
                Primitive.Store (access ~buffer:"o" ~row:(qlo, qhi) ~col:(0, d) ());
              ]
          in
          {
            Program.label = Label.int2 "attn[z" z ",m" mt "]";
            instrs = Block_channel.lower bc stmts;
          }
        in
        let m_tiles = spr / config.q_tile in
        let attn_tasks =
          List.concat
            (List.init spec.batch_heads (fun z ->
                 List.init m_tiles (fun mt -> attn_task z mt)))
        in
        [
          {
            Program.role_name = "agkv-host";
            resource = Program.Host_stream;
            lane = Tilelink_sim.Trace.Dma;
            tasks = host_tasks;
          };
          {
            Program.role_name = "flash-attn";
            resource = Program.Sm_partition spec_gpu.Spec.gpu.num_sms;
            lane = Tilelink_sim.Trace.Compute_sm;
            tasks = attn_tasks;
          };
        ])
  in
  Program.create ~name:"ag_attention" ~world_size:r
    ~pc_channels:(Mapping.num_channels mapping)
    ~peer_channels:1 plans

(* Compute-only flash attention (no communication), for overlap-ratio
   accounting: ceil(tiles / sms) waves over all (z, q-tile, kv-step)
   work. *)
let flash_only_time (spec_gpu : Spec.t) spec ~(config : config) =
  let spr = s_per_rank spec in
  let q_tiles = spec.batch_heads * (spr / config.q_tile) in
  let steps = spec.seq / config.kv_tile in
  let tile_time =
    Cost.attention_tile_time spec_gpu ~tq:config.q_tile ~tkv:config.kv_tile
      ~d:spec.head_dim
  in
  let sms = spec_gpu.Spec.gpu.num_sms in
  let waves = (q_tiles + sms - 1) / sms in
  spec_gpu.Spec.overheads.kernel_launch
  +. (float_of_int waves *. float_of_int steps *. tile_time)

(* Communication-only time: the host-stream AllGather of K and V. *)
let comm_only_time (spec_gpu : Spec.t) spec =
  let spr = s_per_rank spec in
  let bytes =
    2.0 (* K and V *)
    *. float_of_int (spec.world_size - 1)
    *. float_of_int (spec.batch_heads * spr)
    *. float_of_int spec.head_dim *. Cost.dtype_bytes
  in
  spec_gpu.Spec.overheads.kernel_launch
  +. (bytes /. (spec_gpu.Spec.interconnect.nvlink_gbps *. 1.0e3))
