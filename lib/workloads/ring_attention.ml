(* RingAttention expressed with tile-centric primitives.

   The paper benchmarks RingAttention as an external library; here it
   is *also* built from the same primitives as everything else, which
   demonstrates that peer signalling expresses KV-rotation schedules
   and gives a numerically-validated implementation:

   - each rank starts from its own KV shard in slot 0 of a double
     buffer and, for R-1 steps, pushes the block it just used to the
     next rank's other slot;
   - block arrival and block consumption are peer signals: the sender
     may not overwrite the destination slot before every consumer tile
     of the *previous* step has read it;
   - flash-attention state accumulates across steps with the correct
     global kv offsets, so causal masking works unchanged.

   Signal layout (peer channels): arrival of step s = channel 2s
   (src = previous rank, or self for s = 0); consumption of step s =
   channel 2s+1 (notified tile-by-tile, and by the forwarding copy,
   toward the previous rank, which is the next writer of that slot);
   step order of q tile t = channel 2R + t (self-signalled: a tile's
   step s+1 waits for its step s, because every step updates the
   tile's one flash state). *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine

let access = Instr.access

type config = { q_tile : int; comm_sms : int }

let default_config = { q_tile = 128; comm_sms = 8 }

(* Segment held by [rank] at [step]: blocks rotate toward the next
   rank, so the block at step s originated at (rank - s). *)
let segment_at (spec : Attention.spec) ~rank ~step =
  (rank - step + spec.Attention.world_size) mod spec.Attention.world_size

let buffer_names slot = (Printf.sprintf "k_ring%d" slot, Printf.sprintf "v_ring%d" slot)

let alloc spec ~seed =
  let memory = Attention.alloc spec ~seed in
  let spr = Attention.s_per_rank spec in
  let rows = spec.Attention.batch_heads * spr in
  for rank = 0 to spec.Attention.world_size - 1 do
    for slot = 0 to 1 do
      let k_name, v_name = buffer_names slot in
      ignore
        (Memory.alloc memory ~rank ~name:k_name
           (Shape.of_list [ rows; spec.Attention.head_dim ]));
      ignore
        (Memory.alloc memory ~rank ~name:v_name
           (Shape.of_list [ rows; spec.Attention.head_dim ]))
    done
  done;
  memory

let reference = Attention.reference

let program ?(config = default_config) (spec : Attention.spec)
    ~(spec_gpu : Spec.t) =
  let r = spec.Attention.world_size in
  let spr = Attention.s_per_rank spec in
  let d = spec.Attention.head_dim in
  let z_count = spec.Attention.batch_heads in
  if spr mod config.q_tile <> 0 then
    invalid_arg "Ring_attention.program: q tile must divide the shard";
  let m_tiles = spr / config.q_tile in
  let n_tasks = z_count * m_tiles in
  let arrival step = 2 * step in
  let consumed step = (2 * step) + 1 in
  let step_order tile = (2 * r) + tile in
  let rows = z_count * spr in
  let plans =
    Array.init r (fun rank ->
        let next = (rank + 1) mod r in
        let prev = (rank - 1 + r) mod r in
        (* --- communication role --- *)
        let comm_step s =
          let slot = s mod 2 in
          let k_name, v_name = buffer_names slot in
          let dst_slot = (s + 1) mod 2 in
          let dk_name, dv_name = buffer_names dst_slot in
          let seed_copy =
            (* Step 0 stages the local shard into slot 0. *)
            if s > 0 then []
            else
              List.map
                (fun (src, dst) ->
                  Primitive.Rank_copy_data
                    {
                      src = access ~buffer:src ~row:(0, rows) ~col:(0, d) ();
                      dst = access ~buffer:dst ~row:(0, rows) ~col:(0, d) ();
                      action = None;
                    })
                [ ("k_shard", k_name); ("v_shard", v_name) ]
              @ [
                  Primitive.Peer_tile_notify
                    {
                      tile_key = arrival 0;
                      dst = rank;
                      amount = 1;
                      releases =
                        [
                          access ~buffer:k_name ~row:(0, rows) ~col:(0, d) ();
                          access ~buffer:v_name ~row:(0, rows) ~col:(0, d) ();
                        ];
                    };
                ]
          in
          let wait_arrival =
            (* To forward block s we must hold it. *)
            [
              Primitive.Peer_tile_wait
                {
                  tile_key = arrival s;
                  src = (if s = 0 then rank else prev);
                  threshold = 1;
                  guards =
                    [ access ~buffer:k_name ~row:(0, rows) ~col:(0, d) () ];
                };
            ]
          in
          let wait_slot_free =
            (* The destination slot was read by next's step s-1: by
               every tile and by next's own forwarding copy. *)
            if s = 0 then []
            else
              [
                Primitive.Peer_tile_wait
                  {
                    tile_key = consumed (s - 1);
                    src = next;
                    threshold = n_tasks + 1;
                    guards = [];
                  };
              ]
          in
          let pushes =
            List.map
              (fun (src, dst) ->
                Primitive.Tile_push_data
                  {
                    src = access ~buffer:src ~row:(0, rows) ~col:(0, d) ();
                    dst_rank = next;
                    dst = access ~buffer:dst ~row:(0, rows) ~col:(0, d) ();
                  })
              [ (k_name, dk_name); (v_name, dv_name) ]
          in
          let announce =
            [
              Primitive.Peer_tile_notify
                {
                  tile_key = arrival (s + 1);
                  dst = next;
                  amount = 1;
                  releases =
                    [
                      access ~rank:next ~buffer:dk_name ~row:(0, rows)
                        ~col:(0, d) ();
                      access ~rank:next ~buffer:dv_name ~row:(0, rows)
                        ~col:(0, d) ();
                    ];
                };
            ]
          in
          let release_slot =
            (* The forwarding copy has read this slot: prev may refill
               it with block s+2 (only a later send step waits). *)
            if s + 2 > r - 1 then []
            else
              [
                Primitive.Peer_tile_notify
                  { tile_key = consumed s; dst = prev; amount = 1;
                    releases = [] };
              ]
          in
          {
            Program.label = Printf.sprintf "ring-send[%d]" s;
            instrs =
              Lower.lower
                {
                  Lower.mapping =
                    Mapping.static ~extent:r ~ranks:r ~channels_per_rank:1
                      ~tile:1 ();
                  rank;
                  world_size = r;
                }
                (seed_copy @ wait_arrival @ wait_slot_free @ pushes
               @ announce @ release_slot);
          }
        in
        let comm_tasks = List.init (r - 1) comm_step in
        (* --- computation role: one task per (z, m-tile, step) so that
           workers never hold a whole ring loop (a looping task would
           deadlock whenever tiles outnumber workers: the consumed
           threshold of a step counts *every* tile).  Flash state
           persists across a tile's step tasks through a shared
           closure, so the steps of one tile must not overlap: each
           step waits on the tile's step-order channel for the one
           before it (online softmax tolerates any step order
           mathematically, but concurrent updates of one state race,
           and a different order changes the floating-point result).
           The state is named as the "flash_state" rows of the tile so
           the order is visible to the consistency checker. --- *)
        let attn_task z mt =
          let qlo = (z * spr) + (mt * config.q_tile) in
          let qhi = qlo + config.q_tile in
          let tile_mask =
            if spec.Attention.causal then
              Nn.Causal
                { q_offset = (rank * spr) + (mt * config.q_tile) }
            else Nn.No_mask
          in
          let state = ref None in
          let get_state () =
            match !state with
            | Some s -> s
            | None ->
              let s = Nn.Flash.create ~mask:tile_mask ~m:config.q_tile ~d () in
              state := Some s;
              s
          in
          let tile = (z * m_tiles) + mt in
          let state_rows =
            access ~buffer:"flash_state" ~row:(qlo, qhi) ~col:(0, d) ()
          in
          let step_stmts s =
            let slot = s mod 2 in
            let k_name, v_name = buffer_names slot in
            let seg = segment_at spec ~rank ~step:s in
            let action memory ~rank =
              let q_block =
                Tensor.row_slice
                  (Memory.find memory ~rank ~name:"q")
                  ~lo:qlo ~hi:qhi
              in
              let k_block =
                Tensor.row_slice
                  (Memory.find memory ~rank ~name:k_name)
                  ~lo:(z * spr)
                  ~hi:((z + 1) * spr)
              in
              let v_block =
                Tensor.row_slice
                  (Memory.find memory ~rank ~name:v_name)
                  ~lo:(z * spr)
                  ~hi:((z + 1) * spr)
              in
              Nn.Flash.update (get_state ()) q_block k_block v_block
                ~kv_offset:(seg * spr)
            in
            (if s = 0 then []
             else
               [
                 Primitive.Peer_tile_wait
                   {
                     tile_key = step_order tile;
                     src = rank;
                     threshold = s;
                     guards = [ state_rows ];
                   };
               ])
            @ [
              Primitive.Peer_tile_wait
                {
                  tile_key = arrival s;
                  src = (if s = 0 then rank else prev);
                  threshold = 1;
                  guards =
                    [ access ~buffer:k_name ~row:(0, rows) ~col:(0, d) () ];
                };
              Primitive.Load
                (access ~buffer:k_name ~row:(z * spr, (z + 1) * spr)
                   ~col:(0, d) ());
              Primitive.Compute
                {
                  label = Printf.sprintf "ring-flash[z%d,m%d,s%d]" z mt s;
                  cost =
                    Instr.Attention_tile { tq = config.q_tile; tkv = spr; d };
                  reads =
                    [
                      access ~buffer:k_name ~row:(z * spr, (z + 1) * spr)
                        ~col:(0, d) ();
                      state_rows;
                    ];
                  writes = [ state_rows ];
                  action = Some action;
                };
            ]
            @
            if s = r - 1 then []
            else
              [
                Primitive.Peer_tile_notify
                  { tile_key = consumed s; dst = prev; amount = 1;
                    releases = [] };
                Primitive.Peer_tile_notify
                  { tile_key = step_order tile; dst = rank; amount = 1;
                    releases = [ state_rows ] };
              ]
          in
          let finish_action memory ~rank =
            Tensor.set_row_slice
              (Memory.find memory ~rank ~name:"o")
              ~lo:qlo
              (Nn.Flash.finish (get_state ()))
          in
          let step_task s =
            let stmts =
              step_stmts s
              @
              if s < r - 1 then []
              else
                [
                  Primitive.Compute
                    {
                      label = Printf.sprintf "ring-finish[z%d,m%d]" z mt;
                      cost =
                        Instr.Memory_tile
                          { rows = config.q_tile; cols = d; passes = 1 };
                      reads = [ state_rows ];
                      writes =
                        [ access ~buffer:"o" ~row:(qlo, qhi) ~col:(0, d) () ];
                      action = Some finish_action;
                    };
                  Primitive.Store
                    (access ~buffer:"o" ~row:(qlo, qhi) ~col:(0, d) ());
                ]
            in
            {
              Program.label = Printf.sprintf "ring-attn[z%d,m%d,s%d]" z mt s;
              instrs =
                Lower.lower
                  {
                    Lower.mapping =
                      Mapping.static ~extent:r ~ranks:r ~channels_per_rank:1
                        ~tile:1 ();
                    rank;
                    world_size = r;
                  }
                  stmts;
            }
          in
          step_task
        in
        (* Stage-major queue: all tiles of step 0, then step 1, ... *)
        let tile_steps =
          List.concat
            (List.init z_count (fun z ->
                 List.init m_tiles (fun mt -> attn_task z mt)))
        in
        let attn_tasks =
          List.concat
            (List.init r (fun s ->
                 List.map (fun step_task -> step_task s) tile_steps))
        in
        [
          {
            Program.role_name = "ring-comm";
            resource = Program.Sm_partition config.comm_sms;
            lane = Tilelink_sim.Trace.Comm_sm;
            tasks = comm_tasks;
          };
          {
            Program.role_name = "ring-flash";
            resource =
              Program.Sm_partition
                (max 1 (spec_gpu.Spec.gpu.num_sms - config.comm_sms));
            lane = Tilelink_sim.Trace.Compute_sm;
            tasks = attn_tasks;
          };
        ])
  in
  Program.create ~name:"ring_attention" ~world_size:r ~pc_channels:1
    ~peer_channels:((2 * r) + n_tasks) plans
