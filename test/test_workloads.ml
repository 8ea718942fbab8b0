(* Correctness tests for the overlapped workload kernels: every
   generated schedule must reproduce the reference computation exactly,
   across tile sizes, orders and resource bindings. *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine
open Tilelink_workloads

let tensor_close ?(atol = 1e-9) msg expected actual =
  let report = Check.compare ~atol expected actual in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%s)" msg
       (Format.asprintf "%a" Check.pp_report report))
    true report.Check.within

let base_config =
  {
    Design_space.comm_tile = (2, 2);
    compute_tile = (2, 3);
    comm_order = Tile.Row_major;
    compute_order = Tile.Row_major;
    binding = Design_space.Comm_on_sm 1;
    stages = 2;
    micro_block = 0;
  }

(* ------------------------------------------------------------------ *)
(* AG + GEMM                                                           *)
(* ------------------------------------------------------------------ *)

let ag_spec = { Mlp.m = 8; k = 4; n = 6; world_size = 2 }

let run_ag_gemm ?transfer config =
  let memory = Mlp.ag_gemm_alloc ag_spec ~seed:11 in
  let cluster = Cluster.create Calib.test_machine ~world_size:2 in
  let program =
    Mlp.ag_gemm_program ?transfer ~config ag_spec
      ~spec_gpu:Calib.test_machine
  in
  let result = Runtime.run ~data:true ~memory cluster program in
  (memory, result)

let check_ag_gemm ?transfer config msg =
  let memory, _ = run_ag_gemm ?transfer config in
  for rank = 0 to 1 do
    tensor_close
      (Printf.sprintf "%s rank %d" msg rank)
      (Mlp.ag_gemm_reference memory ag_spec ~rank)
      (Memory.find memory ~rank ~name:"y")
  done

let test_ag_gemm_sm_binding () = check_ag_gemm base_config "sm binding"

let test_ag_gemm_dma_binding () =
  check_ag_gemm
    { base_config with Design_space.binding = Design_space.Comm_on_dma }
    "dma binding"

let test_ag_gemm_hybrid_binding () =
  check_ag_gemm
    {
      base_config with
      Design_space.binding =
        Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 1 };
    }
    "hybrid binding"

let test_ag_gemm_ring_orders () =
  check_ag_gemm
    {
      base_config with
      Design_space.comm_order = Tile.Ring_from_self { segments = 2 };
      compute_order = Tile.Ring_from_self { segments = 2 };
    }
    "ring orders"

let test_ag_gemm_mismatched_tiles () =
  (* Comm tile 4 rows vs compute tile 2 rows — the decoupled sizes the
     paper motivates. *)
  check_ag_gemm
    { base_config with Design_space.comm_tile = (4, 4) }
    "decoupled tile sizes"

let test_ag_gemm_deep_pipeline () =
  check_ag_gemm { base_config with Design_space.stages = 4 } "stages=4"

let test_ag_gemm_push_mode () =
  check_ag_gemm ~transfer:`Push base_config "push mode"

let test_ag_gemm_push_mode_dma () =
  check_ag_gemm ~transfer:`Push
    { base_config with Design_space.binding = Design_space.Comm_on_dma }
    "push mode dma"

let test_ag_gemm_push_world4 () =
  (* Push mode across 4 ranks with decoupled tile sizes. *)
  let spec4 = { Mlp.m = 16; k = 4; n = 6; world_size = 4 } in
  let memory = Mlp.ag_gemm_alloc spec4 ~seed:12 in
  let cluster = Cluster.create Calib.test_machine ~world_size:4 in
  let config =
    {
      base_config with
      Design_space.comm_tile = (4, 4);
      comm_order = Tile.Ring_from_self { segments = 4 };
    }
  in
  let program =
    Mlp.ag_gemm_program ~transfer:`Push ~config spec4
      ~spec_gpu:Calib.test_machine
  in
  ignore (Runtime.run ~data:true ~memory cluster program);
  for rank = 0 to 3 do
    tensor_close
      (Printf.sprintf "push world-4 rank %d" rank)
      (Mlp.ag_gemm_reference memory spec4 ~rank)
      (Memory.find memory ~rank ~name:"y")
  done

let test_ag_gemm_push_consistent () =
  let program =
    Mlp.ag_gemm_program ~transfer:`Push ~config:base_config ag_spec
      ~spec_gpu:Calib.test_machine
  in
  match Consistency.verify_program program with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "consistency violation: %a" Consistency.pp_violation v

let test_ag_gemm_program_is_consistent () =
  let program =
    Mlp.ag_gemm_program ~config:base_config ag_spec
      ~spec_gpu:Calib.test_machine
  in
  (match Consistency.verify_program program with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "consistency violation: %a" Consistency.pp_violation v)

let test_ag_gemm_rejects_bad_tile () =
  Alcotest.(check bool) "non-dividing comm tile rejected" true
    (try
       ignore
         (Mlp.ag_gemm_program
            ~config:{ base_config with Design_space.comm_tile = (3, 3) }
            ag_spec ~spec_gpu:Calib.test_machine);
       false
     with Invalid_argument _ -> true)

(* A zero tile dimension used to reach integer division in the
   builders; both reject it as a bad argument, which [Tune] counts as a
   skipped build rather than a crashed sweep. *)
let non_positive_tiles =
  [ ((0, 2), (2, 2)); ((2, 0), (2, 2)); ((2, 2), (0, 2)); ((2, 2), (2, -1)) ]

let check_rejects_non_positive_tiles build base =
  List.iter
    (fun (comm_tile, compute_tile) ->
      Alcotest.(check bool)
        (Printf.sprintf "comm %dx%d, compute %dx%d rejected" (fst comm_tile)
           (snd comm_tile) (fst compute_tile) (snd compute_tile))
        true
        (match
           build { base with Design_space.comm_tile; compute_tile }
         with
        | _ -> false
        | exception Invalid_argument _ -> true))
    non_positive_tiles

let test_ag_gemm_rejects_non_positive_tiles () =
  check_rejects_non_positive_tiles
    (fun config ->
      Mlp.ag_gemm_program ~config ag_spec ~spec_gpu:Calib.test_machine)
    base_config

let prop_ag_gemm_correct_random_shapes =
  QCheck.Test.make
    ~name:"ag+gemm correct across random shapes, tiles and modes" ~count:25
    QCheck.(
      quad
        (pair (int_range 1 2) (int_range 1 3)) (* world exp, tiles/shard *)
        (int_range 1 3)                        (* comm tile rows *)
        (pair (int_range 1 5) (int_range 1 5)) (* k, n *)
        (pair (pair (int_range 1 4) (int_range 1 4)) bool))
    (* compute tile, push? *)
      (fun ((world_exp, tiles_per_shard), comm_tm, (k, n), ((ctm, ctn), push)) ->
      (* Shrinking may step outside the generator ranges; clamp. *)
      let world = 1 lsl max 1 world_exp in
      let tiles_per_shard = max 1 tiles_per_shard in
      let comm_tm = max 1 comm_tm in
      let k = max 1 k and n = max 1 n in
      let ctm = max 1 ctm and ctn = max 1 ctn in
      let m = world * comm_tm * tiles_per_shard in
      let spec = { Mlp.m; k; n; world_size = world } in
      let config =
        {
          Design_space.comm_tile = (comm_tm, comm_tm);
          compute_tile = (ctm, ctn);
          comm_order = Tile.Ring_from_self { segments = world };
          compute_order = Tile.Row_major;
          binding = Design_space.Comm_on_sm 1;
          stages = 2;
          micro_block = 0;
        }
      in
      let memory = Mlp.ag_gemm_alloc spec ~seed:(m + k + n) in
      let cluster = Cluster.create Calib.test_machine ~world_size:world in
      let program =
        Mlp.ag_gemm_program
          ~transfer:(if push then `Push else `Pull)
          ~config spec ~spec_gpu:Calib.test_machine
      in
      ignore (Runtime.run ~data:true ~memory cluster program);
      List.for_all
        (fun rank ->
          Check.close
            (Mlp.ag_gemm_reference memory spec ~rank)
            (Memory.find memory ~rank ~name:"y"))
        (List.init world (fun i -> i)))

(* ------------------------------------------------------------------ *)
(* GEMM + ring ReduceScatter                                           *)
(* ------------------------------------------------------------------ *)

let rs_spec = { Mlp.rs_m = 8; rs_k = 3; rs_n = 4; rs_world = 2 }

let rs_config =
  {
    Design_space.comm_tile = (2, 2);
    compute_tile = (2, 2);
    comm_order = Tile.Row_major;
    compute_order = Tile.Row_major;
    binding = Design_space.Comm_on_sm 1;
    stages = 1;
    micro_block = 0;
  }

let check_gemm_rs config msg =
  let memory = Mlp.gemm_rs_alloc rs_spec ~seed:21 in
  let cluster = Cluster.create Calib.test_machine ~world_size:2 in
  let program =
    Mlp.gemm_rs_program ~config rs_spec ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to 1 do
    tensor_close
      (Printf.sprintf "%s rank %d" msg rank)
      (Mlp.gemm_rs_reference memory rs_spec ~rank)
      (Memory.find memory ~rank ~name:"out")
  done

let test_gemm_rs_basic () = check_gemm_rs rs_config "ring rs"

let test_gemm_rs_rejects_non_positive_tiles () =
  let build config =
    Mlp.gemm_rs_program ~config rs_spec ~spec_gpu:Calib.test_machine
  in
  check_rejects_non_positive_tiles build rs_config;
  match
    Tune.search_programs ~build
      ~make_cluster:(fun () -> Cluster.create Calib.test_machine ~world_size:2)
      [ { rs_config with Design_space.comm_tile = (2, 0) }; rs_config ]
  with
  | None -> Alcotest.fail "the feasible candidate was not evaluated"
  | Some outcome ->
    Alcotest.(check int) "zero tile skipped at build" 1
      outcome.Tune.skipped_build

let test_gemm_rs_hybrid () =
  check_gemm_rs
    {
      rs_config with
      Design_space.binding =
        Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 1 };
    }
    "hybrid rs"

let test_gemm_rs_decoupled_tiles () =
  check_gemm_rs
    {
      rs_config with
      Design_space.comm_tile = (4, 4);
      compute_tile = (2, 2);
    }
    "decoupled rs tiles"

let test_gemm_rs_larger_world () =
  let spec = { Mlp.rs_m = 16; rs_k = 3; rs_n = 4; rs_world = 4 } in
  let memory = Mlp.gemm_rs_alloc spec ~seed:31 in
  let cluster = Cluster.create Calib.test_machine ~world_size:4 in
  let program =
    Mlp.gemm_rs_program ~config:rs_config spec ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to 3 do
    tensor_close
      (Printf.sprintf "world-4 rank %d" rank)
      (Mlp.gemm_rs_reference memory spec ~rank)
      (Memory.find memory ~rank ~name:"out")
  done

let test_gemm_rs_consistent () =
  let program =
    Mlp.gemm_rs_program ~config:rs_config rs_spec
      ~spec_gpu:Calib.test_machine
  in
  (match Consistency.verify_program program with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "consistency violation: %a" Consistency.pp_violation v)

(* [Golden_cases.gemm_rs_pin] as rendered when GEMM+RS wrote its ring
   ReduceScatter consumer out by hand: building it from [Ring_rs] must
   emit the same listings, roles and task labels. *)
let golden_gemm_rs_pin =
  {golden|mlp_gemm_rs/w2 listing 2685d17ab8ae279f490dd2d42280f7ff tasks 77ccea0ef022d18f54794bfbe7105aa4
mlp_gemm_rs/w4 listing 946b30067f142c5feb11b5be0a039aff tasks dee34509ad2814c485ff2eaf2bad4a75
tuned0 listing 3da2f0dd66f26cfeccf1214b76d8a315 tasks 7a7b66988be651e705e4bd7e8d89ddbc
tuned1 listing 908b73789fc6a5d4254e556248b77d68 tasks ba9ce96e76f1b1f9ac4ed6bf531d887e
tuned2 listing 6a57d8672ef0add96a3b4e0fdee85cb7 tasks 486493571252a2c6d3c46bff4c984dec
tuned3 listing 647839c11a6a722426b8f91b619ce6c9 tasks 73f4474b200be27418452f89276554bc
tuned4 listing 092c6172dee6ace5f7d9ba6bed6278e5 tasks 6bf64e77fd56aef5f6392a01dab1b685
tuned5 listing 46e93df2d9112d27c38a41d3c71da016 tasks d1530815a84aa69f9e8bef1697ebe964
tuned6 listing 203c139eb2bae699936f8f7e4f5bfddf tasks 51d61395a93dae774177f8ae61dbc827
tuned7 listing 4f296803eca1f0071911f99e70175439 tasks ed21827153b0dcae1c209baa20620922
sm/w2 listing ee1b169f3b265763b486b1a94e7bc80d tasks 09f207cc27cea4916de5bfedf4720a4e
dma/w4 listing 9c25fafb9fdbe48c652e5d63e9108cfe tasks 2cee67fe9ce6a9c5eadad4784b81e9cf
hybrid/w8 listing fa0cdfa90b74022fdefefe0af8830299 tasks 2ff4931ffa64cca1462079aaa9cef7a1
hybrid/w2/ring listing d57ca530b69893ba6a1a63a4e01db193 tasks f3d7c972372b0df7536fc8268edac993|golden}

let test_gemm_rs_pinned () =
  Alcotest.(check string)
    "listings and labels match the hand-written builder" golden_gemm_rs_pin
    (Golden_cases.gemm_rs_pin ())

(* ------------------------------------------------------------------ *)
(* MoE: dynamic mapping                                                *)
(* ------------------------------------------------------------------ *)

let moe_spec =
  {
    Moe.tokens = 8;
    hidden = 4;
    intermediate = 8;
    experts = 3;
    topk = 2;
    world_size = 2;
  }

let test_moe_part1 () =
  let route = Moe.routing moe_spec ~seed:5 in
  let memory = Moe.part1_alloc moe_spec ~seed:41 in
  let cluster = Cluster.create Calib.test_machine ~world_size:2 in
  let config =
    {
      Moe.comm_tile_rows = 2;
      group_tile_rows = 2;
      comm_binding = Design_space.Comm_on_sm 1;
    }
  in
  let program =
    Moe.part1_program ~config moe_spec route ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to 1 do
    tensor_close
      (Printf.sprintf "moe part1 rank %d" rank)
      (Moe.part1_reference memory moe_spec route ~rank)
      (Memory.find memory ~rank ~name:"moe_mid")
  done

let test_moe_part1_dma () =
  let route = Moe.routing moe_spec ~seed:6 in
  let memory = Moe.part1_alloc moe_spec ~seed:42 in
  let cluster = Cluster.create Calib.test_machine ~world_size:2 in
  let config =
    {
      Moe.comm_tile_rows = 4;
      group_tile_rows = 2;
      comm_binding = Design_space.Comm_on_dma;
    }
  in
  let program =
    Moe.part1_program ~config moe_spec route ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to 1 do
    tensor_close
      (Printf.sprintf "moe part1 dma rank %d" rank)
      (Moe.part1_reference memory moe_spec route ~rank)
      (Memory.find memory ~rank ~name:"moe_mid")
  done

let moe_part2_config =
  {
    Moe.gg_tile_rows = 2;
    reduce_tile_rows = 2;
    rs_tile_rows = 2;
    reduce_sms = 1;
    rs_sms = 1;
  }

let test_moe_part2 () =
  let route = Moe.routing moe_spec ~seed:7 in
  let memory = Moe.part2_alloc moe_spec ~seed:43 in
  let cluster = Cluster.create Calib.test_machine ~world_size:2 in
  let program =
    Moe.part2_program ~config:moe_part2_config moe_spec route
      ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to 1 do
    tensor_close ~atol:1e-8
      (Printf.sprintf "moe part2 rank %d" rank)
      (Moe.part2_reference memory moe_spec route ~rank)
      (Memory.find memory ~rank ~name:"out")
  done

let test_moe_part2_world4 () =
  let spec = { moe_spec with Moe.tokens = 16; world_size = 4 } in
  let route = Moe.routing spec ~seed:8 in
  let memory = Moe.part2_alloc spec ~seed:44 in
  let cluster = Cluster.create Calib.test_machine ~world_size:4 in
  let program =
    Moe.part2_program ~config:moe_part2_config spec route
      ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to 3 do
    tensor_close ~atol:1e-8
      (Printf.sprintf "moe part2 w4 rank %d" rank)
      (Moe.part2_reference memory spec route ~rank)
      (Memory.find memory ~rank ~name:"out")
  done

let test_moe_programs_consistent () =
  let route = Moe.routing moe_spec ~seed:9 in
  List.iter
    (fun program ->
      match Consistency.verify_program program with
      | Ok () -> ()
      | Error v ->
        Alcotest.failf "consistency violation: %a" Consistency.pp_violation v)
    [
      Moe.part1_program moe_spec route ~spec_gpu:Calib.test_machine
        ~config:
          {
            Moe.comm_tile_rows = 2;
            group_tile_rows = 2;
            comm_binding = Design_space.Comm_on_sm 1;
          };
      Moe.part2_program ~config:moe_part2_config moe_spec route
        ~spec_gpu:Calib.test_machine;
    ]

(* [Golden_cases.moe_part2_pin] as rendered when part 2 wrote its ring
   stage out by hand: the shared [Ring_rs] stage adds a staging load of
   the receive buffer to the listing but leaves the tasks and the
   simulated makespan unchanged. *)
let golden_moe_part2_pin =
  {golden|moe_part2/w2 tasks 54411426a25da7508009e1a11b530be7 makespan 12.926618751480198
moe_part2/w4 tasks 0b5ce0104276fed4cdc94766541fc448 makespan 20.014464063610138|golden}

let test_moe_part2_pinned () =
  Alcotest.(check string)
    "task lists and makespans match the hand-written ring stage"
    golden_moe_part2_pin
    (Golden_cases.moe_part2_pin ())

let rejects msg build =
  Alcotest.(check bool) msg true
    (match build () with _ -> false | exception Invalid_argument _ -> true)

(* Zero or negative tile rows used to reach integer division in both
   builders; both reject them as bad arguments, which [Tune] counts as a
   skipped build rather than a crashed sweep. *)
let test_moe_rejects_non_positive_tiles () =
  let route = Moe.routing moe_spec ~seed:5 in
  let part1 ~comm ~group () =
    Moe.part1_program moe_spec route ~spec_gpu:Calib.test_machine
      ~config:
        {
          Moe.comm_tile_rows = comm;
          group_tile_rows = group;
          comm_binding = Design_space.Comm_on_sm 1;
        }
  in
  let part2 config =
    Moe.part2_program ~config moe_spec route ~spec_gpu:Calib.test_machine
  in
  rejects "part1 comm tile 0" (part1 ~comm:0 ~group:2);
  rejects "part1 group tile 0" (part1 ~comm:2 ~group:0);
  rejects "part1 group tile -1" (part1 ~comm:2 ~group:(-1));
  List.iter
    (fun (msg, config) -> rejects msg (fun () -> part2 config))
    [
      ("part2 gg tile 0", { moe_part2_config with Moe.gg_tile_rows = 0 });
      ("part2 reduce tile 0", { moe_part2_config with Moe.reduce_tile_rows = 0 });
      ("part2 rs tile 0", { moe_part2_config with Moe.rs_tile_rows = 0 });
      ("part2 rs tile -2", { moe_part2_config with Moe.rs_tile_rows = -2 });
    ];
  let build (config : Design_space.config) =
    part2 { moe_part2_config with Moe.rs_tile_rows = fst config.comm_tile }
  in
  match
    Tune.search_programs ~build
      ~make_cluster:(fun () -> Cluster.create Calib.test_machine ~world_size:2)
      [ { rs_config with Design_space.comm_tile = (0, 2) }; rs_config ]
  with
  | None -> Alcotest.fail "the feasible candidate was not evaluated"
  | Some outcome ->
    Alcotest.(check int) "zero tile skipped at build" 1
      outcome.Tune.skipped_build

(* [intermediate] is split evenly over the ranks; a remainder used to
   be dropped silently (down to zero-width expert GEMMs). *)
let test_moe_rejects_indivisible_intermediate () =
  let spec = { moe_spec with Moe.intermediate = 7 } in
  let route = Moe.routing spec ~seed:5 in
  rejects "part1" (fun () ->
      Moe.part1_program spec route ~spec_gpu:Calib.test_machine
        ~config:
          {
            Moe.comm_tile_rows = 2;
            group_tile_rows = 2;
            comm_binding = Design_space.Comm_on_sm 1;
          });
  rejects "part2" (fun () ->
      Moe.part2_program ~config:moe_part2_config spec route
        ~spec_gpu:Calib.test_machine)

let test_expert_tiles_alignment () =
  let route = Moe.routing moe_spec ~seed:10 in
  let perm = Routing.permutation route in
  let tiles = Moe.expert_tiles perm ~tile_rows:3 in
  (* Tiles never cross expert segment boundaries and cover all rows. *)
  let covered = ref 0 in
  List.iter
    (fun (expert, lo, hi) ->
      covered := !covered + (hi - lo);
      Alcotest.(check bool) "within segment" true
        (lo >= perm.Routing.segment_offsets.(expert)
        && hi <= perm.Routing.segment_offsets.(expert + 1)))
    tiles;
  Alcotest.(check int) "full coverage" (8 * 2) !covered

(* ------------------------------------------------------------------ *)
(* Sequence-parallel attention                                         *)
(* ------------------------------------------------------------------ *)

let attn_spec =
  {
    Attention.batch_heads = 2;
    seq = 16;
    head_dim = 4;
    world_size = 2;
    causal = false;
  }

let attn_config = { Attention.q_tile = 4; kv_tile = 4 }

let check_attention spec msg =
  let memory = Attention.alloc spec ~seed:51 in
  let cluster =
    Cluster.create Calib.test_machine ~world_size:spec.Attention.world_size
  in
  let program =
    Attention.program ~config:attn_config spec ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to spec.Attention.world_size - 1 do
    tensor_close ~atol:1e-8
      (Printf.sprintf "%s rank %d" msg rank)
      (Attention.reference memory spec ~rank)
      (Memory.find memory ~rank ~name:"o")
  done

let test_attention_full () = check_attention attn_spec "full attention"

let test_attention_causal () =
  check_attention { attn_spec with Attention.causal = true } "causal"

let test_attention_world4 () =
  check_attention
    { attn_spec with Attention.seq = 32; world_size = 4 }
    "world 4"

let test_attention_consistent () =
  let program =
    Attention.program ~config:attn_config attn_spec
      ~spec_gpu:Calib.test_machine
  in
  match Consistency.verify_program program with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "consistency violation: %a" Consistency.pp_violation v

let test_attention_rejects_bad_tiles () =
  Alcotest.(check bool) "kv tile > segment rejected" true
    (try
       ignore
         (Attention.program
            ~config:{ Attention.q_tile = 4; kv_tile = 16 }
            attn_spec ~spec_gpu:Calib.test_machine);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Multi-node: kernels spanning two nodes route through the NIC        *)
(* ------------------------------------------------------------------ *)

let test_ag_gemm_across_two_nodes () =
  (* The test machine has gpus_per_node = 4, so 8 ranks span 2 nodes:
     the gather must stay correct and cross-node traffic must actually
     go through the NICs. *)
  let spec8 = { Mlp.m = 32; k = 4; n = 6; world_size = 8 } in
  let memory = Mlp.ag_gemm_alloc spec8 ~seed:71 in
  let cluster = Cluster.create Calib.test_machine ~world_size:8 in
  Alcotest.(check int) "two nodes" 2 (Cluster.num_nodes cluster);
  Alcotest.(check bool) "nodes split at 4" true
    (Cluster.same_node cluster 0 3 && not (Cluster.same_node cluster 3 4));
  let config =
    {
      base_config with
      Design_space.comm_tile = (4, 4);
      comm_order = Tile.Ring_from_self { segments = 8 };
    }
  in
  let program =
    Mlp.ag_gemm_program ~config spec8 ~spec_gpu:Calib.test_machine
  in
  ignore (Runtime.run ~data:true ~memory cluster program);
  for rank = 0 to 7 do
    tensor_close
      (Printf.sprintf "two-node rank %d" rank)
      (Mlp.ag_gemm_reference memory spec8 ~rank)
      (Memory.find memory ~rank ~name:"y")
  done;
  Alcotest.(check bool) "cross-node bytes went through NIC 0" true
    (Cluster.nic_bytes cluster ~node:0 > 0.0);
  Alcotest.(check bool) "and NIC 1" true
    (Cluster.nic_bytes cluster ~node:1 > 0.0);
  Alcotest.(check bool) "intra-node bytes on NVLink" true
    (Cluster.nvlink_bytes cluster ~rank_id:0 > 0.0)

let test_cross_node_slower_than_intra () =
  (* Same transfer volume, NIC vs NVLink: the inter-node path must be
     slower on the calibrated machine. *)
  let time src dst =
    let cluster = Cluster.create Calib.test_machine ~world_size:8 in
    let t = ref 0.0 in
    Tilelink_sim.Process.spawn (Cluster.engine cluster) (fun () ->
        Cluster.transfer cluster ~src ~dst ~bytes:1.0e6;
        t := Cluster.now cluster);
    Tilelink_sim.Engine.run (Cluster.engine cluster);
    !t
  in
  Alcotest.(check bool) "NIC slower than NVLink" true (time 0 4 > time 0 1)

(* ------------------------------------------------------------------ *)
(* RingAttention as a tile program                                     *)
(* ------------------------------------------------------------------ *)

let ring_config = { Ring_attention.q_tile = 4; comm_sms = 1 }

let check_ring_attention spec msg =
  let memory = Ring_attention.alloc spec ~seed:61 in
  let cluster =
    Cluster.create Calib.test_machine ~world_size:spec.Attention.world_size
  in
  let program =
    Ring_attention.program ~config:ring_config spec
      ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to spec.Attention.world_size - 1 do
    tensor_close ~atol:1e-8
      (Printf.sprintf "%s rank %d" msg rank)
      (Ring_attention.reference memory spec ~rank)
      (Memory.find memory ~rank ~name:"o")
  done

let test_ring_attention_full () = check_ring_attention attn_spec "ring full"

let test_ring_attention_causal () =
  check_ring_attention
    { attn_spec with Attention.causal = true }
    "ring causal"

let test_ring_attention_world4 () =
  check_ring_attention
    { attn_spec with Attention.seq = 32; world_size = 4 }
    "ring world 4"

let test_ring_attention_consistent () =
  let program =
    Ring_attention.program ~config:ring_config attn_spec
      ~spec_gpu:Calib.test_machine
  in
  match Consistency.verify_program program with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "consistency violation: %a" Consistency.pp_violation v

let test_ring_segment_rotation () =
  let spec = { attn_spec with Attention.world_size = 4 } in
  (* Rank 1 holds its own segment at step 0, then 0, 3, 2. *)
  Alcotest.(check (list int)) "rotation" [ 1; 0; 3; 2 ]
    (List.init 4 (fun step -> Ring_attention.segment_at spec ~rank:1 ~step))

(* ------------------------------------------------------------------ *)
(* Expert-parallel MoE (All2All extension)                             *)
(* ------------------------------------------------------------------ *)

let ep_spec =
  {
    Ep_moe.tokens = 16;
    hidden = 4;
    intermediate = 6;
    experts = 4;
    topk = 2;
    world_size = 2;
  }

let ep_config =
  { Ep_moe.tile_rows = 2; comm_binding = Design_space.Comm_on_dma }

let check_ep_moe spec msg =
  let route = Ep_moe.routing spec ~seed:13 in
  let memory, _layout = Ep_moe.alloc spec route ~seed:14 in
  let cluster =
    Cluster.create Calib.test_machine ~world_size:spec.Ep_moe.world_size
  in
  let program =
    Ep_moe.program ~config:ep_config spec route ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to spec.Ep_moe.world_size - 1 do
    tensor_close ~atol:1e-8
      (Printf.sprintf "%s rank %d" msg rank)
      (Ep_moe.reference memory spec route ~rank)
      (Memory.find memory ~rank ~name:"out")
  done

let test_ep_moe_correct () = check_ep_moe ep_spec "ep moe"

let test_ep_moe_world4 () =
  check_ep_moe
    { ep_spec with Ep_moe.tokens = 32; experts = 8; world_size = 4 }
    "ep moe w4"

let test_ep_moe_topk1 () =
  check_ep_moe { ep_spec with Ep_moe.topk = 1 } "ep moe topk1"

let test_ep_moe_sm_binding () =
  let route = Ep_moe.routing ep_spec ~seed:15 in
  let memory, _ = Ep_moe.alloc ep_spec route ~seed:16 in
  let cluster = Cluster.create Calib.test_machine ~world_size:2 in
  let program =
    Ep_moe.program
      ~config:{ Ep_moe.tile_rows = 2; comm_binding = Design_space.Comm_on_sm 1 }
      ep_spec route ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  for rank = 0 to 1 do
    tensor_close ~atol:1e-8
      (Printf.sprintf "ep moe sm rank %d" rank)
      (Ep_moe.reference memory ep_spec route ~rank)
      (Memory.find memory ~rank ~name:"out")
  done

let test_ep_moe_layout_invariants () =
  let route = Ep_moe.routing ep_spec ~seed:17 in
  let layout = Ep_moe.build_layout ep_spec route in
  (* Every token-slot appears in exactly one segment, on the rank that
     owns its expert, at consistent offsets. *)
  let total =
    Array.fold_left
      (fun acc segs ->
        List.fold_left
          (fun acc (seg : Ep_moe.segment) ->
            acc + List.length seg.Ep_moe.entries)
          acc segs)
      0 layout.Ep_moe.segments_of_rank
  in
  Alcotest.(check int) "all slots placed"
    (ep_spec.Ep_moe.tokens * ep_spec.Ep_moe.topk)
    total;
  Array.iteri
    (fun owner segs ->
      let last = ref 0 in
      List.iter
        (fun (seg : Ep_moe.segment) ->
          Alcotest.(check int) "offsets contiguous" !last seg.Ep_moe.recv_lo;
          last := seg.Ep_moe.recv_lo + List.length seg.Ep_moe.entries;
          Alcotest.(check int) "expert owned here" owner
            (Ep_moe.expert_owner ep_spec seg.Ep_moe.expert))
        segs;
      Alcotest.(check int) "recv height" layout.Ep_moe.recv_rows.(owner) !last)
    layout.Ep_moe.segments_of_rank

let test_ep_moe_consistent () =
  let route = Ep_moe.routing ep_spec ~seed:18 in
  let program =
    Ep_moe.program ~config:ep_config ep_spec route
      ~spec_gpu:Calib.test_machine
  in
  match Consistency.verify_program program with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "consistency violation: %a" Consistency.pp_violation v

(* ------------------------------------------------------------------ *)
(* Pipeline parallelism (future-work feature, §7.4)                    *)
(* ------------------------------------------------------------------ *)

let pp_spec =
  { Pipeline_parallel.stages = 3; micro_batches = 4; micro_rows = 4; width = 5 }

let pp_config = { Pipeline_parallel.tile_rows = 4; comm_sms = 1 }

let test_pipeline_parallel_correct () =
  let memory = Pipeline_parallel.alloc pp_spec ~seed:81 in
  let cluster = Cluster.create Calib.test_machine ~world_size:3 in
  let program =
    Pipeline_parallel.program ~config:pp_config pp_spec
      ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  tensor_close ~atol:1e-8 "chained gemm through 3 stages"
    (Pipeline_parallel.reference memory pp_spec)
    (Memory.find memory ~rank:2 ~name:"out_buf")

let test_pipeline_parallel_overlaps () =
  (* With several micro-batches the pipelined makespan must be well
     under serial stage-after-stage execution. *)
  let spec =
    { Pipeline_parallel.stages = 4; micro_batches = 8; micro_rows = 512;
      width = 2048 }
  in
  let cluster = Cluster.create Calib.h800 ~world_size:4 in
  let program =
    Pipeline_parallel.program spec ~spec_gpu:Calib.h800
      ~config:{ Pipeline_parallel.tile_rows = 128; comm_sms = 8 }
  in
  let pipelined = (Runtime.run cluster program).Runtime.makespan in
  let serial = Pipeline_parallel.serial_time Calib.h800 spec in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined (%.0f) < 0.8 * serial (%.0f)" pipelined serial)
    true
    (pipelined < 0.8 *. serial)

let test_pipeline_parallel_consistent () =
  let program =
    Pipeline_parallel.program ~config:pp_config pp_spec
      ~spec_gpu:Calib.test_machine
  in
  match Consistency.verify_program program with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "consistency violation: %a" Consistency.pp_violation v

let test_pipeline_parallel_single_stage () =
  (* Degenerate single-stage pipeline: just the local GEMM. *)
  let spec =
    { Pipeline_parallel.stages = 1; micro_batches = 2; micro_rows = 4;
      width = 3 }
  in
  let memory = Pipeline_parallel.alloc spec ~seed:82 in
  let cluster = Cluster.create Calib.test_machine ~world_size:1 in
  let program =
    Pipeline_parallel.program ~config:pp_config spec
      ~spec_gpu:Calib.test_machine
  in
  let _result = Runtime.run ~data:true ~memory cluster program in
  tensor_close ~atol:1e-8 "single stage"
    (Pipeline_parallel.reference memory spec)
    (Memory.find memory ~rank:0 ~name:"out_buf")

let () =
  Alcotest.run "workloads"
    [
      ( "ag_gemm",
        [
          Alcotest.test_case "sm binding" `Quick test_ag_gemm_sm_binding;
          Alcotest.test_case "dma binding" `Quick test_ag_gemm_dma_binding;
          Alcotest.test_case "hybrid binding" `Quick
            test_ag_gemm_hybrid_binding;
          Alcotest.test_case "ring orders" `Quick test_ag_gemm_ring_orders;
          Alcotest.test_case "decoupled tiles" `Quick
            test_ag_gemm_mismatched_tiles;
          Alcotest.test_case "deep pipeline" `Quick
            test_ag_gemm_deep_pipeline;
          Alcotest.test_case "push mode" `Quick test_ag_gemm_push_mode;
          Alcotest.test_case "push mode dma" `Quick
            test_ag_gemm_push_mode_dma;
          Alcotest.test_case "push world 4" `Quick test_ag_gemm_push_world4;
          Alcotest.test_case "push consistent" `Quick
            test_ag_gemm_push_consistent;
          Alcotest.test_case "consistent" `Quick
            test_ag_gemm_program_is_consistent;
          Alcotest.test_case "rejects bad tile" `Quick
            test_ag_gemm_rejects_bad_tile;
          Alcotest.test_case "rejects non-positive tiles" `Quick
            test_ag_gemm_rejects_non_positive_tiles;
          QCheck_alcotest.to_alcotest prop_ag_gemm_correct_random_shapes;
        ] );
      ( "gemm_rs",
        [
          Alcotest.test_case "basic" `Quick test_gemm_rs_basic;
          Alcotest.test_case "hybrid" `Quick test_gemm_rs_hybrid;
          Alcotest.test_case "decoupled tiles" `Quick
            test_gemm_rs_decoupled_tiles;
          Alcotest.test_case "world 4" `Quick test_gemm_rs_larger_world;
          Alcotest.test_case "consistent" `Quick test_gemm_rs_consistent;
          Alcotest.test_case "rejects non-positive tiles" `Quick
            test_gemm_rs_rejects_non_positive_tiles;
          Alcotest.test_case "pinned to the hand-written builder" `Quick
            test_gemm_rs_pinned;
        ] );
      ( "moe",
        [
          Alcotest.test_case "part1" `Quick test_moe_part1;
          Alcotest.test_case "part1 dma" `Quick test_moe_part1_dma;
          Alcotest.test_case "part2" `Quick test_moe_part2;
          Alcotest.test_case "part2 world 4" `Quick test_moe_part2_world4;
          Alcotest.test_case "consistent" `Quick test_moe_programs_consistent;
          Alcotest.test_case "expert tiles" `Quick
            test_expert_tiles_alignment;
          Alcotest.test_case "part2 pinned to the hand-written ring stage"
            `Quick test_moe_part2_pinned;
          Alcotest.test_case "moe rejects non-positive tiles" `Quick
            test_moe_rejects_non_positive_tiles;
          Alcotest.test_case "rejects indivisible intermediate" `Quick
            test_moe_rejects_indivisible_intermediate;
        ] );
      ( "attention",
        [
          Alcotest.test_case "full" `Quick test_attention_full;
          Alcotest.test_case "causal" `Quick test_attention_causal;
          Alcotest.test_case "world 4" `Quick test_attention_world4;
          Alcotest.test_case "consistent" `Quick test_attention_consistent;
          Alcotest.test_case "rejects bad tiles" `Quick
            test_attention_rejects_bad_tiles;
        ] );
      ( "multi-node",
        [
          Alcotest.test_case "ag+gemm across two nodes" `Quick
            test_ag_gemm_across_two_nodes;
          Alcotest.test_case "nic slower than nvlink" `Quick
            test_cross_node_slower_than_intra;
        ] );
      ( "ring_attention",
        [
          Alcotest.test_case "full" `Quick test_ring_attention_full;
          Alcotest.test_case "causal" `Quick test_ring_attention_causal;
          Alcotest.test_case "world 4" `Quick test_ring_attention_world4;
          Alcotest.test_case "consistent" `Quick
            test_ring_attention_consistent;
          Alcotest.test_case "segment rotation" `Quick
            test_ring_segment_rotation;
        ] );
      ( "ep_moe",
        [
          Alcotest.test_case "correct" `Quick test_ep_moe_correct;
          Alcotest.test_case "world 4" `Quick test_ep_moe_world4;
          Alcotest.test_case "topk 1" `Quick test_ep_moe_topk1;
          Alcotest.test_case "sm binding" `Quick test_ep_moe_sm_binding;
          Alcotest.test_case "layout invariants" `Quick
            test_ep_moe_layout_invariants;
          Alcotest.test_case "consistent" `Quick test_ep_moe_consistent;
        ] );
      ( "pipeline_parallel",
        [
          Alcotest.test_case "correct" `Quick test_pipeline_parallel_correct;
          Alcotest.test_case "overlaps" `Quick
            test_pipeline_parallel_overlaps;
          Alcotest.test_case "consistent" `Quick
            test_pipeline_parallel_consistent;
          Alcotest.test_case "single stage" `Quick
            test_pipeline_parallel_single_stage;
        ] );
    ]
