(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation on the simulated 8xH800 cluster.

     dune exec bench/main.exe             -- everything
     dune exec bench/main.exe table2 fig10  -- a subset
     dune exec bench/main.exe -- --json --jobs 4   -- parallel sweep

   Flags:
     --jobs N     evaluate independent grid points on N domains
                  (default 1: sequential, identical output either way)
     --no-cache   do not consult/update BENCH_cache.json in --json mode
     --cache F    use F instead of BENCH_cache.json
     --check      re-parse each written BENCH_*.json and fail unless the
                  schema holds (non-empty rows, numeric fields); with
                  --compare, also self-test the gate (self-diff must
                  pass, a 2x-tolerance slowdown must trip)
     --compare OLD NEW   regression gate: diff two BENCH_*.json files
                  on makespan_us, exit 1 if any row regressed
     --tolerance T  relative slowdown tolerated by --compare
                  (default 0.05)

   Artifacts:
     table1  feature comparison (Table 1)
     table2  motivational TP-MLP example (Table 2)
     table4  benchmark shapes (Table 4)
     fig8    MLP layers: AG+GEMM, GEMM+RS, full MLP
     fig9    MoE layers: both parts and full
     fig10   sequence-parallel attention + overlap ratio
     fig11   end-to-end LLMs, 1 node and 2 nodes
     ablation  design-space ablations (beyond the paper)

   Absolute times come from the calibrated machine model; the claims
   to compare against the paper are orderings and ratios (see
   EXPERIMENTS.md). *)

open Tilelink_machine
open Tilelink_workloads
open Tilelink_baselines
module Design_space = Tilelink_core.Design_space

let spec = Calib.h800
let world = 8

module Exec = Tilelink_exec

(* Set once from the command line before any artifact runs.  Every
   grid map below goes through [par_map]: with --jobs 1 it degrades to
   the sequential path bit for bit. *)
let pool : Exec.Pool.t option ref = ref None
let jobs = ref 1
let use_cache = ref true
let cache_file = ref "BENCH_cache.json"
let check_artifacts = ref false

let par_map f xs = List.map Exec.Pool.get (Exec.Pool.map !pool f xs)

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let ms t = t /. 1.0e3

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  heading "Table 1: feature comparison";
  Printf.printf "%-12s %-8s %-10s %-16s\n" "Name" "Compile" "Method"
    "Primitive";
  List.iter
    (fun (name, compile, method_, primitive) ->
      Printf.printf "%-12s %-8s %-10s %-16s\n" name compile method_ primitive)
    [
      ("CoCoNet", "Yes", "Fusion", "No");
      ("Dist-Einsum", "Yes", "Decompose", "operator-centric");
      ("Centauri", "No", "Decompose", "operator-centric");
      ("FLUX", "No", "Fusion", "No");
      ("Async-Torch", "No", "Decompose", "operator-centric");
      ("TileLink", "Yes", "Fusion", "tile-centric");
    ]

(* ------------------------------------------------------------------ *)
(* Table 4                                                             *)
(* ------------------------------------------------------------------ *)

let table4 () =
  heading "Table 4: benchmark shapes";
  Printf.printf "MLP configurations (S x H x I):\n";
  List.iter
    (fun (c : Shapes.mlp) ->
      Printf.printf "  %-6s S=%-5d H=%-5d I=%-6d (%s)\n" c.Shapes.mlp_name
        c.Shapes.s c.Shapes.h c.Shapes.i c.Shapes.source_model)
    Shapes.mlp_configs;
  Printf.printf "MoE configurations (S x H x I, E experts, topk):\n";
  List.iter
    (fun (c : Shapes.moe) ->
      Printf.printf "  %-6s S=%-5d H=%-5d I=%-5d E=%-3d topk=%d\n"
        c.Shapes.moe_name c.Shapes.moe_s c.Shapes.moe_h c.Shapes.moe_i
        c.Shapes.experts c.Shapes.topk)
    Shapes.moe_configs;
  Printf.printf "Attention configurations:\n";
  List.iter
    (fun (c : Shapes.attn) ->
      Printf.printf "  %-7s heads=%-3d head_dim=%-4d seq in {%s}\n"
        c.Shapes.attn_name c.Shapes.heads c.Shapes.head_dim
        (String.concat ", "
           (List.map string_of_int c.Shapes.seq_choices)))
    Shapes.attn_configs

(* ------------------------------------------------------------------ *)
(* MLP measurement shared by Table 2 and Figure 8                      *)
(* ------------------------------------------------------------------ *)

type mlp_row = {
  shape : Shapes.mlp;
  ag : float * float * float * float; (* non, dec, flux, tilelink *)
  rs : float * float * float * float;
  full : float * float * float * float;
  ag_config : Design_space.config;
  rs_config : Design_space.config;
}

let measure_mlp (shape : Shapes.mlp) =
  let m = shape.Shapes.s and h = shape.Shapes.h and i = shape.Shapes.i in
  let ipr = i / world in
  let n1 = 2 * ipr in
  let ag_non = Nonoverlap.ag_gemm_time spec ~world_size:world ~m ~k:h ~n:n1 in
  let ag_dec = Decompose.ag_gemm_time spec ~world_size:world ~m ~k:h ~n:n1 in
  let ag_flux = Flux.ag_gemm_time spec ~world_size:world ~m ~k:h ~n:n1 in
  let ag_tl = Tuned.ag_gemm spec ~world_size:world ~m ~k:h ~n:n1 in
  let rs_non =
    Nonoverlap.gemm_rs_time spec ~world_size:world ~m ~k:ipr ~n:h
  in
  let rs_dec = Decompose.gemm_rs_time spec ~world_size:world ~m ~k:ipr ~n:h in
  let rs_flux = Flux.gemm_rs_time spec ~world_size:world ~m ~k:ipr ~n:h in
  let rs_tl = Tuned.gemm_rs spec ~world_size:world ~m ~k:ipr ~n:h in
  let act = Tuned.activation_time spec ~m ~i:ipr in
  {
    shape;
    ag = (ag_non, ag_dec, ag_flux, ag_tl.Tuned.best_time);
    rs = (rs_non, rs_dec, rs_flux, rs_tl.Tuned.best_time);
    full =
      ( ag_non +. act +. rs_non,
        ag_dec +. act +. rs_dec,
        ag_flux +. act +. rs_flux,
        ag_tl.Tuned.best_time +. act +. rs_tl.Tuned.best_time );
    ag_config = ag_tl.Tuned.best_config;
    rs_config = rs_tl.Tuned.best_config;
  }

let print_mlp_part label (non, dec, flux, tl) =
  Printf.printf
    "  %-9s non-overlap %7.3f ms | decompose %7.3f ms (%.2fx) | flux %7.3f \
     ms (%.2fx) | tilelink %7.3f ms (%.2fx)\n"
    label (ms non) (ms dec) (non /. dec) (ms flux) (non /. flux) (ms tl)
    (non /. tl)

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  heading "Table 2: motivational example (TP MLP 8192 x 4096 x 11008)";
  let row = measure_mlp (List.hd Shapes.mlp_configs) in
  print_mlp_part "AG+GEMM" row.ag;
  print_mlp_part "GEMM+RS" row.rs;
  Printf.printf "  tilelink picked: AG+GEMM [%s]\n"
    (Design_space.config_to_string row.ag_config);
  Printf.printf "                   GEMM+RS [%s]\n"
    (Design_space.config_to_string row.rs_config);
  Printf.printf
    "  lines of code: FLUX ~2000 .cu | TileLink ~200 .py | this repro: \
     lib/workloads/mlp.ml builds both kernels from the primitives\n";
  Printf.printf
    "  paper reference: non 0.676/0.541 ms, decompose 1.301/1.443 ms, flux \
     0.504/0.610 ms, tilelink 0.505/0.504 ms\n"

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  heading "Figure 8: MLP layers on 8 x H800-sim";
  let rows = par_map measure_mlp Shapes.mlp_configs in
  List.iter
    (fun row ->
      Printf.printf "%s (%s):\n" row.shape.Shapes.mlp_name
        row.shape.Shapes.source_model;
      print_mlp_part "AG+GEMM" row.ag;
      print_mlp_part "GEMM+RS" row.rs;
      print_mlp_part "full MLP" row.full)
    rows;
  let speedups part =
    Tilelink_sim.Stats.geomean
      (List.map
         (fun row ->
           let non, _, _, tl = part row in
           non /. tl)
         rows)
  in
  Printf.printf
    "geomean tilelink speedup vs non-overlap: AG+GEMM %.2fx | GEMM+RS %.2fx \
     | full MLP %.2fx\n"
    (speedups (fun r -> r.ag))
    (speedups (fun r -> r.rs))
    (speedups (fun r -> r.full));
  Printf.printf
    "paper reference: flux 1.34x best on AG+GEMM with tilelink at ~94.5%% of \
     it; tilelink best on GEMM+RS (1.25x over non-overlap, 1.28x over flux); \
     full MLP ~1.24x\n"

(* ------------------------------------------------------------------ *)
(* Figure 9                                                            *)
(* ------------------------------------------------------------------ *)

let run_program program =
  let cluster =
    Cluster.create spec ~world_size:(Tilelink_core.Program.world_size program)
  in
  (Tilelink_core.Runtime.run cluster program).Tilelink_core.Runtime.makespan

(* Pure per-shape measurement so the grid can fan out over the pool;
   printing happens afterwards, in shape order. *)
let measure_moe (c : Shapes.moe) =
  let moe = Moe_baselines.spec_of_shape c ~world_size:world in
  let route = Moe.routing moe ~seed:17 in
  let p1_cublas = Moe_baselines.cublas_part1 spec moe route in
  let p1_cutlass = Moe_baselines.cutlass_part1 spec moe route in
  let p1_vllm = Moe_baselines.vllm_part1 spec moe route in
  let p1_tl = run_program (Moe.part1_program moe route ~spec_gpu:spec) in
  let p2_cublas = Moe_baselines.cublas_part2 spec moe route in
  let p2_cutlass = Moe_baselines.cutlass_part2 spec moe route in
  let p2_vllm = Moe_baselines.vllm_part2 spec moe route in
  let p2_tl = run_program (Moe.part2_program moe route ~spec_gpu:spec) in
  let act = Moe_baselines.act_time spec moe in
  ( c,
    (p1_cublas, p1_cutlass, p1_vllm, p1_tl),
    (p2_cublas, p2_cutlass, p2_vllm, p2_tl),
    ( p1_cublas +. act +. p2_cublas,
      p1_vllm +. act +. p2_vllm,
      p1_tl +. act +. p2_tl ) )

let fig9 () =
  heading "Figure 9: MoE layers on 8 x H800-sim";
  let rows = par_map measure_moe Shapes.moe_configs in
  let geo = ref [] in
  List.iter
    (fun ( (c : Shapes.moe),
           (p1_cublas, p1_cutlass, p1_vllm, p1_tl),
           (p2_cublas, p2_cutlass, p2_vllm, p2_tl),
           (full_cublas, full_vllm, full_tl) ) ->
      Printf.printf "%s (E=%d topk=%d):\n" c.Shapes.moe_name c.Shapes.experts
        c.Shapes.topk;
      Printf.printf
        "  AG+Gather+GroupGEMM     cublas %7.3f | cutlass %7.3f | vllm \
         %7.3f | tilelink %7.3f ms (%.2fx over vllm)\n"
        (ms p1_cublas) (ms p1_cutlass) (ms p1_vllm) (ms p1_tl)
        (p1_vllm /. p1_tl);
      Printf.printf
        "  GroupGEMM+Scatter+RS    cublas %7.3f | cutlass %7.3f | vllm \
         %7.3f | tilelink %7.3f ms (%.2fx over vllm, %.2fx over cutlass)\n"
        (ms p2_cublas) (ms p2_cutlass) (ms p2_vllm) (ms p2_tl)
        (p2_vllm /. p2_tl) (p2_cutlass /. p2_tl);
      Printf.printf
        "  full MoE                cublas %7.3f | vllm %7.3f | tilelink \
         %7.3f ms (%.2fx over vllm, %.2fx over cublas)\n"
        (ms full_cublas) (ms full_vllm) (ms full_tl) (full_vllm /. full_tl)
        (full_cublas /. full_tl);
      geo := (full_vllm /. full_tl, full_cublas /. full_tl) :: !geo)
    rows;
  let vllm_ratio = Tilelink_sim.Stats.geomean (List.map fst !geo) in
  let cublas_max = Tilelink_sim.Stats.maximum (List.map snd !geo) in
  Printf.printf
    "geomean full-MoE speedup over vllm %.2fx; max speedup over cublas \
     %.2fx\n"
    vllm_ratio cublas_max;
  Printf.printf
    "paper reference: tilelink 1.51x over vllm on part 1, 1.31x on part 2, \
     1.14x full; max 20.76x over cublas+nccl\n"

(* ------------------------------------------------------------------ *)
(* Figure 10                                                           *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  heading "Figure 10: sequence-parallel self-attention on 8 x H800-sim";
  let torch_ratios = ref [] and ring_ratios = ref [] and overlaps = ref [] in
  List.iter
    (fun (c : Shapes.attn) ->
      Printf.printf "%s (%d heads, head_dim %d):\n" c.Shapes.attn_name
        c.Shapes.heads c.Shapes.head_dim;
      List.iter
        (fun seq ->
          let a =
            {
              Attention.batch_heads = c.Shapes.heads;
              seq;
              head_dim = c.Shapes.head_dim;
              world_size = world;
              causal = false;
            }
          in
          let config = { Attention.q_tile = 512; kv_tile = 2048 } in
          let tl =
            run_program (Attention.program ~config a ~spec_gpu:spec)
          in
          let torch = Attention_baselines.torch_time spec a in
          let ring = Attention_baselines.ring_attention_time spec a in
          (* Idealized fused RingAttention generated from the same
             primitives (no per-step host coordination) — shows how
             much of the library's deficit is orchestration overhead. *)
          let ring_generated =
            run_program
              (Ring_attention.program
                 ~config:{ Ring_attention.q_tile = 512; comm_sms = 8 }
                 a ~spec_gpu:spec)
          in
          let comp = Attention.flash_only_time spec a ~config in
          let comm = Attention.comm_only_time spec a in
          let report =
            Attention_baselines.overlap_report ~comp_only:comp
              ~comm_only:comm ~overlapped:tl
          in
          torch_ratios := (torch /. tl) :: !torch_ratios;
          ring_ratios := (ring /. tl) :: !ring_ratios;
          overlaps := report.Attention_baselines.ratio :: !overlaps;
          Printf.printf
            "  seq %6d: torch %9.2f ms | ring-attn %9.2f ms (fused-gen \
             %8.2f) | tilelink %9.2f ms | speedups %.2fx / %.2fx | overlap \
             ratio %.2f\n"
            seq (ms torch) (ms ring) (ms ring_generated) (ms tl)
            (torch /. tl) (ring /. tl) report.Attention_baselines.ratio)
        c.Shapes.seq_choices)
    Shapes.attn_configs;
  Printf.printf
    "averages: %.2fx over torch, %.2fx over ring-attention, overlap ratio \
     %.2f\n"
    (Tilelink_sim.Stats.mean !torch_ratios)
    (Tilelink_sim.Stats.mean !ring_ratios)
    (Tilelink_sim.Stats.mean !overlaps);
  Printf.printf
    "paper reference: 5.04x over torch, 1.97x over ring-attention, 43.9%% \
     average overlap ratio\n"

(* ------------------------------------------------------------------ *)
(* Figure 11                                                           *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  heading "Figure 11: end-to-end LLMs (batch 4, seq 8192)";
  let dense = ref [] and moe = ref [] and two_node = ref [] in
  List.iter
    (fun llm ->
      let torch = Torch_model.torch_model_time spec llm ~world_size:world in
      let tl = Model.tilelink_model_time spec llm ~world_size:world in
      let speedup8 = torch /. tl in
      let torch16 =
        Model.two_node_time spec llm ~world_size:world ~single_node_time:torch
      in
      let tl16 =
        Model.two_node_time spec llm ~world_size:world ~single_node_time:tl
      in
      let speedup16 = torch16 /. tl16 in
      (if Model.is_moe llm then moe := speedup8 :: !moe
       else dense := speedup8 :: !dense);
      two_node := speedup16 :: !two_node;
      Printf.printf
        "  %-16s 8xGPU: torch %9.1f ms | tilelink %9.1f ms | %.2fx     \
         16xGPU (DPxTP): %.2fx\n"
        llm.Model.model_name (ms torch) (ms tl) speedup8 speedup16)
    Model.models;
  Printf.printf
    "average speedup: dense %.2fx | moe %.2fx | all (1 node) %.2fx | all (2 \
     nodes) %.2fx\n"
    (Tilelink_sim.Stats.mean !dense)
    (Tilelink_sim.Stats.mean !moe)
    (Tilelink_sim.Stats.mean (!dense @ !moe))
    (Tilelink_sim.Stats.mean !two_node);
  Printf.printf
    "paper reference: dense 1.20x, moe 1.54x, overall 1.32x on one node, \
     1.29x on two nodes\n"

(* ------------------------------------------------------------------ *)
(* Ablations of the decoupled design space (DESIGN.md §4)              *)
(* ------------------------------------------------------------------ *)

let ablation () =
  heading "Ablations: the three design subspaces, one axis at a time";
  let m = 8192 and h = 4096 in
  let n1 = 2 * 11008 / world and kpr = 11008 / world in
  let ag_shapes = { Mlp.m; k = h; n = n1; world_size = world } in
  let rs_shapes = { Mlp.rs_m = m; rs_k = kpr; rs_n = h; rs_world = world } in
  let ring = Tilelink_core.Tile.Ring_from_self { segments = world } in
  let base =
    {
      Design_space.comm_tile = (256, 128);
      compute_tile = (128, 128);
      comm_order = ring;
      compute_order = ring;
      binding = Design_space.Comm_on_dma;
      stages = 2;
      micro_block = 0;
    }
  in
  let run_ag config =
    run_program (Mlp.ag_gemm_program ~config ag_shapes ~spec_gpu:spec)
  in
  let run_rs config =
    run_program (Mlp.gemm_rs_program ~config rs_shapes ~spec_gpu:spec)
  in

  Printf.printf "resource binding (AG+GEMM, comm tile 256):\n";
  List.iter
    (fun binding ->
      let t = run_ag { base with Design_space.binding } in
      Printf.printf "  %-22s %8.1f us\n"
        (Design_space.resource_binding_to_string binding)
        t)
    [
      Design_space.Comm_on_dma;
      Design_space.Comm_on_sm 8;
      Design_space.Comm_on_sm 20;
      Design_space.Comm_on_sm 40;
      Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 12 };
    ];

  Printf.printf
    "communication tile size = synchronization granularity (AG+GEMM, DMA):\n";
  List.iter
    (fun tile ->
      let t = run_ag { base with Design_space.comm_tile = (tile, 128) } in
      Printf.printf "  %4d rows/tile (%2d channels/rank) %8.1f us\n" tile
        (m / world / tile) t)
    [ 128; 256; 512; 1024 ];

  Printf.printf
    "tile order: GEMM production order vs ring consumption (GEMM+RS):\n";
  let rs_base =
    {
      base with
      Design_space.comm_tile = (128, 2048);
      binding = Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 12 };
    }
  in
  List.iter
    (fun (label, compute_order) ->
      let t = run_rs { rs_base with Design_space.compute_order } in
      Printf.printf "  %-34s %8.1f us\n" label t)
    [
      ("ring-aligned (consume-order first)",
       Tilelink_core.Tile.Ring_prev_first { segments = world });
      ("row-major (FLUX's fixed order)", Tilelink_core.Tile.Row_major);
      ("ring-from-self (misaligned)", ring);
    ];

  Printf.printf "data-transfer direction (AG+GEMM, Figure 3b):\n";
  List.iter
    (fun (label, transfer, binding) ->
      let t =
        run_program
          (Mlp.ag_gemm_program ~transfer
             ~config:{ base with Design_space.binding }
             ag_shapes ~spec_gpu:spec)
      in
      Printf.printf "  %-22s %8.1f us\n" label t)
    [
      ("pull, dma", `Pull, Design_space.Comm_on_dma);
      ("push, dma", `Push, Design_space.Comm_on_dma);
      ("pull, sm(20)", `Pull, Design_space.Comm_on_sm 20);
      ("push, sm(20)", `Push, Design_space.Comm_on_sm 20);
    ];

  Printf.printf "software pipeline depth (AG+GEMM, DMA):\n";
  List.iter
    (fun stages ->
      let t = run_ag { base with Design_space.stages } in
      Printf.printf "  stages=%d %8.1f us\n" stages t)
    [ 1; 2; 4 ];

  Printf.printf
    "expert-parallel MoE (All2All extension) vs tensor-parallel MoE \
     (MoE-2 shape):\n";
  let moe_shape = List.nth Shapes.moe_configs 1 in
  let tp_moe = Moe_baselines.spec_of_shape moe_shape ~world_size:world in
  let tp_route = Moe.routing tp_moe ~seed:29 in
  let tp_time =
    let act = Moe_baselines.act_time spec tp_moe in
    run_program (Moe.part1_program tp_moe tp_route ~spec_gpu:spec)
    +. act
    +. run_program (Moe.part2_program tp_moe tp_route ~spec_gpu:spec)
  in
  let ep_spec =
    {
      Ep_moe.tokens = moe_shape.Shapes.moe_s;
      hidden = moe_shape.Shapes.moe_h;
      intermediate = moe_shape.Shapes.moe_i;
      experts = moe_shape.Shapes.experts;
      topk = moe_shape.Shapes.topk;
      world_size = world;
    }
  in
  let ep_route = Ep_moe.routing ep_spec ~seed:29 in
  let ep_time = run_program (Ep_moe.program ep_spec ep_route ~spec_gpu:spec) in
  Printf.printf
    "  tensor-parallel (AG + TP experts + RS) %8.1f us | expert-parallel \
     (All2All dispatch/combine) %8.1f us\n"
    tp_time ep_time;

  Printf.printf
    "pipeline parallelism (future work, §7.4): 4 stages, 512-row \
     micro-batches, width 4096:\n";
  List.iter
    (fun micro_batches ->
      let pp_spec =
        {
          Pipeline_parallel.stages = 4;
          micro_batches;
          micro_rows = 512;
          width = 4096;
        }
      in
      let cluster = Cluster.create spec ~world_size:4 in
      let pipelined =
        (Tilelink_core.Runtime.run cluster
           (Pipeline_parallel.program pp_spec ~spec_gpu:spec))
          .Tilelink_core.Runtime.makespan
      in
      let serial = Pipeline_parallel.serial_time spec pp_spec in
      Printf.printf
        "  %2d micro-batches: serial %8.1f us | pipelined %8.1f us (%.2fx)\n"
        micro_batches serial pipelined (serial /. pipelined))
    [ 1; 2; 4; 8 ];

  Printf.printf "decoupled optimum vs coupled (FLUX-style) point:\n";
  let tuned = Tuned.ag_gemm spec ~world_size:world ~m ~k:h ~n:n1 in
  let coupled =
    run_ag
      (Design_space.coupled ~tile:(128, 128) ~order:ring ~comm_sms:20
         ~stages:2)
  in
  Printf.printf "  decoupled best %8.1f us [%s]\n" tuned.Tuned.best_time
    (Design_space.config_to_string tuned.Tuned.best_config);
  Printf.printf "  coupled point  %8.1f us (+%.1f%%)\n" coupled
    ((coupled -. tuned.Tuned.best_time) /. tuned.Tuned.best_time *. 100.0)

(* ------------------------------------------------------------------ *)
(* --json: machine-readable BENCH_<suite>.json artifacts               *)
(* ------------------------------------------------------------------ *)

(* Each row is one (shape, kernel) run on a traced cluster with a fresh
   telemetry handle: makespan, mean overlap ratio across ranks, and the
   pooled wait-latency percentiles.  Future PRs diff these files to see
   the perf trajectory without re-parsing the human-readable tables. *)

module Obs = Tilelink_obs

let mean_overlap cluster ~world_size =
  Report.all_ranks (Cluster.trace cluster) ~world_size
  |> List.map Report.overlap_ratio
  |> Tilelink_sim.Stats.mean

let wait_json telemetry =
  let metrics = Obs.Telemetry.metrics telemetry in
  match Obs.Metrics.merged_summary metrics ~prefix:"wait_us." with
  | None -> Obs.Json.Null
  | Some s ->
    Obs.Json.Obj
      [
        ("count", Obs.Json.Num (float_of_int s.Obs.Metrics.count));
        ("p50_us", Obs.Json.Num s.Obs.Metrics.p50);
        ("p95_us", Obs.Json.Num s.Obs.Metrics.p95);
        ("p99_us", Obs.Json.Num s.Obs.Metrics.p99);
        ("max_us", Obs.Json.Num s.Obs.Metrics.max);
      ]

let bench_row ~config_name ~kernel (cluster, result) telemetry =
  Obs.Json.Obj
    [
      ("config", Obs.Json.Str config_name);
      ("kernel", Obs.Json.Str kernel);
      ( "makespan_us",
        Obs.Json.Num result.Tilelink_core.Runtime.makespan );
      ("overlap_ratio", Obs.Json.Num (mean_overlap cluster ~world_size:world));
      ("wait_us", wait_json telemetry);
    ]

(* A row spec pairs a stable descriptor (the row's identity in the
   evaluation cache) with the thunk that computes it on a miss.  The
   descriptor covers everything the row depends on — suite, kernel,
   shape, machine fingerprint and schedule fingerprint — so a cache hit
   is guaranteed to replay the very same simulation result. *)
type row_spec = { descr : string; compute : unit -> Obs.Json.t }

let machine_id = Printf.sprintf "%s|world=%d" (Spec.fingerprint spec) world

(* Fixed representative configs (not tuned — the point is a stable
   measurement, comparable across commits).  The AG comm tile must
   divide the row shard (8192/8 = 1024) and the RS column tile must
   divide H, which varies per shape, so RS uses the full H as its
   column tile. *)
let bench_json_mlp () =
  let ring = Tilelink_core.Tile.Ring_from_self { segments = world } in
  List.concat_map
    (fun (c : Shapes.mlp) ->
      let ag_spec =
        {
          Mlp.m = c.Shapes.s;
          k = c.Shapes.h;
          n = 2 * c.Shapes.i / world;
          world_size = world;
        }
      in
      let rs_spec =
        {
          Mlp.rs_m = c.Shapes.s;
          rs_k = c.Shapes.i / world;
          rs_n = c.Shapes.h;
          rs_world = world;
        }
      in
      let ag_config =
        {
          Design_space.comm_tile = (512, 128);
          compute_tile = (128, 128);
          comm_order = ring;
          compute_order = ring;
          binding = Design_space.Comm_on_dma;
          stages = 2;
          micro_block = 0;
        }
      in
      let rs_config =
        {
          Design_space.comm_tile = (128, c.Shapes.h);
          compute_tile = (128, 128);
          comm_order = Tilelink_core.Tile.Row_major;
          compute_order = Tilelink_core.Tile.Ring_prev_first { segments = world };
          binding = Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 12 };
          stages = 2;
          micro_block = 0;
        }
      in
      let shape_id =
        Printf.sprintf "s=%d,h=%d,i=%d" c.Shapes.s c.Shapes.h c.Shapes.i
      in
      [
        {
          descr =
            Printf.sprintf "bench-v1|mlp|ag_gemm|%s|%s|%s" shape_id machine_id
              (Design_space.fingerprint ag_config);
          compute =
            (fun () ->
              let tel = Obs.Telemetry.create () in
              let run =
                Profiled.run ~telemetry:tel ~spec_gpu:spec
                  (Mlp.ag_gemm_program ~config:ag_config ag_spec ~spec_gpu:spec)
              in
              bench_row ~config_name:c.Shapes.mlp_name ~kernel:"ag_gemm" run
                tel);
        };
        {
          descr =
            Printf.sprintf "bench-v1|mlp|gemm_rs|%s|%s|%s" shape_id machine_id
              (Design_space.fingerprint rs_config);
          compute =
            (fun () ->
              let tel = Obs.Telemetry.create () in
              let run =
                Profiled.run ~telemetry:tel ~spec_gpu:spec
                  (Mlp.gemm_rs_program ~config:rs_config rs_spec ~spec_gpu:spec)
              in
              bench_row ~config_name:c.Shapes.mlp_name ~kernel:"gemm_rs" run
                tel);
        };
      ])
    Shapes.mlp_configs

let bench_json_moe () =
  List.concat_map
    (fun (c : Shapes.moe) ->
      let shape_id =
        Printf.sprintf "s=%d,h=%d,i=%d,e=%d,topk=%d,seed=17" c.Shapes.moe_s
          c.Shapes.moe_h c.Shapes.moe_i c.Shapes.experts c.Shapes.topk
      in
      let part kernel build =
        {
          descr =
            Printf.sprintf "bench-v1|moe|%s|%s|%s|config=default" kernel
              shape_id machine_id;
          compute =
            (fun () ->
              let moe = Moe_baselines.spec_of_shape c ~world_size:world in
              let route = Moe.routing moe ~seed:17 in
              let tel = Obs.Telemetry.create () in
              let run =
                Profiled.run ~telemetry:tel ~spec_gpu:spec
                  (build moe route ~spec_gpu:spec)
              in
              bench_row ~config_name:c.Shapes.moe_name ~kernel run tel);
        }
      in
      [
        part "moe_part1" (fun moe route ~spec_gpu ->
            Moe.part1_program moe route ~spec_gpu);
        part "moe_part2" (fun moe route ~spec_gpu ->
            Moe.part2_program moe route ~spec_gpu);
      ])
    Shapes.moe_configs

(* A deliberately tiny suite for CI smoke runs: one AG+GEMM and one
   GEMM+RS row at toy shapes, seconds not minutes, exercising the same
   row/cache/pool machinery and artifact schema as the real suites. *)
let bench_json_smoke () =
  let ring = Tilelink_core.Tile.Ring_from_self { segments = world } in
  let ag_spec = { Mlp.m = 1024; k = 512; n = 256; world_size = world } in
  let ag_config =
    {
      Design_space.comm_tile = (64, 128);
      compute_tile = (64, 64);
      comm_order = ring;
      compute_order = ring;
      binding = Design_space.Comm_on_dma;
      stages = 2;
      micro_block = 0;
    }
  in
  let rs_spec =
    { Mlp.rs_m = 1024; rs_k = 64; rs_n = 512; rs_world = world }
  in
  let rs_config =
    {
      Design_space.comm_tile = (128, 512);
      compute_tile = (128, 128);
      comm_order = Tilelink_core.Tile.Row_major;
      compute_order = Tilelink_core.Tile.Ring_prev_first { segments = world };
      binding = Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 12 };
      stages = 2;
      micro_block = 0;
    }
  in
  [
    {
      descr =
        Printf.sprintf "bench-v1|smoke|ag_gemm|m=1024,k=512,n=256|%s|%s"
          machine_id
          (Design_space.fingerprint ag_config);
      compute =
        (fun () ->
          let tel = Obs.Telemetry.create () in
          let run =
            Profiled.run ~telemetry:tel ~spec_gpu:spec
              (Mlp.ag_gemm_program ~config:ag_config ag_spec ~spec_gpu:spec)
          in
          bench_row ~config_name:"smoke" ~kernel:"ag_gemm" run tel);
    };
    {
      descr =
        Printf.sprintf "bench-v1|smoke|gemm_rs|m=1024,k=64,n=512|%s|%s"
          machine_id
          (Design_space.fingerprint rs_config);
      compute =
        (fun () ->
          let tel = Obs.Telemetry.create () in
          let run =
            Profiled.run ~telemetry:tel ~spec_gpu:spec
              (Mlp.gemm_rs_program ~config:rs_config rs_spec ~spec_gpu:spec)
          in
          bench_row ~config_name:"smoke" ~kernel:"gemm_rs" run tel);
    };
  ]

(* Crash-failover suite: one row per workload, each a short seeded
   sweep with one forced rank crash per trial.  The schema-checked
   fields keep their usual meaning (makespan = mean chaos-run total,
   overlap = mean achieved overlap vs the fault-free ideal); the
   failover-specific outcome rides along as extra fields. *)
let bench_json_chaos () =
  let module Harness = Tilelink_chaos.Harness in
  let trials = 2 and seed = 42 and crash_ranks = 1 in
  List.map
    (fun workload ->
      let wl = Harness.workload_to_string workload in
      {
        descr =
          Printf.sprintf "bench-v1|chaos|%s|crash=%d,trials=%d,seed=%d|%s" wl
            crash_ranks trials seed machine_id;
        compute =
          (fun () ->
            let s =
              Harness.run_trials ~crash_ranks ~workload ~seed ~trials ()
            in
            let mean f =
              Tilelink_sim.Stats.mean
                (List.map f s.Harness.s_trials)
            in
            let fo = List.sort compare s.Harness.s_failover_latencies in
            Obs.Json.Obj
              [
                ("config", Obs.Json.Str wl);
                ("kernel", Obs.Json.Str "chaos");
                ("makespan_us", Obs.Json.Num (mean (fun t -> t.Harness.total_us)));
                ( "overlap_ratio",
                  Obs.Json.Num
                    (Float.min 1.0
                       (Float.max 0.0
                          (mean (fun t -> t.Harness.achieved_overlap)))) );
                ( "failed_over",
                  Obs.Json.Num (float_of_int s.Harness.s_failed_over) );
                ( "recovery_p99_us",
                  if fo = [] then Obs.Json.Null
                  else Obs.Json.Num (Tilelink_sim.Stats.percentile 99.0 fo) );
                ( "replayed_tiles",
                  Obs.Json.Num
                    (float_of_int
                       (List.fold_left
                          (fun acc t -> acc + t.Harness.replayed_tiles)
                          0 s.Harness.s_trials)) );
              ]);
      })
    [ Harness.Mlp_ag_gemm; Harness.Moe_part2; Harness.Attention_ag ]

(* Serving suite: one row per traffic scenario through the continuous
   batcher — steady Poisson, a bursty overload that exercises
   backpressure and degradation tiers, and a mid-trace rank crash.
   The schema-checked fields keep their usual meaning (makespan = the
   serve's virtual-clock span, overlap_ratio = fraction of completed
   requests inside both SLOs); the serving outcome — conservation
   counts, goodput, TTFT/TPOT percentiles, degraded-tier time — rides
   along and is gated suite-specifically. *)
let bench_json_serving () =
  let module Serve = Tilelink_serve in
  let seed = 42 and requests = 120 in
  let slo = { Serve.Slo.ttft_us = 5_000.; tpot_us = 2_000. } in
  let config ~chaos =
    {
      Serve.Server.machine = spec;
      topology = None;
      world_size = world;
      head_dim = 64;
      slo;
      queue_capacity = 32;
      max_batch = 16;
      kv_capacity = 8192;
      timeout_us = 50_000.;
      chaos;
    }
  in
  let scenarios =
    [
      ( "poisson_steady",
        Serve.Trace_gen.Poisson { rate_rps = 2_000. },
        None );
      ( "bursty_overload",
        Serve.Trace_gen.Bursty
          { rate_rps = 40_000.; burst = 8.; on_fraction = 0.25 },
        None );
      ( "poisson_crash1",
        Serve.Trace_gen.Poisson { rate_rps = 2_000. },
        Some { Serve.Server.ch_seed = 7; ch_crash_ranks = 1 } );
    ]
  in
  List.map
    (fun (name, arrival, chaos) ->
      {
        descr =
          Printf.sprintf "bench-v1|serving|%s|requests=%d,seed=%d|%s" name
            requests seed machine_id;
        compute =
          (fun () ->
            let trace =
              Serve.Trace_gen.generate ~seed ~requests arrival
            in
            let r = Serve.Server.run (config ~chaos) trace in
            let shed =
              r.Serve.Server.r_shed_queue_full
              + r.Serve.Server.r_shed_deadline
              + r.Serve.Server.r_shed_timeout
            in
            let degraded_us =
              List.fold_left
                (fun acc (tier, us) ->
                  if tier = "overlapped" then acc else acc +. us)
                0. r.Serve.Server.r_tier_us
            in
            Obs.Json.Obj
              [
                ("config", Obs.Json.Str name);
                ("kernel", Obs.Json.Str "serving");
                ("makespan_us", Obs.Json.Num r.Serve.Server.r_makespan_us);
                ( "overlap_ratio",
                  Obs.Json.Num
                    (if r.Serve.Server.r_completed = 0 then 0.0
                     else
                       float_of_int r.Serve.Server.r_slo_met
                       /. float_of_int r.Serve.Server.r_completed) );
                ("offered", Obs.Json.Num (float_of_int r.Serve.Server.r_offered));
                ( "accepted",
                  Obs.Json.Num (float_of_int r.Serve.Server.r_accepted) );
                ( "completed",
                  Obs.Json.Num (float_of_int r.Serve.Server.r_completed) );
                ("shed", Obs.Json.Num (float_of_int shed));
                ("failed", Obs.Json.Num (float_of_int r.Serve.Server.r_failed));
                ( "in_flight",
                  Obs.Json.Num (float_of_int r.Serve.Server.r_in_flight) );
                ("goodput_rps", Obs.Json.Num r.Serve.Server.r_goodput_rps);
                ( "ttft_p50_us",
                  Obs.Json.Num r.Serve.Server.r_ttft.Serve.Slo.d_p50 );
                ( "ttft_p99_us",
                  Obs.Json.Num r.Serve.Server.r_ttft.Serve.Slo.d_p99 );
                ( "tpot_p50_us",
                  Obs.Json.Num r.Serve.Server.r_tpot.Serve.Slo.d_p50 );
                ( "tpot_p99_us",
                  Obs.Json.Num r.Serve.Server.r_tpot.Serve.Slo.d_p99 );
                ("degraded_us", Obs.Json.Num degraded_us);
                ( "failovers",
                  Obs.Json.Num (float_of_int r.Serve.Server.r_failovers) );
                ( "fallback_steps",
                  Obs.Json.Num (float_of_int r.Serve.Server.r_fallback_steps)
                );
              ]);
      })
    scenarios

(* Topology suite: the chaos harness's MLP workload run once per
   shipped topology preset, each trial forcing one rank crash — plus a
   whole-island crash on the two-island shape, the case where every
   replayed tile must cross the NIC bridge.  The schema-checked fields
   keep their usual meaning; the topology outcome — p99 recovery
   latency, overlap efficiency, cross-island replay count, node count
   — rides along and is gated suite-specifically.  The T3 and
   non-overlapped analytic baselines for the same scaled ag-gemm shape
   bracket the simulated runtime from both sides. *)
let bench_json_topology () =
  let module Harness = Tilelink_chaos.Harness in
  let trials = 2 and seed = 42 in
  let workload = Harness.Mlp_ag_gemm in
  let configs =
    List.map (fun topo -> (Topology.name topo, topo, 1)) Topology.all
    @ [
        ( "islands2x8/island",
          Topology.islands2x8,
          Topology.ranks_per_island Topology.islands2x8 );
      ]
  in
  List.map
    (fun (config_name, topo, crash_ranks) ->
      {
        descr =
          Printf.sprintf "bench-v1|topology|%s|crash=%d,trials=%d,seed=%d|%s"
            config_name crash_ranks trials seed machine_id;
        compute =
          (fun () ->
            let s =
              Harness.run_trials ~crash_ranks ~topology:topo ~workload ~seed
                ~trials ()
            in
            let mean f =
              Tilelink_sim.Stats.mean (List.map f s.Harness.s_trials)
            in
            let fo = List.sort compare s.Harness.s_failover_latencies in
            let tw = Topology.natural_world topo in
            let tm = Calib.test_machine in
            let clamp01 x = Float.min 1.0 (Float.max 0.0 x) in
            Obs.Json.Obj
              [
                ("config", Obs.Json.Str config_name);
                ("kernel", Obs.Json.Str "mlp_ag_gemm");
                ("makespan_us", Obs.Json.Num (mean (fun t -> t.Harness.total_us)));
                ( "overlap_ratio",
                  Obs.Json.Num
                    (clamp01 (mean (fun t -> t.Harness.achieved_overlap))) );
                ( "overlap_efficiency",
                  Obs.Json.Num (clamp01 s.Harness.s_overlap_efficiency) );
                ( "failed_over",
                  Obs.Json.Num (float_of_int s.Harness.s_failed_over) );
                ( "recovery_p99_us",
                  if fo = [] then Obs.Json.Null
                  else Obs.Json.Num (Tilelink_sim.Stats.percentile 99.0 fo) );
                ( "replayed_tiles",
                  Obs.Json.Num
                    (float_of_int
                       (List.fold_left
                          (fun acc t -> acc + t.Harness.replayed_tiles)
                          0 s.Harness.s_trials)) );
                ( "cross_island_replays",
                  Obs.Json.Num (float_of_int s.Harness.s_cross_island_replays)
                );
                ("nodes", Obs.Json.Num (float_of_int (Topology.num_islands topo)));
                ("world", Obs.Json.Num (float_of_int tw));
                ( "t3_us",
                  Obs.Json.Num
                    (T3.ag_gemm_time tm ~world_size:tw ~m:(4 * tw) ~k:4 ~n:6)
                );
                ( "nonoverlap_us",
                  Obs.Json.Num
                    (Nonoverlap.ag_gemm_time tm ~world_size:tw ~m:(4 * tw) ~k:4
                       ~n:6) );
              ]);
      })
    configs

(* Kernel microbenchmarks: the gemm variants (bounds-checked naive,
   micro-optimized i-k-j, cache-blocked at several block edges) timed
   for real — host wall-clock, not simulated time.  All timings are
   taken eagerly and sequentially on the main domain so the pool and
   the evaluation cache never touch them (the driver exempts this
   suite from caching: a replayed timing is a lie). *)

module Ts = Tilelink_tensor

let time_kernel ?(reps = 3) f =
  ignore (f ());
  (* warmup: page in the inputs, trigger any lazy init *)
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let bench_json_kernels () =
  let shapes = [ (128, 256, 128); (256, 256, 256); (192, 512, 96) ] in
  let rows =
    List.concat_map
      (fun (m, k, n) ->
        let a = Ts.Tensor.random ~seed:(m + k) (Ts.Shape.of_list [ m; k ]) in
        let b = Ts.Tensor.random ~seed:(k + n) (Ts.Shape.of_list [ k; n ]) in
        let flops = Ts.Linalg.gemm_flops ~m ~n ~k in
        let shape_id = Printf.sprintf "m=%d,k=%d,n=%d" m k n in
        let naive_s = time_kernel (fun () -> Ts.Linalg.gemm_naive a b) in
        let row variant time_s =
          Obs.Json.Obj
            [
              ("config", Obs.Json.Str shape_id);
              ("kernel", Obs.Json.Str variant);
              ("makespan_us", Obs.Json.Num (1e6 *. time_s));
              (* overlap does not apply to a single-kernel timing *)
              ("overlap_ratio", Obs.Json.Num 0.0);
              ("gflops", Obs.Json.Num (flops /. time_s /. 1e9));
              ("speedup_vs_naive", Obs.Json.Num (naive_s /. time_s));
            ]
        in
        row "naive" naive_s
        :: row "ikj" (time_kernel (fun () -> Ts.Linalg.gemm a b))
        :: List.map
             (fun block ->
               row
                 (Printf.sprintf "block=%d" block)
                 (time_kernel (fun () -> Ts.Linalg.gemm ~block a b)))
             [ 8; 16; 32; 64 ])
      shapes
  in
  List.map
    (fun row -> { descr = "kernels|uncached"; compute = (fun () -> row) })
    rows

(* Parallel-backend accounting: each selected workload runs once on
   the sequential interpreter and once on the domain team, and the row
   records wall-clock, per-domain busy time, overlap efficiency
   (busy_total / (wall * domains)) and whether the tensors came out
   bit-identical.  [host_cores] makes the 1-CPU-container caveat
   machine-readable: when [host_cores < domains] the wall-clock column
   measures scheduling overhead, not speedup, and [wall_meaningful] is
   false — the gate is then determinism plus busy/wall accounting, not
   a speedup threshold. *)

let parallel_bits_equal ma mb =
  let open Tilelink_core in
  List.for_all
    (fun rank ->
      let names = Memory.buffers ma ~rank in
      names = Memory.buffers mb ~rank
      && List.for_all
           (fun name ->
             let da = Ts.Tensor.data (Memory.find ma ~rank ~name)
             and db = Ts.Tensor.data (Memory.find mb ~rank ~name) in
             Array.length da = Array.length db
             && Array.for_all2
                  (fun x y ->
                    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
                  da db)
           names)
    (List.init (Memory.world_size ma) Fun.id)

let bench_json_parallel () =
  let open Tilelink_core in
  let machine = Calib.test_machine in
  let domains = 2 in
  let host_cores = Domain.recommended_domain_count () in
  let cases = Suite.data_cases () in
  let rows =
    List.map
      (fun name ->
        let case = List.assoc name cases in
        let mem_seq, program = case () in
        let cluster =
          Cluster.create machine ~world_size:(Program.world_size program)
        in
        ignore (Runtime.run ~data:true ~memory:mem_seq cluster program);
        let mem0, program_par = case () in
        let mem_par, pres =
          Parallel.run ~data:true ~memory:mem0 ~domains program_par
        in
        let stats = pres.Parallel.p_stats in
        let module B = Exec.Backend in
        let busy_total_s =
          Array.fold_left
            (fun acc d -> acc +. d.B.d_busy_s)
            0.0 stats.B.per_domain
        in
        let wall_s = stats.B.wall_s in
        let utilization =
          if wall_s > 0.0 then
            busy_total_s /. (wall_s *. float_of_int domains)
          else 0.0
        in
        Obs.Json.Obj
          [
            ("config", Obs.Json.Str name);
            ("kernel", Obs.Json.Str "parallel_backend");
            ("makespan_us", Obs.Json.Num pres.Parallel.p_wall_us);
            ( "overlap_ratio",
              Obs.Json.Num (Float.min 1.0 (Float.max 0.0 utilization)) );
            ("domains", Obs.Json.Num (float_of_int domains));
            ("host_cores", Obs.Json.Num (float_of_int host_cores));
            ("wall_meaningful", Obs.Json.Bool (host_cores >= domains));
            ("busy_total_us", Obs.Json.Num (1e6 *. busy_total_s));
            ( "busy_us_per_domain",
              Obs.Json.List
                (Array.to_list
                   (Array.map
                      (fun d -> Obs.Json.Num (1e6 *. d.B.d_busy_s))
                      stats.B.per_domain)) );
            ("execs", Obs.Json.Num (float_of_int stats.B.total_execs));
            ("notifies", Obs.Json.Num (float_of_int stats.B.total_notifies));
            ("parks", Obs.Json.Num (float_of_int stats.B.total_parks));
            ( "bit_identical",
              Obs.Json.Bool (parallel_bits_equal mem_seq mem_par) );
          ])
      [
        "mlp_ag_gemm_pull/w2/t2";
        "mlp_gemm_rs/w4";
        "moe_part2/w4";
        "ring_attention/w2";
      ]
  in
  List.map
    (fun row -> { descr = "parallel|uncached"; compute = (fun () -> row) })
    rows

(* ------------------------------------------------------------------ *)
(* planner suite                                                       *)
(* ------------------------------------------------------------------ *)

(* The auto-overlap planner's search against every fixed-design-point
   AG+GEMM schedule of the shipped-program sweep (same shapes, machine
   and design points as [Suite.build_cases]), plus operator graphs no
   shipped kernel covers.  "hand" below and in the row fields names the
   [Mlp.ag_gemm_program] schedule; the names stay so committed baseline
   rows keep comparing.  The candidate list handed to the planner
   includes the fixed design points, so "rediscover or beat" is a sharp
   gate: the search minimum can never lose to a fixed schedule by more
   than simulation noise (and the simulator is deterministic, so not
   even that). *)

module Planner = Tilelink_core.Planner

let planner_machine = Calib.test_machine

let planner_sweep_config ~world ~comm_tile =
  let ring = Tilelink_core.Tile.Ring_from_self { segments = world } in
  {
    Design_space.comm_tile = (comm_tile, 128);
    compute_tile = (2, 2);
    comm_order = ring;
    compute_order = ring;
    binding = Design_space.Comm_on_sm 1;
    stages = 2;
    micro_block = 0;
  }

let planner_hand_candidates ~world =
  List.concat_map
    (fun comm_tile ->
      List.map
        (fun pl_transfer ->
          {
            Planner.pl_config = planner_sweep_config ~world ~comm_tile;
            pl_transfer;
            pl_chunks = 2;
          })
        [ Planner.Pull; Planner.Push ])
    [ 2; 4 ]

let planner_search ~world ?(extra = []) graph =
  let candidates =
    Planner.enumerate (Planner.default_space graph) @ extra
  in
  match
    Planner.search ~candidates graph ~spec_gpu:planner_machine
      ~make_cluster:(fun () ->
        Cluster.create planner_machine ~world_size:world)
      ()
  with
  | Some plan -> plan
  | None ->
    failwith ("planner: no plan for " ^ Planner.graph_fingerprint graph)

let planner_run ~world program =
  let cluster = Cluster.create planner_machine ~world_size:world in
  let result = Tilelink_core.Runtime.run cluster program in
  (result.Tilelink_core.Runtime.makespan, mean_overlap cluster ~world_size:world)

let planner_analyzer_clean program =
  match Tilelink_core.Analyzer.check program with
  | Ok () -> true
  | Error _ -> false

let planner_descr name =
  String.concat "|"
    [ "planner"; Spec.fingerprint planner_machine; name; "v1" ]

let tensors_equal a b =
  Tilelink_tensor.Tensor.shape a = Tilelink_tensor.Tensor.shape b
  && Tilelink_tensor.Tensor.data a = Tilelink_tensor.Tensor.data b

let bench_json_planner () =
  let vs_hand_rows =
    List.concat_map
      (fun world ->
        List.concat_map
          (fun comm_tile ->
            List.map
              (fun (tag, transfer) ->
                let name =
                  Printf.sprintf "mlp_ag_gemm_%s/w%d/t%d" tag world comm_tile
                in
                {
                  descr = planner_descr name;
                  compute =
                    (fun () ->
                      let shapes =
                        { Mlp.m = 8 * world; k = 4; n = 6; world_size = world }
                      in
                      let hand =
                        Mlp.ag_gemm_program ~transfer
                          ~config:(planner_sweep_config ~world ~comm_tile)
                          shapes ~spec_gpu:planner_machine
                      in
                      let hand_us, _ = planner_run ~world hand in
                      let plan =
                        planner_search ~world
                          ~extra:(planner_hand_candidates ~world)
                          (Mlp.ag_gemm_graph shapes)
                      in
                      let planner_us, overlap =
                        planner_run ~world plan.Planner.p_program
                      in
                      Obs.Json.Obj
                        [
                          ("config", Obs.Json.Str name);
                          ("kernel", Obs.Json.Str "planner-vs-hand");
                          ("makespan_us", Obs.Json.Num planner_us);
                          ("overlap_ratio", Obs.Json.Num overlap);
                          ("handwritten_us", Obs.Json.Num hand_us);
                          ( "ratio_vs_hand",
                            Obs.Json.Num (planner_us /. hand_us) );
                          ( "analyzer_clean",
                            Obs.Json.Bool
                              (planner_analyzer_clean plan.Planner.p_program)
                          );
                          ( "winner",
                            Obs.Json.Str
                              (Planner.candidate_to_string
                                 plan.Planner.p_candidate) );
                        ]);
                })
              [ ("pull", `Pull); ("push", `Push) ])
          [ 2; 4 ])
      [ 2; 4; 8 ]
  in
  (* Operator graphs with no hand-written counterpart: the planner must
     still produce an analyzer-clean program whose data actions
     reproduce the references bit for bit. *)
  let novel name ~world ~alloc ~checks graph =
    {
      descr = planner_descr name;
      compute =
        (fun () ->
          let plan = planner_search ~world graph in
          let planner_us, overlap = planner_run ~world plan.Planner.p_program in
          let memory = alloc () in
          (* Data programs are single-use; synthesize the winner afresh. *)
          let data_program =
            Planner.synthesize graph plan.Planner.p_candidate
              ~spec_gpu:planner_machine
          in
          let cluster = Cluster.create planner_machine ~world_size:world in
          ignore
            (Tilelink_core.Runtime.run ~data:true ~memory cluster data_program);
          let numerics_ok =
            List.for_all
              (fun (out, expected) ->
                List.for_all
                  (fun rank ->
                    tensors_equal (expected ~rank)
                      (Tilelink_core.Memory.find memory ~rank ~name:out))
                  (List.init world Fun.id))
              (checks memory)
          in
          Obs.Json.Obj
            [
              ("config", Obs.Json.Str name);
              ("kernel", Obs.Json.Str "planner-novel");
              ("makespan_us", Obs.Json.Num planner_us);
              ("overlap_ratio", Obs.Json.Num overlap);
              ( "analyzer_clean",
                Obs.Json.Bool (planner_analyzer_clean plan.Planner.p_program)
              );
              ("numerics_ok", Obs.Json.Bool numerics_ok);
              ( "winner",
                Obs.Json.Str
                  (Planner.candidate_to_string plan.Planner.p_candidate) );
            ]);
    }
  in
  let fused_spec = { Mlp.m = 16; k = 4; n = 6; world_size = 2 } in
  let novel_rows =
    [
      novel "softmax/w2" ~world:2
        ~alloc:(fun () -> Planned.softmax_alloc ~m:16 ~k:5 ~world:2 ~seed:7)
        ~checks:(fun memory ->
          [
            ( "p",
              fun ~rank:_ -> Planned.softmax_reference memory ~m:16 ~world:2 );
          ])
        (Planned.softmax_graph ~m:16 ~k:5 ~world:2);
      novel "moe_ffn/w2" ~world:2
        ~alloc:(fun () ->
          Planned.moe_alloc ~m:16 ~k:4 ~n:5 ~world:2 ~seed:19)
        ~checks:(fun memory ->
          [
            ( "h_gate",
              fun ~rank -> Planned.moe_reference memory ~weights:"w_gate" ~rank
            );
            ( "h_up",
              fun ~rank -> Planned.moe_reference memory ~weights:"w_up" ~rank
            );
          ])
        (Planned.moe_graph ~m:16 ~k:4 ~n:5 ~world:2);
      novel "fused_gemm_softmax/w2" ~world:2
        ~alloc:(fun () -> Planned.fused_alloc fused_spec ~seed:13)
        ~checks:(fun memory ->
          [
            ( "y",
              fun ~rank -> Planned.fused_gemm_reference memory fused_spec ~rank
            );
            ( "p",
              fun ~rank:_ -> Planned.fused_softmax_reference memory fused_spec
            );
          ])
        (Planned.fused_graph fused_spec);
    ]
  in
  vs_hand_rows @ novel_rows

let json_suites =
  [
    ("mlp", bench_json_mlp);
    ("moe", bench_json_moe);
    ("smoke", bench_json_smoke);
    ("chaos", bench_json_chaos);
    ("topology", bench_json_topology);
    ("serving", bench_json_serving);
    ("kernels", bench_json_kernels);
    ("parallel", bench_json_parallel);
    ("planner", bench_json_planner);
  ]

(* Wall-clock suites must be re-measured every run: serving a timing
   from the evaluation cache would freeze the numbers forever. *)
let uncached_suites = [ "kernels"; "parallel" ]

(* --check: re-parse a freshly written artifact and verify the schema
   downstream consumers rely on — non-empty suite name and rows, every
   row carrying string config/kernel and finite numeric makespan and
   overlap fields. *)
let check_bench_json path =
  let fail msg =
    Printf.eprintf "bench check FAILED (%s): %s\n" path msg;
    exit 2
  in
  let read () =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let doc =
    match Obs.Json.parse (read ()) with
    | Ok v -> v
    | Error msg -> fail ("not valid JSON: " ^ msg)
  in
  let str_field obj name =
    match Obs.Json.member name obj with
    | Some (Obs.Json.Str s) when s <> "" -> s
    | _ -> fail (Printf.sprintf "missing or empty string field %S" name)
  in
  let num_field obj name =
    match Obs.Json.member name obj with
    | Some (Obs.Json.Num x) when Float.is_finite x -> x
    | _ -> fail (Printf.sprintf "missing or non-finite numeric field %S" name)
  in
  let suite = str_field doc "suite" in
  ignore (num_field doc "world_size");
  let rows =
    match Obs.Json.member "rows" doc with
    | Some (Obs.Json.List (_ :: _ as rows)) -> rows
    | Some (Obs.Json.List []) -> fail "rows is empty"
    | _ -> fail "missing rows list"
  in
  List.iter
    (fun row ->
      ignore (str_field row "config");
      ignore (str_field row "kernel");
      if num_field row "makespan_us" < 0.0 then fail "negative makespan_us";
      let o = num_field row "overlap_ratio" in
      if o < 0.0 || o > 1.0 then fail "overlap_ratio outside [0, 1]")
    rows;
  (* Suite-specific gates. *)
  (if suite = "kernels" then
     (* The cache-blocked microkernel must actually pay off: at least
        one blocked variant beats the naive loop at every shape. *)
     let by_shape = Hashtbl.create 8 in
     List.iter
       (fun row ->
         let shape = str_field row "config" in
         let kernel = str_field row "kernel" in
         if String.length kernel >= 6 && String.sub kernel 0 6 = "block=" then
           let s = num_field row "speedup_vs_naive" in
           let best =
             match Hashtbl.find_opt by_shape shape with
             | Some b -> Float.max b s
             | None -> s
           in
           Hashtbl.replace by_shape shape best)
       rows;
     if Hashtbl.length by_shape = 0 then fail "kernels: no blocked rows";
     Hashtbl.iter
       (fun shape best ->
         if best <= 1.0 then
           fail
             (Printf.sprintf
                "kernels: no blocked variant beats naive at %s (best %.3fx)"
                shape best))
       by_shape);
  if suite = "serving" then
    List.iter
      (fun row ->
        (* Conservation gate: every offered request must be accounted
           for, nothing may linger at drain, and the latency digests
           must be real numbers whenever anything completed. *)
        let offered = num_field row "offered" in
        let completed = num_field row "completed" in
        let shed = num_field row "shed" in
        let failed = num_field row "failed" in
        let in_flight = num_field row "in_flight" in
        if offered <> completed +. shed +. failed +. in_flight then
          fail "serving: offered <> completed + shed + failed + in_flight";
        if in_flight <> 0.0 then fail "serving: requests in flight at drain";
        if failed < 0.0 then fail "serving: negative failed count";
        if num_field row "goodput_rps" < 0.0 then
          fail "serving: negative goodput";
        if num_field row "degraded_us" < 0.0 then
          fail "serving: negative degraded-tier time";
        if completed > 0.0 then begin
          if num_field row "ttft_p99_us" < num_field row "ttft_p50_us" then
            fail "serving: ttft p99 below p50";
          if num_field row "tpot_p99_us" < num_field row "tpot_p50_us" then
            fail "serving: tpot p99 below p50"
        end)
      rows;
  (if suite = "planner" then begin
     (* Every synthesized winner must be analyzer-clean; rows with a
        hand-written counterpart must rediscover or beat it (5%
        tolerance); novel-graph rows must reproduce their references
        bit for bit.  Both row kinds must actually be present. *)
     let compared = ref 0 and novel = ref 0 in
     List.iter
       (fun row ->
         (match Obs.Json.member "analyzer_clean" row with
         | Some (Obs.Json.Bool true) -> ()
         | _ -> fail "planner: winner not analyzer-clean");
         (match Obs.Json.member "ratio_vs_hand" row with
         | Some (Obs.Json.Num r) ->
           incr compared;
           if not (Float.is_finite r) then
             fail "planner: non-finite ratio_vs_hand";
           if r > 1.05 then
             fail
               (Printf.sprintf
                  "planner: %s loses to the hand-written schedule (%.3fx)"
                  (str_field row "config") r)
         | Some _ -> fail "planner: ratio_vs_hand not numeric"
         | None -> ());
         match Obs.Json.member "numerics_ok" row with
         | Some (Obs.Json.Bool true) -> incr novel
         | Some _ -> fail "planner: novel graph numerics diverge"
         | None -> ())
       rows;
     if !compared = 0 then fail "planner: no hand-written comparison rows";
     if !novel = 0 then fail "planner: no novel-graph rows"
   end);
  if suite = "topology" then begin
    (* Fault-domain gate: every topology row must carry a sane node /
       world layout and a [0,1] overlap efficiency; rows that forced a
       crash must report a recovery p99; the whole-island crash on a
       bridged shape must replay across the NIC (cross-island count
       strictly positive); the analytic baselines must bracket sanely
       (T3's overlapped estimate at or below fully-serialized). *)
    let island_crash_rows = ref 0 in
    List.iter
      (fun row ->
        let nodes = num_field row "nodes" in
        let world_sz = num_field row "world" in
        if nodes < 1.0 then fail "topology: node count below 1";
        if world_sz < 2.0 then fail "topology: world below 2";
        let eff = num_field row "overlap_efficiency" in
        if eff < 0.0 || eff > 1.0 then
          fail "topology: overlap_efficiency outside [0, 1]";
        if num_field row "cross_island_replays" < 0.0 then
          fail "topology: negative cross_island_replays";
        if num_field row "failed_over" > 0.0 then begin
          match Obs.Json.member "recovery_p99_us" row with
          | Some (Obs.Json.Num p) when Float.is_finite p && p >= 0.0 -> ()
          | _ -> fail "topology: failed-over row without recovery_p99_us"
        end;
        if num_field row "t3_us" > num_field row "nonoverlap_us" then
          fail "topology: T3 overlapped estimate above serialized baseline";
        let cfg = str_field row "config" in
        if cfg = "islands2x8/island" then begin
          incr island_crash_rows;
          if num_field row "cross_island_replays" <= 0.0 then
            fail "topology: island-wide crash produced no cross-island replays"
        end)
      rows;
    if !island_crash_rows = 0 then fail "topology: no whole-island crash row"
  end;
  if suite = "parallel" then
    List.iter
      (fun row ->
        (* Determinism and accounting gate (a 1-CPU host cannot show
           wall-clock speedup, so these are the hard requirements):
           tensors bit-identical to the sequential interpreter, and
           per-domain busy time consistent with the wall clock. *)
        (match Obs.Json.member "bit_identical" row with
        | Some (Obs.Json.Bool true) -> ()
        | _ -> fail "parallel: row not bit-identical to sequential backend");
        let busy = num_field row "busy_total_us" in
        let wall = num_field row "makespan_us" in
        let domains = num_field row "domains" in
        if busy < 0.0 then fail "parallel: negative busy_total_us";
        if busy > wall *. domains *. 1.05 then
          fail "parallel: busy time exceeds domains * wall";
        ignore (num_field row "host_cores"))
      rows;
  Printf.printf "[%s: check ok, %d rows]\n%!" path (List.length rows)

(* Resolve every row through the cache, fan the misses out over the
   pool, and stitch the results back in row order.  The sweep stats go
   into the artifact so the perf trajectory (and the parallel/caching
   machinery itself) is visible across commits. *)
let write_bench_json cache name rows_of =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let t0 = Unix.gettimeofday () in
  let specs = rows_of () in
  let resolved =
    List.map
      (fun r ->
        match cache with
        | None -> `Miss r
        | Some c -> (
          match Exec.Cache.find c (Exec.Cache.fingerprint r.descr) with
          | Some row -> `Hit row
          | None -> `Miss r))
      specs
  in
  let misses =
    List.filter_map (function `Miss r -> Some r | `Hit _ -> None) resolved
  in
  let computed =
    Exec.Pool.map !pool
      (fun r ->
        let t = Unix.gettimeofday () in
        let row = r.compute () in
        (row, Unix.gettimeofday () -. t))
      misses
  in
  let task_time = ref 0.0 in
  let rows =
    let remaining = ref (List.combine misses computed) in
    List.map
      (function
        | `Hit row -> row
        | `Miss _ -> (
          match !remaining with
          | [] -> assert false
          | (r, res) :: tl ->
            remaining := tl;
            let row, dt = Exec.Pool.get res in
            task_time := !task_time +. dt;
            (match cache with
            | Some c -> Exec.Cache.add c (Exec.Cache.fingerprint r.descr) row
            | None -> ());
            row))
      resolved
  in
  let wall = Unix.gettimeofday () -. t0 in
  let hits = List.length specs - List.length misses in
  let doc =
    Obs.Json.Obj
      [
        ("suite", Obs.Json.Str name);
        ("machine", Obs.Json.Str spec.Spec.gpu.Spec.gpu_name);
        ("world_size", Obs.Json.Num (float_of_int world));
        ("jobs", Obs.Json.Num (float_of_int !jobs));
        ("cache_hits", Obs.Json.Num (float_of_int hits));
        ("cache_misses", Obs.Json.Num (float_of_int (List.length misses)));
        ("wall_clock_s", Obs.Json.Num wall);
        ("task_time_s", Obs.Json.Num !task_time);
        ( "parallel_speedup",
          if wall > 0.0 then Obs.Json.Num (!task_time /. wall)
          else Obs.Json.Null );
        ("rows", Obs.Json.List rows);
      ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string ~indent:true doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "[%s: wrote %s, %d rows (%d cached), %.1fs]\n%!" name path
    (List.length rows) hits wall

(* ------------------------------------------------------------------ *)
(* --compare: regression gate between two BENCH_*.json artifacts       *)
(* ------------------------------------------------------------------ *)

(* Exit codes: 0 all rows within tolerance, 1 at least one regression,
   2 unreadable input or a failed --check self-test.  The --check mode
   validates the gate itself: diffing the baseline against itself must
   pass, and diffing it against a copy slowed down by twice the
   tolerance must trip. *)

let load_rows path =
  let contents =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error msg ->
      Printf.eprintf "bench compare: cannot read %s: %s\n" path msg;
      exit 2
  in
  match Obs.Regress.rows_of_string contents with
  | Ok rows -> rows
  | Error msg ->
    Printf.eprintf "bench compare: %s: %s\n" path msg;
    exit 2

let run_compare ~tolerance ~baseline_path ~candidate_path =
  let baseline = load_rows baseline_path in
  let candidate = load_rows candidate_path in
  let report = Obs.Regress.compare_rows ?tolerance ~baseline ~candidate () in
  print_endline (Obs.Regress.report_to_string report);
  if !check_artifacts then begin
    let fail msg =
      Printf.eprintf "bench compare check FAILED: %s\n" msg;
      exit 2
    in
    if baseline = [] then fail "baseline has no rows, gate is vacuous";
    let self =
      Obs.Regress.compare_rows ?tolerance ~baseline ~candidate:baseline ()
    in
    if not (Obs.Regress.ok self) then
      fail "self-diff of the baseline reported regressions";
    let tol =
      match tolerance with
      | Some t -> t
      | None -> Obs.Regress.default_tolerance
    in
    let perturbed =
      List.map
        (fun (r : Obs.Regress.row) ->
          {
            r with
            Obs.Regress.r_makespan_us =
              r.Obs.Regress.r_makespan_us *. (1.0 +. (2.0 *. tol));
          })
        baseline
    in
    let tripped =
      Obs.Regress.compare_rows ?tolerance ~baseline ~candidate:perturbed ()
    in
    if Obs.Regress.ok tripped then
      fail
        (Printf.sprintf "a uniform +%.1f%% slowdown did not trip the gate"
           (200.0 *. tol));
    Printf.printf
      "[compare check ok: self-diff clean, +%.1f%% perturbation flagged]\n"
      (200.0 *. tol)
  end;
  exit (if Obs.Regress.ok report then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let artifacts =
  [
    ("table1", table1);
    ("table2", table2);
    ("table4", table4);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("ablation", ablation);
  ]

let compare_paths : (string * string) option ref = ref None
let compare_tolerance : float option ref = ref None

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--compare" :: old_f :: new_f :: rest ->
      compare_paths := Some (old_f, new_f);
      parse acc rest
    | "--tolerance" :: t :: rest ->
      (match float_of_string_opt t with
      | Some x when x >= 0.0 -> compare_tolerance := Some x
      | _ -> failwith (Printf.sprintf "bench: bad --tolerance %S" t));
      parse acc rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 1 -> jobs := j
      | _ -> failwith (Printf.sprintf "bench: bad --jobs %S" n));
      parse acc rest
    | "--no-cache" :: rest ->
      use_cache := false;
      parse acc rest
    | "--check" :: rest ->
      check_artifacts := true;
      parse acc rest
    | "--cache" :: f :: rest ->
      cache_file := f;
      parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  (match !compare_paths with
  | Some (baseline_path, candidate_path) ->
    run_compare ~tolerance:!compare_tolerance ~baseline_path ~candidate_path
  | None -> ());
  if !jobs > 1 then pool := Some (Exec.Pool.create ~domains:!jobs ());
  let json_mode = List.mem "--json" args in
  let names = List.filter (fun a -> a <> "--json") args in
  if json_mode then begin
    let cache =
      if !use_cache then Some (Exec.Cache.create ~path:!cache_file ())
      else None
    in
    let requested =
      match names with [] -> List.map fst json_suites | ns -> ns
    in
    List.iter
      (fun name ->
        match List.assoc_opt name json_suites with
        | Some rows_of ->
          let cache =
            if List.mem name uncached_suites then None else cache
          in
          write_bench_json cache name rows_of;
          if !check_artifacts then
            check_bench_json (Printf.sprintf "BENCH_%s.json" name)
        | None ->
          Printf.printf "unknown suite %S; available: %s\n" name
            (String.concat ", " (List.map fst json_suites)))
      requested;
    match cache with Some c -> Exec.Cache.save c | None -> ()
  end
  else begin
    let requested =
      match names with [] -> List.map fst artifacts | ns -> ns
    in
    Printf.printf "TileLink reproduction benchmarks — %s, %d ranks\n"
      spec.Spec.gpu.Spec.gpu_name world;
    List.iter
      (fun name ->
        match List.assoc_opt name artifacts with
        | Some f ->
          let t0 = Unix.gettimeofday () in
          f ();
          Printf.printf "[%s done in %.1fs]\n%!" name
            (Unix.gettimeofday () -. t0)
        | None ->
          Printf.printf "unknown artifact %S; available: %s\n" name
            (String.concat ", " (List.map fst artifacts)))
      requested
  end
