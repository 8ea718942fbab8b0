(* tilelink — explore the TileLink reproduction from the command line.

     tilelink info
     tilelink simulate --kernel ag-gemm --m 8192 --k 4096 --n 2752 \
       --binding dma --comm-tile 512 --trace
     tilelink tune --kernel gemm-rs --m 8192 --k 1376 --n 4096
     tilelink validate --kernel moe
     tilelink attention --seq 32768 --heads 32 *)

open Cmdliner
open Tilelink_core
open Tilelink_machine
open Tilelink_workloads
open Tilelink_baselines

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

(* Ranks and extents: a zero or negative value would reach integer
   division in the builders, so it is rejected while parsing (usage
   hint, exit 2). *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let world_arg =
  Arg.(
    value & opt pos_int 8 & info [ "world" ] ~docv:"N" ~doc:"Number of ranks.")

let m_arg =
  Arg.(value & opt pos_int 8192 & info [ "m" ] ~doc:"Row extent (M).")

let k_arg =
  Arg.(value & opt pos_int 4096 & info [ "k" ] ~doc:"Reduction dim (K).")

let n_arg =
  Arg.(value & opt pos_int 2752 & info [ "n" ] ~doc:"Column extent (N).")

let binding_arg =
  let parse = function
    | "dma" -> Ok Design_space.Comm_on_dma
    | "hybrid" -> Ok (Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 12 })
    | s -> (
      match int_of_string_opt s with
      | Some sms -> Ok (Design_space.Comm_on_sm sms)
      | None -> Error (`Msg "binding must be dma, hybrid, or an SM count"))
  in
  let print ppf b =
    Fmt.string ppf (Design_space.resource_binding_to_string b)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Design_space.Comm_on_dma
    & info [ "binding" ] ~docv:"dma|hybrid|SMS"
        ~doc:"Communication resource binding.")

let comm_tile_arg =
  Arg.(value & opt int 512 & info [ "comm-tile" ] ~doc:"Comm tile rows.")

let compute_tile_arg =
  Arg.(value & opt int 128 & info [ "compute-tile" ] ~doc:"Compute tile rows.")

let stages_arg =
  Arg.(value & opt int 2 & info [ "stages" ] ~doc:"Software pipeline stages.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print an ASCII timeline of rank 0.")

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:"Write the full timeline in Chrome tracing format to $(docv).")

let write_trace_json cluster = function
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc
      (Tilelink_sim.Trace.to_chrome_json (Cluster.trace cluster));
    close_out oc;
    Printf.printf "wrote Chrome trace to %s (open in chrome://tracing)\n" path

let kernel_arg =
  Arg.(
    value
    & opt (enum [ ("ag-gemm", `Ag_gemm); ("gemm-rs", `Gemm_rs); ("moe", `Moe) ])
        `Ag_gemm
    & info [ "kernel" ] ~docv:"ag-gemm|gemm-rs|moe" ~doc:"Kernel to operate on.")

let spec = Calib.h800

(* Declarative topology presets; a bad value renders the full list and
   exits through the CLI-error path (mapped to exit 2 in main). *)
let topology_conv =
  let parse s =
    match Topology.of_string s with
    | Ok t -> Ok t
    | Error msg -> Error (`Msg msg)
  in
  let print ppf t = Fmt.string ppf (Topology.name t) in
  Arg.conv (parse, print)

let topology_arg =
  Arg.(
    value
    & opt (some topology_conv) None
    & info [ "topology" ]
        ~docv:(String.concat "|" (Topology.names ()))
        ~doc:
          "Run on a declarative cluster topology (NVLink islands bridged by \
           NICs, heterogeneous rank scales, co-tenant NIC tax); the world \
           size becomes the topology's natural world and workload shapes \
           scale with it.")

let config ~world ~binding ~comm_tile ~compute_tile ~stages ~ring =
  {
    Design_space.comm_tile = (comm_tile, 128);
    compute_tile = (compute_tile, compute_tile);
    comm_order =
      (if ring then Tile.Ring_from_self { segments = world }
       else Tile.Row_major);
    compute_order =
      (if ring then Tile.Ring_from_self { segments = world }
       else Tile.Row_major);
    binding;
    stages;
    micro_block = 0;
  }

let print_rank0_timeline cluster =
  let trace = Cluster.trace cluster in
  let rank0 = Tilelink_sim.Trace.create () in
  List.iter
    (fun s ->
      if s.Tilelink_sim.Trace.rank = 0 then
        Tilelink_sim.Trace.add rank0 ~rank:0 ~lane:s.Tilelink_sim.Trace.lane
          ~label:s.Tilelink_sim.Trace.label ~t0:s.Tilelink_sim.Trace.t0
          ~t1:s.Tilelink_sim.Trace.t1)
    (Tilelink_sim.Trace.spans trace);
  print_endline (Tilelink_sim.Trace.render rank0)

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let info_cmd =
  let run () =
    Format.printf "machine: %a@." Spec.pp spec;
    Printf.printf "overheads: launch %.1f us, host sync %.1f us, collective \
                   setup %.1f us\n"
      spec.Spec.overheads.kernel_launch spec.Spec.overheads.host_sync
      spec.Spec.overheads.collective_setup;
    Printf.printf "signals: notify %.2f us, wait %.2f us; fusion \
                   interference x%.2f\n"
      spec.Spec.overheads.signal_notify spec.Spec.overheads.signal_wait
      spec.Spec.overheads.fusion_interference
  in
  Cmd.v (Cmd.info "info" ~doc:"Print the calibrated machine model.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate kernel world m k n binding comm_tile compute_tile stages trace
    trace_json =
  let cfg =
    config ~world ~binding ~comm_tile ~compute_tile ~stages ~ring:true
  in
  let program =
    match kernel with
    | `Ag_gemm ->
      Mlp.ag_gemm_program ~config:cfg { Mlp.m; k; n; world_size = world }
        ~spec_gpu:spec
    | `Gemm_rs ->
      Mlp.gemm_rs_program
        ~config:
          {
            cfg with
            Design_space.comm_order = Tile.Row_major;
            compute_order = Tile.Ring_prev_first { segments = world };
            comm_tile = (128, 2048);
          }
        { Mlp.rs_m = m; rs_k = k; rs_n = n; rs_world = world }
        ~spec_gpu:spec
    | `Moe ->
      let moe =
        {
          Moe.tokens = m;
          hidden = k;
          intermediate = n;
          experts = 32;
          topk = 2;
          world_size = world;
        }
      in
      Moe.part1_program moe (Moe.routing moe ~seed:17) ~spec_gpu:spec
  in
  Format.printf "%a@." Program.pp program;
  (match Consistency.verify_program program with
  | Ok () -> print_endline "memory consistency: ok"
  | Error v ->
    Format.printf "memory consistency VIOLATION: %a@."
      Consistency.pp_violation v);
  let cluster =
    Cluster.create
      ~trace_enabled:(trace || trace_json <> None)
      spec ~world_size:world
  in
  let result = Runtime.run cluster program in
  Printf.printf "simulated time: %.1f us (%d signal notifies)\n"
    result.Runtime.makespan result.Runtime.notifies;
  if trace then print_rank0_timeline cluster;
  write_trace_json cluster trace_json

let simulate_cmd =
  Cmd.v (Cmd.info "simulate" ~doc:"Build and simulate one overlapped kernel.")
    Term.(
      const simulate $ kernel_arg $ world_arg $ m_arg $ k_arg $ n_arg
      $ binding_arg $ comm_tile_arg $ compute_tile_arg $ stages_arg
      $ trace_arg $ trace_json_arg)

(* ------------------------------------------------------------------ *)
(* Parallel evaluation: shared --jobs / --cache plumbing               *)
(* ------------------------------------------------------------------ *)

module Exec = Tilelink_exec

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:"Evaluate independent candidates on $(docv) domains (1 = \
              sequential; results are identical either way).")

let cache_path_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"FILE"
        ~doc:"Persist evaluation results to $(docv) and serve repeated \
              points from it on later runs.")

let make_pool jobs =
  if jobs > 1 then Some (Exec.Pool.create ~domains:jobs ()) else None

let make_cache = function
  | Some path -> Exec.Cache.create ~path ()
  | None -> Exec.Cache.create ()

let save_cache cache =
  match Exec.Cache.path cache with
  | Some path ->
    Exec.Cache.save cache;
    Printf.printf "cache: %d entries saved to %s\n" (Exec.Cache.length cache)
      path
  | None -> ()

let print_pool_stats = function
  | None -> ()
  | Some pool ->
    let s = Exec.Pool.stats pool in
    Printf.printf
      "pool: %d domains, %d tasks (%d stolen), task time %.2fs, wall %.2fs \
       (%.2fx)\n"
      (Exec.Pool.domains pool) s.Exec.Pool.tasks_run s.Exec.Pool.stolen
      s.Exec.Pool.task_time_s s.Exec.Pool.wall_time_s
      (if s.Exec.Pool.wall_time_s > 0.0 then
         s.Exec.Pool.task_time_s /. s.Exec.Pool.wall_time_s
       else 1.0)

(* ------------------------------------------------------------------ *)
(* tune                                                                *)
(* ------------------------------------------------------------------ *)

let tune kernel world m k n jobs cache_path =
  let pool = make_pool jobs in
  let cache = make_cache cache_path in
  let tuned =
    match kernel with
    | `Ag_gemm | `Moe -> Tuned.ag_gemm ?pool ~cache spec ~world_size:world ~m ~k ~n
    | `Gemm_rs -> Tuned.gemm_rs ?pool ~cache spec ~world_size:world ~m ~k ~n
  in
  Printf.printf "best of %d candidates: %.1f us\n  [%s]\n"
    tuned.Tuned.candidates_tried tuned.Tuned.best_time
    (Design_space.config_to_string tuned.Tuned.best_config);
  print_pool_stats pool;
  save_cache cache

let tune_cmd =
  Cmd.v
    (Cmd.info "tune" ~doc:"Search the decoupled design space for a shape.")
    Term.(
      const tune $ kernel_arg $ world_arg $ m_arg $ k_arg $ n_arg $ jobs_arg
      $ cache_path_arg)

(* ------------------------------------------------------------------ *)
(* autotune                                                            *)
(* ------------------------------------------------------------------ *)

(* Full design-space sweep (the [tune] command searches only the small
   curated candidate lists).  With --jobs N the independent simulator
   runs fan out over a domain pool; with --cache FILE repeated
   invocations replay already-evaluated points. *)

let print_outcome label (o : _ Tune.outcome) =
  Printf.printf
    "%s: best %.1f us [%s]\n   %d evaluated, %d skipped (build %d, invalid \
     %d, deadlock %d, race %d), cache %d hits / %d misses\n"
    label o.Tune.best.Tune.time
    (Design_space.config_to_string o.Tune.best.Tune.config)
    (List.length o.Tune.evaluated)
    o.Tune.skipped o.Tune.skipped_build o.Tune.skipped_invalid
    o.Tune.skipped_deadlock o.Tune.skipped_race o.Tune.cache_hits
    o.Tune.cache_misses;
  (* Why the winners win: schedules ranked by how much communication
     they left exposed on the critical path (fresh evaluations carry
     the measurement; pre-profiler cache hits may not). *)
  let by_blame =
    List.filter_map
      (fun (e : _ Tune.evaluation) ->
        Option.map (fun x -> (x, e)) e.Tune.exposed_comm_us)
      o.Tune.evaluated
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  match by_blame with
  | [] -> ()
  | _ ->
    Printf.printf "   exposed-communication blame (least first):\n";
    List.iteri
      (fun i (blame, (e : _ Tune.evaluation)) ->
        if i < 5 then
          Printf.printf "     %8.1f us exposed | %8.1f us total [%s]\n" blame
            e.Tune.time
            (Design_space.config_to_string e.Tune.config))
      by_blame

let autotune workload world m k n jobs cache_path =
  let pool = make_pool jobs in
  let cache = make_cache cache_path in
  let ring = Tile.Ring_from_self { segments = world } in
  let ag_space ~m ~k ~n =
    let space =
      {
        Design_space.comm_tiles =
          List.filter
            (fun (tm, _) -> m / world mod tm = 0)
            [ (128, 128); (256, 128); (512, 128); (1024, 128) ];
        compute_tiles = [ (128, 128) ];
        comm_orders = [ ring; Tile.Row_major ];
        compute_orders = [ ring ];
        bindings =
          [
            Design_space.Comm_on_dma;
            Design_space.Comm_on_sm 20;
            Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 12 };
          ];
        stage_choices = [ 1; 2 ];
        micro_blocks = [ 0 ];
      }
    in
    ( Printf.sprintf "autotune:ag_gemm:m=%d,k=%d,n=%d" m k n,
      Design_space.enumerate space,
      fun config ->
        Mlp.ag_gemm_program ~config
          { Mlp.m; k; n; world_size = world }
          ~spec_gpu:spec )
  in
  let rs_space ~m ~k ~n =
    let space =
      {
        Design_space.comm_tiles = [ (128, n); (256, n) ];
        compute_tiles = [ (128, 128) ];
        comm_orders = [ Tile.Row_major ];
        compute_orders = [ Tile.Ring_prev_first { segments = world }; ring ];
        bindings =
          [
            Design_space.Comm_on_sm 20;
            Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 12 };
          ];
        stage_choices = [ 1; 2 ];
        micro_blocks = [ 0 ];
      }
    in
    ( Printf.sprintf "autotune:gemm_rs:m=%d,k=%d,n=%d" m k n,
      Design_space.enumerate space,
      fun config ->
        Mlp.gemm_rs_program ~config
          { Mlp.rs_m = m; rs_k = k; rs_n = n; rs_world = world }
          ~spec_gpu:spec )
  in
  let sweeps =
    match workload with
    | `Mlp ->
      (* m/k/n are read as the layer's S/H/I, as in Table 2. *)
      let ipr = n / world in
      [
        ("AG+GEMM", ag_space ~m ~k ~n:(2 * ipr));
        ("GEMM+RS", rs_space ~m ~k:ipr ~n:k);
      ]
    | `Ag_gemm -> [ ("AG+GEMM", ag_space ~m ~k ~n) ]
    | `Gemm_rs -> [ ("GEMM+RS", rs_space ~m ~k ~n) ]
  in
  List.iter
    (fun (label, (workload_id, configs, build)) ->
      Printf.printf "%s: searching %d candidates...\n%!" label
        (List.length configs);
      match
        Tune.search_programs ?pool ~cache ~workload:workload_id ~build
          ~make_cluster:(fun () -> Cluster.create spec ~world_size:world)
          configs
      with
      | None -> Printf.printf "%s: no candidate built\n" label
      | Some outcome -> print_outcome label outcome)
    sweeps;
  print_pool_stats pool;
  save_cache cache

let autotune_cmd =
  let workload_arg =
    Arg.(
      value
      & opt (enum [ ("mlp", `Mlp); ("ag-gemm", `Ag_gemm); ("gemm-rs", `Gemm_rs) ])
          `Mlp
      & info [ "workload" ] ~docv:"mlp|ag-gemm|gemm-rs"
          ~doc:"What to sweep: both halves of the TP MLP, or one kernel.")
  in
  Cmd.v
    (Cmd.info "autotune"
       ~doc:
         "Sweep the full decoupled design space, optionally in parallel \
          (--jobs) and through an evaluation cache (--cache).")
    Term.(
      const autotune $ workload_arg $ world_arg $ m_arg $ k_arg $ n_arg
      $ jobs_arg $ cache_path_arg)

(* ------------------------------------------------------------------ *)
(* ablation                                                            *)
(* ------------------------------------------------------------------ *)

(* One design axis at a time around a fixed base point (the CLI's
   counterpart of the bench ablation artifact); each axis's grid is an
   independent batch of simulator runs, so it fans out over the pool. *)

let ablation world m k n jobs =
  let pool = make_pool jobs in
  let ring = Tile.Ring_from_self { segments = world } in
  let shapes = { Mlp.m; k; n; world_size = world } in
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
  let run_axis axis configs =
    let times =
      Exec.Pool.map pool
        (fun (_, config) ->
          let cluster = Cluster.create spec ~world_size:world in
          (Runtime.run cluster
             (Mlp.ag_gemm_program ~config shapes ~spec_gpu:spec))
            .Runtime.makespan)
        configs
    in
    Printf.printf "%s:\n" axis;
    List.iter2
      (fun (label, _) time ->
        Printf.printf "  %-26s %8.1f us\n" label (Exec.Pool.get time))
      configs times
  in
  run_axis "resource binding"
    (List.map
       (fun binding ->
         ( Design_space.resource_binding_to_string binding,
           { base with Design_space.binding } ))
       [
         Design_space.Comm_on_dma;
         Design_space.Comm_on_sm 8;
         Design_space.Comm_on_sm 20;
         Design_space.Comm_on_sm 40;
         Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 12 };
       ]);
  run_axis "communication tile rows"
    (List.filter_map
       (fun tile ->
         if m / world mod tile = 0 then
           Some
             ( Printf.sprintf "%d rows/tile" tile,
               { base with Design_space.comm_tile = (tile, 128) } )
         else None)
       [ 128; 256; 512; 1024 ]);
  run_axis "pipeline stages"
    (List.map
       (fun stages ->
         (Printf.sprintf "stages=%d" stages, { base with Design_space.stages }))
       [ 1; 2; 4 ]);
  print_pool_stats pool

let ablation_cmd =
  Cmd.v
    (Cmd.info "ablation"
       ~doc:
         "Sweep one design axis at a time around a fixed AG+GEMM base \
          point, optionally in parallel (--jobs).")
    Term.(
      const ablation $ world_arg $ m_arg $ k_arg $ n_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* validate                                                            *)
(* ------------------------------------------------------------------ *)

let backend_arg =
  Arg.(
    value
    & opt (enum [ ("sequential", `Sequential); ("parallel", `Parallel) ])
        `Sequential
    & info [ "backend" ] ~docv:"sequential|parallel"
        ~doc:
          "Execution backend: the sequential interpreter or the \
           domain-per-rank parallel backend.")

let domains_arg =
  Arg.(
    value & opt int 2
    & info [ "domains" ] ~docv:"N"
        ~doc:"Worker domains for the parallel backend (ignored otherwise).")

let resolve_backend backend domains =
  match backend with
  | `Sequential -> `Sequential
  | `Parallel -> `Parallel domains

let validate kernel backend domains topology =
  let backend = resolve_backend backend domains in
  (* A topology fixes the world to its natural size; shapes scale with
     it so every rank keeps the same per-rank tile volume as the flat
     world-4 case. *)
  let world =
    match topology with
    | Some topo -> Topology.natural_world topo
    | None -> 4
  in
  let machine = Calib.test_machine in
  (match topology with
  | Some topo -> Printf.printf "topology: %s\n" (Topology.describe topo)
  | None -> ());
  let mk_cluster () = Cluster.create ?topology machine ~world_size:world in
  let ranks = List.init world Fun.id in
  let failed = ref false in
  let check name ok =
    Printf.printf "%-28s %s\n" name (if ok then "ok" else "MISMATCH");
    if not ok then failed := true
  in
  (match kernel with
  | `Ag_gemm ->
    let shapes = { Mlp.m = 4 * world; k = 4; n = 6; world_size = world } in
    let cfg =
      config ~world ~binding:(Design_space.Comm_on_sm 1) ~comm_tile:2
        ~compute_tile:2 ~stages:2 ~ring:true
    in
    let memory = Mlp.ag_gemm_alloc shapes ~seed:1 in
    let cluster = mk_cluster () in
    ignore
      (Runtime.run ~data:true ~memory ~backend cluster
         (Mlp.ag_gemm_program ~config:cfg shapes ~spec_gpu:machine));
    check
      (Printf.sprintf "ag-gemm (%d ranks)" world)
      (List.for_all
         (fun rank ->
           Tilelink_tensor.Check.close
             (Mlp.ag_gemm_reference memory shapes ~rank)
             (Memory.find memory ~rank ~name:"y"))
         ranks)
  | `Gemm_rs ->
    let shapes =
      { Mlp.rs_m = 4 * world; rs_k = 3; rs_n = 4; rs_world = world }
    in
    let cfg =
      {
        Design_space.comm_tile = (2, 2);
        compute_tile = (2, 2);
        comm_order = Tile.Row_major;
        compute_order = Tile.Row_major;
        binding = Design_space.Comm_on_sm 1;
        stages = 1;
        micro_block = 0;
      }
    in
    let memory = Mlp.gemm_rs_alloc shapes ~seed:2 in
    let cluster = mk_cluster () in
    ignore
      (Runtime.run ~data:true ~memory ~backend cluster
         (Mlp.gemm_rs_program ~config:cfg shapes ~spec_gpu:machine));
    check
      (Printf.sprintf "gemm-rs (%d ranks)" world)
      (List.for_all
         (fun rank ->
           Tilelink_tensor.Check.close
             (Mlp.gemm_rs_reference memory shapes ~rank)
             (Memory.find memory ~rank ~name:"out"))
         ranks)
  | `Moe ->
    let moe =
      {
        Moe.tokens = 4 * world;
        hidden = 4;
        intermediate = 2 * world;
        experts = world;
        topk = 2;
        world_size = world;
      }
    in
    let route = Moe.routing moe ~seed:3 in
    let memory = Moe.part2_alloc moe ~seed:4 in
    let cluster = mk_cluster () in
    ignore
      (Runtime.run ~data:true ~memory ~backend cluster
         (Moe.part2_program moe route ~spec_gpu:machine
            ~config:
              {
                Moe.gg_tile_rows = 2;
                reduce_tile_rows = 2;
                rs_tile_rows = 2;
                reduce_sms = 1;
                rs_sms = 1;
              }));
    check
      (Printf.sprintf "moe part2 (%d ranks)" world)
      (List.for_all
         (fun rank ->
           Tilelink_tensor.Check.close ~atol:1e-8
             (Moe.part2_reference memory moe route ~rank)
             (Memory.find memory ~rank ~name:"out"))
         ranks));
  if !failed then exit 1

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Run a kernel with real data and compare to the reference, on \
          either execution backend (--backend parallel --domains N) and \
          optionally on a declarative topology (--topology).")
    Term.(const validate $ kernel_arg $ backend_arg $ domains_arg $ topology_arg)

(* ------------------------------------------------------------------ *)
(* sanity                                                              *)
(* ------------------------------------------------------------------ *)

(* Every kernel variant against the scalar reference, bit for bit: the
   gemm microkernel at each shipped block size against the
   bounds-checked naive loop, then every shipped workload program
   sequential vs parallel.  Exact equality, not tolerance — variant
   selection (autotuned block sizes, backend choice) must never change
   numerics. *)

module Ts = Tilelink_tensor

let sanity_bits_equal a b =
  let da = Ts.Tensor.data a and db = Ts.Tensor.data b in
  Array.length da = Array.length db
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       da db

let sanity_memories_equal ma mb =
  List.for_all
    (fun rank ->
      let names = Memory.buffers ma ~rank in
      names = Memory.buffers mb ~rank
      && List.for_all
           (fun name ->
             sanity_bits_equal
               (Memory.find ma ~rank ~name)
               (Memory.find mb ~rank ~name))
           names)
    (List.init (Memory.world_size ma) Fun.id)

let sanity check domains =
  let failures = ref 0 in
  let report name ok =
    Printf.printf "%-52s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  (* --- gemm microkernel variants --- *)
  let gemm_shapes = [ (3, 5, 2); (8, 12, 6); (16, 16, 16); (17, 31, 13) ] in
  List.iter
    (fun (m, k, n) ->
      let a = Ts.Tensor.random ~seed:(m + k) (Ts.Shape.of_list [ m; k ]) in
      let b = Ts.Tensor.random ~seed:(k + n) (Ts.Shape.of_list [ k; n ]) in
      let reference = Ts.Linalg.gemm_naive a b in
      report
        (Printf.sprintf "gemm %dx%dx%d ikj vs naive" m k n)
        (sanity_bits_equal reference (Ts.Linalg.gemm a b));
      List.iter
        (fun block ->
          report
            (Printf.sprintf "gemm %dx%dx%d block=%d vs naive" m k n block)
            (sanity_bits_equal reference (Ts.Linalg.gemm ~block a b)))
        [ 2; 4; 8; 16; 32; 64 ])
    gemm_shapes;
  (* --- every shipped workload, sequential vs parallel --- *)
  let machine = Calib.test_machine in
  let run_case backend case =
    let memory, program = case () in
    let cluster =
      Cluster.create machine ~world_size:(Program.world_size program)
    in
    ignore (Runtime.run ~data:true ~memory ~backend cluster program);
    memory
  in
  List.iter
    (fun (name, case) ->
      let mem_seq = run_case `Sequential case in
      let mem_par = run_case (`Parallel domains) case in
      report
        (Printf.sprintf "%s seq vs par(%d)" name domains)
        (sanity_memories_equal mem_seq mem_par))
    (Suite.data_cases ());
  (* --- self-test: the comparator must trip on a flipped bit --- *)
  if check then begin
    let t = Ts.Tensor.random ~seed:3 (Ts.Shape.of_list [ 4; 4 ]) in
    let corrupt = Ts.Tensor.copy t in
    (Ts.Tensor.data corrupt).(5) <- (Ts.Tensor.data corrupt).(5) +. 1e-12;
    report "self-test: comparator detects flipped bit"
      (not (sanity_bits_equal t corrupt))
  end;
  if !failures > 0 then begin
    Printf.printf "%d sanity failure(s)\n" !failures;
    exit 1
  end
  else print_endline "all kernel variants and backends agree bit for bit"

let sanity_cmd =
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Also self-test the bitwise comparator on a deliberately \
             corrupted tensor.")
  in
  Cmd.v
    (Cmd.info "sanity"
       ~doc:
         "Bit-identity sweep: every gemm microkernel variant against the \
          scalar reference, and every shipped workload program sequential \
          vs parallel.")
    Term.(const sanity $ check_arg $ domains_arg)

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

let report kernel world m k n =
  let cfg =
    config ~world ~binding:Design_space.Comm_on_dma ~comm_tile:512
      ~compute_tile:128 ~stages:2 ~ring:true
  in
  let program =
    match kernel with
    | `Ag_gemm ->
      Mlp.ag_gemm_program ~config:cfg { Mlp.m; k; n; world_size = world }
        ~spec_gpu:spec
    | `Gemm_rs ->
      Mlp.gemm_rs_program
        ~config:
          {
            cfg with
            Design_space.comm_order = Tile.Row_major;
            compute_order = Tile.Ring_prev_first { segments = world };
            comm_tile = (128, 2048);
            binding = Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 12 };
          }
        { Mlp.rs_m = m; rs_k = k; rs_n = n; rs_world = world }
        ~spec_gpu:spec
    | `Moe ->
      let moe =
        { Moe.tokens = m; hidden = k; intermediate = n; experts = 32;
          topk = 2; world_size = world }
      in
      Moe.part2_program moe (Moe.routing moe ~seed:17) ~spec_gpu:spec
  in
  let cluster = Cluster.create ~trace_enabled:true spec ~world_size:world in
  let result = Runtime.run cluster program in
  Printf.printf "makespan %.1f us; per-rank measured overlap:\n"
    result.Runtime.makespan;
  List.iter
    (fun r -> Format.printf "  %a@." Report.pp r)
    (Report.all_ranks (Cluster.trace cluster) ~world_size:world)

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Simulate a kernel and print the measured per-rank overlap.")
    Term.(const report $ kernel_arg $ world_arg $ m_arg $ k_arg $ n_arg)

(* ------------------------------------------------------------------ *)
(* emit                                                                *)
(* ------------------------------------------------------------------ *)

let emit kernel world m k n tasks target =
  let cfg =
    config ~world ~binding:(Design_space.Comm_on_dma) ~comm_tile:512
      ~compute_tile:128 ~stages:2 ~ring:true
  in
  let program =
    match kernel with
    | `Ag_gemm ->
      Mlp.ag_gemm_program ~config:cfg { Mlp.m; k; n; world_size = world }
        ~spec_gpu:spec
    | `Gemm_rs ->
      Mlp.gemm_rs_program
        ~config:
          {
            cfg with
            Design_space.comm_order = Tile.Row_major;
            compute_order = Tile.Ring_prev_first { segments = world };
            comm_tile = (128, 2048);
            binding = Design_space.Comm_on_sm 20;
          }
        { Mlp.rs_m = m; rs_k = k; rs_n = n; rs_world = world }
        ~spec_gpu:spec
    | `Moe ->
      let moe =
        { Moe.tokens = m; hidden = k; intermediate = n; experts = 32;
          topk = 2; world_size = world }
      in
      Moe.part2_program moe (Moe.routing moe ~seed:17) ~spec_gpu:spec
  in
  (* Print the first [tasks] tasks of each role of rank 0: enough to
     read the generated fence discipline without drowning in text. *)
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  List.iter
    (fun role ->
      let truncated =
        { role with Program.tasks = take tasks role.Program.tasks }
      in
      print_string (Codegen.emit_role ~target truncated);
      if List.length role.Program.tasks > tasks then
        Printf.printf "// ... %d more tasks in this role\n"
          (List.length role.Program.tasks - tasks))
    (Program.plans program).(0);
  let stats = Codegen.stats_of_listing (Codegen.emit_rank program ~rank:0) in
  Printf.printf
    "// whole rank 0: %d acquire spins, %d release stores, %d cp.async, %d \
     put_nbi, %d get_nbi\n"
    stats.Codegen.acquires stats.Codegen.releases stats.Codegen.async_loads
    stats.Codegen.remote_puts stats.Codegen.remote_gets

let emit_cmd =
  let tasks_arg =
    Arg.(
      value & opt int 2
      & info [ "tasks" ] ~doc:"Tasks to print per role (rest summarized).")
  in
  let target_arg =
    Arg.(
      value
      & opt (enum [ ("ptx", Codegen.Ptx); ("tir", Codegen.Tir) ]) Codegen.Ptx
      & info [ "target" ] ~docv:"ptx|tir" ~doc:"Backend syntax to emit.")
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:"Print the generated device code of one overlapped kernel.")
    Term.(
      const emit $ kernel_arg $ world_arg $ m_arg $ k_arg $ n_arg $ tasks_arg
      $ target_arg)

(* ------------------------------------------------------------------ *)
(* attention                                                           *)
(* ------------------------------------------------------------------ *)

let attention world seq heads head_dim trace =
  let a =
    { Attention.batch_heads = heads; seq; head_dim; world_size = world;
      causal = false }
  in
  let cfg = { Attention.q_tile = 512; kv_tile = 2048 } in
  let cluster = Cluster.create ~trace_enabled:trace spec ~world_size:world in
  let tl =
    (Runtime.run cluster (Attention.program ~config:cfg a ~spec_gpu:spec))
      .Runtime.makespan
  in
  let torch = Attention_baselines.torch_time spec a in
  let ring = Attention_baselines.ring_attention_time spec a in
  Printf.printf
    "seq %d, %d heads: torch %.2f ms | ring %.2f ms | tilelink %.2f ms\n" seq
    heads (torch /. 1e3) (ring /. 1e3) (tl /. 1e3);
  if trace then print_rank0_timeline cluster

let attention_cmd =
  let seq_arg =
    Arg.(value & opt int 32768 & info [ "seq" ] ~doc:"Sequence length.")
  in
  let heads_arg =
    Arg.(value & opt int 32 & info [ "heads" ] ~doc:"Attention heads.")
  in
  let head_dim_arg =
    Arg.(value & opt int 128 & info [ "head-dim" ] ~doc:"Head dimension.")
  in
  Cmd.v
    (Cmd.info "attention" ~doc:"Simulate sequence-parallel attention.")
    Term.(
      const attention $ world_arg $ seq_arg $ heads_arg $ head_dim_arg
      $ trace_arg)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

module Obs = Tilelink_obs

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let print_wait_report metrics =
  Printf.printf "per-primitive wait latency (us):\n";
  Printf.printf "  %-10s %8s %10s %10s %10s %10s\n" "primitive" "count" "p50"
    "p95" "p99" "max";
  let row name label =
    match Obs.Metrics.summary metrics name with
    | None -> ()
    | Some s ->
      Printf.printf "  %-10s %8d %10.2f %10.2f %10.2f %10.2f\n" label s.count
        s.Obs.Metrics.p50 s.p95 s.p99 s.max
  in
  row "wait_us.pc" "pc";
  row "wait_us.peer" "peer";
  row "wait_us.host" "host";
  (match Obs.Metrics.merged_summary metrics ~prefix:"wait_us." with
  | None -> Printf.printf "  (no waits recorded)\n"
  | Some s ->
    Printf.printf "  %-10s %8d %10.2f %10.2f %10.2f %10.2f\n" "all" s.count
      s.p50 s.p95 s.p99 s.max);
  Printf.printf "counters:\n";
  List.iter
    (fun name ->
      Printf.printf "  %-24s %d\n" name
        (Option.get (Obs.Metrics.counter_value metrics name)))
    (Obs.Metrics.counter_names metrics)

(* Structural checks over the freshly written artifacts: both files
   must re-parse, the Perfetto trace must contain at least one
   notify->wait flow pair and one counter track, and the metrics dump
   must hold a non-empty wait histogram.  This is the smoke test the
   dev-check alias runs. *)
let check_artifacts ~metrics_path ~perfetto_path =
  let read path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let fail msg =
    Printf.eprintf "profile check FAILED: %s\n" msg;
    exit 2
  in
  let parse label path =
    match Obs.Json.parse (read path) with
    | Ok v -> v
    | Error msg -> fail (Printf.sprintf "%s is not valid JSON: %s" label msg)
  in
  let metrics_json = parse "metrics" metrics_path in
  let perfetto = parse "perfetto" perfetto_path in
  let events = Obs.Json.to_list perfetto in
  let phase ph e =
    match Obs.Json.member "ph" e with
    | Some (Obs.Json.Str s) -> s = ph
    | _ -> false
  in
  let flow_id ph =
    List.filter_map
      (fun e ->
        if phase ph e then
          Option.bind (Obs.Json.member "id" e) Obs.Json.to_float
        else None)
      events
  in
  let starts = flow_id "s" and finishes = flow_id "f" in
  let paired = List.exists (fun id -> List.mem id finishes) starts in
  if not paired then fail "no notify->wait flow event pair in Perfetto trace";
  if not (List.exists (phase "C") events) then
    fail "no counter track in Perfetto trace";
  let wait_histogram =
    match Obs.Json.member "histograms" metrics_json with
    | Some (Obs.Json.Obj fields) ->
      List.exists
        (fun (name, v) ->
          String.length name >= 8
          && String.sub name 0 8 = "wait_us."
          &&
          match Obs.Json.member "count" v with
          | Some (Obs.Json.Num c) -> c > 0.0
          | _ -> false)
        fields
    | _ -> false
  in
  if not wait_histogram then
    fail "metrics dump has no non-empty wait_us.* histogram";
  Printf.printf "profile check: ok (flow pairs, counter tracks, wait \
                 histograms all present)\n"

let profile workload world m k n out_prefix check critical_path min_level =
  (* One full instrumented run behind a closure: the critical-path
     determinism check replays it and compares rendered output. *)
  let run () =
    let telemetry = Obs.Telemetry.create () in
    let cfg =
      config ~world ~binding:Design_space.Comm_on_dma ~comm_tile:512
        ~compute_tile:128 ~stages:2 ~ring:true
    in
    let name, program =
      match workload with
      | `Mlp ->
        ( "mlp",
          Mlp.ag_gemm_program ~config:cfg
            { Mlp.m; k; n; world_size = world }
            ~spec_gpu:spec )
      | `Gemm_rs ->
        ( "gemm-rs",
          Mlp.gemm_rs_program
            ~config:
              {
                cfg with
                Design_space.comm_order = Tile.Row_major;
                compute_order = Tile.Ring_prev_first { segments = world };
                comm_tile = (128, 2048);
              }
            { Mlp.rs_m = m; rs_k = k; rs_n = n; rs_world = world }
            ~spec_gpu:spec )
      | `Moe ->
        let moe =
          {
            Moe.tokens = m;
            hidden = k;
            intermediate = n;
            experts = 32;
            topk = 2;
            world_size = world;
          }
        in
        ( "moe",
          Moe.part1_program moe (Moe.routing moe ~seed:17) ~spec_gpu:spec )
    in
    let cluster, result = Profiled.run ~telemetry ~spec_gpu:spec program in
    (name, telemetry, cluster, result)
  in
  let name, telemetry, cluster, result = run () in
  let metrics = Obs.Telemetry.metrics telemetry in
  let journal = Obs.Telemetry.journal telemetry in
  let makespan = result.Tilelink_core.Runtime.makespan in
  (* Causal profile of a finished run: span list -> attribution buckets
     + extracted critical path.  Shared by the report, the artifacts,
     and the --check validations. *)
  let causal_profile ~makespan telemetry =
    let spans = Obs.Span.spans (Obs.Telemetry.spans telemetry) in
    ( Obs.Attribution.of_spans ~makespan spans,
      Obs.Critpath.extract ~makespan spans )
  in
  let critpath_json (attribution, critpath) =
    Obs.Json.to_string ~indent:true
      (Obs.Json.Obj
         [
           ("workload", Obs.Json.Str name);
           ("attribution", Obs.Attribution.to_json attribution);
           ( "critical_path",
             match critpath with
             | None -> Obs.Json.Null
             | Some cp -> Obs.Critpath.to_json cp );
         ])
  in
  let attribution, critpath = causal_profile ~makespan telemetry in
  Printf.printf "%s: makespan %.1f us, %d signal notifies, journal %d \
                 events (%d dropped)\n"
    name makespan result.Tilelink_core.Runtime.notifies
    (Obs.Journal.length journal)
    (Obs.Journal.dropped journal);
  print_wait_report metrics;
  Printf.printf "per-rank overlap:\n";
  List.iter
    (fun r -> Format.printf "  %a@." Report.pp r)
    (Report.all_ranks (Cluster.trace cluster) ~world_size:world);
  if critical_path then begin
    print_string (Obs.Attribution.to_string attribution);
    match critpath with
    | None -> Printf.printf "critical path: (no spans recorded)\n"
    | Some cp ->
      Printf.printf "critical path: %d steps, tail slack %.1f us\n"
        (List.length cp.Obs.Critpath.path)
        cp.Obs.Critpath.tail_slack;
      Printf.printf "  per-rank blame (charged us on the path):\n";
      List.iter
        (fun (rank, us) -> Printf.printf "    rank %-3d %10.1f\n" rank us)
        (Obs.Critpath.rank_blame cp);
      let keys = Obs.Critpath.key_blame cp in
      if keys <> [] then begin
        Printf.printf "  per-channel blame (blocked us on the path):\n";
        List.iter
          (fun (key, us) -> Printf.printf "    %-24s %10.1f\n" key us)
          keys
      end
  end;
  let prefix =
    match out_prefix with Some p -> p | None -> "profile_" ^ name
  in
  let metrics_path = prefix ^ ".metrics.json" in
  let prom_path = prefix ^ ".prom" in
  let perfetto_path = prefix ^ ".perfetto.json" in
  write_file metrics_path
    (Obs.Json.to_string ~indent:true (Obs.Metrics.to_json metrics));
  write_file prom_path (Obs.Metrics.to_prometheus metrics);
  let extra =
    match critpath with
    | Some cp when critical_path -> Obs.Critpath.perfetto_events cp
    | _ -> []
  in
  write_file perfetto_path
    (Obs.Perfetto.export_string ?min_level ~extra
       ~trace:(Cluster.trace cluster) ~journal ());
  Printf.printf "wrote %s, %s, %s (open the last in \
                 https://ui.perfetto.dev)\n"
    metrics_path prom_path perfetto_path;
  if critical_path then begin
    let critpath_path = prefix ^ ".critpath.json" in
    write_file critpath_path (critpath_json (attribution, critpath));
    Printf.printf "wrote %s (attribution + critical path)\n" critpath_path
  end;
  if check then begin
    check_artifacts ~metrics_path ~perfetto_path;
    if critical_path then begin
      let fail msg =
        Printf.eprintf "profile check FAILED: %s\n" msg;
        exit 2
      in
      if not (Obs.Attribution.conserved attribution) then
        fail
          (Printf.sprintf
             "attribution buckets sum to %.3f us but makespan is %.3f us"
             (Obs.Attribution.bucket_sum attribution)
             makespan);
      (match critpath with
      | None -> fail "no spans recorded despite telemetry being enabled"
      | Some _ -> ());
      (* Byte-determinism: a second identical run must render the same
         attribution + critical-path JSON. *)
      let _, telemetry2, _, result2 = run () in
      let rendered2 =
        critpath_json
          (causal_profile ~makespan:result2.Tilelink_core.Runtime.makespan
             telemetry2)
      in
      if critpath_json (attribution, critpath) <> rendered2 then
        fail "critical-path output not byte-identical across two runs";
      Printf.printf
        "profile check: ok (attribution conserved, critical path \
         deterministic)\n"
    end
  end

let profile_cmd =
  let workload_arg =
    Arg.(
      value
      & opt (enum [ ("mlp", `Mlp); ("gemm-rs", `Gemm_rs); ("moe", `Moe) ])
          `Mlp
      & info [ "workload" ] ~docv:"mlp|gemm-rs|moe"
          ~doc:"Workload to profile.")
  in
  let out_prefix_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-prefix" ] ~docv:"PREFIX"
          ~doc:
            "Artifact path prefix (default profile_<workload>); writes \
             PREFIX.metrics.json, PREFIX.prom, PREFIX.perfetto.json.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Re-parse the written artifacts and fail unless flow pairs, \
             counter tracks and wait histograms are present.  With \
             $(b,--critical-path), additionally require attribution \
             conservation and byte-identical output across two runs.")
  in
  let critical_path_arg =
    Arg.(
      value & flag
      & info [ "critical-path" ]
          ~doc:
            "Extract the causal critical path: print the makespan \
             attribution (conserved buckets + overlap efficiency), per-rank \
             and per-channel blame, write PREFIX.critpath.json, and overlay \
             the path as a flow-annotated track in the Perfetto export.")
  in
  let min_level_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("debug", Obs.Journal.Debug);
                  ("info", Obs.Journal.Info);
                  ("warn", Obs.Journal.Warn);
                  ("error", Obs.Journal.Error);
                ]))
          None
      & info [ "min-level" ] ~docv:"debug|info|warn|error"
          ~doc:
            "Severity floor for instant-event marks in the Perfetto export \
             (flow arrows and counter tracks are always reconstructed from \
             debug-level events).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload with telemetry enabled and dump the metrics \
          report, Prometheus text, and an enriched Perfetto trace.")
    Term.(
      const profile $ workload_arg $ world_arg $ m_arg $ k_arg $ n_arg
      $ out_prefix_arg $ check_arg $ critical_path_arg $ min_level_arg)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

module Harness = Tilelink_chaos.Harness

let chaos_run seed trials workload jobs no_retry policy crash_ranks topology
    out perfetto_path check =
  let retry = not no_retry in
  (* Crashes are only recoverable under Failover; upgrade the default
     policy so `--crash-ranks 1` alone does the expected thing. *)
  let policy =
    if crash_ranks > 0 && policy = Tilelink_core.Chaos.Degrade then
      Tilelink_core.Chaos.Failover
    else policy
  in
  let pool =
    if jobs > 1 then
      Some (Tilelink_exec.Pool.create ~domains:jobs ())
    else None
  in
  let run () =
    Harness.run_trials ?pool ~retry ~policy ~crash_ranks ?topology ~workload
      ~seed ~trials ()
  in
  let summary = run () in
  let json = Harness.summary_to_string summary in
  (match topology with
  | Some topo -> Printf.printf "topology: %s\n" (Topology.describe topo)
  | None -> ());
  Printf.printf
    "chaos %s seed %d: %d trials — %d clean, %d recovered, %s%d degraded, %d \
     stalled\n"
    (Harness.workload_to_string workload)
    seed trials summary.Harness.s_clean summary.Harness.s_recovered
    (if crash_ranks > 0 || summary.Harness.s_failed_over > 0 then
       Printf.sprintf "%d failed over, " summary.Harness.s_failed_over
     else "")
    summary.Harness.s_degraded summary.Harness.s_stalled;
  let latencies = List.sort compare summary.Harness.s_recovery_latencies in
  (if latencies <> [] then
     let pct p = Tilelink_sim.Stats.percentile p latencies in
     Printf.printf
       "recovery latency: %d signals, p50 %.1f us, p95 %.1f us, p99 %.1f us\n"
       (List.length latencies) (pct 50.0) (pct 95.0) (pct 99.0));
  let fo_latencies = List.sort compare summary.Harness.s_failover_latencies in
  (if fo_latencies <> [] then
     let pct p = Tilelink_sim.Stats.percentile p fo_latencies in
     Printf.printf
       "failover latency: %d crashes, p50 %.1f us, p95 %.1f us, p99 %.1f us\n"
       (List.length fo_latencies) (pct 50.0) (pct 95.0) (pct 99.0));
  if summary.Harness.s_cross_island_replays > 0 then
    Printf.printf "cross-island replays: %d\n"
      summary.Harness.s_cross_island_replays;
  List.iter
    (fun t ->
      Printf.printf "  trial %d: %-9s overlap %.2f ideal %.1f us total %.1f \
                     us%s%s\n"
        t.Harness.index
        (Harness.classification_to_string t.Harness.classification)
        t.Harness.achieved_overlap t.Harness.ideal_us t.Harness.total_us
        (if t.Harness.numerics_ok then "" else " NUMERICS MISMATCH")
        (match t.Harness.stall with
        | Some s ->
          Printf.sprintf " (stalled on %s, producer rank %d)" s.Harness.si_key
            s.Harness.si_owner
        | None ->
          if t.Harness.failed_over_ranks = [] then ""
          else
            Printf.sprintf " (ranks %s crashed; replayed %d/%d tiles)"
              (String.concat ","
                 (List.map
                    (fun (r, _) -> string_of_int r)
                    t.Harness.failed_over_ranks))
              t.Harness.replayed_tiles t.Harness.total_tiles))
    summary.Harness.s_trials;
  let bad =
    List.filter
      (fun t ->
        (not t.Harness.numerics_ok)
        && t.Harness.classification <> Harness.Stalled)
      summary.Harness.s_trials
  in
  if bad <> [] then begin
    Printf.eprintf "chaos FAILED: %d completed trial(s) with wrong numerics\n"
      (List.length bad);
    exit 2
  end;
  (match out with
  | Some path ->
    write_file path json;
    Printf.printf "wrote %s\n" path
  | None -> ());
  (match perfetto_path with
  | Some path ->
    let _trial, trace, telemetry =
      Harness.profile_trial ~retry ~policy ~crash_ranks ?topology ~workload
        ~seed ~index:0 ()
    in
    write_file path
      (Obs.Perfetto.export_string ~trace
         ~journal:(Obs.Telemetry.journal telemetry) ());
    Printf.printf "wrote %s (fault/retry/recovery instants marked)\n" path
  | None -> ());
  if check then begin
    let json2 = Harness.summary_to_string (run ()) in
    if json <> json2 then begin
      Printf.eprintf
        "chaos check FAILED: same seed produced different summary JSON\n";
      exit 2
    end;
    Printf.printf
      "chaos check: ok (summary JSON byte-identical across two runs)\n"
  end

let chaos_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Chaos seed.")
  in
  let trials_arg =
    Arg.(
      value & opt int 8
      & info [ "trials" ] ~docv:"K" ~doc:"Independent seeded trials to run.")
  in
  let workload_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("mlp", Harness.Mlp_ag_gemm);
               ("moe", Harness.Moe_part2);
               ("attention", Harness.Attention_ag);
             ])
          Harness.Mlp_ag_gemm
      & info [ "workload" ] ~docv:"mlp|moe|attention"
          ~doc:"Workload to inject faults into.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"J"
          ~doc:"Worker domains for the trial sweep (1 = sequential).")
  in
  let no_retry_arg =
    Arg.(
      value & flag
      & info [ "no-retry" ]
          ~doc:"Disable watchdog retries; overdue waits go straight to the \
                policy action.")
  in
  let policy_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("degrade", Tilelink_core.Chaos.Degrade);
               ("failstop", Tilelink_core.Chaos.Fail_stop);
               ("failover", Tilelink_core.Chaos.Failover) ])
          Tilelink_core.Chaos.Degrade
      & info [ "policy" ] ~docv:"degrade|failstop|failover"
          ~doc:"What the watchdog does once retries are exhausted; failover \
                additionally remaps crashed ranks onto the survivors.")
  in
  let crash_ranks_arg =
    Arg.(
      value & opt int 0
      & info [ "crash-ranks" ] ~docv:"N"
          ~doc:"Force N seeded permanent rank crashes per trial; implies the \
                failover policy unless one is given explicitly.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the summary JSON here.")
  in
  let perfetto_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:"Re-run trial 0 with tracing and write a Perfetto trace with \
                fault and recovery marks.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Run the sweep twice and fail unless the summary JSON is \
                byte-identical.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run seeded fault-injection trials through a workload, validate \
          numerics against fault-free runs, and classify each trial as \
          clean, recovered, failed over, degraded, or stalled.")
    Term.(
      const chaos_run $ seed_arg $ trials_arg $ workload_arg $ jobs_arg
      $ no_retry_arg $ policy_arg $ crash_ranks_arg $ topology_arg $ out_arg
      $ perfetto_arg $ check_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

module Serve = Tilelink_serve

(* Trace-driven serving over the simulated cluster: open-loop arrivals
   through the continuous batcher, with admission control, degradation
   tiers and (optionally) a seeded mid-trace rank crash.  --check runs
   the serve twice and demands a byte-identical, conservation-clean
   report. *)
let serve_run trace_kind rate burst requests seed prompt_mean decode_mean
    world head_dim slo_ttft slo_tpot queue_capacity max_batch kv_capacity
    timeout_us chaos_seed crash_ranks topology out perfetto_path check =
  (* A topology fixes the world: its natural size, not --world. *)
  let world =
    match topology with
    | Some topo -> Topology.natural_world topo
    | None -> world
  in
  let trace =
    match trace_kind with
    | "poisson" ->
      Serve.Trace_gen.generate ~prompt_mean ~decode_mean ~seed ~requests
        (Serve.Trace_gen.Poisson { rate_rps = rate })
    | "bursty" ->
      Serve.Trace_gen.generate ~prompt_mean ~decode_mean ~seed ~requests
        (Serve.Trace_gen.Bursty
           { rate_rps = rate; burst; on_fraction = 0.25 })
    | path -> (
      match Serve.Trace_gen.load_trace path with
      | Ok reqs -> reqs
      | Error msg ->
        Printf.eprintf "serve: cannot load trace %s: %s\n" path msg;
        exit 2)
  in
  let chaos =
    if crash_ranks > 0 then
      Some
        {
          Serve.Server.ch_seed = Option.value chaos_seed ~default:seed;
          ch_crash_ranks = crash_ranks;
        }
    else None
  in
  let config =
    {
      Serve.Server.machine = spec;
      topology;
      world_size = world;
      head_dim;
      slo = { Serve.Slo.ttft_us = slo_ttft; tpot_us = slo_tpot };
      queue_capacity;
      max_batch;
      kv_capacity;
      timeout_us;
      chaos;
    }
  in
  let serve ?telemetry () = Serve.Server.run ?telemetry config trace in
  let telemetry =
    if perfetto_path <> None then Some (Obs.Telemetry.create ()) else None
  in
  (match topology with
  | Some topo -> Printf.printf "topology: %s\n" (Topology.describe topo)
  | None -> ());
  let report = serve ?telemetry () in
  let json = Serve.Server.report_to_string report in
  Printf.printf
    "serve: %d offered  %d completed  %d shed (%d queue, %d deadline, %d \
     timeout)  %d in-flight\n"
    report.Serve.Server.r_offered report.Serve.Server.r_completed
    (report.Serve.Server.r_shed_queue_full
    + report.Serve.Server.r_shed_deadline
    + report.Serve.Server.r_shed_timeout)
    report.Serve.Server.r_shed_queue_full report.Serve.Server.r_shed_deadline
    report.Serve.Server.r_shed_timeout report.Serve.Server.r_in_flight;
  Printf.printf
    "  ttft p50/p99 %.1f/%.1f us  tpot p50/p99 %.1f/%.1f us  goodput %.1f \
     rps (%d/%d in SLO)\n"
    report.Serve.Server.r_ttft.Serve.Slo.d_p50
    report.Serve.Server.r_ttft.Serve.Slo.d_p99
    report.Serve.Server.r_tpot.Serve.Slo.d_p50
    report.Serve.Server.r_tpot.Serve.Slo.d_p99
    report.Serve.Server.r_goodput_rps report.Serve.Server.r_slo_met
    report.Serve.Server.r_completed;
  Printf.printf
    "  %d steps (%d faulted, %d fallback)  %d retries  %d failovers  %d \
     tier changes  world %d->%d\n"
    report.Serve.Server.r_steps report.Serve.Server.r_faulted_steps
    report.Serve.Server.r_fallback_steps report.Serve.Server.r_retries
    report.Serve.Server.r_failovers report.Serve.Server.r_tier_changes world
    report.Serve.Server.r_world_end;
  List.iter
    (fun (tier, us) ->
      if us > 0. then Printf.printf "  tier %-10s %12.1f us\n" tier us)
    report.Serve.Server.r_tier_us;
  (match out with
  | Some path ->
    write_file path json;
    Printf.printf "wrote %s\n" path
  | None -> ());
  (match (perfetto_path, telemetry) with
  | Some path, Some tel ->
    write_file path
      (Obs.Perfetto.export_string
         ~trace:(Tilelink_sim.Trace.create ())
         ~journal:(Obs.Telemetry.journal tel) ());
    Printf.printf "wrote %s (shed and tier-change instants marked)\n" path
  | _ -> ());
  if check then begin
    if not (Serve.Server.conservation_ok report) then begin
      Printf.eprintf
        "serve check FAILED: request conservation violated (offered %d <> \
         completed %d + shed %d + failed %d + in-flight %d)\n"
        report.Serve.Server.r_offered report.Serve.Server.r_completed
        (report.Serve.Server.r_shed_queue_full
        + report.Serve.Server.r_shed_deadline
        + report.Serve.Server.r_shed_timeout)
        report.Serve.Server.r_failed report.Serve.Server.r_in_flight;
      exit 2
    end;
    let json2 = Serve.Server.report_to_string (serve ()) in
    if json <> json2 then begin
      Printf.eprintf
        "serve check FAILED: same seed produced different report JSON\n";
      exit 2
    end;
    Printf.printf
      "serve check: ok (conserved; report byte-identical across two runs)\n"
  end

let serve_cmd =
  let trace_arg =
    Arg.(
      value & opt string "poisson"
      & info [ "trace" ] ~docv:"poisson|bursty|FILE"
          ~doc:
            "Arrival process: seeded Poisson, seeded bursty (two-state \
             MMPP), or a replayed CSV trace (arrival_us,prompt,decode per \
             line).")
  in
  let rate_arg =
    Arg.(
      value & opt float 1000.
      & info [ "rate" ] ~docv:"RPS" ~doc:"Mean arrival rate, requests/s.")
  in
  let burst_arg =
    Arg.(
      value & opt float 8.
      & info [ "burst" ] ~docv:"X"
          ~doc:"Bursty trace: ON-state rate multiplier (>= 1).")
  in
  let requests_arg =
    Arg.(
      value & opt int 200
      & info [ "requests" ] ~docv:"N" ~doc:"Requests to generate.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Trace generation seed.")
  in
  let prompt_mean_arg =
    Arg.(
      value & opt int 128
      & info [ "prompt-mean" ] ~docv:"TOKENS" ~doc:"Mean prompt length.")
  in
  let decode_mean_arg =
    Arg.(
      value & opt int 16
      & info [ "decode-mean" ] ~docv:"TOKENS" ~doc:"Mean output length.")
  in
  let head_dim_arg =
    Arg.(
      value & opt int 64
      & info [ "head-dim" ] ~docv:"D" ~doc:"Attention head dimension.")
  in
  let slo_ttft_arg =
    Arg.(
      value & opt float 50_000.
      & info [ "slo-ttft-us" ] ~docv:"US"
          ~doc:"Time-to-first-token objective.")
  in
  let slo_tpot_arg =
    Arg.(
      value & opt float 2_000.
      & info [ "slo-tpot-us" ] ~docv:"US"
          ~doc:"Per-output-token latency objective.")
  in
  let queue_capacity_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Admission queue bound; overflow is shed (backpressure).")
  in
  let max_batch_arg =
    Arg.(
      value & opt int 16
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Full-tier batch cap; degraded tiers halve it.")
  in
  let kv_capacity_arg =
    Arg.(
      value & opt int 8192
      & info [ "kv-capacity" ] ~docv:"TOKENS"
          ~doc:"Resident KV-cache budget across the batch.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 1_000_000.
      & info [ "timeout-us" ] ~docv:"US"
          ~doc:"Per-request server-side timeout.")
  in
  let chaos_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ] ~docv:"N"
          ~doc:"Seed for the crash schedule (defaults to --seed).")
  in
  let crash_ranks_arg =
    Arg.(
      value & opt int 0
      & info [ "crash-ranks" ] ~docv:"N"
          ~doc:
            "Crash N seeded ranks mid-trace; the serve continues on the \
             survivors.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the report JSON here.")
  in
  let perfetto_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:"Write a Perfetto trace with shed/tier-change instants.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Fail unless the report conserves requests and is \
             byte-identical across two runs.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a trace of requests through the continuous batcher with \
          admission control, SLO-aware degradation, and optional seeded \
          rank crashes.")
    Term.(
      const serve_run $ trace_arg $ rate_arg $ burst_arg $ requests_arg
      $ seed_arg $ prompt_mean_arg $ decode_mean_arg $ world_arg
      $ head_dim_arg $ slo_ttft_arg $ slo_tpot_arg $ queue_capacity_arg
      $ max_batch_arg $ kv_capacity_arg $ timeout_arg $ chaos_seed_arg
      $ crash_ranks_arg $ topology_arg $ out_arg $ perfetto_arg $ check_arg)

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

(* The static sweep only *builds* programs — no simulation — so it can
   afford to cover every shipped workload across a rank and tile-shape
   sweep in well under a second. *)
let verify_suite () = Suite.programs ()

(* Hand-built pathological programs: the self-test's positive controls
   for the two checks no Fault transform exercises directly. *)
let synthetic_deadlock () =
  let task rank peer =
    {
      Program.label = Printf.sprintf "sync%d" rank;
      instrs =
        [
          Instr.Wait
            {
              target = Instr.Peer { src = peer; dst = rank; channel = 0 };
              threshold = 1;
              guards = [];
            };
          Instr.Notify
            {
              target = Instr.Peer { src = rank; dst = peer; channel = 0 };
              amount = 1;
              releases = [];
            };
        ];
    }
  in
  Program.create ~name:"synthetic_deadlock" ~world_size:2 ~pc_channels:1
    ~peer_channels:1
    [|
      [
        {
          Program.role_name = "sync";
          resource = Program.Sm_partition 1;
          lane = Tilelink_sim.Trace.Comm_sm;
          tasks = [ task 0 1 ];
        };
      ];
      [
        {
          Program.role_name = "sync";
          resource = Program.Sm_partition 1;
          lane = Tilelink_sim.Trace.Comm_sm;
          tasks = [ task 1 0 ];
        };
      ];
    |]

let synthetic_epoch_reuse () =
  let pc = Instr.Pc { rank = 0; channel = 0 } in
  Program.create ~name:"synthetic_epoch_reuse" ~world_size:1 ~pc_channels:1
    ~peer_channels:1
    [|
      [
        {
          Program.role_name = "producer";
          resource = Program.Sm_partition 1;
          lane = Tilelink_sim.Trace.Comm_sm;
          tasks =
            [
              {
                Program.label = "p0";
                instrs =
                  [
                    Instr.Notify { target = pc; amount = 1; releases = [] };
                    Instr.Notify { target = pc; amount = 1; releases = [] };
                  ];
              };
            ];
        };
        {
          Program.role_name = "consumer";
          resource = Program.Sm_partition 1;
          lane = Tilelink_sim.Trace.Compute_sm;
          tasks =
            [
              {
                Program.label = "c0";
                instrs =
                  [ Instr.Wait { target = pc; threshold = 1; guards = [] } ];
              };
            ];
        };
      ];
    |]

let diag_is_structured (d : Analyzer.diag) =
  String.length d.Analyzer.key > 0 && d.Analyzer.rank >= 0

let verify_check ~seed suite =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let expect_kind name program kind_name =
    let report = Analyzer.analyze program in
    let errors = Analyzer.errors report in
    match
      List.filter
        (fun d -> Analyzer.kind_name d.Analyzer.kind = kind_name)
        errors
    with
    | [] -> fail "%s: expected a %s error, got none" name kind_name
    | d :: _ ->
      if not (diag_is_structured d) then
        fail "%s: %s diagnostic lacks key/rank structure" name kind_name
  in
  expect_kind "synthetic_deadlock" (synthetic_deadlock ()) "deadlock_cycle";
  expect_kind "synthetic_epoch_reuse" (synthetic_epoch_reuse ()) "epoch_reuse";
  (* One representative per workload family: mutate its protocol and
     demand a structured diagnostic for every seeded mutation. *)
  let representatives =
    [
      "mlp_ag_gemm_pull/w2/t2";
      "mlp_ag_gemm_push/w2/t2";
      "mlp_gemm_rs/w2";
      "moe_part1/w2";
      "moe_part2/w2";
      "attention/w2";
      "ring_attention/w2";
      "ep_moe/w2";
    ]
  in
  List.iter
    (fun name ->
      match List.assoc_opt name suite with
      | None -> fail "%s: missing from the sweep" name
      | Some program ->
        let corpus = Analyzer.mutation_corpus ~seed program in
        let mutation_names = List.map fst corpus in
        List.iter
          (fun expected ->
            if not (List.mem expected mutation_names) then
              fail "%s: mutation %s not applicable" name expected)
          [
            "dropped_notify";
            "swapped_rank";
            "wait_epoch_off_by_one";
            "notify_epoch_off_by_one";
            "unsafe_hoist";
          ];
        List.iter
          (fun (mutation, mutant) ->
            match Analyzer.errors (Analyzer.analyze mutant) with
            | [] -> fail "%s + %s: mutation not flagged" name mutation
            | d :: _ ->
              if not (diag_is_structured d) then
                fail "%s + %s: diagnostic lacks key/rank structure" name
                  mutation)
          corpus)
    representatives;
  List.rev !failures

let verify json_path check_flag seed =
  let suite = verify_suite () in
  let reports = List.map (fun (name, p) -> (name, Analyzer.analyze p)) suite in
  let dirty =
    List.filter (fun (_, r) -> not (Analyzer.ok r)) reports
  in
  Printf.printf "%-28s %5s %8s %6s %6s %5s  %s\n" "program" "keys" "notifies"
    "waits" "errors" "warns" "status";
  List.iter
    (fun (name, r) ->
      let errs = List.length (Analyzer.errors r) in
      let warns =
        List.length
          (List.filter
             (fun d -> d.Analyzer.severity = Analyzer.Warning)
             r.Analyzer.diags)
      in
      Printf.printf "%-28s %5d %8d %6d %6d %5d  %s\n" name r.Analyzer.keys
        r.Analyzer.notifies r.Analyzer.waits errs warns
        (if errs = 0 then "ok" else "FAIL"))
    reports;
  List.iter
    (fun (name, r) ->
      List.iter
        (fun d ->
          Printf.printf "  %s: %s\n" name (Analyzer.diag_to_string d))
        (Analyzer.errors r))
    dirty;
  let check_failures = if check_flag then verify_check ~seed suite else [] in
  if check_flag then begin
    List.iter (Printf.printf "check FAIL: %s\n") check_failures;
    if check_failures = [] then
      Printf.printf
        "check ok: clean programs accepted; synthetic deadlock/epoch-reuse \
         and all seeded mutations flagged with structured diagnostics\n"
  end;
  (match json_path with
  | None -> ()
  | Some path ->
    let json =
      Tilelink_obs.Json.Obj
        [
          ( "programs",
            Tilelink_obs.Json.List
              (List.map
                 (fun (name, r) ->
                   match Analyzer.report_to_json r with
                   | Tilelink_obs.Json.Obj fields ->
                     Tilelink_obs.Json.Obj
                       (("name", Tilelink_obs.Json.Str name) :: fields)
                   | other -> other)
                 reports) );
          ( "check",
            if not check_flag then Tilelink_obs.Json.Null
            else
              Tilelink_obs.Json.Obj
                [
                  ("ok", Tilelink_obs.Json.Bool (check_failures = []));
                  ( "failures",
                    Tilelink_obs.Json.List
                      (List.map
                         (fun s -> Tilelink_obs.Json.Str s)
                         check_failures) );
                ] );
        ]
    in
    let rendered = Tilelink_obs.Json.to_string ~indent:true json in
    if path = "-" then print_endline rendered
    else begin
      let oc = open_out path in
      output_string oc rendered;
      close_out oc;
      Printf.printf "wrote analyzer report to %s\n" path
    end);
  if dirty <> [] || check_failures <> [] then exit 1

let verify_cmd =
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the per-program analyzer reports as JSON ('-' for \
                stdout).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Self-test: require every clean program to pass, and every \
             seeded protocol mutation (dropped notify, swapped rank, epoch \
             off-by-one, unsafe hoist) plus synthetic deadlock/epoch-reuse \
             programs to be flagged with structured diagnostics.")
  in
  let seed_arg =
    Arg.(
      value & opt int 17
      & info [ "seed" ] ~docv:"N" ~doc:"Seed for the mutation corpus.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run the whole-program protocol analyzer over all shipped workloads \
          across a rank and tile-shape sweep.")
    Term.(const verify $ json_arg $ check_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* plan                                                                *)
(* ------------------------------------------------------------------ *)

(* Auto-overlap planner: derive the Pc protocol for an operator graph
   instead of picking a hand-written kernel.  --check runs the search
   twice on fresh state and byte-compares the winners (exit 2 on
   divergence); --emit prints the winning synthesized program. *)

let plan_summary (p : Planner.plan) =
  Printf.sprintf "%s|%.6f" (Planner.fingerprint p.Planner.p_candidate)
    p.Planner.p_time

let plan_json ~family ~graph (p : Planner.plan) =
  let module J = Tilelink_obs.Json in
  let o = p.Planner.p_outcome in
  J.Obj
    [
      ("workload", J.Str family);
      ("graph", J.Str (Planner.graph_fingerprint graph));
      ("winner", J.Str (Planner.candidate_to_string p.Planner.p_candidate));
      ("winner_fingerprint", J.Str (Planner.fingerprint p.Planner.p_candidate));
      ("makespan_us", J.Num p.Planner.p_time);
      ( "exposed_comm_us",
        match p.Planner.p_exposed_comm_us with
        | Some x -> J.Num x
        | None -> J.Null );
      ("evaluated", J.Num (float_of_int (List.length o.Tune.evaluated)));
      ("skipped", J.Num (float_of_int o.Tune.skipped));
      ("skipped_build", J.Num (float_of_int o.Tune.skipped_build));
      ("skipped_race", J.Num (float_of_int o.Tune.skipped_race));
      ("cache_hits", J.Num (float_of_int o.Tune.cache_hits));
      ("cache_misses", J.Num (float_of_int o.Tune.cache_misses));
    ]

let plan family m k n world seed jobs cache_path json_path check_flag emit_flag
    =
  let graph, _memory =
    match Planned.family_of_string family with
    | Some fam -> Planned.build fam ~m ~k ~n ~world ~seed
    | None ->
      Printf.eprintf "tilelink plan: unknown workload %S (one of %s)\n" family
        (String.concat ", " Planned.family_names);
      exit 2
  in
  let search ~cache () =
    let pool = make_pool jobs in
    let result =
      Planner.search ?pool ~cache graph ~spec_gpu:spec
        ~make_cluster:(fun () -> Cluster.create spec ~world_size:world)
        ()
    in
    (result, pool)
  in
  let cache = make_cache cache_path in
  let result, pool = search ~cache () in
  match result with
  | None ->
    Printf.eprintf
      "tilelink plan: no candidate both built and passed the analyzer\n";
    exit 1
  | Some p ->
    let o = p.Planner.p_outcome in
    Printf.printf "plan %s: best %.1f us%s\n   [%s]\n" family p.Planner.p_time
      (match p.Planner.p_exposed_comm_us with
      | Some x -> Printf.sprintf " (%.1f us comm exposed)" x
      | None -> "")
      (Planner.candidate_to_string p.Planner.p_candidate);
    Printf.printf
      "   graph %s\n   %d evaluated, %d skipped (build %d, race %d), cache %d \
       hits / %d misses\n"
      (Planner.graph_fingerprint graph)
      (List.length o.Tune.evaluated)
      o.Tune.skipped o.Tune.skipped_build o.Tune.skipped_race o.Tune.cache_hits
      o.Tune.cache_misses;
    print_pool_stats pool;
    save_cache cache;
    if check_flag then begin
      (* A second search on fresh in-memory state must reproduce the
         winner byte for byte, whatever the pool width. *)
      match search ~cache:(Exec.Cache.create ()) () with
      | None, _ ->
        Printf.eprintf "plan check FAIL: second search found no plan\n";
        exit 2
      | Some p2, _ ->
        if plan_summary p <> plan_summary p2 then begin
          Printf.eprintf "plan check FAIL: %s <> %s\n" (plan_summary p)
            (plan_summary p2);
          exit 2
        end;
        Printf.printf "plan check ok: winner stable across searches\n"
    end;
    (match json_path with
    | None -> ()
    | Some path ->
      let rendered =
        Tilelink_obs.Json.to_string ~indent:true (plan_json ~family ~graph p)
      in
      if path = "-" then print_endline rendered
      else begin
        let oc = open_out path in
        output_string oc rendered;
        close_out oc;
        Printf.printf "wrote plan to %s\n" path
      end);
    if emit_flag then Format.printf "%a@." Program.pp p.Planner.p_program

let plan_cmd =
  let workload_arg =
    Arg.(
      value
      & opt string "mlp"
      & info [ "workload" ] ~docv:"FAMILY"
          ~doc:
            "Operator graph family: mlp (AllGather+GEMM), softmax \
             (AllGather+row softmax), moe (AllGather feeding gate and up \
             projections), fused (GEMM and softmax sharing one gather).")
  in
  let seed_arg =
    Arg.(
      value & opt int 11
      & info [ "seed" ] ~docv:"N" ~doc:"Seed for workload buffers.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the winning plan and search statistics as JSON ('-' \
                for stdout).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Determinism gate: search twice on fresh state and require \
             byte-identical winners (exit 2 on divergence).")
  in
  let emit_arg =
    Arg.(
      value & flag
      & info [ "emit" ] ~doc:"Print the winning synthesized program.")
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Derive an overlapped Pc protocol for an operator graph: enumerate \
          push/pull schedules over the decoupled design space, prune with \
          the protocol analyzer, score under the simulator.")
    Term.(
      const plan $ workload_arg $ m_arg $ k_arg $ n_arg $ world_arg $ seed_arg
      $ jobs_arg $ cache_path_arg $ json_arg $ check_arg $ emit_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "TileLink reproduction: overlapped kernels on a simulated GPU cluster" in
  exit
    (try
       let code =
         Cmd.eval ~catch:false
           (Cmd.group
            (Cmd.info "tilelink" ~doc)
            [
              info_cmd;
              simulate_cmd;
              tune_cmd;
              plan_cmd;
              autotune_cmd;
              ablation_cmd;
              validate_cmd;
              sanity_cmd;
              attention_cmd;
              emit_cmd;
              report_cmd;
              profile_cmd;
              chaos_cmd;
              serve_cmd;
              verify_cmd;
            ])
       in
       (* A bad flag value (unknown --topology, --policy, ...) is plain
          user error on every subcommand: cmdliner already printed the
          one-line usage hint, so just normalize its CLI-error status
          to the conventional 2. *)
       if code = Cmd.Exit.cli_error then 2 else code
     with
    (* A structured flag-combination rejection is user error, not a
       crash: render backend/feature/reason/hint without a backtrace. *)
    | Runtime.Unsupported u ->
      Printf.eprintf "tilelink: %s\n" (Runtime.unsupported_to_string u);
      3
    (* Out-of-range numeric flags surface as Invalid_argument/Failure
       from the validation layers; one line, exit 2, no backtrace. *)
    | Invalid_argument msg | Failure msg ->
      Printf.eprintf "tilelink: %s\n" msg;
      2)
