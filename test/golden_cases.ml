(* Text the signal fabric formats for people: analyzer diagnostics,
   deadlock enrichment, chaos stalls and telemetry keys.  Each case
   renders deterministically; test_slots.ml compares the renderings
   with golden strings committed alongside it, so a change to how keys
   are produced cannot silently change what is printed. *)

open Tilelink_core
open Tilelink_machine
open Tilelink_workloads

(* The @dev-check profile shape: AG+GEMM, 4 ranks, 2048x1024x1024 on
   H800-sim, DMA-bound communication with 512-row comm tiles. *)
let dev_check_spec = { Mlp.m = 2048; k = 1024; n = 1024; world_size = 4 }

let dev_check_config =
  let ring = Tile.Ring_from_self { segments = 4 } in
  {
    Design_space.comm_tile = (512, 128);
    compute_tile = (128, 128);
    comm_order = ring;
    compute_order = ring;
    binding = Design_space.Comm_on_dma;
    stages = 2;
    micro_block = 0;
  }

let dev_check_program () =
  Mlp.ag_gemm_program ~config:dev_check_config dev_check_spec
    ~spec_gpu:Calib.h800

let small_mlp = { Mlp.m = 16; k = 4; n = 6; world_size = 4 }

let small_config =
  let ring = Tile.Ring_from_self { segments = 4 } in
  {
    Design_space.comm_tile = (2, 128);
    compute_tile = (2, 2);
    comm_order = ring;
    compute_order = ring;
    binding = Design_space.Comm_on_sm 1;
    stages = 2;
    micro_block = 0;
  }

let small_program () =
  Mlp.ag_gemm_program ~config:small_config small_mlp
    ~spec_gpu:Calib.test_machine

let md5 lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Lines past the first [shown] are summarised by their count and MD5,
   so long renderings stay byte-exact without being spelled out. *)
let summarise ?(shown = 2) lines =
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  take shown lines
  @ [
      Printf.sprintf "(%d lines, md5 %s)" (List.length lines) (md5 lines);
    ]

let report_lines (report : Analyzer.report) =
  Printf.sprintf "%s: keys=%d notifies=%d waits=%d" report.Analyzer.program
    report.Analyzer.keys report.Analyzer.notifies report.Analyzer.waits
  :: summarise (List.map Analyzer.diag_to_string report.Analyzer.diags)

(* Every mutant of the seeded corpus, with the diagnostics the analyzer
   reports on it; then two circular waits the corpus never produces,
   one over peer channels and one over host channels. *)
let corpus_diagnostics () =
  let corpus = Analyzer.mutation_corpus ~seed:17 (dev_check_program ()) in
  let cycle ~name target =
    let plan rank =
      let other = 1 - rank in
      [
        {
          Program.role_name = "ring";
          resource = Program.Sm_partition 1;
          lane = Tilelink_sim.Trace.Comm_sm;
          tasks =
            [
              {
                Program.label = "step";
                instrs =
                  [
                    Instr.Wait
                      { target = target ~src:other ~dst:rank; threshold = 1;
                        guards = [] };
                    Instr.Notify
                      { target = target ~src:rank ~dst:other; amount = 1;
                        releases = [] };
                  ];
              };
            ];
        };
      ]
    in
    Program.create ~name ~world_size:2 ~pc_channels:1 ~peer_channels:2
      [| plan 0; plan 1 |]
  in
  let cycles =
    [
      cycle ~name:"peer_cycle" (fun ~src ~dst ->
          Instr.Peer { src; dst; channel = 1 });
      cycle ~name:"host_cycle" (fun ~src ~dst -> Instr.Host { src; dst });
    ]
  in
  List.concat_map
    (fun (name, mutant) -> name :: report_lines (Analyzer.analyze mutant))
    corpus
  @ List.concat_map (fun p -> report_lines (Analyzer.analyze p)) cycles
  |> String.concat "\n"

(* A dropped notify on rank 1 wedges the small AG+GEMM: the engine's
   deadlock message, enriched with pending waiters and the journal. *)
let deadlock_message () =
  let broken = Fault.drop_notify (small_program ()) ~rank:1 ~nth:0 in
  let cluster = Cluster.create Calib.test_machine ~world_size:4 in
  let telemetry = Tilelink_obs.Telemetry.create () in
  match Runtime.run ~telemetry cluster broken with
  | _ -> "completed"
  | exception Tilelink_sim.Engine.Deadlock msg -> msg

(* The same dropped notify under a fail-stop watchdog without retries:
   the structural stall it raises. *)
let stall_message () =
  let broken = Fault.drop_notify (small_program ()) ~rank:1 ~nth:0 in
  let cluster = Cluster.create Calib.test_machine ~world_size:4 in
  let watchdog =
    {
      Chaos.poll_interval_us = 0.5;
      wait_timeout_us = 5.0;
      stall_timeout_us = 20.0;
      max_retries = 2;
      backoff_base_us = 1.0;
      retry = false;
      policy = Chaos.Fail_stop;
    }
  in
  match Runtime.run ~chaos:(Chaos.control ~watchdog ()) cluster broken with
  | _ -> "completed"
  | exception Chaos.Stall s -> Chaos.stall_to_string s

let render_telemetry tele =
  let spans =
    List.map
      (fun (s : Tilelink_obs.Span.span) ->
        Printf.sprintf "span %s %s %s"
          (Tilelink_obs.Span.kind_to_string s.Tilelink_obs.Span.kind)
          s.Tilelink_obs.Span.label
          (Option.value ~default:"-" s.Tilelink_obs.Span.key))
      (Tilelink_obs.Span.spans (Tilelink_obs.Telemetry.spans tele))
  in
  let journal =
    List.map
      (fun e -> "journal " ^ Tilelink_obs.Journal.entry_summary e)
      (Tilelink_obs.Journal.entries (Tilelink_obs.Telemetry.journal tele))
  in
  let m = Tilelink_obs.Telemetry.metrics tele in
  let names =
    List.map (fun n -> "counter " ^ n) (Tilelink_obs.Metrics.counter_names m)
    @ List.map (fun n -> "gauge " ^ n) (Tilelink_obs.Metrics.gauge_names m)
    @ List.map
        (fun n -> "histogram " ^ n)
        (Tilelink_obs.Metrics.histogram_names m)
  in
  spans @ journal @ names

(* One telemetry run per shipped program, rendered as the span labels
   and keys, the journal summaries and the metric names; one summary
   line per program. *)
let telemetry_keys () =
  Suite.programs ()
  |> List.map (fun (name, program) ->
         let tele = Tilelink_obs.Telemetry.create () in
         let cluster =
           Cluster.create Calib.test_machine
             ~world_size:(Program.world_size program)
         in
         ignore (Runtime.run ~telemetry:tele cluster program);
         String.concat " " (name :: summarise ~shown:0 (render_telemetry tele)))
  |> String.concat "\n"

(* A faulted telemetry run: seeded drops, duplicates and delays plus
   one forced crash with failover, so the interceptor keys, watchdog
   retries and remap aliases all reach the journal. *)
let chaos_telemetry () =
  let build () = small_program () in
  let ideal =
    let cluster = Cluster.create Calib.test_machine ~world_size:4 in
    (Runtime.run cluster (build ())).Runtime.makespan
  in
  let spec =
    {
      (Chaos.no_machine_faults Chaos.default_spec) with
      Chaos.drop_prob = 0.05;
      duplicate_prob = 0.05;
      delay_prob = 0.05;
      delay_us = ideal /. 20.0;
    }
  in
  let schedule =
    Chaos.plan ~spec ~horizon_us:(2.0 *. ideal) ~crash_ranks:1 ~seed:42
      ~world_size:4 ()
  in
  let watchdog =
    {
      Chaos.poll_interval_us = ideal /. 50.0;
      wait_timeout_us = ideal /. 5.0;
      stall_timeout_us = 8.0 *. ideal;
      max_retries = 5;
      backoff_base_us = ideal /. 10.0;
      retry = true;
      policy = Chaos.Failover;
    }
  in
  let control = Chaos.control ~schedule ~watchdog () in
  let tele = Tilelink_obs.Telemetry.create () in
  let cluster = Cluster.create Calib.test_machine ~world_size:4 in
  let outcome =
    match
      Runtime.run ~telemetry:tele ~data:true
        ~memory:(Mlp.ag_gemm_alloc small_mlp ~seed:11)
        ~chaos:control ~rebuild:build cluster (build ())
    with
    | r -> Printf.sprintf "completed %.3f" r.Runtime.makespan
    | exception Chaos.Stall s -> "stall " ^ Chaos.stall_to_string s
  in
  let r = control.Chaos.c_recovery in
  outcome
  :: Printf.sprintf "retries=%d replayed=%d remapped=%d" r.Chaos.retries
       r.Chaos.replayed_tiles r.Chaos.remapped_tiles
  :: summarise ~shown:0
       (List.map (fun (k, _) -> "recovered " ^ k) r.Chaos.recovered
       @ List.map (fun k -> "degraded " ^ k) r.Chaos.degraded
       @ render_telemetry tele)
  |> String.concat "\n"

(* Builder outputs pinned at fixed design points.  A case renders as
   the MD5 of the all-rank [Codegen] listing and the MD5 of the per-rank
   role and task list (name, resource, lane, labels), or, for builders
   whose listing legitimately changes, the task MD5 and the simulated
   makespan.  The test files compare each rendering with the one the
   replaced hand-written builder produced. *)
let task_list program =
  List.concat_map
    (fun rank ->
      List.concat_map
        (fun (role : Program.role) ->
          Printf.sprintf "%d %s %s %s %s" rank (Program.name program)
            role.Program.role_name
            (Program.resource_to_string role.Program.resource)
            (Tilelink_sim.Trace.lane_to_string role.Program.lane)
          :: List.map (fun (t : Program.task) -> t.Program.label)
               role.Program.tasks)
        (Program.plans program).(rank))
    (List.init (Program.world_size program) Fun.id)

let listing_and_tasks program =
  let listing =
    List.init (Program.world_size program) (fun rank ->
        Codegen.emit_rank program ~rank)
  in
  Printf.sprintf "listing %s tasks %s" (md5 listing) (md5 (task_list program))

let tasks_and_makespan program =
  let cluster =
    Cluster.create Calib.test_machine ~world_size:(Program.world_size program)
  in
  Printf.sprintf "tasks %s makespan %.17g" (md5 (task_list program))
    (Runtime.run cluster program).Runtime.makespan

let pin render cases =
  List.map (fun (name, program) -> name ^ " " ^ render program) cases
  |> String.concat "\n"

let suite_cases prefix =
  List.filter
    (fun (name, _) -> String.starts_with ~prefix name)
    (Suite.programs ())

(* AllGather+GEMM: every Suite case, the nine
   [Tuned.ag_gemm_candidates] in both transfer directions at the
   @dev-check shape, and small-shape corner cases (one rank, k below
   the chunk count, hybrid binding, deep pipelines, row-major
   orders). *)
let ag_gemm_pin_cases () =
  let tuned =
    List.concat
      (List.mapi
         (fun i config ->
           List.map
             (fun (dir, transfer) ->
               ( Printf.sprintf "tuned%d/%s" i dir,
                 Mlp.ag_gemm_program ~transfer ~config dev_check_spec
                   ~spec_gpu:Calib.h800 ))
             [ ("pull", `Pull); ("push", `Push) ])
         (Tuned.ag_gemm_candidates ~world_size:4))
  in
  let small name ?(transfer = `Pull) ~world ~k ~binding ~stages ~order () =
    let config =
      {
        Design_space.comm_tile = (2, 128);
        compute_tile = (2, 3);
        comm_order = order;
        compute_order = order;
        binding;
        stages;
        micro_block = 0;
      }
    in
    ( name,
      Mlp.ag_gemm_program ~transfer ~config
        { Mlp.m = 4 * world; k; n = 6; world_size = world }
        ~spec_gpu:Calib.test_machine )
  in
  let hybrid = Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 2 } in
  suite_cases "mlp_ag_gemm_" @ tuned
  @ [
      small "world1" ~world:1 ~k:4 ~binding:Design_space.Comm_on_dma ~stages:2
        ~order:(Tile.Ring_from_self { segments = 1 }) ();
      small "k1/hybrid/stages3" ~world:2 ~k:1 ~binding:hybrid ~stages:3
        ~order:Tile.Row_major ();
      small "k3/push/hybrid/stages1" ~transfer:`Push ~world:4 ~k:3
        ~binding:hybrid ~stages:1 ~order:Tile.Row_major ();
    ]

let ag_gemm_pin () = pin listing_and_tasks (ag_gemm_pin_cases ())

(* GEMM+ring ReduceScatter: every Suite case, the eight
   [Tuned.gemm_rs_candidates] at MLP-1 (S=8192, H=4096, I=11008 over 8
   ranks) on H800-sim, and small SM, DMA and hybrid cases with
   decoupled GEMM and RS tiles. *)
let gemm_rs_pin_cases () =
  let mlp1 = { Mlp.rs_m = 8192; rs_k = 11008 / 8; rs_n = 4096; rs_world = 8 } in
  let tuned =
    List.mapi
      (fun i config ->
        ( Printf.sprintf "tuned%d" i,
          Mlp.gemm_rs_program ~config mlp1 ~spec_gpu:Calib.h800 ))
      (Tuned.gemm_rs_candidates ~world_size:8)
  in
  let small name ~world ~comm_tile ~compute_tile ~binding ~compute_order =
    let config =
      {
        Design_space.comm_tile;
        compute_tile;
        comm_order = Tile.Row_major;
        compute_order;
        binding;
        stages = 1;
        micro_block = 0;
      }
    in
    ( name,
      Mlp.gemm_rs_program ~config
        { Mlp.rs_m = 8 * world; rs_k = 3; rs_n = 4; rs_world = world }
        ~spec_gpu:Calib.test_machine )
  in
  suite_cases "mlp_gemm_rs" @ tuned
  @ [
      small "sm/w2" ~world:2 ~comm_tile:(2, 2) ~compute_tile:(2, 2)
        ~binding:(Design_space.Comm_on_sm 1) ~compute_order:Tile.Row_major;
      small "dma/w4" ~world:4 ~comm_tile:(4, 4) ~compute_tile:(2, 2)
        ~binding:Design_space.Comm_on_dma
        ~compute_order:(Tile.Ring_prev_first { segments = 4 });
      small "hybrid/w8" ~world:8 ~comm_tile:(2, 4) ~compute_tile:(4, 2)
        ~binding:(Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 2 })
        ~compute_order:Tile.Row_major;
      small "hybrid/w2/ring" ~world:2 ~comm_tile:(8, 2) ~compute_tile:(8, 4)
        ~binding:(Design_space.Comm_hybrid { dma_fraction = 0.5; sms = 1 })
        ~compute_order:(Tile.Ring_prev_first { segments = 2 });
    ]

let gemm_rs_pin () = pin listing_and_tasks (gemm_rs_pin_cases ())

(* MoE part 2: the Suite cases.  Its listing gains the ring receive
   buffer's staging load, so the task list and the makespan are
   pinned, not the listing. *)
let moe_part2_pin () = pin tasks_and_makespan (suite_cases "moe_part2")
