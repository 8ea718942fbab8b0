(* The repository benchmark's measuring program.

   One process runs one workload.  It prepares the seeded inputs (the
   set-up), times the workload's public entry points with tracing off
   (the timed phase), checks every output, and prints one metric per
   line — name, value, unit and clock — followed by a one-line JSON
   summary.  With [--trace 1] half of the time budget goes to traced
   passes instead: every call the benchmark makes into a layer's public
   function is wrapped in a span ({!Spans}), the per-layer figures are
   computed from those spans plus a few single-layer probes, and the
   spans are written out at exit.  README.md defines every metric. *)

open Tilelink_core
open Tilelink_machine
open Tilelink_workloads
module Serve = Tilelink_serve
module Tn = Tilelink_tensor
module Backend = Tilelink_exec.Backend
module Obs = Tilelink_obs
module Engine = Tilelink_sim.Engine

let now = Unix.gettimeofday
let span = Spans.record

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "check failed: %s\n%!" what
  end

let bits_equal a b =
  let da = Tn.Tensor.data a and db = Tn.Tensor.data b in
  Array.length da = Array.length db
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       da db

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                    *)
(* ------------------------------------------------------------------ *)

(* [clock] says which clock a number is on: "host" (this process's
   wall clock or GC), "sim" (simulated µs on the modelled machine) or
   "count" (a clock-free count or ratio). *)
type def = { name : string; unit_ : string; clock : string }

let def name unit_ clock = { name; unit_; clock }

(* End-to-end metrics.  Each workload reports the ones that apply to
   it; [gated] lists the ones BENCHMARK.json bounds. *)
let e2e_defs =
  [
    def "setup_s" "s" "host";
    def "wall_s" "s" "host";
    def "alloc_mb" "MB" "host";
    def "peak_heap_mb" "MB" "host";
    def "candidates_per_s" "1/s" "host";
    def "requests_per_s" "1/s" "host";
    def "gflops" "GFLOP/s" "host";
    def "sim_us" "us" "sim";
    def "goodput_rps" "1/s" "sim";
    def "ttft_p50_us" "us" "sim";
    def "ttft_p99_us" "us" "sim";
    def "slo_miss_frac" "frac" "sim";
    def "error_frac" "frac" "count";
  ]

let gated = [ "wall_s"; "setup_s"; "alloc_mb" ]

(* Layers, named after the library modules the benchmark calls into. *)
let layers =
  [
    "workloads"; "machine"; "analyzer"; "runtime"; "obs"; "tune"; "tensor";
    "parallel"; "serve"; "batcher"; "comm";
  ]

(* Layers that have spans inside a timed phase.  The batcher and comm
   are reached only inside Server.run, which is one span; their probes
   stand in for a self time. *)
let timed_layers = List.filter (fun l -> l <> "batcher" && l <> "comm") layers

(* Per-layer metrics.  Every workload reports every one; a layer the
   workload does not call reads 0. *)
let layer_defs =
  [
    def "trace.uncovered_frac" "frac" "host";
    def "trace.overhead_s" "s" "host";
    def "trace.spans" "count" "count";
  ]
  @ List.map (fun l -> def (l ^ ".self_s") "s" "host") timed_layers
  @ [
      def "workloads.tasks" "count" "count";
      def "workloads.instrs" "count" "count";
      def "runtime.run_s" "s" "host";
      def "engine.events" "count" "count";
      def "engine.events_per_s" "1/s" "host";
      def "engine.minor_words_per_event" "words" "host";
      def "obs.telemetry_s" "s" "host";
      def "obs.attribution_s" "s" "host";
      def "tune.search_s" "s" "host";
      def "tune.candidates" "count" "count";
      def "tune.skipped" "count" "count";
      def "tensor.gemm_gflops" "GFLOP/s" "host";
      def "tensor.reference_s" "s" "host";
      def "parallel.preflight_s" "s" "host";
      def "backend.wall_s" "s" "host";
      def "backend.busy_s" "s" "host";
      def "backend.utilization" "frac" "host";
      def "backend.parks" "count" "count";
      def "serve.trace_gen_s" "s" "host";
      def "serve.steps" "count" "count";
      def "serve.host_us_per_step" "us" "host";
      def "serve.tier_us.overlapped" "us" "sim";
      def "serve.tier_us.shrunk" "us" "sim";
      def "serve.tier_us.nonoverlap" "us" "sim";
      def "batcher.est_us.overlapped" "us" "host";
      def "batcher.est_us.nonoverlap" "us" "host";
      def "batcher.step_miss_ms" "ms" "host";
      def "comm.standalone_us" "us" "host";
    ]

(* ------------------------------------------------------------------ *)
(* The measurement loop                                                *)
(* ------------------------------------------------------------------ *)

type sample = {
  wall_s : float;
  alloc_words : float;  (** allocated by every domain, timed phase *)
}

(* Words allocated so far, minor and major, by every domain. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* One pass: set-up, then the timed phase, each on a freshly collected
   heap so every pass starts from the same GC state. *)
let pass ~setup ~timed =
  Gc.full_major ();
  let state = span ~layer:"bench" "setup" setup in
  Gc.full_major ();
  let a0 = allocated_words () in
  let t0 = now () in
  let out = span ~layer:"bench" "timed" (fun () -> timed state) in
  let wall_s = now () -. t0 in
  (state, out, { wall_s; alloc_words = allocated_words () -. a0 })

(* Run [once] until [budget] seconds are spent: stop before a pass that
   would overrun the budget at the median pass time so far, but run at
   least one. *)
let repeat ~budget once =
  let start = now () in
  let rec go acc durations =
    if acc <> [] && now () -. start +. median durations > budget then
      List.rev acc
    else
      let t0 = now () in
      let r = once () in
      go (r :: acc) ((now () -. t0) :: durations)
  in
  go [] []

(* Set-up is timed on its own, first, in the fresh process where a
   user pays it: [setup_samples] samples, each on a freshly collected
   heap, reported as a median.  A sample times enough back-to-back
   set-ups to last [min_sample_s], so a set-up of a few microseconds is
   not lost in the clock's resolution. *)
let setup_samples_n = 11
let min_sample_s = 0.002

let setup_samples setup =
  let t0 = now () in
  ignore (Sys.opaque_identity (setup ()));
  let first = now () -. t0 in
  let batch =
    max 1 (int_of_float (Float.ceil (min_sample_s /. Float.max first 1e-9)))
  in
  List.init setup_samples_n (fun _ ->
      Gc.full_major ();
      let t0 = now () in
      for _ = 1 to batch do
        ignore (Sys.opaque_identity (setup ()))
      done;
      (now () -. t0) /. float_of_int batch)

type traced_pass = { spans : Spans.span list; t_sample : sample }

type 'o measured = {
  untraced : ('o * sample) list;
  traced : ('o * traced_pass) list;
  setups : float list;  (** seconds per set-up *)
  peak_heap_mb : float;
      (** after the first pass: later passes only add fragmentation *)
}

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Set-up samples, then untraced passes for the whole budget, or half
   of it when a traced run is asked for; [verify] sees every pass's
   state and output. *)
let measure ~seconds ~trace ~setup ~timed ~verify =
  let budget = if trace then seconds /. 2.0 else seconds in
  let setups = setup_samples setup in
  let first_peak = ref None in
  let untraced =
    repeat ~budget (fun () ->
        let state, out, s = pass ~setup ~timed in
        if !first_peak = None then first_peak := Some (peak_heap_mb ());
        verify state out;
        (out, s))
  in
  let traced =
    if not trace then []
    else
      repeat ~budget (fun () ->
          let (state, out, s), spans =
            Spans.capture (fun () -> pass ~setup ~timed)
          in
          verify state out;
          (out, { spans; t_sample = s }))
  in
  { untraced; traced; setups; peak_heap_mb = Option.get !first_peak }

let wall_median m = median (List.map (fun (_, s) -> s.wall_s) m.untraced)

(* Words the first pass allocated: a deterministic counter on the
   single-domain workloads. *)
let first_alloc_words m =
  match m.untraced with (_, s) :: _ -> s.alloc_words | [] -> 0.0

(* The host figures every workload reports. *)
let host_metrics m =
  [
    ("setup_s", median m.setups);
    ("wall_s", wall_median m);
    ( "alloc_mb",
      median (List.map (fun (_, s) -> s.alloc_words) m.untraced)
      *. float_of_int (Sys.word_size / 8) /. 1e6 );
    ("peak_heap_mb", m.peak_heap_mb);
  ]

(* Per-layer figures of one traced pass: self time per layer inside
   the timed phase, and the share of the timed phase no layer covers. *)
let layer_times spans =
  let selfs = Spans.self_times spans in
  let timed =
    List.find_opt (fun (s, _) -> s.Spans.layer = "bench" && s.name = "timed")
      selfs
  in
  let inside_timed =
    match timed with
    | None -> []
    | Some (root, _) ->
      List.filter
        (fun (s, _) ->
          s.Spans.start >= root.Spans.start && s.Spans.stop <= root.Spans.stop
          && s.Spans.id <> root.Spans.id)
        selfs
  in
  let per_layer =
    List.map
      (fun l ->
        ( l,
          List.fold_left
            (fun acc (s, self) -> if s.Spans.layer = l then acc +. self else acc)
            0.0 inside_timed ))
      layers
  in
  let uncovered =
    match timed with
    | Some (root, self) when Spans.duration root > 0.0 ->
      self /. Spans.duration root
    | _ -> 0.0
  in
  (per_layer, uncovered, List.length inside_timed)

(* Sum of a quantity over the spans of [layer] named [name] inside the
   given pass. *)
let span_total ?name ~layer ~f spans =
  List.fold_left
    (fun acc s ->
      if s.Spans.layer = layer
         && (match name with None -> true | Some n -> s.Spans.name = n)
      then acc +. f s
      else acc)
    0.0 spans

type report = {
  e2e : (string * float) list;
  layer : (string * float) list;
  counters : (string * float) list;
      (** deterministic values: equal on every run of a seed *)
  pass_spans : Spans.span list list;
  probe_spans : Spans.span list;
  pass_walls : float list;  (** each untraced pass's timed phase *)
}

(* The per-layer values every workload derives the same way from its
   traced passes (medians over passes). *)
let common_layer_metrics m =
  let passes = List.map snd m.traced in
  let per_pass f = median (List.map f passes) in
  let self l =
    per_pass (fun p ->
        let per_layer, _, _ = layer_times p.spans in
        List.assoc l per_layer)
  in
  let traced_wall = per_pass (fun p -> p.t_sample.wall_s) in
  [
    ( "trace.uncovered_frac",
      per_pass (fun p ->
          let _, u, _ = layer_times p.spans in
          u) );
    ("trace.overhead_s", traced_wall -. wall_median m);
    ( "trace.spans",
      per_pass (fun p ->
          let _, _, n = layer_times p.spans in
          float_of_int n) );
  ]
  @ List.map (fun l -> (l ^ ".self_s", self l)) timed_layers

(* Events per host second and minor words per event over the runtime
   spans of each traced pass's timed phase. *)
let engine_metrics m ~events =
  let passes = List.map snd m.traced in
  let runtime f =
    median (List.map (fun p -> span_total ~layer:"runtime" ~f p.spans) passes)
  in
  let run_s = runtime Spans.duration and words = runtime (fun s -> s.minor_words) in
  [
    ("engine.events", events);
    ("engine.events_per_s", if run_s > 0.0 then events /. run_s else 0.0);
    ("engine.minor_words_per_event", if events > 0.0 then words /. events else 0.0);
  ]

(* ------------------------------------------------------------------ *)
(* tune_mlp1: the Table-2 tuning sweep at MLP-1                         *)
(* ------------------------------------------------------------------ *)

module Tune_mlp1 = struct
  let machine = Calib.h800
  let world = 8

  (* MLP-1 (LLaMA-7B): S=8192, H=4096, I=11008, split over 8 ranks. *)
  let s = 8192
  let h = 4096
  let i = 11008
  let ag_spec = { Mlp.m = s; k = h; n = 2 * i / world; world_size = world }
  let rs_spec = { Mlp.rs_m = s; rs_k = i / world; rs_n = h; rs_world = world }

  let params =
    [
      ("shape", "MLP-1 S=8192 H=4096 I=11008");
      ("world", string_of_int world);
      ("machine", "Calib.h800");
      ("search", "Tuned.ag_gemm + Tuned.gemm_rs, sequential, no pool, no cache");
    ]

  let build_ag config = Mlp.ag_gemm_program ~config ag_spec ~spec_gpu:machine
  let build_rs config = Mlp.gemm_rs_program ~config rs_spec ~spec_gpu:machine
  let ag_candidates = Tuned.ag_gemm_candidates ~world_size:world
  let rs_candidates = Tuned.gemm_rs_candidates ~world_size:world

  type winner = { config : Design_space.config; time : float }

  type sweep = {
    best : winner option;
    evaluated : int;
    skipped : int;
    events : int;
    tasks : int;
    instrs : int;
  }

  (* The untraced timed phase: the library's own search. *)
  let untraced () =
    let win (t : Tuned.tuned) =
      { config = t.Tuned.best_config; time = t.Tuned.best_time }
    in
    let ag =
      Tuned.ag_gemm machine ~world_size:world ~m:ag_spec.Mlp.m
        ~k:ag_spec.Mlp.k ~n:ag_spec.Mlp.n
    in
    let rs =
      Tuned.gemm_rs machine ~world_size:world ~m:rs_spec.Mlp.rs_m
        ~k:rs_spec.Mlp.rs_k ~n:rs_spec.Mlp.rs_n
    in
    (win ag, win rs, None)

  (* The traced timed phase: every candidate goes through the same
     public calls [Tune.search_programs] makes — build, analyzer
     pre-flight, fresh cluster, telemetry handle, simulation,
     attribution — each in its layer's span. *)
  let traced_sweep ~what ~build configs =
    span ~layer:"tune" what (fun () ->
        List.fold_left
          (fun acc config ->
            match span ~layer:"workloads" "build" (fun () -> build config) with
            | exception Invalid_argument _ -> { acc with skipped = acc.skipped + 1 }
            | program -> (
              let acc =
                {
                  acc with
                  tasks = acc.tasks + Program.task_count program;
                  instrs = acc.instrs + Program.instr_count program;
                }
              in
              match
                span ~layer:"analyzer" "Analyzer.check_message" (fun () ->
                    Analyzer.check_message program)
              with
              | Error _ -> { acc with skipped = acc.skipped + 1 }
              | Ok () -> (
                let cluster =
                  span ~layer:"machine" "Cluster.create" (fun () ->
                      Cluster.create machine ~world_size:world)
                in
                let telemetry =
                  span ~layer:"obs" "Telemetry.create" (fun () ->
                      Obs.Telemetry.create ())
                in
                match
                  span ~layer:"runtime" "Runtime.run" (fun () ->
                      Runtime.run ~telemetry cluster program)
                with
                | exception (Invalid_argument _ | Engine.Deadlock _) ->
                  { acc with skipped = acc.skipped + 1 }
                | r ->
                  let makespan = r.Runtime.makespan in
                  ignore
                    (span ~layer:"obs" "Attribution.of_spans" (fun () ->
                         Obs.Attribution.of_spans ~makespan
                           (Obs.Span.spans (Obs.Telemetry.spans telemetry))));
                  let best =
                    match acc.best with
                    | Some b when b.time <= makespan -> acc.best
                    | _ -> Some { config; time = makespan }
                  in
                  {
                    acc with
                    best;
                    evaluated = acc.evaluated + 1;
                    events =
                      acc.events + Engine.executed_events (Cluster.engine cluster);
                  })))
          { best = None; evaluated = 0; skipped = 0; events = 0; tasks = 0; instrs = 0 }
          configs)

  let traced () =
    let ag = traced_sweep ~what:"Tuned.ag_gemm" ~build:build_ag ag_candidates in
    let rs = traced_sweep ~what:"Tuned.gemm_rs" ~build:build_rs rs_candidates in
    match (ag.best, rs.best) with
    | Some a, Some r -> (a, r, Some (ag, rs))
    | _ -> failwith "tune_mlp1: a traced sweep evaluated no candidate"

  (* Re-simulate a winner on a fresh cluster, without telemetry: the
     program must be analyzer-clean and reproduce the sweep's makespan. *)
  let recheck ~what ~build w =
    let program = build w.config in
    check (what ^ " winner analyzer-clean") (Analyzer.check_message program = Ok ());
    let r = Runtime.run (Cluster.create machine ~world_size:world) program in
    check (what ^ " winner re-simulates to the same makespan")
      (r.Runtime.makespan = w.time)

  (* Single-layer probe on the AG winner: the same simulation with and
     without a telemetry handle. *)
  let telemetry_probe w =
    let program = build_ag w.config in
    let time f =
      Gc.full_major ();
      let t0 = now () in
      ignore (Sys.opaque_identity (f ()));
      now () -. t0
    in
    let plain =
      time (fun () ->
          span ~layer:"runtime" "Runtime.run" (fun () ->
              Runtime.run (Cluster.create machine ~world_size:world) program))
    in
    let with_telemetry =
      time (fun () ->
          let telemetry = Obs.Telemetry.create () in
          span ~layer:"runtime" "Runtime.run ~telemetry" (fun () ->
              Runtime.run ~telemetry
                (Cluster.create machine ~world_size:world)
                program))
    in
    (plain, with_telemetry -. plain)

  let run ~seed:_ ~seconds ~trace =
    let first = ref None in
    let verify () (ag, rs, _) =
      match !first with
      | None -> first := Some (ag, rs)
      | Some (ag0, rs0) ->
        (* Traced passes run the replica sweep: it must agree too. *)
        check "AG+GEMM winner repeats across passes" (ag = ag0);
        check "GEMM+RS winner repeats across passes" (rs = rs0)
    in
    (* Set-up: the sweep's inputs — the machine model and the candidate
       lists.  The timed phase builds everything else itself. *)
    let setup () =
      ignore (Sys.opaque_identity (Cluster.create machine ~world_size:world));
      ignore (Sys.opaque_identity (Tuned.ag_gemm_candidates ~world_size:world));
      ignore (Sys.opaque_identity (Tuned.gemm_rs_candidates ~world_size:world))
    in
    let timed () = if !Spans.enabled then traced () else untraced () in
    let m = measure ~seconds ~trace ~setup ~timed ~verify in
    let ag, rs =
      match !first with Some w -> w | None -> assert false
    in
    recheck ~what:"AG+GEMM" ~build:build_ag ag;
    recheck ~what:"GEMM+RS" ~build:build_rs rs;
    let candidates = List.length ag_candidates + List.length rs_candidates in
    let wall = wall_median m in
    let e2e =
      host_metrics m
      @ [
        ("candidates_per_s", float_of_int candidates /. wall);
        ("sim_us", ag.time +. rs.time);
      ]
    in
    let sweeps =
      List.filter_map
        (fun ((_, _, sw), _) -> sw)
        m.traced
    in
    let layer, traced_counters, probe_spans =
      match sweeps with
      | [] -> ([], [], [])
      | (ag_sw, rs_sw) :: _ ->
        let both f = float_of_int (f ag_sw + f rs_sw) in
        let events = both (fun s -> s.events) in
        let passes = List.map snd m.traced in
        let per_pass f = median (List.map f passes) in
        let (run_s, telemetry_s), probe_spans =
          Spans.capture (fun () -> telemetry_probe ag)
        in
        ( common_layer_metrics m
          @ engine_metrics m ~events
          @ [
              ("workloads.tasks", both (fun s -> s.tasks));
              ("workloads.instrs", both (fun s -> s.instrs));
              ("runtime.run_s", run_s);
              ("obs.telemetry_s", telemetry_s);
              ( "obs.attribution_s",
                per_pass (fun p ->
                    span_total ~layer:"obs" ~name:"Attribution.of_spans"
                      ~f:Spans.duration p.spans) );
              ( "tune.search_s",
                per_pass (fun p ->
                    span_total ~layer:"tune" ~f:Spans.duration p.spans) );
              ("tune.candidates", both (fun s -> s.evaluated));
              ("tune.skipped", both (fun s -> s.skipped));
            ],
          [
            ("engine.events", events);
            ("workloads.instrs", both (fun s -> s.instrs));
            ("workloads.tasks", both (fun s -> s.tasks));
          ],
          probe_spans )
    in
    {
      e2e;
      layer;
      counters =
        [
          ("sim_us", ag.time +. rs.time);
          ("ag_best_us", ag.time);
          ("rs_best_us", rs.time);
          ("alloc_words", first_alloc_words m);
        ]
        @ traced_counters;
      pass_spans = List.map (fun (_, p) -> p.spans) m.traced;
      probe_spans;
      pass_walls = List.map (fun (_, s) -> s.wall_s) m.untraced;
    }
end

(* ------------------------------------------------------------------ *)
(* serve_overload: an open-loop Poisson trace past capacity            *)
(* ------------------------------------------------------------------ *)

module Serve_overload = struct
  let requests = 50_000
  let rate_rps = 10_000.

  (* The BENCH_serving config. *)
  let config =
    {
      Serve.Server.machine = Calib.h800;
      topology = None;
      world_size = 8;
      head_dim = 64;
      slo = { Serve.Slo.ttft_us = 5_000.; tpot_us = 2_000. };
      queue_capacity = 32;
      max_batch = 16;
      kv_capacity = 8192;
      timeout_us = 50_000.;
      chaos = None;
    }

  let params =
    [
      ("trace", Printf.sprintf "Poisson %d requests at %.0f rps, open loop" requests rate_rps);
      ("config", "BENCH_serving: 8 ranks, head_dim 64, queue 32, max batch 16, KV 8192");
      ("slo", "TTFT 5 ms, TPOT 2 ms");
      ("machine", "Calib.h800");
    ]

  let generate ~seed =
    span ~layer:"serve" "Trace_gen.generate" (fun () ->
        Serve.Trace_gen.generate ~seed ~requests
          (Serve.Trace_gen.Poisson { rate_rps }))

  (* A batcher at the serve's config holding the trace's first
     [max_batch] requests that fit. *)
  let full_batcher trace =
    let b =
      Serve.Batcher.create ~machine:config.machine ~world_size:config.world_size
        ~head_dim:config.head_dim ~kv_capacity:config.kv_capacity ()
    in
    List.iter
      (fun r ->
        if Serve.Batcher.batch_size b < config.max_batch && Serve.Batcher.fits b r
        then Serve.Batcher.admit b r)
      trace;
    b

  (* Host µs per call of [f], median over five chunks of [n] calls. *)
  let per_call_us ~n f =
    median
      (List.init 5 (fun _ ->
           let t0 = now () in
           for _ = 1 to n do
             ignore (Sys.opaque_identity (f ()))
           done;
           (now () -. t0) *. 1e6 /. float_of_int n))

  (* Single-layer probes at the serve's config: the batcher's step
     estimate per tier, a step whose signature misses the memo (it
     simulates the tile program), and the standalone ring AllGather the
     Nonoverlap tier charges for the batch's KV. *)
  let probes trace =
    let b = full_batcher trace in
    let est tier =
      span ~layer:"batcher" "Batcher.est_step_us" (fun () ->
          per_call_us ~n:200 (fun () -> Serve.Batcher.est_step_us b ~tier ~extra:0))
    in
    let est_overlapped = est Serve.Degrade.Overlapped in
    let est_nonoverlap = est Serve.Degrade.Nonoverlap in
    let step_miss_ms =
      median
        (List.init 3 (fun _ ->
             let b = full_batcher trace in
             let t0 = now () in
             ignore
               (span ~layer:"batcher" "Batcher.step" (fun () ->
                    Serve.Batcher.step b ~tier:Serve.Degrade.Overlapped));
             (now () -. t0) *. 1e3))
    in
    (* The KV AllGather bytes per shard for the full batch, quantized
       the way the batcher quantizes it (KV to the world * 8 lattice). *)
    let lattice = config.world_size * 8 in
    let max_kv =
      List.fold_left (fun acc e -> max acc e.Serve.Batcher.e_kv) 0
        (Serve.Batcher.running b)
    in
    let kv_q = max lattice ((max_kv + lattice - 1) / lattice * lattice) in
    let bytes_per_shard =
      2.0 *. float_of_int (config.max_batch * (kv_q / config.world_size))
      *. float_of_int config.head_dim *. Cost.dtype_bytes
    in
    let standalone () =
      Tilelink_comm.Collective.standalone_time config.machine
        ~world_size:config.world_size ~kind:Tilelink_comm.Collective.Allgather
        ~algo:Tilelink_comm.Collective.Ring ~bytes_per_shard
    in
    let comm_us =
      span ~layer:"comm" "Collective.standalone_time" (fun () ->
          per_call_us ~n:200 standalone)
    in
    [
      ("batcher.est_us.overlapped", est_overlapped);
      ("batcher.est_us.nonoverlap", est_nonoverlap);
      ("batcher.step_miss_ms", step_miss_ms);
      ("comm.standalone_us", comm_us);
    ]

  let run ~seed ~seconds ~trace =
    let first = ref None in
    let verify trace (report : Serve.Server.report) =
      let text = Serve.Server.report_to_string report in
      check "serve conserves requests" (Serve.Server.conservation_ok report);
      match !first with
      | None -> first := Some (trace, report, text)
      | Some (trace0, _, text0) ->
        check "trace generation repeats for the seed" (trace = trace0);
        check "serve report is byte-identical across passes" (text = text0)
    in
    let setup () = generate ~seed in
    let timed trace =
      span ~layer:"serve" "Server.run" (fun () -> Serve.Server.run config trace)
    in
    let m = measure ~seconds ~trace ~setup ~timed ~verify in
    let trace0, r, _ =
      match !first with Some f -> f | None -> assert false
    in
    let module S = Serve.Server in
    let wall = wall_median m in
    let slo_miss_frac =
      1.0 -. (float_of_int r.S.r_slo_met /. float_of_int r.S.r_offered)
    in
    let tier name = List.assoc name r.S.r_tier_us in
    let e2e =
      host_metrics m
      @ [
        ("requests_per_s", float_of_int r.S.r_offered /. wall);
        ("sim_us", r.S.r_makespan_us);
        ("goodput_rps", r.S.r_goodput_rps);
        ("ttft_p50_us", r.S.r_ttft.Serve.Slo.d_p50);
        ("ttft_p99_us", r.S.r_ttft.Serve.Slo.d_p99);
        ("slo_miss_frac", slo_miss_frac);
      ]
    in
    let layer, probe_spans =
      if m.traced = [] then ([], [])
      else
        let probe_metrics, probe_spans =
          Spans.capture (fun () -> probes trace0)
        in
        let passes = List.map snd m.traced in
        let per_pass f = median (List.map f passes) in
        let run_s =
          per_pass (fun p ->
              span_total ~layer:"serve" ~name:"Server.run" ~f:Spans.duration p.spans)
        in
        ( common_layer_metrics m
          @ [
            ( "serve.trace_gen_s",
              per_pass (fun p ->
                  span_total ~layer:"serve" ~name:"Trace_gen.generate"
                    ~f:Spans.duration p.spans) );
            ("serve.steps", float_of_int r.S.r_steps);
            ("serve.host_us_per_step", run_s *. 1e6 /. float_of_int r.S.r_steps);
            ("serve.tier_us.overlapped", tier "overlapped");
            ("serve.tier_us.shrunk", tier "shrunk");
            ("serve.tier_us.nonoverlap", tier "nonoverlap");
          ]
          @ probe_metrics,
          probe_spans )
    in
    {
      e2e;
      layer;
      counters =
        [
          ("serve.steps", float_of_int r.S.r_steps);
          ("sim_us", r.S.r_makespan_us);
          ("goodput_rps", r.S.r_goodput_rps);
          ("ttft_p50_us", r.S.r_ttft.Serve.Slo.d_p50);
          ("ttft_p99_us", r.S.r_ttft.Serve.Slo.d_p99);
          ("ttft_samples", float_of_int r.S.r_ttft.Serve.Slo.d_count);
          ("slo_miss_frac", slo_miss_frac);
          ( "shed",
            float_of_int
              (r.S.r_shed_queue_full + r.S.r_shed_deadline + r.S.r_shed_timeout) );
          ("alloc_words", first_alloc_words m);
        ];
      pass_spans = List.map (fun (_, p) -> p.spans) m.traced;
      probe_spans;
      pass_walls = List.map (fun (_, s) -> s.wall_s) m.untraced;
    }
end

(* ------------------------------------------------------------------ *)
(* exec_data: AG+GEMM on real tensors, sequential and parallel          *)
(* ------------------------------------------------------------------ *)

module Exec_data = struct
  let machine = Calib.h800

  type case = { label : string; spec : Mlp.ag_gemm_spec; tile : int }

  (* GEMM-bound: few large tiles.  Dispatch-bound: 8192 tiny tiles, so
     per-tile scheduling dominates. *)
  let cases =
    [
      { label = "gemm"; spec = { Mlp.m = 1024; k = 512; n = 512; world_size = 4 }; tile = 64 };
      { label = "dispatch"; spec = { Mlp.m = 4096; k = 32; n = 32; world_size = 4 }; tile = 8 };
    ]

  let config c =
    let ring = Tile.Ring_from_self { segments = c.spec.Mlp.world_size } in
    {
      Design_space.comm_tile = (c.tile, 128);
      compute_tile = (c.tile, c.tile);
      comm_order = ring;
      compute_order = ring;
      binding = Design_space.Comm_on_sm 20;
      stages = 2;
      micro_block = 0;
    }

  let params ~domains =
    [
      ("gemm case", "m=1024 k=512 n=512, 4 ranks, 64x64 tiles");
      ("dispatch case", "m=4096 k=32 n=32, 4 ranks, 8x8 tiles");
      ("backends", Printf.sprintf "sequential interpreter, then Parallel.run ~domains:%d" domains);
      ("machine", "Calib.h800");
    ]

  let ranks c = List.init c.spec.Mlp.world_size Fun.id

  (* Useful GEMM flops of one execution: every rank computes its
     [m, k] x [k, n] product. *)
  let flops c =
    let s = c.spec in
    2.0 *. float_of_int (s.Mlp.m * s.Mlp.k * s.Mlp.n * s.Mlp.world_size)

  type result = {
    makespan : float;  (** sequential, simulated µs *)
    events : int;
    tasks : int;
    instrs : int;
    stats : Backend.stats;
  }

  (* Single-layer probe: Linalg.gemm at the GEMM case's compute-tile
     shape ([64, 512] x [512, 64]), median of five chunks. *)
  let gemm_probe () =
    let a = Tn.Tensor.random ~seed:1 (Tn.Shape.of_list [ 64; 512 ]) in
    let b = Tn.Tensor.random ~seed:2 (Tn.Shape.of_list [ 512; 64 ]) in
    let n = 20 in
    let per_chunk =
      List.init 5 (fun _ ->
          span ~layer:"tensor" "Linalg.gemm" (fun () ->
              let t0 = now () in
              for _ = 1 to n do
                ignore (Sys.opaque_identity (Tn.Linalg.gemm a b))
              done;
              now () -. t0))
    in
    float_of_int n *. Tn.Linalg.gemm_flops ~m:64 ~n:64 ~k:512
    /. median per_chunk /. 1e9

  let run ~seed ~seconds ~trace ~domains =
    let alloc c =
      span ~layer:"workloads" "Mlp.ag_gemm_alloc" (fun () ->
          Mlp.ag_gemm_alloc c.spec ~seed)
    in
    (* Set-up: seeded input memories, one per backend and case, and the
       spin-up of a domain team of the size the parallel run uses. *)
    let setup () =
      let memories = List.map (fun c -> (c, alloc c, alloc c)) cases in
      let team =
        span ~layer:"parallel" "Backend.create" (fun () -> Backend.create domains)
      in
      Backend.shutdown team;
      memories
    in
    let execute (c, mem_seq, mem_par) =
      let program =
        span ~layer:"workloads" "Mlp.ag_gemm_program" (fun () ->
            Mlp.ag_gemm_program ~config:(config c) c.spec ~spec_gpu:machine)
      in
      let cluster =
        span ~layer:"machine" "Cluster.create" (fun () ->
            Cluster.create machine ~world_size:c.spec.Mlp.world_size)
      in
      let r =
        span ~layer:"runtime" "Runtime.run ~data" (fun () ->
            Runtime.run ~data:true ~memory:mem_seq cluster program)
      in
      let _, p =
        span ~layer:"parallel" "Parallel.run" (fun () ->
            Parallel.run ~data:true ~memory:mem_par ~domains program)
      in
      {
        makespan = r.Runtime.makespan;
        events = Engine.executed_events (Cluster.engine cluster);
        tasks = Program.task_count program;
        instrs = Program.instr_count program;
        stats = p.Parallel.p_stats;
      }
    in
    let timed memories = List.map execute memories in
    (* References depend only on the seeded inputs, so one per run. *)
    let references = ref None in
    let reference_s = ref 0.0 in
    let reference_of memories =
      match !references with
      | Some refs -> refs
      | None ->
        let t0 = now () in
        let refs =
          List.map
            (fun (c, mem, _) ->
              List.map (fun rank -> Mlp.ag_gemm_reference mem c.spec ~rank) (ranks c))
            memories
        in
        reference_s := now () -. t0;
        references := Some refs;
        refs
    in
    let first = ref None in
    let verify memories results =
      let refs = reference_of memories in
      List.iter2
        (fun (c, mem_seq, mem_par) refs ->
          List.iter2
            (fun rank expected ->
              check
                (Printf.sprintf "%s rank %d: sequential y matches the reference" c.label rank)
                (Tn.Check.close expected (Memory.find mem_seq ~rank ~name:"y"));
              check
                (Printf.sprintf "%s rank %d: parallel bit-identical to sequential" c.label rank)
                (List.for_all
                   (fun name ->
                     bits_equal (Memory.find mem_seq ~rank ~name)
                       (Memory.find mem_par ~rank ~name))
                   (Memory.buffers mem_seq ~rank)))
            (ranks c) refs)
        memories refs;
      let makespans = List.map (fun r -> r.makespan) results in
      match !first with
      | None -> first := Some makespans
      | Some m0 -> check "sequential makespans repeat across passes" (makespans = m0)
    in
    ignore (Backend.shared domains);
    let m = measure ~seconds ~trace ~setup ~timed ~verify in
    let results = match m.untraced with (r, _) :: _ -> r | [] -> assert false in
    let sim_us = List.fold_left (fun acc r -> acc +. r.makespan) 0.0 results in
    let wall = wall_median m in
    let total_flops = 2.0 *. List.fold_left (fun acc c -> acc +. flops c) 0.0 cases in
    let e2e =
      host_metrics m
      @ [
        ("gflops", total_flops /. wall /. 1e9);
        ("sim_us", sim_us);
      ]
    in
    let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 results) in
    let layer, probe_spans =
      if m.traced = [] then ([], [])
      else
        let gemm_gflops, probe_spans = Spans.capture gemm_probe in
        let passes = m.traced in
        let per_pass f = median (List.map f passes) in
        let stats_sum f =
          per_pass (fun (rs, _) -> List.fold_left (fun acc r -> acc +. f r.stats) 0.0 rs)
        in
        let busy s =
          Array.fold_left (fun acc d -> acc +. d.Backend.d_busy_s) 0.0 s.Backend.per_domain
        in
        let backend_wall = stats_sum (fun s -> s.Backend.wall_s) in
        let busy_s = stats_sum busy in
        let parallel_run =
          per_pass (fun (_, p) ->
              span_total ~layer:"parallel" ~name:"Parallel.run" ~f:Spans.duration p.spans)
        in
        ( common_layer_metrics m
          @ engine_metrics m ~events:(sum (fun r -> r.events))
          @ [
            ("workloads.tasks", sum (fun r -> r.tasks));
            ("workloads.instrs", sum (fun r -> r.instrs));
            ("tensor.gemm_gflops", gemm_gflops);
            ("tensor.reference_s", !reference_s);
            ("parallel.preflight_s", parallel_run -. backend_wall);
            ("backend.wall_s", backend_wall);
            ("backend.busy_s", busy_s);
            ( "backend.utilization",
              if backend_wall > 0.0 then busy_s /. (backend_wall *. float_of_int domains)
              else 0.0 );
            ("backend.parks", stats_sum (fun s -> float_of_int s.Backend.total_parks));
          ],
          probe_spans )
    in
    {
      e2e;
      layer;
      counters =
        [
          ("sim_us", sim_us);
          ("engine.events", sum (fun r -> r.events));
          ("workloads.instrs", sum (fun r -> r.instrs));
          ("workloads.tasks", sum (fun r -> r.tasks));
        ];
      pass_spans = List.map (fun (_, p) -> p.spans) m.traced;
      probe_spans;
      pass_walls = List.map (fun (_, s) -> s.wall_s) m.untraced;
    }

end

(* ------------------------------------------------------------------ *)
(* Command line and output                                             *)
(* ------------------------------------------------------------------ *)

let workloads =
  [
    ( "tune_mlp1",
      "the 17-candidate MLP-1 tuning sweep: program build, analyzer, DES \
       runtime with telemetry and attribution per candidate" );
    ( "serve_overload",
      "a Poisson trace far past capacity: shedding, the Nonoverlap tier \
       and step-memo misses" );
    ( "exec_data",
      "AG+GEMM on real tensors, sequential and on a domain team: tensor \
       kernels and parallel dispatch" );
  ]

(* Every digit of a measured value; integers without a fraction. *)
let number f =
  if not (Float.is_finite f) then invalid_arg "non-finite metric value"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let json_string s = Printf.sprintf "%S" s

let print_metric d v =
  Printf.printf "metric %-30s %24s %-8s %s\n" d.name (number v) d.unit_ d.clock

let write_spans ~path ~workload passes =
  let oc = open_out path in
  List.iteri
    (fun i spans ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"workload\":%s,\"pass\":%d,\"id\":%d,\"parent\":%d,\"layer\":%s,\"name\":%s,\"start\":%s,\"end\":%s,\"minor_words\":%s}\n"
            (json_string workload) i s.Spans.id s.Spans.parent
            (json_string s.Spans.layer) (json_string s.Spans.name)
            (number s.Spans.start) (number s.Spans.stop)
            (number s.Spans.minor_words))
        spans)
    passes;
  close_out oc

(* Self time per layer and phase over every traced pass (summed), so
   each layer's share of the set-up, timed phase and probes shows. *)
let print_self_times passes probes =
  let spans = List.concat passes @ probes in
  let selfs = Spans.self_times spans in
  let by_id = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace by_id s.Spans.id s) spans;
  let rec phase s =
    if s.Spans.parent < 0 then
      if s.Spans.layer = "bench" then s.Spans.name else "probe"
    else
      match Hashtbl.find_opt by_id s.Spans.parent with
      | Some p -> phase p
      | None -> "probe"
  in
  List.iter
    (fun l ->
      List.iter
        (fun ph ->
          let t =
            List.fold_left
              (fun acc (s, self) ->
                if s.Spans.layer = l && phase s = ph then acc +. self else acc)
              0.0 selfs
          in
          if t > 0.0 then
            Printf.printf "self   %-10s %-6s %s s over %d traced pass(es)\n" l ph
              (number t) (List.length passes))
        [ "setup"; "timed"; "probe" ])
    layers

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) and spans_path = ref "" in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time budget");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--nproc", Arg.Set_int nproc, "N usable processors");
      ("--spans", Arg.Set_string spans_path, "FILE where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let why =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload ^ "; " ^ usage);
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 and seconds = float_of_int !seconds in
  let domains = max 1 (min 2 !nproc) in
  Printf.printf "workload %s seed %d seconds %s trace %b\n" !workload !seed
    (number seconds) trace;
  Printf.printf "host nproc=%d recommended_domain_count=%d ocaml=%s\n" !nproc
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  Printf.printf "why %s\n" why;
  let params, report =
    match !workload with
    | "tune_mlp1" ->
      (Tune_mlp1.params, Tune_mlp1.run ~seed:!seed ~seconds ~trace)
    | "serve_overload" ->
      (Serve_overload.params, Serve_overload.run ~seed:!seed ~seconds ~trace)
    | _ ->
      ( Exec_data.params ~domains,
        Exec_data.run ~seed:!seed ~seconds ~trace ~domains )
  in
  List.iter (fun (k, v) -> Printf.printf "param %s: %s\n" k v) params;
  let error_frac = float_of_int !failed /. float_of_int (max 1 !attempted) in
  let e2e = report.e2e @ [ ("error_frac", error_frac) ] in
  List.iter
    (fun d ->
      match List.assoc_opt d.name e2e with
      | Some v -> print_metric d v
      | None -> ())
    e2e_defs;
  let value_of d =
    if trace then Option.value ~default:0.0 (List.assoc_opt d.name report.layer)
    else List.assoc d.name e2e
  in
  let reported =
    if trace then layer_defs
    else List.filter (fun d -> List.mem d.name gated) e2e_defs
  in
  if trace then begin
    List.iter (fun d -> print_metric d (value_of d)) layer_defs;
    print_self_times report.pass_spans report.probe_spans;
    if !spans_path <> "" then
      write_spans ~path:!spans_path ~workload:!workload
        (report.pass_spans @ [ report.probe_spans ])
  end;
  Printf.printf "passes wall_s %s\n"
    (String.concat " " (List.map number report.pass_walls));
  Printf.printf "checks %d attempted, %d failed\n" !attempted !failed;
  Printf.printf "counters {%s}\n"
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) (number v))
          report.counters));
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (!failed = 0) !attempted !failed
    (String.concat ","
       (List.map
          (fun d ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string d.name)
              (number (value_of d)) (json_string d.unit_))
          reported));
  exit (if !failed = 0 then 0 else 1)
