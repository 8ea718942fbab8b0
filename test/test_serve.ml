(* The serving layer: seeded trace generation, admission/backpressure,
   degradation tiers, and the conservation law the whole stack must
   uphold — every offered request is exactly one of completed, shed,
   or failed at drain (nothing in flight, nothing lost, nothing
   double-counted), with shed requests never contaminating the latency
   percentiles.  All properties hold clean and under a seeded
   mid-trace rank crash, and every report is byte-deterministic. *)

open Tilelink_machine
module Serve = Tilelink_serve
module Trace_gen = Serve.Trace_gen
module Admission = Serve.Admission
module Degrade = Serve.Degrade
module Slo = Serve.Slo
module Server = Serve.Server

let machine = Calib.test_machine

(* ------------------------------------------------------------------ *)
(* Trace generation                                                    *)
(* ------------------------------------------------------------------ *)

let test_trace_determinism () =
  let gen seed =
    Trace_gen.generate ~seed ~requests:40
      (Trace_gen.Poisson { rate_rps = 1000. })
  in
  Alcotest.(check bool) "same seed, same trace" true (gen 7 = gen 7);
  Alcotest.(check bool) "different seed, different trace" true (gen 7 <> gen 8)

let trace_well_formed reqs ~requests =
  List.length reqs = requests
  && List.for_all
       (fun (r : Trace_gen.request) ->
         r.rq_prompt >= 1 && r.rq_decode >= 1 && r.rq_arrival_us >= 0.)
       reqs
  && List.mapi (fun i (r : Trace_gen.request) -> r.rq_id = i) reqs
     |> List.for_all Fun.id
  &&
  let rec sorted = function
    | (a : Trace_gen.request) :: (b : Trace_gen.request) :: rest ->
      a.rq_arrival_us <= b.rq_arrival_us && sorted (b :: rest)
    | _ -> true
  in
  sorted reqs

let qcheck_trace_shape =
  QCheck.Test.make ~count:30 ~name:"generated traces are well-formed"
    QCheck.(triple (int_range 1 10_000) (int_range 1 60) bool)
    (fun (seed, requests, bursty) ->
      let arrival =
        if bursty then
          Trace_gen.Bursty { rate_rps = 5_000.; burst = 6.; on_fraction = 0.3 }
        else Trace_gen.Poisson { rate_rps = 5_000. }
      in
      let requests = max 1 requests in
      trace_well_formed ~requests
        (Trace_gen.generate ~prompt_mean:32 ~decode_mean:4 ~seed ~requests
           arrival))

let test_trace_parse () =
  let text = "# comment\n10.5,64,4\n\n0.0,32,2\n" in
  (match Trace_gen.parse_trace text with
  | Ok [ a; b ] ->
    (* Re-sorted by arrival and re-numbered. *)
    Alcotest.(check int) "first id" 0 a.Trace_gen.rq_id;
    Alcotest.(check (float 0.)) "first arrival" 0.0 a.Trace_gen.rq_arrival_us;
    Alcotest.(check int) "second prompt" 64 b.Trace_gen.rq_prompt
  | Ok _ -> Alcotest.fail "expected two requests"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Trace_gen.parse_trace "1.0,0,4\n" with
  | Error msg ->
    Alcotest.(check bool) "error names the line" true
      (String.length msg > 0 && String.sub msg 0 10 = "trace line")
  | Ok _ -> Alcotest.fail "zero prompt accepted");
  match Trace_gen.parse_trace "# only comments\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty trace accepted"

(* Replay files written on other platforms: CRLF line endings, a UTF-8
   BOM, bare-CR endings, trailing blank lines — all must parse to the
   same requests as the plain-LF file, and error messages must keep
   pointing at the line number the user's editor shows. *)
let test_trace_parse_line_endings () =
  let reference =
    match Trace_gen.parse_trace "# comment\n10.5,64,4\n0.0,32,2\n" with
    | Ok reqs -> reqs
    | Error e -> Alcotest.failf "LF reference failed: %s" e
  in
  let same name text =
    match Trace_gen.parse_trace text with
    | Ok reqs ->
      Alcotest.(check bool) (name ^ " parses identically") true
        (reqs = reference)
    | Error e -> Alcotest.failf "%s failed: %s" name e
  in
  same "CRLF" "# comment\r\n10.5,64,4\r\n0.0,32,2\r\n";
  same "CRLF + trailing blanks" "# comment\r\n10.5,64,4\r\n0.0,32,2\r\n\r\n\r\n";
  same "bare CR" "# comment\r10.5,64,4\r0.0,32,2\r";
  same "UTF-8 BOM + CRLF" "\xef\xbb\xbf# comment\r\n10.5,64,4\r\n0.0,32,2\r\n";
  (* A BOM on the first data line must not corrupt the first field. *)
  same "UTF-8 BOM, no comment"
    "\xef\xbb\xbf10.5,64,4\r\n0.0,32,2\r\n";
  (* Error line numbers count CRLF lines exactly like LF lines. *)
  match Trace_gen.parse_trace "# c\r\n1.0,8,2\r\nbogus\r\n" with
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error names CRLF line 3 (%s)" msg)
      true
      (String.length msg >= 12 && String.sub msg 0 12 = "trace line 3")
  | Ok _ -> Alcotest.fail "bogus CRLF line accepted"

(* ------------------------------------------------------------------ *)
(* Admission queue                                                     *)
(* ------------------------------------------------------------------ *)

let req id arrival =
  { Trace_gen.rq_id = id; rq_arrival_us = arrival; rq_prompt = 8; rq_decode = 2 }

let test_admission_backpressure () =
  let q = Admission.create ~capacity:2 in
  Alcotest.(check bool) "first admitted" true (Admission.offer q (req 0 0.) = Ok ());
  Alcotest.(check bool) "second admitted" true (Admission.offer q (req 1 0.) = Ok ());
  Alcotest.(check bool) "third shed" true
    (Admission.offer q (req 2 0.) = Error Admission.Queue_full);
  Alcotest.(check (float 0.)) "pressure full" 1.0 (Admission.pressure q)

let test_admission_deadline () =
  let q = Admission.create ~capacity:4 in
  ignore (Admission.offer q (req 0 0.));
  ignore (Admission.offer q (req 1 900.));
  (* Request 0 is stale: now + est exceeds arrival + deadline. *)
  (match
     Admission.poll q ~now_us:1000. ~ttft_deadline_us:500.
       ~est_first_token_us:100.
   with
  | Some (Error (r, Admission.Deadline)) ->
    Alcotest.(check int) "stale head shed" 0 r.Trace_gen.rq_id
  | _ -> Alcotest.fail "expected deadline shed");
  match
    Admission.poll q ~now_us:1000. ~ttft_deadline_us:500.
      ~est_first_token_us:100.
  with
  | Some (Ok r) -> Alcotest.(check int) "fresh head admitted" 1 r.Trace_gen.rq_id
  | _ -> Alcotest.fail "expected admission"

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)
(* ------------------------------------------------------------------ *)

let test_degrade_ladder () =
  let d = Degrade.create ~quiet_steps:2 () in
  Alcotest.(check int) "starts full" 0 (Degrade.tier_rank (Degrade.tier d));
  Alcotest.(check int) "full batch" 8 (Degrade.max_batch d ~full:8);
  (* Severe pressure jumps straight to the top tier. *)
  (match Degrade.observe d ~now_us:100. ~pressure:0.95 ~faulted:false with
  | Some Degrade.Nonoverlap -> ()
  | _ -> Alcotest.fail "expected escalation to nonoverlap");
  Alcotest.(check int) "halved batch" 4 (Degrade.max_batch d ~full:8);
  (* Two quiet steps walk one tier back down. *)
  Alcotest.(check bool) "first quiet step holds" true
    (Degrade.observe d ~now_us:200. ~pressure:0.1 ~faulted:false = None);
  (match Degrade.observe d ~now_us:300. ~pressure:0.1 ~faulted:false with
  | Some Degrade.Shrunk -> ()
  | _ -> Alcotest.fail "expected recovery to shrunk");
  (* Consecutive faulted steps escalate even without queue pressure. *)
  ignore (Degrade.observe d ~now_us:400. ~pressure:0.0 ~faulted:true);
  (match Degrade.observe d ~now_us:500. ~pressure:0.0 ~faulted:true with
  | Some Degrade.Nonoverlap -> ()
  | _ -> Alcotest.fail "expected fault escalation");
  Degrade.finish d ~now_us:600.;
  let total =
    Degrade.time_in d Degrade.Overlapped
    +. Degrade.time_in d Degrade.Shrunk
    +. Degrade.time_in d Degrade.Nonoverlap
  in
  Alcotest.(check (float 1e-9)) "tier times cover the whole span" 600. total

(* ------------------------------------------------------------------ *)
(* End-to-end conservation                                             *)
(* ------------------------------------------------------------------ *)

(* test_machine steps cost ~1.3 ms, so the default SLOs here are loose
   enough that a light load completes everything; the overload cases
   tighten them explicitly. *)
let config ?chaos ?topology ?(queue_capacity = 8) ?(timeout_us = 100_000.) () =
  {
    Server.machine;
    topology;
    world_size = 4;
    head_dim = 32;
    slo = { Slo.ttft_us = 20_000.; tpot_us = 5_000. };
    queue_capacity;
    max_batch = 8;
    kv_capacity = 2_048;
    timeout_us;
    chaos;
  }

let trace ~seed ~requests ~rate =
  Trace_gen.generate ~prompt_mean:32 ~decode_mean:4 ~seed ~requests
    (Trace_gen.Poisson { rate_rps = rate })

let check_invariants name (r : Server.report) =
  Alcotest.(check bool) (name ^ ": conserved") true (Server.conservation_ok r);
  Alcotest.(check int) (name ^ ": nothing in flight") 0 r.Server.r_in_flight;
  (* Shed and failed requests never enter the latency percentiles. *)
  Alcotest.(check int)
    (name ^ ": ttft samples = completions")
    r.Server.r_completed r.Server.r_ttft.Slo.d_count;
  Alcotest.(check int)
    (name ^ ": tpot samples = completions")
    r.Server.r_completed r.Server.r_tpot.Slo.d_count;
  Alcotest.(check bool)
    (name ^ ": slo_met bounded by completions")
    true
    (r.Server.r_slo_met <= r.Server.r_completed);
  Alcotest.(check bool) (name ^ ": failed non-negative") true (r.Server.r_failed >= 0)

let qcheck_conservation =
  QCheck.Test.make ~count:8
    ~name:"offered = completed + shed + failed at drain (clean)"
    QCheck.(triple (int_range 1 1000) (int_range 5 25) (int_range 2 12))
    (fun (seed, requests, queue_capacity) ->
      let requests = max 5 requests and queue_capacity = max 2 queue_capacity in
      (* Overload rate: a small queue under 20k rps must shed. *)
      let tr = trace ~seed ~requests ~rate:20_000. in
      let r = Server.run (config ~queue_capacity ~timeout_us:5_000. ()) tr in
      Server.conservation_ok r
      && r.Server.r_offered = requests
      && r.Server.r_ttft.Slo.d_count = r.Server.r_completed)

let qcheck_conservation_crash =
  QCheck.Test.make ~count:6
    ~name:"conservation holds under a mid-trace rank crash"
    QCheck.(pair (int_range 1 1000) (int_range 1 3))
    (fun (seed, crash_ranks) ->
      let crash_ranks = 1 + (abs crash_ranks mod 3) in
      let tr = trace ~seed ~requests:15 ~rate:2_000. in
      let chaos = { Server.ch_seed = seed; ch_crash_ranks = crash_ranks } in
      let r = Server.run (config ~chaos ()) tr in
      Server.conservation_ok r
      && r.Server.r_ttft.Slo.d_count = r.Server.r_completed
      && r.Server.r_world_end >= 4 - crash_ranks)

let test_overload_sheds () =
  let tr = trace ~seed:3 ~requests:40 ~rate:50_000. in
  let r = Server.run (config ~queue_capacity:4 ~timeout_us:5_000. ()) tr in
  check_invariants "overload" r;
  Alcotest.(check bool) "backpressure shed some requests" true
    (r.Server.r_shed_queue_full > 0);
  Alcotest.(check bool) "queue pressure degraded the tier" true
    (r.Server.r_tier_changes > 0)

let test_clean_run_completes_all () =
  let tr = trace ~seed:11 ~requests:12 ~rate:500. in
  let r = Server.run (config ()) tr in
  check_invariants "clean" r;
  Alcotest.(check int) "all completed" 12 r.Server.r_completed;
  Alcotest.(check int) "nothing shed" 0
    (r.Server.r_shed_queue_full + r.Server.r_shed_deadline
   + r.Server.r_shed_timeout)

let test_crash_run () =
  let tr = trace ~seed:5 ~requests:20 ~rate:2_000. in
  let chaos = { Server.ch_seed = 7; ch_crash_ranks = 1 } in
  let r = Server.run (config ~chaos ()) tr in
  check_invariants "crash" r;
  Alcotest.(check int) "one rank lost" 3 r.Server.r_world_end;
  Alcotest.(check bool) "the crash step is visible" true
    (r.Server.r_faulted_steps >= 1)

let test_report_determinism () =
  let serve ?chaos () =
    Server.run (config ?chaos ~queue_capacity:4 ())
      (trace ~seed:13 ~requests:25 ~rate:20_000.)
  in
  Alcotest.(check string) "clean report byte-identical"
    (Server.report_to_string (serve ()))
    (Server.report_to_string (serve ()));
  let chaos = { Server.ch_seed = 3; ch_crash_ranks = 2 } in
  Alcotest.(check string) "crash report byte-identical"
    (Server.report_to_string (serve ~chaos ()))
    (Server.report_to_string (serve ~chaos ()))

let test_journal_events () =
  let telemetry = Tilelink_obs.Telemetry.create () in
  let tr = trace ~seed:3 ~requests:40 ~rate:50_000. in
  let r =
    Server.run ~telemetry (config ~queue_capacity:4 ~timeout_us:5_000. ()) tr
  in
  let entries =
    Tilelink_obs.Journal.entries (Tilelink_obs.Telemetry.journal telemetry)
  in
  let count p = List.length (List.filter p entries) in
  let sheds =
    count (fun e ->
        match e.Tilelink_obs.Journal.event with
        | Tilelink_obs.Journal.Request_shed _ -> true
        | _ -> false)
  in
  let tiers =
    count (fun e ->
        match e.Tilelink_obs.Journal.event with
        | Tilelink_obs.Journal.Tier_change _ -> true
        | _ -> false)
  in
  Alcotest.(check int) "one journal entry per shed"
    (r.Server.r_shed_queue_full + r.Server.r_shed_deadline
   + r.Server.r_shed_timeout)
    sheds;
  Alcotest.(check int) "one journal entry per tier change"
    r.Server.r_tier_changes tiers

(* A prompt too large for the KV budget is shed on arrival, but it says
   nothing about load: an otherwise idle server must not read it as a
   saturated queue and drop into the Nonoverlap tier. *)
let test_oversized_prompt_keeps_tier () =
  let light =
    List.init 12 (fun i ->
        { Trace_gen.rq_id = i; rq_arrival_us = float_of_int i *. 2_000.;
          rq_prompt = 32; rq_decode = 4 })
  in
  let huge =
    { Trace_gen.rq_id = 12; rq_arrival_us = 5_000.; rq_prompt = 4_096;
      rq_decode = 4 }
  in
  let telemetry = Tilelink_obs.Telemetry.create () in
  let r = Server.run ~telemetry (config ()) (light @ [ huge ]) in
  check_invariants "oversized" r;
  Alcotest.(check int) "oversized prompt shed as queue_full" 1
    r.Server.r_shed_queue_full;
  Alcotest.(check int) "light requests all complete" 12 r.Server.r_completed;
  Alcotest.(check int) "no tier change" 0 r.Server.r_tier_changes;
  Alcotest.(check (float 0.)) "no time in nonoverlap" 0.
    (List.assoc "nonoverlap" r.Server.r_tier_us);
  let sheds =
    List.filter
      (fun e ->
        match e.Tilelink_obs.Journal.event with
        | Tilelink_obs.Journal.Request_shed { id; reason } ->
          id = 12 && reason = "queue_full"
        | _ -> false)
      (Tilelink_obs.Journal.entries (Tilelink_obs.Telemetry.journal telemetry))
  in
  Alcotest.(check int) "shed journaled" 1 (List.length sheds)

(* ------------------------------------------------------------------ *)
(* Batcher step costs                                                  *)
(* ------------------------------------------------------------------ *)

module Batcher = Serve.Batcher
module Attention = Tilelink_workloads.Attention
module Attention_baselines = Tilelink_baselines.Attention_baselines
module Runtime = Tilelink_core.Runtime

let head_dim = 8
let tile = 8

(* The batcher's signature, computed independently: batch to the next
   power of two, KV to the (world * tile) lattice. *)
let quantized_spec ~world ~batch ~max_kv =
  let rec pow2 p = if p >= batch then p else pow2 (2 * p) in
  let lattice = world * tile in
  {
    Attention.batch_heads = pow2 1;
    seq = max lattice ((max_kv + lattice - 1) / lattice * lattice);
    head_dim;
    world_size = world;
    causal = false;
  }

let fresh_serialized spec = Attention_baselines.torch_time machine spec

let fresh_overlapped spec =
  let program =
    Attention.program ~config:{ Attention.q_tile = tile; kv_tile = tile } spec
      ~spec_gpu:machine
  in
  (Runtime.run (Cluster.create machine ~world_size:spec.Attention.world_size)
     program)
    .Runtime.makespan

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A batch of [batch] sequences whose longest prompt is [max_kv];
   decodes are long enough that no step completes a request. *)
let batcher_with ~world ~batch ~max_kv =
  let b =
    Batcher.create ~machine ~world_size:world ~head_dim ~kv_capacity:1_000_000 ()
  in
  for i = 0 to batch - 1 do
    Batcher.admit b
      { Trace_gen.rq_id = i; rq_arrival_us = 0.; rq_prompt = max 1 (max_kv - i);
        rq_decode = 100 }
  done;
  b

(* Memoized, quantized step costs are exactly the unmemoized functions
   at the quantized signature.  The longest prompt sits at least three
   tokens below its lattice point, so all four steps keep the signature
   and every second ask must hit the table; a late, longer prompt then
   moves the batch to a new signature, which must not. *)
let qcheck_memoized_costs =
  QCheck.Test.make ~count:12
    ~name:"memoized step costs equal fresh unmemoized runs"
    QCheck.(triple (int_range 2 8) (int_range 1 8) (pair (int_range 1 3) (int_range 1 64)))
    (fun (world, batch, (slots, below)) ->
      let lattice = world * tile in
      let max_kv = (slots * lattice) - 3 - ((below - 1) mod (lattice - 3)) in
      let spec = quantized_spec ~world ~batch ~max_kv in
      let serialized = fresh_serialized spec in
      let overlapped = fresh_overlapped spec in
      let b = batcher_with ~world ~batch ~max_kv in
      let est () = Batcher.est_step_us b ~tier:Degrade.Nonoverlap ~extra:0 in
      let step tier = (Batcher.step b ~tier).Batcher.o_cost_us in
      let e1 = est () in
      let e2 = est () in
      let n1 = step Degrade.Nonoverlap in
      let o1 = step Degrade.Overlapped in
      let o2 = step Degrade.Overlapped in
      let n2 = step Degrade.Nonoverlap in
      Batcher.admit b
        { Trace_gen.rq_id = batch; rq_arrival_us = 0.;
          rq_prompt = (slots * lattice) + 1; rq_decode = 100 };
      let grown =
        fresh_serialized
          (quantized_spec ~world ~batch:(batch + 1)
             ~max_kv:((slots * lattice) + 1))
      in
      let e3 = est () in
      let n3 = step Degrade.Nonoverlap in
      same_bits e1 serialized && same_bits e2 serialized
      && same_bits n1 serialized && same_bits n2 serialized
      && same_bits o1 overlapped && same_bits o2 overlapped
      && same_bits e3 grown && same_bits n3 grown)

(* The world is part of the signature: after a crash step shrinks it,
   a batch whose quantized shape is unchanged (KV 96 on both the 32-
   and the 24-token lattice) is priced afresh at the survivors. *)
let test_crash_reprices_world () =
  let b = batcher_with ~world:4 ~batch:3 ~max_kv:78 in
  let before = quantized_spec ~world:4 ~batch:3 ~max_kv:78 in
  let o4 = (Batcher.step b ~tier:Degrade.Overlapped).Batcher.o_cost_us in
  let n4 = Batcher.est_step_us b ~tier:Degrade.Nonoverlap ~extra:0 in
  Alcotest.(check bool) "world-4 overlapped cost" true
    (same_bits o4 (fresh_overlapped before));
  Alcotest.(check bool) "world-4 serialized cost" true
    (same_bits n4 (fresh_serialized before));
  ignore (Batcher.step ~crash:{ Batcher.ck_seed = 7; ck_ranks = 1 } b
            ~tier:Degrade.Overlapped);
  Alcotest.(check int) "world shrank" 3 (Batcher.world b);
  let after = quantized_spec ~world:3 ~batch:3 ~max_kv:80 in
  Alcotest.(check int) "same quantized KV" before.Attention.seq
    after.Attention.seq;
  let o3 = (Batcher.step b ~tier:Degrade.Overlapped).Batcher.o_cost_us in
  let n3 = (Batcher.step b ~tier:Degrade.Nonoverlap).Batcher.o_cost_us in
  Alcotest.(check bool) "world-3 overlapped cost" true
    (same_bits o3 (fresh_overlapped after));
  Alcotest.(check bool) "world-3 serialized cost" true
    (same_bits n3 (fresh_serialized after));
  Alcotest.(check bool) "repriced, not the world-4 entries" true
    ((not (same_bits o3 o4)) && not (same_bits n3 n4))

let () =
  Alcotest.run "serve"
    [
      ( "trace",
        [
          Alcotest.test_case "seeded determinism" `Quick test_trace_determinism;
          QCheck_alcotest.to_alcotest qcheck_trace_shape;
          Alcotest.test_case "csv parse" `Quick test_trace_parse;
          Alcotest.test_case "csv line endings" `Quick
            test_trace_parse_line_endings;
        ] );
      ( "admission",
        [
          Alcotest.test_case "backpressure" `Quick test_admission_backpressure;
          Alcotest.test_case "deadline shed" `Quick test_admission_deadline;
        ] );
      ( "degrade",
        [ Alcotest.test_case "ladder" `Quick test_degrade_ladder ] );
      ( "conservation",
        [
          QCheck_alcotest.to_alcotest qcheck_conservation;
          QCheck_alcotest.to_alcotest qcheck_conservation_crash;
          Alcotest.test_case "overload sheds" `Quick test_overload_sheds;
          Alcotest.test_case "clean run completes all" `Quick
            test_clean_run_completes_all;
          Alcotest.test_case "rank crash" `Quick test_crash_run;
          Alcotest.test_case "byte determinism" `Quick test_report_determinism;
          Alcotest.test_case "journal events" `Quick test_journal_events;
          Alcotest.test_case "oversized prompt keeps the tier" `Quick
            test_oversized_prompt_keeps_tier;
        ] );
      ( "batcher",
        [
          QCheck_alcotest.to_alcotest qcheck_memoized_costs;
          Alcotest.test_case "crash reprices at the new world" `Quick
            test_crash_reprices_world;
        ] );
    ]
