(* Allocation ceilings on the build -> analyze -> simulate path.

   On one domain the number of words a computation allocates on the
   minor heap repeats exactly, so these ceilings are deterministic.
   They hold the @dev-check profile shape (AG+GEMM, 4 ranks,
   2048x1024x1024 on H800-sim) to the allocation rates measured once
   signal targets became dense slots and tile labels stopped going
   through Printf, plus 5% slack.  A per-tile Printf or a string-keyed
   signal table that comes back pushes a rate past its ceiling.

   Measured rates (words per instruction for build and analyzer, per
   DES event for the simulation), before -> after the slot change:
   build 85.3 -> 60.3, Analyzer.check 28.5 -> 10.5, Runtime.run 86.6
   -> 78.0. *)

open Tilelink_core
open Tilelink_machine

let slack = 1.05
let build_ceiling = 60.26 *. slack
let analyzer_ceiling = 10.51 *. slack
let runtime_ceiling = 78.01 *. slack

let minor_words f =
  let before = Gc.minor_words () in
  let result = f () in
  (result, Gc.minor_words () -. before)

let check_rate name ~ceiling rate =
  if rate > ceiling then
    Alcotest.failf "%s allocates %.3f words per unit, ceiling %.3f" name rate
      ceiling

let test_ceilings () =
  let build = Golden_cases.dev_check_program in
  (* Warm-up: module-level tables are built on first use. *)
  ignore (Analyzer.check (build ()));
  let program, build_words = minor_words build in
  let instrs = float_of_int (Program.instr_count program) in
  let _, analyzer_words = minor_words (fun () -> Analyzer.check program) in
  let cluster = Cluster.create Calib.h800 ~world_size:4 in
  let _, run_words = minor_words (fun () -> Runtime.run cluster program) in
  let events =
    float_of_int
      (Tilelink_sim.Engine.executed_events (Cluster.engine cluster))
  in
  check_rate "program build" ~ceiling:build_ceiling (build_words /. instrs);
  check_rate "Analyzer.check" ~ceiling:analyzer_ceiling
    (analyzer_words /. instrs);
  check_rate "Runtime.run" ~ceiling:runtime_ceiling (run_words /. events)

let () =
  Alcotest.run "alloc"
    [
      ( "ceilings",
        [ Alcotest.test_case "dev-check AG+GEMM" `Quick test_ceilings ] );
    ]
