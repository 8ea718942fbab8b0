(* The parallel execution backend: sequential-vs-parallel bit-identity
   across every shipped workload program and randomized Table-2-style
   specs, the substrate's structured failure modes (deadlock backstop,
   stream exceptions), and the admission guards (chaos rejection,
   analyzer gate).

   Bit-identity is the backend's headline contract: all cross-task
   tensor traffic is ordered by the signal protocol (the analyzer's
   happens-before check guarantees it), and within a task the data
   actions run in program order on both backends, so any
   protocol-respecting schedule must produce the same bits — not just
   the same values up to tolerance. *)

open Tilelink_core
open Tilelink_machine
open Tilelink_tensor
module Backend = Tilelink_exec.Backend
module Suite = Tilelink_workloads.Suite

let machine = Calib.test_machine

(* ------------------------------------------------------------------ *)
(* Bitwise comparison                                                  *)
(* ------------------------------------------------------------------ *)

let tensor_bits_equal a b =
  Shape.equal (Tensor.shape a) (Tensor.shape b)
  &&
  let da = Tensor.data a and db = Tensor.data b in
  let n = Array.length da in
  Array.length db = n
  &&
  let rec go i =
    i >= n
    || Int64.equal (Int64.bits_of_float da.(i)) (Int64.bits_of_float db.(i))
       && go (i + 1)
  in
  go 0

(* Every buffer on every rank, bit for bit. *)
let memories_bits_equal ma mb =
  Memory.world_size ma = Memory.world_size mb
  && List.for_all
       (fun rank ->
         let names = Memory.buffers ma ~rank in
         names = Memory.buffers mb ~rank
         && List.for_all
              (fun name ->
                tensor_bits_equal
                  (Memory.find ma ~rank ~name)
                  (Memory.find mb ~rank ~name))
              names)
       (List.init (Memory.world_size ma) Fun.id)

(* All channel keys the program can touch, for counter cross-checks. *)
let program_keys (program : Program.t) =
  let keys = Hashtbl.create 32 in
  Program.iter_tasks program ~f:(fun ~rank:_ _role task ->
      List.iter
        (fun instr ->
          match instr with
          | Instr.Wait { target; _ } | Instr.Notify { target; _ } ->
            Hashtbl.replace keys (Instr.key_of_target target) ()
          | _ -> ())
        task.Program.instrs);
  Hashtbl.fold (fun k () acc -> k :: acc) keys [] |> List.sort compare

let run_backend ~backend case =
  let memory, program = case () in
  let cluster =
    Cluster.create machine ~world_size:(Program.world_size program)
  in
  let result = Runtime.run ~data:true ~memory ~backend cluster program in
  (memory, result)

let check_case ~domains name case =
  let mem_seq, r_seq = run_backend ~backend:`Sequential case in
  let mem_par, r_par = run_backend ~backend:(`Parallel domains) case in
  Alcotest.(check bool)
    (Printf.sprintf "%s: bit-identical tensors (domains=%d)" name domains)
    true
    (memories_bits_equal mem_seq mem_par);
  Alcotest.(check int)
    (Printf.sprintf "%s: same notify count" name)
    r_seq.Runtime.notifies r_par.Runtime.notifies;
  (* The mirrored channel state must agree counter by counter. *)
  let _, program = case () in
  List.iter
    (fun key ->
      Alcotest.(check (option int))
        (Printf.sprintf "%s: counter %s" name key)
        (Channel.key_value r_seq.Runtime.channels ~key)
        (Channel.key_value r_par.Runtime.channels ~key))
    (program_keys program)

(* ------------------------------------------------------------------ *)
(* All shipped programs                                                *)
(* ------------------------------------------------------------------ *)

let test_suite_bit_identity () =
  let cases = Suite.data_cases () in
  Alcotest.(check int) "all 25 shipped programs" 25 (List.length cases);
  List.iter (fun (name, case) -> check_case ~domains:2 name case) cases

(* A one-domain team is the analyzer's fixpoint run for real: same
   cooperative stream model, zero parallelism — it must agree too. *)
let test_suite_single_domain () =
  let cases = Suite.data_cases () in
  List.iter
    (fun name -> check_case ~domains:1 name (List.assoc name cases))
    [ "mlp_ag_gemm_pull/w2/t2"; "mlp_gemm_rs/w4"; "ring_attention/w2" ]

(* Ring attention on 4 ranks reuses each KV slot every other step and
   updates one flash state per q tile across steps; a missing order
   (a slot refilled while the forwarding copy still reads it, or two
   steps of a tile updating its state at once) shows up only in some
   interleavings, so run the case repeatedly. *)
let test_ring_attention_repeated () =
  let case = List.assoc "ring_attention/w4" (Suite.data_cases ()) in
  for _ = 1 to 20 do
    check_case ~domains:2 "ring_attention/w4" case
  done

(* ------------------------------------------------------------------ *)
(* Randomized Table-2-style specs (QCheck)                             *)
(* ------------------------------------------------------------------ *)

let qcheck_random_specs =
  QCheck.Test.make ~count:12 ~name:"random ag_gemm spec: seq = par bits"
    QCheck.(
      quad (int_range 1 3) (int_range 2 5) (int_range 2 6) (int_range 0 3))
    (fun (mult, k, n, salt) ->
      (* Clamp: QCheck's shrinker can step outside int_range bounds.
         The lattice constraints (comm tile divides the shard, even
         compute tiles) are satisfied by construction. *)
      let mult = max 1 mult and k = max 1 k and n = 2 * max 1 n in
      let salt = abs salt land 3 in
      let world = if salt land 1 = 0 then 2 else 4 in
      let shapes =
        { Tilelink_workloads.Mlp.m = 2 * mult * world; k; n; world_size = world }
      in
      let config =
        {
          Design_space.comm_tile = ((if salt land 2 = 0 then 2 else 2 * mult), 128);
          compute_tile = (2, 2);
          comm_order = Tile.Ring_from_self { segments = world };
          compute_order = Tile.Row_major;
          binding = Design_space.Comm_on_sm 1;
          stages = 1 + (salt land 1);
          micro_block = (if salt land 2 = 0 then 0 else 2);
        }
      in
      let transfer = if salt >= 2 then `Push else `Pull in
      let case () =
        ( Tilelink_workloads.Mlp.ag_gemm_alloc shapes ~seed:(31 + salt),
          Tilelink_workloads.Mlp.ag_gemm_program ~transfer ~config shapes
            ~spec_gpu:machine )
      in
      let mem_seq, _ = run_backend ~backend:`Sequential case in
      let mem_par, _ = run_backend ~backend:(`Parallel 3) case in
      memories_bits_equal mem_seq mem_par)

(* ------------------------------------------------------------------ *)
(* Guards                                                              *)
(* ------------------------------------------------------------------ *)

let test_rejects_chaos () =
  let name, case = List.hd (Suite.data_cases ()) in
  let memory, program = case () in
  let cluster =
    Cluster.create machine ~world_size:(Program.world_size program)
  in
  let chaos = Chaos.control ~schedule:(Chaos.plan ~seed:7 ~world_size:2 ()) () in
  (* The rejection must be the structured Unsupported diagnostic — a
     caller (the CLI) renders backend/feature/reason/hint without a
     backtrace — not a bare Invalid_argument. *)
  match
    Runtime.run ~data:true ~memory ~chaos ~backend:(`Parallel 2) cluster
      program
  with
  | exception Runtime.Unsupported u ->
    Alcotest.(check string)
      (Printf.sprintf "%s: refusing backend" name)
      "parallel" u.Runtime.u_backend;
    Alcotest.(check bool)
      "feature names chaos" true
      (u.Runtime.u_feature = "chaos fault injection");
    Alcotest.(check bool)
      "reason and hint are non-empty" true
      (u.Runtime.u_reason <> "" && u.Runtime.u_hint <> "")
  | exception e ->
    Alcotest.failf "expected Runtime.Unsupported, got %s"
      (Printexc.to_string e)
  | _ -> Alcotest.fail "chaos admitted to the parallel backend"

let test_analyzer_gate () =
  let _, case = List.hd (Suite.data_cases ()) in
  let memory, program = case () in
  (* A statically broken protocol (hoisted wait threshold) must be
     refused before any domain runs. *)
  let broken = Fault.bump_wait_threshold program ~rank:0 ~nth:0 in
  let cluster =
    Cluster.create machine ~world_size:(Program.world_size program)
  in
  match
    Runtime.run ~data:true ~memory ~backend:(`Parallel 2) cluster broken
  with
  | exception Analyzer.Protocol_violation _ -> ()
  | exception e ->
    Alcotest.failf "expected Protocol_violation, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "broken protocol admitted to the parallel backend"

(* ------------------------------------------------------------------ *)
(* Substrate failure modes                                             *)
(* ------------------------------------------------------------------ *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_backend_deadlock_backstop () =
  let team = Backend.shared 2 in
  let c = Backend.counter "pc[0][0]" in
  let starved =
    Backend.stream ~label:"consumer" ~home:0
      [ Backend.Wait { counter = c; threshold = 1 } ]
  in
  match Backend.run team [ starved ] with
  | exception Backend.Deadlock lines ->
    Alcotest.(check int) "one blocked wait" 1 (List.length lines);
    Alcotest.(check bool)
      "names the counter" true
      (List.exists (fun l -> contains_sub l "pc[0][0]") lines)
  | _ -> Alcotest.fail "starved wait did not raise Deadlock"

let test_backend_stream_failure () =
  let team = Backend.shared 2 in
  let boom =
    Backend.stream ~label:"worker" ~home:1
      [ Backend.Exec { label = "explode"; run = (fun () -> failwith "kaboom") } ]
  in
  match Backend.run team [ boom ] with
  | exception Backend.Stream_failure (where, Failure msg) ->
    Alcotest.(check string) "payload" "kaboom" msg;
    Alcotest.(check bool)
      "names the op and stream" true
      (String.length where > 0)
  | _ -> Alcotest.fail "raising exec did not raise Stream_failure"

let () =
  Alcotest.run "parallel"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "all shipped programs (2 domains)" `Quick
            test_suite_bit_identity;
          Alcotest.test_case "single-domain team" `Quick
            test_suite_single_domain;
          Alcotest.test_case "ring attention, repeated" `Quick
            test_ring_attention_repeated;
          QCheck_alcotest.to_alcotest qcheck_random_specs;
        ] );
      ( "guards",
        [
          Alcotest.test_case "rejects chaos" `Quick test_rejects_chaos;
          Alcotest.test_case "analyzer gate" `Quick test_analyzer_gate;
        ] );
      ( "substrate",
        [
          Alcotest.test_case "deadlock backstop" `Quick
            test_backend_deadlock_backstop;
          Alcotest.test_case "stream failure" `Quick
            test_backend_stream_failure;
        ] );
    ]
