(* Tests for dense signal slots: the slot layout round-trips every
   target of every shipped program, channel accessors reject
   out-of-range arguments with structured errors, tile labels match
   their Printf rendering, and the text formatted from slots (analyzer
   diagnostics, deadlock enrichment, chaos stalls, telemetry keys) is
   byte-identical to golden strings recorded before signal targets were
   interned as slots. *)

open Tilelink_core
open Tilelink_workloads

(* ------------------------------------------------------------------ *)
(* Slot layout                                                         *)
(* ------------------------------------------------------------------ *)

let program_targets (p : Program.t) =
  Program.fold_tasks p ~init:[] ~f:(fun acc ~rank:_ _role task ->
      List.fold_left
        (fun acc -> function
          | Instr.Wait { target; _ } | Instr.Notify { target; _ } ->
            target :: acc
          | _ -> acc)
        acc task.Program.instrs)
  |> List.sort_uniq compare

let test_layout_round_trip () =
  List.iter
    (fun (name, program) ->
      let layout = Slot.of_program program in
      let size = Slot.size layout in
      let seen = Hashtbl.create 64 in
      List.iter
        (fun target ->
          let slot = Slot.of_target ~op:"test" layout target in
          let key = Instr.key_of_target target in
          if slot < 0 || slot >= size then
            Alcotest.failf "%s: %s slot %d outside [0, %d)" name key slot size;
          (match Hashtbl.find_opt seen slot with
          | Some other ->
            Alcotest.failf "%s: %s and %s share slot %d" name key other slot
          | None -> Hashtbl.add seen slot key);
          Alcotest.(check string) (name ^ ": slot key") key (Slot.key layout slot);
          Alcotest.(check bool) (name ^ ": slot target") true
            (Slot.target layout slot = target);
          Alcotest.(check (option int)) (name ^ ": key parses back") (Some slot)
            (Slot.of_key layout key);
          let kind, owner, channel = Chaos.parse_key key in
          let expected_kind =
            match target with
            | Instr.Pc _ -> "pc"
            | Instr.Peer _ -> "peer"
            | Instr.Host _ -> "host"
          in
          Alcotest.(check string) (name ^ ": kind") expected_kind kind;
          Alcotest.(check int) (name ^ ": owner")
            (Instr.producer_of_target target) owner;
          Alcotest.(check (option int)) (name ^ ": channel")
            (Instr.channel_of_target target) channel)
        (program_targets program))
    (Suite.programs ())

(* Every slot of a small layout, including the ones no program uses:
   the formula is a bijection onto [0, size) in pc, peer, host order. *)
let test_layout_bijection () =
  let layout = Slot.layout ~world_size:3 ~pc_channels:2 ~peer_channels:4 in
  Alcotest.(check int) "size = W*P + W^2*Q + W^2" (6 + 36 + 9)
    (Slot.size layout);
  for slot = 0 to Slot.size layout - 1 do
    let target = Slot.target layout slot in
    Alcotest.(check int) "round trip" slot
      (Slot.of_target ~op:"test" layout target);
    let expected_kind =
      if slot < 6 then "pc" else if slot < 42 then "peer" else "host"
    in
    let kind, _, _ = Chaos.parse_key (Slot.key layout slot) in
    Alcotest.(check string) "block order" expected_kind kind
  done;
  Alcotest.(check (option int)) "non-canonical key" None
    (Slot.of_key layout "pc[01][1]");
  Alcotest.(check (option int)) "trailing text" None
    (Slot.of_key layout "pc[0][1]x");
  Alcotest.(check (option int)) "outside the layout" None
    (Slot.of_key layout "pc[3][0]")

let test_names_memoised () =
  let layout = Slot.layout ~world_size:2 ~pc_channels:2 ~peer_channels:1 in
  let names = Slot.names layout in
  let first = Slot.name names 5 in
  Alcotest.(check string) "matches key" (Slot.key layout 5) first;
  Alcotest.(check bool) "formatted once" true (Slot.name names 5 == first)

(* ------------------------------------------------------------------ *)
(* Channel accessors range-check every argument                        *)
(* ------------------------------------------------------------------ *)

let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f

let test_channel_ranges () =
  let c = Channel.create ~world_size:2 ~channels_per_rank:3 ~peer_channels:2 () in
  let notify_pc ~rank ~channel () =
    Channel.pc_notify c ~rank ~channel ~amount:1
  in
  raises "Channel.pc_notify: rank 2 out of range" (notify_pc ~rank:2 ~channel:0);
  raises "Channel.pc_notify: channel 3 out of range" (notify_pc ~rank:0 ~channel:3);
  raises "Channel.pc_wait: rank -1 out of range" (fun () ->
      Channel.pc_wait c ~rank:(-1) ~channel:0 ~threshold:0);
  raises "Channel.pc_value: channel -1 out of range" (fun () ->
      ignore (Channel.pc_value c ~rank:0 ~channel:(-1)));
  raises "Channel.peer_notify: src rank 5 out of range" (fun () ->
      Channel.peer_notify c ~src:5 ~dst:0 ~amount:1 ());
  raises "Channel.peer_notify: peer channel 2 out of range" (fun () ->
      Channel.peer_notify c ~src:0 ~dst:1 ~channel:2 ~amount:1 ());
  raises "Channel.peer_wait: dst rank 2 out of range" (fun () ->
      Channel.peer_wait c ~src:0 ~dst:2 ~threshold:0 ());
  raises "Channel.peer_wait: peer channel -1 out of range" (fun () ->
      Channel.peer_wait c ~src:0 ~dst:1 ~channel:(-1) ~threshold:0 ());
  raises "Channel.peer_value: src rank 3 out of range" (fun () ->
      ignore (Channel.peer_value c ~src:3 ~dst:0 ()));
  raises "Channel.peer_value: dst rank -2 out of range" (fun () ->
      ignore (Channel.peer_value c ~src:0 ~dst:(-2) ()));
  raises "Channel.peer_value: peer channel 7 out of range" (fun () ->
      ignore (Channel.peer_value c ~src:0 ~dst:1 ~channel:7 ()));
  raises "Channel.host_notify: dst rank 4 out of range" (fun () ->
      Channel.host_notify c ~src:0 ~dst:4 ~amount:1);
  raises "Channel.host_wait: src rank 2 out of range" (fun () ->
      Channel.host_wait c ~src:2 ~dst:0 ~threshold:0);
  raises "Channel.cancel_rank_waits: rank 2 out of range" (fun () ->
      ignore (Channel.cancel_rank_waits c ~rank:2));
  (* In-range peer channels beyond 0 stay independent. *)
  Channel.peer_notify c ~src:0 ~dst:1 ~channel:1 ~amount:2 ();
  Alcotest.(check int) "channel 1 set" 2
    (Channel.peer_value c ~src:0 ~dst:1 ~channel:1 ());
  Alcotest.(check int) "channel 0 untouched" 0
    (Channel.peer_value c ~src:0 ~dst:1 ())

let test_channel_keys_and_aliases () =
  let c = Channel.create ~world_size:2 ~channels_per_rank:2 ~peer_channels:2 () in
  Channel.peer_notify c ~src:1 ~dst:0 ~channel:1 ~amount:3 ();
  Alcotest.(check (option int)) "peer key" (Some 3)
    (Channel.key_value c ~key:"peer[0<-1][1]");
  Alcotest.(check int) "intended" 3 (Channel.intended_value c ~key:"peer[0<-1][1]");
  Alcotest.(check (option int)) "unknown key" None
    (Channel.key_value c ~key:"pc[9][9]");
  Channel.register_remap c ~key:"pc[1][0]" ~alias:"pc[0][2]";
  Channel.force_signal c ~key:"pc[0][2]" ~target:4;
  Alcotest.(check int) "alias reaches the original counter" 4
    (Channel.pc_value c ~rank:1 ~channel:0);
  raises "Channel.force_signal: unknown key host[5<-0]" (fun () ->
      Channel.force_signal c ~key:"host[5<-0]" ~target:1)

(* ------------------------------------------------------------------ *)
(* Tile labels                                                         *)
(* ------------------------------------------------------------------ *)

let test_labels_match_printf =
  QCheck.Test.make ~count:500 ~name:"labels match Printf"
    QCheck.(triple int int small_nat)
    (fun (a, b, c) ->
      Label.int1 "ag[" a "]" = Printf.sprintf "ag[%d]" a
      && Label.int2 "reduce[s" a "," b "]" = Printf.sprintf "reduce[s%d,%d]" a b
      && Label.int3 "gemm[" a "," b "]k" c "" = Printf.sprintf "gemm[%d,%d]k%d" a b c
      && Label.int1 "" c "" = string_of_int c)

(* ------------------------------------------------------------------ *)
(* Golden strings                                                      *)
(* ------------------------------------------------------------------ *)

let golden_corpus =
  {golden|dropped_notify
ag_gemm+fault: keys=16 notifies=15 waits=512
[error] unmatched_wait pc[0][2]: rank 0 gemm/gemm[8,0] waits pc[0][2] >= 1 but producers only ever signal 0 (32 waits affected)
(1 lines, md5 008312f65a2aa9fc9da864547a056a6e)
swapped_rank
ag_gemm+fault: keys=16 notifies=16 waits=512
[error] epoch_reuse pc[1][3]: pc[1][3] is signalled to 2 but the highest of its 32 registered waiter thresholds is 1: the key is re-signalled past every registered waiter's epoch
[error] unmatched_wait pc[0][3]: rank 0 gemm/gemm[12,0] waits pc[0][3] >= 1 but producers only ever signal 0 (32 waits affected)
(2 lines, md5 7074e6fd834859d223fbbf3ca392b642)
wait_epoch_off_by_one
ag_gemm+fault: keys=16 notifies=16 waits=512
[error] unmatched_wait pc[0][0]: rank 0 gemm/gemm[2,4] waits pc[0][0] >= 2 but producers only ever signal 1
(1 lines, md5 a1afefd610874b0725a457f598fdac46)
notify_epoch_off_by_one
ag_gemm+fault: keys=16 notifies=16 waits=512
[error] epoch_reuse pc[1][2]: pc[1][2] is signalled to 2 but the highest of its 32 registered waiter thresholds is 1: the key is re-signalled past every registered waiter's epoch
(1 lines, md5 fd167f141f8ac1e6bb466472d6a862ea)
unsafe_hoist
ag_gemm+unsafe_hoist: keys=16 notifies=16 waits=512
[error] data_race pc[0][0]: rank 0 gemm/gemm[0,0] instr 0 (load x_full[0:128,512:1024]) reads before the acquire wait on pc[0][0] (instr 4): data race with the producing rank 0
[error] data_race pc[0][0]: rank 0 gemm/gemm[0,0] instr 2 (load x_full[0:128,0:512]) reads before the acquire wait on pc[0][0] (instr 4): data race with the producing rank 0
(1024 lines, md5 dec02d10fa2c43ca4ab3663dd586b6b8)
peer_cycle: keys=2 notifies=2 waits=2
[error] deadlock_cycle peer[0<-1][1]: circular wait among 2 task streams (threshold 1): rank 0 ring/step waits peer[0<-1][1] >= 1 -> rank 1 ring/step waits peer[1<-0][1] >= 1 -> back to rank 0
(1 lines, md5 bfe9c83c32e863ddd62772301fb890ed)
host_cycle: keys=2 notifies=2 waits=2
[error] deadlock_cycle host[0<-1]: circular wait among 2 task streams (threshold 1): rank 0 ring/step waits host[0<-1] >= 1 -> rank 1 ring/step waits host[1<-0] >= 1 -> back to rank 0
(1 lines, md5 ad166e60041a5a8cbf833e5a7d7fddac)|golden}

let golden_deadlock =
  {golden|simulation deadlock: 4 process(es) still blocked at t=26.416
pending waiters (3):
  rank 1 waits pc[1][2] >= 1 (since t=2.0)
  rank 1 waits pc[1][2] >= 1 (since t=2.0)
  rank 1 waits pc[1][2] >= 1 (since t=2.0)
recent journal events:
  t=23.4 wait_end pc[2][3] rank=2 >=1 (began t=23.4)
  t=23.4 wait_begin pc[3][5] rank=3 >=1
  t=23.4 wait_end pc[3][5] rank=3 >=1 (began t=23.4)
  t=23.4 wait_begin pc[3][5] rank=3 >=1
  t=23.4 wait_end pc[3][5] rank=3 >=1 (began t=23.4)
  t=23.4 wait_begin pc[3][5] rank=3 >=1
  t=23.4 wait_end pc[3][5] rank=3 >=1 (began t=23.4)
  t=26.4 deadlock blocked=4 simulation deadlock: 4 process(es) still blocked at t=26.416|golden}

let golden_stall =
  {golden|stalled wait on pc[1][2] (pc signal produced by rank 1 channel/tile 2): waiter rank 1 needs >= 1, value 0, intended 0; blocked since t=2.0, detected t=22.0; waiters-for: [rank 1 waits pc[1][2] >= 1; rank 1 waits pc[1][2] >= 1; rank 1 waits pc[1][2] >= 1]|golden}

(* The two ring_attention lines were recorded after its protocol
   gained the slot-release and step-order signals that make it
   race-free on the parallel backend (more signals, so more spans and
   journal events).  The two moe_part2 lines were re-recorded when its
   ring stage became the shared [Ring_rs] consumer: they are the
   earlier renderings with the compute label "rs-red[" replaced by
   "reduce[", so the label is the only change.  Every other line
   predates slots. *)
let golden_telemetry =
  {golden|mlp_ag_gemm_pull/w2/t2 (275 lines, md5 d679e8cce3a074d2e7d449c33705fd8d)
mlp_ag_gemm_push/w2/t2 (275 lines, md5 f6759493b54800e7e6cc1b1b85586077)
mlp_ag_gemm_pull/w2/t4 (247 lines, md5 88b98a7e6b3d252f4a50e5249addc8df)
mlp_ag_gemm_push/w2/t4 (247 lines, md5 c781504ba08698258754be29ea6f8ffd)
mlp_ag_gemm_pull/w4/t2 (1049 lines, md5 8494a513016b78596ad0a2ef52e9e0bd)
mlp_ag_gemm_push/w4/t2 (1085 lines, md5 67fb0212b5c8733b1f11bdc8a632ffac)
mlp_ag_gemm_pull/w4/t4 (929 lines, md5 66507c0faa6f1ffab081c658ad11c55b)
mlp_ag_gemm_push/w4/t4 (929 lines, md5 1a0de310190b1dd0acbeafe4de5f3a66)
mlp_ag_gemm_pull/w8/t2 (4177 lines, md5 24ee47d1c8ecf8cd9c0a6cae2413b819)
mlp_ag_gemm_push/w8/t2 (4207 lines, md5 46e7b153d5ea021204d17cc8d1720842)
mlp_ag_gemm_pull/w8/t4 (3639 lines, md5 805a230d9b80287067f4277e4d3f37c1)
mlp_ag_gemm_push/w8/t4 (3663 lines, md5 0cbf92df1a97b12a2c52d9be31a7ef05)
mlp_gemm_rs/w2 (172 lines, md5 506b9323eccafc817d022b40d6f5052e)
mlp_gemm_rs/w4 (716 lines, md5 f047c8df83624e413f4a345addcba558)
moe_part1/w2 (122 lines, md5 0bc1f1626fdccfc311cae0fd3e955f02)
moe_part2/w2 (199 lines, md5 ca2701ac46963b45733d3bf3fe6a11a2)
moe_part1/w4 (442 lines, md5 f9125865e62d089ca5b5c1cce017e073)
moe_part2/w4 (787 lines, md5 9e7d97e47d2ac9cb70799119765411f0)
attention/w2 (153 lines, md5 e8c5e0a0981cf0d586f922ee509c0f5a)
ring_attention/w2 (155 lines, md5 d08d7fae6eaf55baf9e165b46aedc219)
attention/w4 (533 lines, md5 83fb854c79ab4047abe0172f1ca70d3a)
ring_attention/w4 (693 lines, md5 f37d1d004b549adf41dffa1ec2ab751f)
attention_causal/w2 (153 lines, md5 e8c5e0a0981cf0d586f922ee509c0f5a)
ep_moe/w2 (298 lines, md5 9e248a625d63362a77d3defd183b8772)
ep_moe/w4 (726 lines, md5 83663fd56e8f0e3bd8be2a82bdd46249)|golden}

let golden_chaos =
  {golden|completed 33.284
retries=1 replayed=3 remapped=3
(580 lines, md5 cc126e8714b1cf24323eb331d3050533)|golden}

let golden name expected render () =
  Alcotest.(check string) name expected (render ())

let () =
  Alcotest.run "slots"
    [
      ( "layout",
        [
          Alcotest.test_case "suite round trip" `Quick test_layout_round_trip;
          Alcotest.test_case "bijection" `Quick test_layout_bijection;
          Alcotest.test_case "names memoised" `Quick test_names_memoised;
        ] );
      ( "channel",
        [
          Alcotest.test_case "out-of-range arguments" `Quick test_channel_ranges;
          Alcotest.test_case "keys and aliases" `Quick
            test_channel_keys_and_aliases;
        ] );
      ("labels", [ QCheck_alcotest.to_alcotest test_labels_match_printf ]);
      ( "golden",
        [
          Alcotest.test_case "mutation corpus diagnostics" `Quick
            (golden "corpus" golden_corpus Golden_cases.corpus_diagnostics);
          Alcotest.test_case "deadlock enrichment" `Quick
            (golden "deadlock" golden_deadlock Golden_cases.deadlock_message);
          Alcotest.test_case "chaos stall" `Quick
            (golden "stall" golden_stall Golden_cases.stall_message);
          Alcotest.test_case "telemetry keys" `Quick
            (golden "telemetry" golden_telemetry Golden_cases.telemetry_keys);
          Alcotest.test_case "chaos telemetry" `Quick
            (golden "chaos" golden_chaos Golden_cases.chaos_telemetry);
        ] );
    ]
