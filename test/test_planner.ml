(* The auto-overlap planner: synthesized Pc protocols must reproduce
   the hand-written AllGather+GEMM kernel they replaced, survive the
   analyzer, match the reference bits on both backends, and extend to
   operator graphs no hand-written kernel covers. *)

open Tilelink_core
open Tilelink_tensor
open Tilelink_machine
open Tilelink_workloads

let spec_gpu = Calib.test_machine
let make_cluster world () = Cluster.create spec_gpu ~world_size:world

let ring world = Tile.Ring_from_self { segments = world }

(* The sweep design point the hand-written bench suite uses. *)
let suite_config ~world ~comm_tm =
  {
    Design_space.comm_tile = (comm_tm, 128);
    compute_tile = (2, 2);
    comm_order = ring world;
    compute_order = ring world;
    binding = Design_space.Comm_on_sm 1;
    stages = 2;
    micro_block = 0;
  }

let candidate ?(transfer = Planner.Pull) ?(chunks = 2) config =
  { Planner.pl_config = config; pl_transfer = transfer; pl_chunks = chunks }

let exact_equal msg expected actual =
  Alcotest.(check bool)
    (msg ^ " bit-identical")
    true
    (Tensor.shape expected = Tensor.shape actual
    && Tensor.data expected = Tensor.data actual)

let run_data ?backend ~memory ~world program =
  let cluster = Cluster.create spec_gpu ~world_size:world in
  Runtime.run ~data:true ~memory ?backend cluster program

(* ------------------------------------------------------------------ *)
(* Synthesis reproduces the hand-written kernel                        *)
(* ------------------------------------------------------------------ *)

(* [Golden_cases.ag_gemm_pin] as rendered by the hand-written
   AllGather+GEMM builder that [Mlp.ag_gemm_program] replaced: the
   planner at the same design points must emit the same listings, roles
   and task labels. *)
let golden_ag_gemm_pin =
  {golden|mlp_ag_gemm_pull/w2/t2 listing c25a195439f02014563e1ead4ff7dd4d tasks 3c78d93fa36213967394429b0051e3bd
mlp_ag_gemm_push/w2/t2 listing bb1e9789115df111cafbe824a3b2ef9a tasks 7e9e3f23d344befeed0be34da7313f9f
mlp_ag_gemm_pull/w2/t4 listing a34beecac9f3fa60915d59b328856471 tasks 65db29b0572d25cbfff141b7a842c70b
mlp_ag_gemm_push/w2/t4 listing 574e45158eb99b03e52db29d67f7e008 tasks 9f8e3ff4a854a665ff9c04f3c4398ab3
mlp_ag_gemm_pull/w4/t2 listing 1484e78326371da5bd507f04731b3e94 tasks c50d3314759fafeca8ddeef604c3dc50
mlp_ag_gemm_push/w4/t2 listing 6d71aa2aad4a8ece8cd1d5e017168383 tasks 1a409f21d62793a672ed03cb7e799d47
mlp_ag_gemm_pull/w4/t4 listing d0e574873255ec2d72e2244d76a58a6b tasks 753708b588f8f32d4644f1d5eff45564
mlp_ag_gemm_push/w4/t4 listing d238d1caea194be857e9d9595a5edc4e tasks 92f8a347fa56e2abedecc83ae6569422
mlp_ag_gemm_pull/w8/t2 listing dc5bb99a73ff94f017c8833aad377bd4 tasks 8ce65fdbe4a462dc3bf231584c3aaa9f
mlp_ag_gemm_push/w8/t2 listing 0a5e7a6ca527b7de6618eb084a73cc38 tasks f69f0e417fa7b75978cc7401051483bd
mlp_ag_gemm_pull/w8/t4 listing 2e66093267f797dfcea05982d4bd74bc tasks 188036c5cd8f7f24aa455d8c28e8ab9c
mlp_ag_gemm_push/w8/t4 listing 7c478c14f18fcb1eb4309febba591b2a tasks 45949418c61d740a2ad23fb6de67b75b
tuned0/pull listing f8072e17a24eacf77653256ccda6af12 tasks d2cfe3aa4f1743014c083ec4df65b527
tuned0/push listing d4a53d777802d4a7c74f38d6420b8288 tasks 5eb40eb7850c38ac8bb2510d2e129a64
tuned1/pull listing 4a12676b51e31083a1acc3cbeed7e7c1 tasks 29b0893e1ca2176f7abcdd64d8bbcb9a
tuned1/push listing cc9d253486fac25ff1644114ccb60302 tasks d65dce2dd789bd193e98b154bbd058ac
tuned2/pull listing 978c3bb9481ca4a1cc7348b9bf85e018 tasks 3f7114f167fd23a403f9124db6ec4348
tuned2/push listing 88a2872829334fb168f643032b72a79d tasks d8618ba701ab6194025ffe284f23ca11
tuned3/pull listing 01ff510fe72fafa4bb70f40e2f887c43 tasks 0a1d9d336dfd219507c2aae34a7da252
tuned3/push listing f9f0274af00b45329236d291198333f4 tasks 520266b438d2aec3cd57b7fb6711d5a1
tuned4/pull listing d2359106dc4054bb4df1d86dab8574be tasks 72c723ef54f2402f6f38bf733280c62b
tuned4/push listing 4005db5a0e8914d1edf59eb08bd21b45 tasks b1cdedfbc29d84bf1b191208e9c8c0df
tuned5/pull listing 9c9dda38733429fbae3295df1c31aea2 tasks 24b77a00be247e15c0541ec6d3ef5119
tuned5/push listing 5205cbc69cb4ec7569e8ad56db6ec506 tasks aee2043aa966d48373d295ad37680e42
tuned6/pull listing 8956a8e81326dc546d541418687c9871 tasks cbddc578b8f1582a6e75a4cf5cef39f3
tuned6/push listing 5140e997c7958122f19f7b99b4743a3b tasks 202435c0ec21f6a3cc154cec626e0b50
tuned7/pull listing 973e5fdc1e033dc3239e743c4862404f tasks 7ce783246753e143f022daa5f82c1b22
tuned7/push listing 4185545d7256e8838ca062d096493e9f tasks 5dd6506edf022444e40efb62633c2b40
tuned8/pull listing df53b5f01219b3520bf3868b9da797a5 tasks b9764794657e191fbe73e8e8d853f438
tuned8/push listing 66fff7add1e56617faa8b6c450a2624f tasks 7b999196da7e42187b1041fe2ea5dfe4
world1 listing 6506216822a0ae6583553a002d5193f1 tasks 976781616c7289de869654bdad249b5c
k1/hybrid/stages3 listing a522b0afbb049db428dca3bdcfe3e7b8 tasks 58c2bacae5a45c15bbe8845a7299857e
k3/push/hybrid/stages1 listing 441fb712568191094738996fa8c4dca8 tasks 0122fd67c79b1844f8ca7d05eaf61c32|golden}

let mlp_spec = { Mlp.m = 8; k = 4; n = 6; world_size = 2 }

let test_synthesize_matches_handwritten () =
  Alcotest.(check string)
    "listings and labels match the hand-written builder" golden_ag_gemm_pin
    (Golden_cases.ag_gemm_pin ());
  let graph = Mlp.ag_gemm_graph mlp_spec in
  List.iter
    (fun transfer ->
      let config = suite_config ~world:2 ~comm_tm:2 in
      let planned =
        Planner.synthesize graph (candidate ~transfer config) ~spec_gpu
      in
      (match Analyzer.check planned with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "synthesized program failed the analyzer");
      let memory = Mlp.ag_gemm_alloc mlp_spec ~seed:11 in
      ignore (run_data ~memory ~world:2 planned);
      for rank = 0 to 1 do
        exact_equal
          (Printf.sprintf "%s rank %d vs reference"
             (Planner.transfer_to_string transfer) rank)
          (Mlp.ag_gemm_reference memory mlp_spec ~rank)
          (Memory.find memory ~rank ~name:"y")
      done)
    [ Planner.Pull; Planner.Push ]

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let small_candidates ~world ~shard_rows =
  let tiles = List.filter (fun t -> shard_rows mod t = 0) [ 2; shard_rows ] in
  List.concat_map
    (fun comm_tm ->
      List.concat_map
        (fun transfer ->
          List.map
            (fun chunks ->
              candidate ~transfer ~chunks (suite_config ~world ~comm_tm))
            [ 1; 2 ])
        [ Planner.Pull; Planner.Push ])
    (List.sort_uniq compare tiles)

let test_search_picks_analyzer_clean_winner () =
  let graph = Mlp.ag_gemm_graph mlp_spec in
  let candidates =
    (* One deliberately infeasible point: comm tile 3 does not divide
       the 4-row shard, so the planner must count a skipped build. *)
    candidate (suite_config ~world:2 ~comm_tm:3)
    :: small_candidates ~world:2 ~shard_rows:4
  in
  match
    Planner.search ~candidates graph ~spec_gpu ~make_cluster:(make_cluster 2)
      ()
  with
  | None -> Alcotest.fail "search returned no plan"
  | Some plan ->
    Alcotest.(check int)
      "infeasible candidate skipped at build" 1
      plan.Planner.p_outcome.Tune.skipped_build;
    Alcotest.(check int)
      "no analyzer rejections in this space" 0
      plan.Planner.p_outcome.Tune.skipped_race;
    (match Analyzer.check plan.Planner.p_program with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "winner failed the analyzer");
    (* The winner is the makespan minimum over every evaluation. *)
    List.iter
      (fun e ->
        Alcotest.(check bool) "winner is minimal" true
          (plan.Planner.p_time <= e.Tune.time))
      plan.Planner.p_outcome.Tune.evaluated

let test_search_deterministic () =
  let graph = Mlp.ag_gemm_graph mlp_spec in
  let candidates = small_candidates ~world:2 ~shard_rows:4 in
  let run ?pool () =
    match
      Planner.search ?pool ~candidates graph ~spec_gpu
        ~make_cluster:(make_cluster 2) ()
    with
    | None -> Alcotest.fail "search returned no plan"
    | Some plan -> plan
  in
  let a = run () in
  let pool = Tilelink_exec.Pool.create ~domains:2 () in
  let b = run ~pool () in
  Alcotest.(check string)
    "same winner across pool widths"
    (Planner.fingerprint a.Planner.p_candidate)
    (Planner.fingerprint b.Planner.p_candidate);
  Alcotest.(check (float 0.0)) "same makespan" a.Planner.p_time b.Planner.p_time

(* ------------------------------------------------------------------ *)
(* Randomized specs: planner winner == reference, both backends        *)
(* ------------------------------------------------------------------ *)

let qcheck_planner_matches_reference =
  QCheck.Test.make ~count:6
    ~name:"random specs: planner winner analyzer-clean, bits = reference, seq = par"
    QCheck.(triple (int_range 1 3) (int_range 2 5) (int_range 2 6))
    (fun (shard_tiles, k, n) ->
      let world = 2 + (shard_tiles mod 2) * 2 in
      (* world in {2, 4} *)
      let shard_rows = 2 * shard_tiles in
      let spec =
        { Mlp.m = world * shard_rows; k; n; world_size = world }
      in
      let graph = Mlp.ag_gemm_graph spec in
      let candidates = small_candidates ~world ~shard_rows in
      match
        Planner.search ~candidates graph ~spec_gpu
          ~make_cluster:(make_cluster world) ()
      with
      | None -> QCheck.Test.fail_report "no plan"
      | Some plan ->
        (match Analyzer.check plan.Planner.p_program with
        | Ok () -> ()
        | Error _ -> QCheck.Test.fail_report "winner failed the analyzer");
        let outputs backend =
          let memory = Mlp.ag_gemm_alloc spec ~seed:23 in
          ignore (run_data ~backend ~memory ~world plan.Planner.p_program);
          List.init world (fun rank ->
              let y = Tensor.data (Memory.find memory ~rank ~name:"y") in
              (y, Tensor.data (Mlp.ag_gemm_reference memory spec ~rank)))
        in
        let seq = outputs `Sequential and par = outputs (`Parallel 2) in
        List.for_all (fun (y, reference) -> y = reference) seq
        && List.map fst seq = List.map fst par)

(* ------------------------------------------------------------------ *)
(* Novel graphs: no hand-written counterpart                           *)
(* ------------------------------------------------------------------ *)

let test_softmax_graph () =
  let m = 8 and k = 5 and world = 2 in
  let graph = Planned.softmax_graph ~m ~k ~world in
  match
    Planner.search
      ~candidates:(small_candidates ~world ~shard_rows:(m / world))
      graph ~spec_gpu ~make_cluster:(make_cluster world) ()
  with
  | None -> Alcotest.fail "search returned no plan"
  | Some plan ->
    let memory = Planned.softmax_alloc ~m ~k ~world ~seed:7 in
    ignore (run_data ~memory ~world plan.Planner.p_program);
    let expected = Planned.softmax_reference memory ~m ~world in
    for rank = 0 to world - 1 do
      exact_equal
        (Printf.sprintf "softmax rank %d" rank)
        expected
        (Memory.find memory ~rank ~name:"p")
    done

let test_fused_graph_zero_manual_protocol () =
  let spec = { Mlp.m = 8; k = 4; n = 6; world_size = 2 } in
  let graph = Planned.fused_graph spec in
  match
    Planner.search ~candidates:(small_candidates ~world:2 ~shard_rows:4) graph
      ~spec_gpu ~make_cluster:(make_cluster 2) ()
  with
  | None -> Alcotest.fail "search returned no plan"
  | Some plan ->
    (match Analyzer.check plan.Planner.p_program with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "fused winner failed the analyzer");
    let memory = Planned.fused_alloc spec ~seed:13 in
    ignore (run_data ~memory ~world:2 plan.Planner.p_program);
    let softmax_expected = Planned.fused_softmax_reference memory spec in
    for rank = 0 to 1 do
      exact_equal
        (Printf.sprintf "fused gemm rank %d" rank)
        (Planned.fused_gemm_reference memory spec ~rank)
        (Memory.find memory ~rank ~name:"y");
      exact_equal
        (Printf.sprintf "fused softmax rank %d" rank)
        softmax_expected
        (Memory.find memory ~rank ~name:"p")
    done

let test_moe_graph () =
  let m = 8 and k = 4 and n = 5 and world = 2 in
  let graph = Planned.moe_graph ~m ~k ~n ~world in
  match
    Planner.search
      ~candidates:(small_candidates ~world ~shard_rows:(m / world))
      graph ~spec_gpu ~make_cluster:(make_cluster world) ()
  with
  | None -> Alcotest.fail "search returned no plan"
  | Some plan ->
    let memory = Planned.moe_alloc ~m ~k ~n ~world ~seed:19 in
    ignore (run_data ~memory ~world plan.Planner.p_program);
    for rank = 0 to world - 1 do
      List.iter
        (fun (weights, out) ->
          exact_equal
            (Printf.sprintf "%s rank %d" out rank)
            (Planned.moe_reference memory ~weights ~rank)
            (Memory.find memory ~rank ~name:out))
        [ ("w_gate", "h_gate"); ("w_up", "h_up") ]
    done

(* ------------------------------------------------------------------ *)
(* Space enumeration                                                   *)
(* ------------------------------------------------------------------ *)

let test_default_space () =
  let graph = Mlp.ag_gemm_graph { Mlp.m = 256; k = 64; n = 48; world_size = 8 } in
  let space = Planner.default_space graph in
  let candidates = Planner.enumerate space in
  Alcotest.(check int) "size agrees" (Planner.size space)
    (List.length candidates);
  Alcotest.(check bool) "non-empty" true (candidates <> []);
  let shard_rows = 256 / 8 in
  List.iter
    (fun c ->
      let comm_tm = fst c.Planner.pl_config.Design_space.comm_tile in
      Alcotest.(check bool) "comm tile divides the shard" true
        (shard_rows mod comm_tm = 0))
    candidates;
  let fps = List.map Planner.fingerprint candidates in
  Alcotest.(check int) "fingerprints distinct"
    (List.length fps)
    (List.length (List.sort_uniq compare fps))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "planner"
    [
      ( "synthesis",
        [
          Alcotest.test_case "matches hand-written kernel" `Quick
            test_synthesize_matches_handwritten;
        ] );
      ( "search",
        [
          Alcotest.test_case "analyzer-clean winner, skips infeasible" `Quick
            test_search_picks_analyzer_clean_winner;
          Alcotest.test_case "deterministic across pool widths" `Quick
            test_search_deterministic;
          qc qcheck_planner_matches_reference;
        ] );
      ( "graphs",
        [
          Alcotest.test_case "softmax graph" `Quick test_softmax_graph;
          Alcotest.test_case "fused graph, zero manual protocol" `Quick
            test_fused_graph_zero_manual_protocol;
          Alcotest.test_case "moe ffn proxy graph" `Quick test_moe_graph;
          Alcotest.test_case "default space" `Quick test_default_space;
        ] );
    ]
