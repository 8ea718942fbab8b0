(* Auto-overlap planner.

   Hand-written overlapped kernels (lib/workloads) encode the Pc
   notify/wait protocol by construction; this module derives it.  An
   operator graph — one AllGather producer feeding tiled row-range
   consumers — plus one candidate point of the (decoupled design space
   x transfer direction x chunk count) space is synthesized into an
   ordinary [Program.t] using only [Primitive] statements lowered
   through a [Mapping.static]: every notify and wait in the result
   comes out of the tile-centric lowering, none is written by hand.
   [Mlp.ag_gemm_program] is this synthesis at a fixed candidate, so
   the AllGather+GEMM kernel has no builder of its own.

   Candidate pruning and scoring run through [Tune.search_planned]:
   the analyzer rejects statically-broken protocols before any
   simulation (and before the cache), survivors are simulated for
   makespan plus exposed-communication blame, and the planner picks
   the makespan minimum with exposed communication as the tiebreak. *)

open Tilelink_tensor

(* ------------------------------------------------------------------ *)
(* Operator graph                                                      *)
(* ------------------------------------------------------------------ *)

type consumer_kind =
  | Gemm of { weights : string; n : int }
  | Softmax_rows

type consumer = { co_name : string; co_out : string; co_kind : consumer_kind }

let consumer ~name ~out kind = { co_name = name; co_out = out; co_kind = kind }

type graph = {
  g_name : string;
  g_rows : int;
  g_cols : int;
  g_world : int;
  g_shard : string;
  g_gathered : string;
  g_consumers : consumer list;
}

let graph ~name ~rows ~cols ~world ?(shard = "x_shard") ?(gathered = "x_full")
    consumers =
  if world < 1 then invalid_arg "Planner.graph: world must be >= 1";
  if rows mod world <> 0 then
    invalid_arg "Planner.graph: rows must divide over the world";
  if cols < 1 then invalid_arg "Planner.graph: cols must be >= 1";
  if consumers = [] then invalid_arg "Planner.graph: no consumers";
  let outs = List.map (fun c -> c.co_out) consumers in
  if List.length (List.sort_uniq compare outs) <> List.length outs then
    invalid_arg "Planner.graph: consumers share an output buffer";
  {
    g_name = name;
    g_rows = rows;
    g_cols = cols;
    g_world = world;
    g_shard = shard;
    g_gathered = gathered;
    g_consumers = consumers;
  }

let consumer_kind_fingerprint = function
  | Gemm { weights; n } -> Printf.sprintf "gemm(%s,n=%d)" weights n
  | Softmax_rows -> "softmax_rows"

let graph_fingerprint g =
  Printf.sprintf "%s;m=%d;k=%d;w=%d;%s->%s;[%s]" g.g_name g.g_rows g.g_cols
    g.g_world g.g_shard g.g_gathered
    (String.concat ";"
       (List.map
          (fun c ->
            Printf.sprintf "%s:%s:%s" c.co_name c.co_out
              (consumer_kind_fingerprint c.co_kind))
          g.g_consumers))

let out_cols g c =
  match c.co_kind with Gemm { n; _ } -> n | Softmax_rows -> g.g_cols

(* ------------------------------------------------------------------ *)
(* Candidates                                                          *)
(* ------------------------------------------------------------------ *)

type transfer = Push | Pull

let transfer_to_string = function Push -> "push" | Pull -> "pull"

type candidate = {
  pl_config : Design_space.config;
  pl_transfer : transfer;
  pl_chunks : int;
}

let candidate_to_string c =
  Printf.sprintf "%s | %s | chunks=%d"
    (Design_space.config_to_string c.pl_config)
    (transfer_to_string c.pl_transfer)
    c.pl_chunks

let fingerprint c =
  Printf.sprintf "%s;transfer=%s;chunks=%d"
    (Design_space.fingerprint c.pl_config)
    (transfer_to_string c.pl_transfer)
    c.pl_chunks

type space = {
  sp_design : Design_space.space;
  sp_transfers : transfer list;
  sp_chunks : int list;
}

(* Keep the [n] largest entries of an ascending ladder. *)
let keep_largest n xs =
  let rec drop k = function
    | l when k <= 0 -> l
    | _ :: tl -> drop (k - 1) tl
    | [] -> []
  in
  drop (List.length xs - n) xs

let ladder = [ 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

(* Communication tile rows must divide the shard; compute tiles only
   need to fit the extents (grids are ragged at the edge).  The ladder
   is clipped so toy test shapes and bench shapes both get a sensible,
   small space. *)
let default_space g =
  let shard_rows = g.g_rows / g.g_world in
  let comm_rows =
    match
      keep_largest 3 (List.filter (fun d -> shard_rows mod d = 0) ladder)
    with
    | [] -> [ shard_rows ]
    | ds -> ds
  in
  let compute_rows =
    match keep_largest 2 (List.filter (fun d -> d <= shard_rows) ladder) with
    | [] -> [ shard_rows ]
    | ds -> ds
  in
  let min_width =
    List.fold_left (fun acc c -> min acc (out_cols g c)) max_int g.g_consumers
  in
  let compute_cols =
    List.sort_uniq compare [ max 1 (min_width / 2); min_width ]
  in
  let compute_tiles =
    List.concat_map
      (fun tm -> List.map (fun tn -> (tm, tn)) compute_cols)
      compute_rows
  in
  {
    sp_design =
      {
        Design_space.comm_tiles =
          List.map (fun tm -> (tm, g.g_cols)) comm_rows;
        compute_tiles;
        comm_orders =
          [ Tile.Ring_from_self { segments = g.g_world }; Tile.Row_major ];
        compute_orders = [ Tile.Ring_from_self { segments = g.g_world } ];
        bindings = [ Design_space.Comm_on_sm 1; Design_space.Comm_on_dma ];
        stage_choices = [ 2 ];
        micro_blocks = [ 0 ];
      };
    sp_transfers = [ Pull; Push ];
    sp_chunks = [ 1; 2 ];
  }

let enumerate space =
  List.concat_map
    (fun pl_config ->
      List.concat_map
        (fun pl_transfer ->
          List.map
            (fun pl_chunks -> { pl_config; pl_transfer; pl_chunks })
            space.sp_chunks)
        space.sp_transfers)
    (Design_space.enumerate space.sp_design)

let size space = List.length (enumerate space)

(* ------------------------------------------------------------------ *)
(* Synthesis                                                           *)
(* ------------------------------------------------------------------ *)

let access = Instr.access
let ceil_div a b = (a + b - 1) / b

(* Row softmax, max-subtracted, strictly row by row and left to right:
   the single definition shared by synthesized programs and reference
   checks, so tiling can never change bits (rows are independent). *)
let softmax_rows x =
  let rows = Tensor.rows x and cols = Tensor.cols x in
  let out = Tensor.zeros (Tensor.shape x) in
  for i = 0 to rows - 1 do
    let m = ref neg_infinity in
    for j = 0 to cols - 1 do
      let v = Tensor.get2 x i j in
      if v > !m then m := v
    done;
    let s = ref 0.0 in
    for j = 0 to cols - 1 do
      let e = exp (Tensor.get2 x i j -. !m) in
      Tensor.set2 out i j e;
      s := !s +. e
    done;
    for j = 0 to cols - 1 do
      Tensor.set2 out i j (Tensor.get2 out i j /. !s)
    done
  done;
  out

(* The gather side of one rank: pull mode fetches every producer tile
   into the local gathered buffer and signals the local consumers;
   push mode broadcasts this rank's own shard tiles into every rank's
   gathered buffer and notifies all of them. *)
let comm_tasks g cand ~rank ~bc ~mapping ~comm_grid =
  let pull_task tile =
    let tid = Tile.linearize comm_grid tile in
    let lo, hi = Mapping.shape_range mapping ~tid in
    let stmts =
      [
        Primitive.Tile_pull_data
          {
            tid;
            src_buffer = g.g_shard;
            src_view = `Shard;
            col = (0, g.g_cols);
            dst =
              access ~buffer:g.g_gathered ~row:(lo, hi) ~col:(0, g.g_cols) ();
            action = None;
          };
        Primitive.Producer_tile_notify { tid; mode = Primitive.P2p };
      ]
    in
    { Program.label = Label.int1 "ag[" tid "]";
      instrs = Block_channel.lower bc stmts }
  in
  let push_task tile =
    let tid = Tile.linearize comm_grid tile in
    let glo, ghi = Mapping.shape_range mapping ~tid in
    let slo, shi = Mapping.src_shard_range mapping ~tid in
    let pushes =
      List.init g.g_world (fun dst_rank ->
          Primitive.Tile_push_data
            {
              src =
                access ~buffer:g.g_shard ~row:(slo, shi) ~col:(0, g.g_cols) ();
              dst_rank;
              dst =
                access ~buffer:g.g_gathered ~row:(glo, ghi) ~col:(0, g.g_cols)
                  ();
            })
    in
    let stmts =
      pushes
      @ [ Primitive.Producer_tile_notify { tid; mode = Primitive.Broadcast } ]
    in
    { Program.label = Label.int1 "ag-push[" tid "]";
      instrs = Block_channel.lower bc stmts }
  in
  let tiles =
    Tile.enumerate ~rank comm_grid cand.pl_config.Design_space.comm_order
  in
  match cand.pl_transfer with
  | Pull -> List.map pull_task tiles
  | Push ->
    List.filter_map
      (fun tile ->
        let tid = Tile.linearize comm_grid tile in
        if Mapping.rank_of mapping ~tid = rank then Some (push_task tile)
        else None)
      tiles

(* The gather roles the binding asks for, and the SMs they take from
   the consumers.  A hybrid binding puts a DMA-bound prefix of the
   gather on the copy engines and the remainder on SMs. *)
let comm_roles binding gather ~(spec_gpu : Tilelink_machine.Spec.t) =
  let sm_role sms tasks =
    {
      Program.role_name = "allgather-sm";
      resource = Program.Sm_partition sms;
      lane = Tilelink_sim.Trace.Comm_sm;
      tasks;
    }
  in
  let dma_role tasks =
    {
      Program.role_name = "allgather-dma";
      resource =
        Program.Dma_engines
          (min 2 spec_gpu.Tilelink_machine.Spec.gpu.dma_channels);
      lane = Tilelink_sim.Trace.Dma;
      tasks;
    }
  in
  match binding with
  | Design_space.Comm_on_sm sms -> ([ sm_role sms gather ], sms)
  | Design_space.Comm_on_dma -> ([ dma_role gather ], 0)
  | Design_space.Comm_hybrid { dma_fraction; sms } ->
    let cut =
      int_of_float (dma_fraction *. float_of_int (List.length gather))
    in
    ( [
        dma_role (List.filteri (fun i _ -> i < cut) gather);
        sm_role sms (List.filteri (fun i _ -> i >= cut) gather);
      ],
      sms )

(* The data action of one consumer tile as a function of the tile's
   bounds.  It is made once per consumer, so a tile's closure holds
   only this kernel and its four bounds. *)
let tile_kernel g cand co =
  let gathered = g.g_gathered and out = co.co_out in
  match co.co_kind with
  | Gemm { weights; n = _ } ->
    let block = cand.pl_config.Design_space.micro_block in
    fun memory ~rank ~lo ~hi ~clo ~chi ->
      let x = Memory.find memory ~rank ~name:gathered in
      let w = Memory.find memory ~rank ~name:weights in
      let y = Memory.find memory ~rank ~name:out in
      Tensor.set_block y ~row_lo:lo ~col_lo:clo
        (Linalg.gemm ~block
           (Tensor.row_slice x ~lo ~hi)
           (Tensor.col_slice w ~lo:clo ~hi:chi))
  | Softmax_rows ->
    fun memory ~rank ~lo ~hi ~clo:_ ~chi:_ ->
      let x = Memory.find memory ~rank ~name:gathered in
      let p = Memory.find memory ~rank ~name:out in
      Tensor.set_block p ~row_lo:lo ~col_lo:0
        (softmax_rows (Tensor.row_slice x ~lo ~hi))

(* One consumer's role on one rank.  Each tile waits for the gathered
   rows it reads, loads them in [pl_chunks] column chunks, runs the
   kind's compute (a GEMM computes per chunk and its data action rides
   on the last chunk; a softmax computes once over whole rows) and
   stores its output tile. *)
let consumer_role g cand co ~bc ~rank ~sms =
  let config = cand.pl_config in
  let tm, tn = config.Design_space.compute_tile in
  let grid =
    match co.co_kind with
    | Gemm { n; _ } ->
      Tile.grid ~extent_m:g.g_rows ~extent_n:n ~tile_m:tm ~tile_n:tn
    | Softmax_rows ->
      (* Row softmax needs whole rows in one tile. *)
      Tile.grid ~extent_m:g.g_rows ~extent_n:g.g_cols ~tile_m:tm
        ~tile_n:g.g_cols
  in
  let prefix = co.co_name ^ "[" in
  let kernel = tile_kernel g cand co in
  let chunk = ceil_div g.g_cols cand.pl_chunks in
  let live_chunks = ceil_div g.g_cols chunk in
  let task tile =
    let lo, hi = Tile.rows grid tile in
    let clo, chi = Tile.cols grid tile in
    let i = tile.Tile.tid_m and j = tile.Tile.tid_n in
    let action memory ~rank = kernel memory ~rank ~lo ~hi ~clo ~chi in
    let store =
      [
        Primitive.Store
          (access ~buffer:co.co_out ~row:(lo, hi) ~col:(clo, chi) ());
      ]
    in
    let gathered kc =
      let klo = kc * chunk in
      access ~buffer:g.g_gathered ~row:(lo, hi)
        ~col:(klo, min g.g_cols (klo + chunk))
        ()
    in
    let body =
      match co.co_kind with
      | Gemm { weights; n = _ } ->
        let rec k_loop kc =
          if kc = live_chunks then store
          else
            let x = gathered kc in
            let klo, khi = x.Instr.col in
            Primitive.Load x
            :: Primitive.Load
                 (access ~buffer:weights ~row:(klo, khi) ~col:(clo, chi) ())
            :: Primitive.Compute
                 {
                   label = Label.int3 prefix i "," j "]k" kc "";
                   cost =
                     Instr.Gemm_tile
                       { tm = hi - lo; tn = chi - clo; k = khi - klo };
                   reads = [ x ];
                   writes = [];
                   action =
                     (if kc = live_chunks - 1 then Some action else None);
                 }
            :: k_loop (kc + 1)
        in
        k_loop 0
      | Softmax_rows ->
        let rec loads kc =
          if kc = live_chunks then
            Primitive.Compute
              {
                label = Label.int2 prefix i "," j "]";
                cost =
                  Instr.Memory_tile
                    { rows = hi - lo; cols = chi - clo; passes = 3 };
                reads =
                  [
                    access ~buffer:g.g_gathered ~row:(lo, hi) ~col:(clo, chi)
                      ();
                  ];
                writes = [];
                action = Some action;
              }
            :: store
          else Primitive.Load (gathered kc) :: loads (kc + 1)
        in
        loads 0
    in
    let stmts =
      Primitive.Consumer_tile_wait
        { lo; hi; buffer = g.g_gathered; col = (0, g.g_cols) }
      :: body
    in
    {
      Program.label = Label.int2 prefix i "," j "]";
      instrs =
        Pipeline.hoist_loads ~stages:config.Design_space.stages
          (Block_channel.lower bc stmts);
    }
  in
  {
    Program.role_name = co.co_name;
    resource = Program.Sm_partition sms;
    lane = Tilelink_sim.Trace.Compute_sm;
    tasks =
      List.map task
        (Tile.enumerate ~rank grid config.Design_space.compute_order);
  }

let synthesize g cand ~spec_gpu =
  let r = g.g_world in
  let config = cand.pl_config in
  if cand.pl_chunks < 1 then
    invalid_arg "Planner.synthesize: chunks must be >= 1";
  let comm_tm, comm_tn = config.Design_space.comm_tile in
  let compute_tm, compute_tn = config.Design_space.compute_tile in
  if min (min comm_tm comm_tn) (min compute_tm compute_tn) < 1 then
    invalid_arg "Planner.synthesize: tile dimensions must be positive";
  let shard_rows = g.g_rows / r in
  if shard_rows mod comm_tm <> 0 then
    invalid_arg "Planner.synthesize: comm tile must divide the shard";
  let mapping =
    Mapping.static ~extent:g.g_rows ~ranks:r
      ~channels_per_rank:(shard_rows / comm_tm) ~tile:comm_tm ()
  in
  let comm_grid =
    Tile.grid ~extent_m:g.g_rows ~extent_n:g.g_cols ~tile_m:comm_tm
      ~tile_n:g.g_cols
  in
  let n_consumers = List.length g.g_consumers in
  let plans =
    Array.init r (fun rank ->
        let bc = Block_channel.create ~rank ~world_size:r mapping in
        let roles, comm_sms =
          comm_roles config.Design_space.binding ~spec_gpu
            (comm_tasks g cand ~rank ~bc ~mapping ~comm_grid)
        in
        (* The consumers share whatever communication leaves. *)
        let compute_sms =
          max 1 (spec_gpu.Tilelink_machine.Spec.gpu.num_sms - comm_sms)
        in
        let sms = max 1 (compute_sms / n_consumers) in
        roles
        @ List.map
            (fun co -> consumer_role g cand co ~bc ~rank ~sms)
            g.g_consumers)
  in
  Program.create ~name:g.g_name ~world_size:r
    ~pc_channels:(Mapping.num_channels mapping)
    ~peer_channels:1 plans

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

type plan = {
  p_candidate : candidate;
  p_program : Program.t;
  p_time : float;
  p_exposed_comm_us : float option;
  p_outcome : (candidate * Program.t) Tune.outcome;
}

(* [Tune] minimizes time only; the planner additionally breaks makespan
   ties toward less exposed communication (missing blame sorts last),
   keeping the earliest candidate on a full tie so the winner is
   deterministic across pool widths. *)
let better (a : _ Tune.evaluation) (b : _ Tune.evaluation) =
  let blame e =
    match e.Tune.exposed_comm_us with Some x -> x | None -> infinity
  in
  a.Tune.time < b.Tune.time
  || (a.Tune.time = b.Tune.time && blame a < blame b)

let search ?pool ?cache ?candidates g ~spec_gpu ~make_cluster () =
  let candidates =
    match candidates with
    | Some cs -> cs
    | None -> enumerate (default_space g)
  in
  match
    Tune.search_planned ?pool ?cache
      ~workload:("plan:" ^ graph_fingerprint g)
      ~fingerprint
      ~config_of:(fun c -> c.pl_config)
      ~build:(fun c -> synthesize g c ~spec_gpu)
      ~make_cluster candidates
  with
  | None -> None
  | Some outcome ->
    let best =
      match outcome.Tune.evaluated with
      | [] -> assert false (* Tune returns None on no evaluations *)
      | first :: rest ->
        List.fold_left (fun acc e -> if better e acc then e else acc) first
          rest
    in
    let p_candidate, p_program = best.Tune.candidate in
    Some
      {
        p_candidate;
        p_program;
        p_time = best.Tune.time;
        p_exposed_comm_us = best.Tune.exposed_comm_us;
        p_outcome = outcome;
      }
