(* Program interpreter: executes a lowered program on a simulated
   cluster.

   One interpreter serves both backends of the reproduction:
   - timing: every instruction charges its cost model duration, SM and
     DMA workers contend for their pools, copies queue on links — the
     makespan is the kernel time reported in benchmarks;
   - data (optional): [Copy] and [Compute] instructions additionally
     mutate the per-rank tensor memories, so the same schedule is
     checked for numerical correctness against references.

   Crash-fault tolerance rides on three mechanisms layered over the
   plain interpreter:
   - a tile-completion *ledger*: one entry per task, marked done on
     completion and checkpointing how many of its notifies were issued,
     so after a crash the recovery coordinator knows exactly which
     tiles are lost versus already delivered;
   - liveness-aware execution: every instruction boundary (and every
     return from a blocking operation) re-checks that the executing
     rank is still alive and abandons the task otherwise — paired with
     {!Channel.cancel_rank_waits} this guarantees a dead rank's workers
     drain instead of parking forever;
   - a failover coordinator hooked into the watchdog tick: on a crash
     it validates the remapped protocol, re-registers rerouted channel
     keys, marks the dead shard recovered, and replays only the lost
     tiles round-robin on the survivors. *)

open Tilelink_sim
open Tilelink_machine

type result = {
  makespan : float;
  channels : Channel.t;
  memory : Memory.t;
  notifies : int;
}

let resolve_rank = Dataop.resolve_rank

let cost_duration (spec : Spec.t) ~sms = function
  | Instr.Gemm_tile { tm; tn; k } -> Cost.gemm_tile_time spec ~tm ~tn ~k
  | Instr.Attention_tile { tq; tkv; d } ->
    Cost.attention_tile_time spec ~tq ~tkv ~d
  | Instr.Memory_tile { rows; cols; passes } ->
    Cost.memory_tile_time spec ~sms ~rows ~cols ~passes
  | Instr.Fixed_cost d -> d
  | Instr.Free -> 0.0

let exec_wait channels ~waiter ~worker (target : Instr.signal_target)
    ~threshold =
  match target with
  | Instr.Pc { rank; channel } ->
    Channel.pc_wait ~waiter ~worker channels ~rank ~channel ~threshold
  | Instr.Peer { src; dst; channel } ->
    Channel.peer_wait ~waiter ~worker channels ~src ~dst ~channel ~threshold ()
  | Instr.Host { src; dst } ->
    Channel.host_wait ~waiter ~worker channels ~src ~dst ~threshold

let exec_notify channels ~rank:_ ~worker (target : Instr.signal_target)
    ~amount =
  match target with
  | Instr.Pc { rank; channel } ->
    Channel.pc_notify ~worker channels ~rank ~channel ~amount
  | Instr.Peer { src; dst; channel } ->
    Channel.peer_notify ~worker channels ~src ~dst ~channel ~amount ()
  | Instr.Host { src; dst } ->
    Channel.host_notify ~worker channels ~src ~dst ~amount

module Obs = Tilelink_obs

(* Replayed tasks run under "<label>+replay"; their spans are recorded
   as [Replay] so attribution charges them to recovery, not compute.
   A replay executed on a survivor *outside* the dead rank's NVLink
   island runs under "<label>+replay@x" — same Replay kind, but the
   "@x" marker flows into the span labels so the causal profiler can
   surface cross-island replay as its own recovery sub-bucket. *)
let has_suffix label suf =
  let n = String.length label and m = String.length suf in
  let rec from i = i = m || (label.[n - m + i] = suf.[i] && from (i + 1)) in
  n >= m && from 0

let is_replay_label label =
  has_suffix label "+replay" || has_suffix label "+replay@x"

let is_cross_replay_label label = has_suffix label "+replay@x"

(* ------------------------------------------------------------------ *)
(* Tile-completion ledger                                              *)
(* ------------------------------------------------------------------ *)

(* One entry per task.  [le_notified] is the producer-side checkpoint:
   how many of the task's Notify instructions were actually issued —
   on replay those epochs are skipped so counters never overshoot.
   [le_poisoned] marks a task whose execution was cut short (its rank
   died mid-task, or one of its copies touched a dead shard). *)
type ledger_entry = {
  le_rank : int;
  le_role : string;
  le_label : string;
  mutable le_notified : int;
  mutable le_done : bool;
  mutable le_poisoned : bool;
  mutable le_replaying : bool;
      (* claimed by an in-flight replay process: the coordinator's sweep
         must not spawn a second replay of the same tile *)
}

(* Raised inside instruction execution when the executing rank is found
   dead (or a copy endpoint is unreachable); caught by the worker loop,
   which poisons the ledger entry and either moves on (survivor rank,
   one lost copy) or drains (the worker's own rank crashed). *)
exception Abandoned

(* Per-execution context threaded through the interpreter.  The
   executing rank [ec_exec_rank] differs from the task's owning rank on
   the replay path (a survivor executes the dead rank's task: data
   semantics keep the owner, timing and trace attribution follow the
   executor). *)
type exec_ctx = {
  ec_exec_rank : int;
  ec_live : unit -> bool;
  ec_force_copy : bool;  (* replay: transfers against recovered memory *)
  ec_on_notify : unit -> unit;  (* ledger checkpoint hook *)
}

let check_live ctx = if not (ctx.ec_live ()) then raise Abandoned

(* The loads of [loads] not yet complete at [now], in order.  The
   unchanged tail of the list is shared, so the common case — nothing
   completed since the last load — allocates nothing. *)
let rec still_pending ~now = function
  | [] -> []
  | ((_, ready) as load) :: rest as loads ->
    if ready > now then begin
      let rest' = still_pending ~now rest in
      if rest' == rest then loads else load :: rest'
    end
    else still_pending ~now rest

(* Execute one instruction on behalf of [rank], on a worker of a role
   bound to [lane].  [worker_sms] is how many SMs this worker stands
   for (1 for an SM worker, irrelevant for DMA/host).  [interference]
   multiplies compute durations when a fused kernel also runs
   communication on the same chip. *)
let exec_instr cluster channels memory ~telemetry ~data ~rank ~ctx ~lane
    ~worker_sms ~comm_active ~pending_loads ~worker ~label instr =
  let spec = Cluster.spec cluster in
  let trace = Cluster.trace cluster in
  let now () = Cluster.now cluster in
  check_live ctx;
  match instr with
  | Instr.Load { access } ->
    (* Loads issue asynchronously (cp.async / TMA): they complete
       [load_latency] after issue.  A consumer stalls only if it reads
       the data before then — which multi-stage pipelining avoids by
       hoisting the load ahead of the previous tile's compute. *)
    if spec.Spec.gpu.load_latency > 0.0 then begin
      let t = now () in
      pending_loads :=
        (access, t +. spec.Spec.gpu.load_latency)
        :: still_pending ~now:t !pending_loads
    end
  | Instr.Store _ -> ()
  | Instr.Sleep d ->
    Process.wait d;
    check_live ctx
  | Instr.Compute { label = clabel; cost; reads; action; _ } ->
    let ready =
      List.fold_left
        (fun acc (access, ready) ->
          if List.exists (Instr.accesses_overlap access) reads then
            Float.max acc ready
          else acc)
        (now ()) !pending_loads
    in
    let issue = now () in
    if ready > issue then Process.wait (ready -. issue);
    (* Fusion interference applies only while a communication role is
       actually running on this rank: L2 pollution, scheduler and HBM
       contention vanish once the comm side drains. *)
    let interference =
      if !comm_active > 0 then spec.Spec.overheads.fusion_interference
      else 1.0
    in
    (* Straggler multiplier sampled at issue: a chaos disturbance can
       slow this rank's kernels; 1.0 when none is installed. *)
    let duration =
      cost_duration spec ~sms:worker_sms cost
      *. interference
      *. Cluster.compute_scale cluster ~rank_id:ctx.ec_exec_rank
    in
    let t0 = now () in
    if duration > 0.0 then Process.wait duration;
    (* A kernel that was mid-tile when its rank died produced nothing:
       no trace span, no data mutation — the ledger marks the tile
       lost and the coordinator replays it. *)
    check_live ctx;
    Trace.add trace ~rank:ctx.ec_exec_rank ~lane ~label:clabel ~t0
      ~t1:(now ());
    if Obs.Telemetry.active telemetry then begin
      let tele = Option.get telemetry in
      let m = Obs.Telemetry.metrics tele in
      Obs.Metrics.inc m "tiles.compute";
      Obs.Metrics.observe m "compute_us" (now () -. t0);
      if ready > issue then
        Obs.Metrics.observe m "load_stall_us" (ready -. issue);
      Obs.Span.record_task
        (Obs.Telemetry.spans tele)
        ~kind:(if is_replay_label label then Obs.Span.Replay else Obs.Span.Compute)
        ~label:(if is_cross_replay_label label then clabel ^ "@x" else clabel)
        ~rank:ctx.ec_exec_rank ~worker ~t0 ~t1:(now ())
    end;
    if data then Option.iter (fun act -> act memory ~rank) action
  | Instr.Copy { label = clabel; src; dst; bytes; action } ->
    let src_rank = resolve_rank ~self:rank src.Instr.mem_rank in
    let dst_rank = resolve_rank ~self:rank dst.Instr.mem_rank in
    (* Fail fast on a dead endpoint: the copy moves nothing, charges
       nothing, and poisons the task so the coordinator replays it
       against recovered memory.  The replay path forces transfers. *)
    if
      (not ctx.ec_force_copy)
      && src_rank <> dst_rank
      && not (Cluster.transfer_ok cluster ~src:src_rank ~dst:dst_rank)
    then raise Abandoned;
    let t0 = now () in
    (* Copy-engine stall injection: charged before the copy admits, so
       it shows up inside the traced copy span. *)
    let stall = Cluster.copy_stall_us cluster ~rank_id:ctx.ec_exec_rank in
    if stall > 0.0 then Process.wait stall;
    check_live ctx;
    if src_rank = dst_rank then begin
      (* Local move: a round trip through HBM at full bandwidth share —
         bulk copies saturate HBM regardless of the issuing unit. *)
      let duration =
        Cost.memory_pass_time spec ~sms:spec.Spec.gpu.num_sms
          ~bytes:(2.0 *. bytes)
      in
      if duration > 0.0 then Process.wait duration
    end
    else
      Cluster.transfer ~force:ctx.ec_force_copy cluster ~src:src_rank
        ~dst:dst_rank ~bytes;
    check_live ctx;
    Trace.add trace ~rank:ctx.ec_exec_rank ~lane ~label:clabel ~t0
      ~t1:(now ());
    if Obs.Telemetry.active telemetry then begin
      let tele = Option.get telemetry in
      let m = Obs.Telemetry.metrics tele in
      Obs.Metrics.inc m "tiles.copy";
      Obs.Metrics.add_gauge m "bytes.copied" bytes;
      Obs.Metrics.observe m "copy_us" (now () -. t0);
      if src_rank <> dst_rank then
        (* A copy whose destination is the executing rank fetched a
           remote tile (pull); one that lands remotely pushed ours. *)
        Obs.Journal.record
          (Obs.Telemetry.journal tele)
          ~t:(now ())
          (if dst_rank = rank then
             Obs.Journal.Tile_pull
               { label = clabel; src = src_rank; dst = dst_rank; bytes }
           else
             Obs.Journal.Tile_push
               { label = clabel; src = src_rank; dst = dst_rank; bytes });
      Obs.Span.record_task
        (Obs.Telemetry.spans tele)
        ~kind:(if is_replay_label label then Obs.Span.Replay else Obs.Span.Copy)
        ~label:(if is_cross_replay_label label then clabel ^ "@x" else clabel)
        ~rank:ctx.ec_exec_rank ~worker ~t0 ~t1:(now ())
    end;
    if data then begin
      match action with
      | Some act -> act memory ~rank
      | None -> Dataop.copy_action src dst memory ~rank
    end
  | Instr.Wait { target; threshold; _ } ->
    let t0 = now () in
    if spec.Spec.overheads.signal_wait > 0.0 then
      Process.wait spec.Spec.overheads.signal_wait;
    exec_wait channels ~waiter:ctx.ec_exec_rank ~worker target ~threshold;
    (* A force-woken wait (the rank died while parked) returns with its
       threshold unsatisfied — abandon before touching anything. *)
    check_live ctx;
    let t1 = now () in
    if t1 > t0 then
      Trace.add trace ~rank:ctx.ec_exec_rank ~lane:Trace.Wait ~label ~t0 ~t1
  | Instr.Notify { target; amount; _ } ->
    (* Release atomic + memory fence before the signal is visible. *)
    if spec.Spec.overheads.signal_notify > 0.0 then
      Process.wait spec.Spec.overheads.signal_notify;
    (* Dying inside the fence means the signal never became visible. *)
    check_live ctx;
    exec_notify channels ~rank ~worker target ~amount;
    (* Producer-side checkpoint: this epoch is now delivered (or at
       least issued); replay will skip it. *)
    ctx.ec_on_notify ()

(* A task's leading waits/loads execute before the worker occupies an
   execution unit: a CTA is only scheduled once its dependencies are
   satisfied (stream-ordered concurrent kernels), so a blocked consumer
   does not hold an SM hostage while its producer needs one. *)
let split_leading_waits instrs =
  let rec go prefix = function
    | (Instr.Wait _ | Instr.Sleep _ | Instr.Load _) as instr :: rest ->
      go (instr :: prefix) rest
    | rest -> (List.rev prefix, rest)
  in
  go [] instrs

(* A worker repeatedly takes the next task from the role's shared
   queue, acquiring one unit of [unit_pool] per task; wave scheduling
   (ceil(tiles / workers) waves) and dynamic sharing of idle units
   across roles both emerge.  Each queue item carries its optional
   ledger entry; a task abandoned mid-flight poisons its entry, and the
   worker drains if its own rank is the casualty. *)
let worker_body cluster channels memory ~telemetry ~data ~rank ~live ~lane
    ~worker_sms ~comm_active ~unit_pool queue () =
  let pending_loads = ref [] in
  let current : ledger_entry option ref = ref None in
  (* One causal worker id per sequential execution stream: spans it
     records chain in program order, and its notifies carry its cursor
     as the delivery's predecessor.  -1 (telemetry off) skips chaining. *)
  let worker =
    if Obs.Telemetry.active telemetry then
      Obs.Span.fresh_worker (Obs.Telemetry.spans (Option.get telemetry))
    else -1
  in
  let ctx =
    {
      ec_exec_rank = rank;
      ec_live = live;
      ec_force_copy = false;
      ec_on_notify =
        (fun () ->
          match !current with
          | Some e -> e.le_notified <- e.le_notified + 1
          | None -> ());
    }
  in
  let exec =
    exec_instr cluster channels memory ~telemetry ~data ~rank ~ctx ~lane
      ~worker_sms ~comm_active ~pending_loads ~worker
  in
  let rec loop () =
    match
      match !queue with
      | [] -> None
      | task :: rest ->
        queue := rest;
        Some task
    with
    | None -> ()
    | Some ((task : Program.task), entry) -> (
      current := entry;
      let label = task.Program.label in
      let leading, body = split_leading_waits task.Program.instrs in
      match
        List.iter (exec ~label) leading;
        (match unit_pool with
        | None -> List.iter (exec ~label) body
        | Some pool ->
          Resource.use pool 1 (fun () -> List.iter (exec ~label) body))
      with
      | () ->
        Option.iter (fun e -> e.le_done <- true) entry;
        current := None;
        loop ()
      | exception Abandoned ->
        Option.iter (fun e -> e.le_poisoned <- true) entry;
        current := None;
        (* A survivor that lost one copy to a dead shard keeps going —
           only its own rank dying drains the worker. *)
        if live () then loop ())
  in
  loop ()

let is_comm_lane = function
  | Trace.Comm_sm | Trace.Dma | Trace.Host | Trace.Link -> true
  | Trace.Compute_sm | Trace.Wait -> false

let run_role cluster channels memory ~telemetry ~data ~rank ~live
    ~comm_active ~tracked (role : Program.role) () =
  let spec = Cluster.spec cluster in
  let cluster_rank = Cluster.rank cluster rank in
  (* Kernel launch latency before the role's work becomes visible. *)
  Process.wait spec.overheads.kernel_launch;
  let comm_role = is_comm_lane role.Program.lane in
  if comm_role then incr comm_active;
  Fun.protect ~finally:(fun () -> if comm_role then decr comm_active)
  @@ fun () ->
  let run_workers count unit_pool =
    let queue = ref tracked in
    let join =
      Process.spawn_all (Cluster.engine cluster)
        (List.init count (fun _ ->
             worker_body cluster channels memory ~telemetry ~data ~rank ~live
               ~lane:role.Program.lane ~worker_sms:1 ~comm_active ~unit_pool
               queue))
    in
    Process.Join.wait join
  in
  match role.Program.resource with
  | Program.Sm_partition count ->
    run_workers count (Some cluster_rank.Cluster.sms)
  | Program.Dma_engines count ->
    run_workers count (Some cluster_rank.Cluster.dma)
  | Program.Host_stream ->
    let queue = ref tracked in
    worker_body cluster channels memory ~telemetry ~data ~rank ~live
      ~lane:role.Program.lane ~worker_sms:1 ~comm_active ~unit_pool:None
      queue ()

(* Append the pending-waiter edge list and the tail of the journal to a
   deadlock message, so even un-hardened callers get an actionable
   diagnostic instead of a bare process count. *)
let enrich_deadlock channels ~telemetry msg =
  let take n xs =
    let rec go n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: go (n - 1) rest
    in
    go n xs
  in
  let pending = Channel.pending_waits channels in
  let waiter_lines =
    List.map
      (fun (pw : Channel.pending_wait) ->
        Printf.sprintf "  rank %d waits %s >= %d (since t=%.1f)"
          pw.Channel.pw_rank pw.Channel.pw_key pw.Channel.pw_threshold
          pw.Channel.pw_since)
      (take 16 pending)
  in
  let journal_lines =
    if Obs.Telemetry.active telemetry then
      let entries =
        Obs.Journal.entries (Obs.Telemetry.journal (Option.get telemetry))
      in
      let tail = take 8 (List.rev entries) in
      List.rev_map (fun e -> "  " ^ Obs.Journal.entry_summary e) tail
    else []
  in
  String.concat "\n"
    ((msg
     :: Printf.sprintf "pending waiters (%d):" (List.length pending)
     :: waiter_lines)
    @
    if journal_lines = [] then []
    else "recent journal events:" :: journal_lines)

(* ------------------------------------------------------------------ *)
(* Failover coordinator                                                *)
(* ------------------------------------------------------------------ *)

(* Lost entries of a crash: the dead rank's unfinished tasks plus any
   survivor task poisoned by a copy into the dead shard.  Tasks still
   in flight on live ranks are neither — they complete normally. *)
let lost_entries ledger ~dead =
  List.filter
    (fun e ->
      (not e.le_done) && (e.le_rank = dead || e.le_poisoned))
    ledger

(* The structural no-survivor diagnostic: name the first channel whose
   producer died with undelivered epochs — the unrecoverable channel. *)
let no_survivor_stall ~dead ~lost ~t_crash ~now channels program =
  let first_notify_key =
    List.fold_left
      (fun acc (e : ledger_entry) ->
        match acc with
        | Some _ -> acc
        | None ->
          Program.fold_tasks program ~init:None
            ~f:(fun acc ~rank (role : Program.role) (task : Program.task) ->
              match acc with
              | Some _ -> acc
              | None ->
                if
                  rank = e.le_rank
                  && role.Program.role_name = e.le_role
                  && task.Program.label = e.le_label
                then
                  List.find_map
                    (function
                      | Instr.Notify { target; _ } ->
                        Some (Instr.key_of_target target)
                      | _ -> None)
                    task.Program.instrs
                else acc))
      None lost
  in
  let key =
    Option.value ~default:(Printf.sprintf "pc[%d][0]" dead) first_notify_key
  in
  let kind, owner, chan = Chaos.parse_key key in
  let value = Option.value ~default:0 (Channel.key_value channels ~key) in
  let intended = Channel.intended_value channels ~key in
  {
    Chaos.stall_key = key;
    stall_kind = kind;
    stall_owner = owner;
    stall_channel = chan;
    stall_rank = dead;
    stall_threshold = intended + 1;
    stall_value = value;
    stall_intended = intended;
    stall_since = t_crash;
    stall_at = now;
    stall_waiters =
      List.map
        (fun (pw : Channel.pending_wait) ->
          (pw.Channel.pw_key, pw.Channel.pw_rank, pw.Channel.pw_threshold))
        (Channel.pending_waits channels);
  }

(* A structured "this combination does not exist" diagnostic: which
   backend, which feature, why, and what to do instead.  Raised for
   flag combinations that are wrong by construction (not by program
   content), so callers — the CLI in particular — can render it
   without a backtrace. *)
type unsupported = {
  u_backend : string;
  u_feature : string;
  u_reason : string;
  u_hint : string;
}

exception Unsupported of unsupported

let unsupported_to_string u =
  Printf.sprintf
    "the %s backend does not support %s: %s (hint: %s)" u.u_backend
    u.u_feature u.u_reason u.u_hint

let () =
  Printexc.register_printer (function
    | Unsupported u -> Some ("Runtime.Unsupported: " ^ unsupported_to_string u)
    | _ -> None)

let run ?telemetry ?(data = false) ?memory ?chaos ?(analyze = false) ?rebuild
    ?(backend = `Sequential) cluster (program : Program.t) =
  (match Program.validate program with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runtime.run: invalid program: " ^ msg));
  (* Optional static pre-flight: a protocol that can never complete is
     reported as a structured [Analyzer.Protocol_violation] here, with
     key/rank/channel diagnostics, instead of wedging mid-simulation as
     a generic [Engine.Deadlock].  The parallel backend always
     analyzes — that is its admission gate — so [analyze] only
     matters for the sequential interpreter. *)
  if analyze && backend = `Sequential then Analyzer.check_exn program;
  if Cluster.world_size cluster <> Program.world_size program then
    invalid_arg "Runtime.run: cluster/program world size mismatch";
  match backend with
  | `Parallel domains ->
    (* Real execution on a domain team.  Chaos fault injection is a
       simulated-clock concept (schedules, watchdog ticks, crash
       windows are all in sim time) — reject it loudly rather than
       silently ignoring the control. *)
    if chaos <> None then
      raise
        (Unsupported
           {
             u_backend = "parallel";
             u_feature = "chaos fault injection";
             u_reason =
               "fault schedules and the watchdog live on the simulated \
                clock, which the domain-per-rank backend does not run";
             u_hint =
               "use the sequential interpreter (drop ~backend / pass \
                `Sequential) for chaos runs";
           });
    ignore rebuild;
    let memory =
      match memory with
      | Some m -> m
      | None -> Memory.create ~world_size:(Program.world_size program)
    in
    let memory, p = Parallel.run ?telemetry ~data ~memory ~domains program in
    (* Mirror the final counter values into a Channel.t so result
       consumers ([pc_value], reporting) see the same interface as the
       sequential interpreter. *)
    let channels =
      Channel.create
        ~world_size:(Program.world_size program)
        ~channels_per_rank:program.Program.pc_channels
        ~peer_channels:program.Program.peer_channels ()
    in
    List.iter
      (fun (key, v) ->
        if v > 0 then Channel.force_signal channels ~key ~target:v)
      p.Parallel.p_key_values;
    {
      makespan = p.Parallel.p_wall_us;
      channels;
      memory;
      notifies = p.Parallel.p_notifies;
    }
  | `Sequential ->
  let memory =
    match memory with
    | Some m -> m
    | None -> Memory.create ~world_size:(Program.world_size program)
  in
  let interceptor =
    match chaos with
    | Some { Chaos.c_schedule = Some sched; _ } ->
      Chaos.apply_to_cluster sched cluster;
      Some (Chaos.interceptor sched)
    | _ -> None
  in
  let channels =
    Channel.create
      ~world_size:(Program.world_size program)
      ~channels_per_rank:program.Program.pc_channels
      ~peer_channels:program.Program.peer_channels ?telemetry
      ~clock:(fun () -> Cluster.now cluster)
      ?interceptor
      ~scheduler:(fun delay thunk ->
        Engine.schedule (Cluster.engine cluster) ~delay thunk)
      ()
  in
  let engine = Cluster.engine cluster in
  let start = Cluster.now cluster in
  let journal_ev ev =
    if Obs.Telemetry.active telemetry then
      Obs.Journal.record
        (Obs.Telemetry.journal (Option.get telemetry))
        ~t:(Cluster.now cluster) ev
  in
  let metrics_set name v =
    if Obs.Telemetry.active telemetry then
      Obs.Metrics.set_gauge
        (Obs.Telemetry.metrics (Option.get telemetry))
        name v
  in
  let metrics_observe name v =
    if Obs.Telemetry.active telemetry then
      Obs.Metrics.observe
        (Obs.Telemetry.metrics (Option.get telemetry))
        name v
  in
  let metric_inc name =
    if Obs.Telemetry.active telemetry then
      Obs.Metrics.inc (Obs.Telemetry.metrics (Option.get telemetry)) name
  in
  (* Crash faults, ledger and failover arming. *)
  let crashes =
    match chaos with
    | Some { Chaos.c_schedule = Some sched; _ } -> Chaos.crashes sched
    | _ -> []
  in
  let failover_armed =
    crashes <> []
    &&
    match chaos with
    | Some { Chaos.c_watchdog = Some wd; _ } ->
      wd.Chaos.policy = Chaos.Failover
    | _ -> false
  in
  let recovery =
    match chaos with
    | Some control -> Some control.Chaos.c_recovery
    | None -> None
  in
  (* Ledger: one entry per task, built in deterministic rank-major
     order before anything runs.  [tracked_for rank role] hands each
     role its (task, entry) queue.  Entries exist only when a crash is
     planned — plain runs keep the zero-bookkeeping path. *)
  let ledger : ledger_entry list ref = ref [] in
  let tracked_tbl : (int * string, (Program.task * ledger_entry option) list)
      Hashtbl.t =
    Hashtbl.create 16
  in
  Array.iteri
    (fun rank plan ->
      List.iter
        (fun (role : Program.role) ->
          let tracked =
            List.map
              (fun (task : Program.task) ->
                if crashes = [] then (task, None)
                else begin
                  let e =
                    {
                      le_rank = rank;
                      le_role = role.Program.role_name;
                      le_label = task.Program.label;
                      le_notified = 0;
                      le_done = false;
                      le_poisoned = false;
                      le_replaying = false;
                    }
                  in
                  ledger := e :: !ledger;
                  (task, Some e)
                end)
              role.Program.tasks
          in
          Hashtbl.replace tracked_tbl (rank, role.Program.role_name) tracked)
        plan)
    (Program.plans program);
  let ledger = List.rev !ledger in
  (match recovery with
  | Some r when crashes <> [] -> r.Chaos.total_tiles <- List.length ledger
  | _ -> ());
  (* Liveness: once a rank has crashed its in-flight kernel state is
     gone for good — a transient restart makes the rank *reachable*
     again but does not resurrect the work, so [live] stays false for
     the rest of the run and the coordinator replays the loss. *)
  let crashed_once : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let live_for rank () = not (Hashtbl.mem crashed_once rank) in
  (* Crashes pending failover handling, in kill order. *)
  let pending_crashes : (int * float) Queue.t = Queue.create () in
  List.iter
    (fun (crash_rank, { Chaos.cr_at; cr_until }) ->
      Engine.schedule engine ~delay:cr_at (fun () ->
          if not (Hashtbl.mem crashed_once crash_rank) then begin
            Hashtbl.replace crashed_once crash_rank ();
            Cluster.kill_rank cluster ~rank_id:crash_rank;
            Queue.add (crash_rank, Cluster.now cluster) pending_crashes;
            journal_ev
              (Obs.Journal.Rank_crashed
                 { rank = crash_rank; transient = cr_until <> None });
            (* Force-wake the dead rank's parked workers so they drain
               instead of holding the engine live forever. *)
            ignore (Channel.cancel_rank_waits channels ~rank:crash_rank)
          end);
      Option.iter
        (fun until ->
          Engine.schedule engine ~delay:until (fun () ->
              Cluster.revive_rank cluster ~rank_id:crash_rank))
        cr_until)
    crashes;
  Array.iteri
    (fun rank plan ->
      (* Tracks how many communication roles are live on this rank;
         compute tiles pay the interference factor while it is > 0. *)
      let comm_active = ref 0 in
      List.iter
        (fun (role : Program.role) ->
          let tracked =
            Hashtbl.find tracked_tbl (rank, role.Program.role_name)
          in
          Process.spawn (Cluster.engine cluster)
            (run_role cluster channels memory ~telemetry ~data ~rank
               ~live:(live_for rank) ~comm_active ~tracked role))
        plan)
    (Program.plans program);
  (* The failover coordinator: runs at the top of every watchdog tick
     and must *return without blocking* — a second crash landing while
     the first crash's tiles are still replaying is only detected on a
     later tick, so parking the tick in a join would wedge recovery
     (and the whole run) for good.  Each tick makes three bounded,
     non-blocking passes:
     1. newly detected crashes: validate the remapped protocol, alias
        the rerouted channel keys, mark the dead shard recovered;
     2. replay sweep: spawn replay processes for lost tiles nobody is
        replaying yet, without joining them.  A replay whose executing
        survivor dies mid-task abandons, re-poisons its entry and
        releases the claim, so the next sweep re-replays it on a
        remaining survivor;
     3. settle: once a crash's lost tiles are all done, record the
        detect->resume latency and journal the resume. *)
  let cpr = program.Program.pc_channels in
  (* Fresh alias channels per survivor, allocated monotonically across
     crashes: a second crash must not reuse channels the first already
     aliased, or two logical channels would share one counter. *)
  let next_alias = Array.make (Program.world_size program) cpr in
  (* Crashes remapped but not yet settled, in crash order. *)
  let settling : (int * float) Queue.t = Queue.create () in
  let replayed_total = ref 0 in
  let settled_replayed = ref 0 in
  let survivors_now () =
    List.filter
      (fun r -> not (Hashtbl.mem crashed_once r))
      (List.init (Program.world_size program) Fun.id)
  in
  let island_of r = Cluster.island_of cluster ~rank_id:r in
  (* Topology-aware survivor ordering: intra-island survivors first
     (rank ascending), then cross-island (rank ascending), so the dead
     rank's channels and replays land on NVLink-local peers whenever
     any exist.  On a single-island cluster every survivor is
     intra-island and the order degenerates to plain ascending —
     byte-identical to the historical behaviour. *)
  let ordered_survivors ~relative_to =
    let home = island_of relative_to in
    let intra, cross =
      List.partition (fun r -> island_of r = home) (survivors_now ())
    in
    intra @ cross
  in
  let island_partitioned isl ~now =
    match chaos with
    | Some { Chaos.c_schedule = Some sched; _ } ->
      Chaos.partitioned sched ~node:isl ~now
    | _ -> false
  in
  let handle_crash (dead, t_crash) =
    let now = Cluster.now cluster in
    let lost = lost_entries ledger ~dead in
    let survivors = ordered_survivors ~relative_to:dead in
    if survivors = [] then begin
      let stall =
        no_survivor_stall ~dead ~lost ~t_crash ~now channels program
      in
      (match recovery with
      | Some r -> r.Chaos.stalls <- r.Chaos.stalls @ [ stall ]
      | None -> ());
      journal_ev
        (Obs.Journal.Stall_detected
           {
             key = stall.Chaos.stall_key;
             rank = stall.Chaos.stall_rank;
             threshold = stall.Chaos.stall_threshold;
             value = stall.Chaos.stall_value;
           });
      raise (Chaos.Stall stall)
    end;
    (* Unbridgeable partition: survivors exist, but every one sits
       across a NIC cut from the dead rank's island — re-hosting the
       dead shard would have to cross the partitioned fabric.  Triage
       as a *structural* stall naming the cut, not a hang. *)
    let home = island_of dead in
    if
      (not (List.exists (fun r -> island_of r = home) survivors))
      && island_partitioned home ~now
    then begin
      let stall =
        {
          Chaos.stall_key = Printf.sprintf "nic[%d]" home;
          stall_kind = "partition";
          stall_owner = dead;
          stall_channel = None;
          stall_rank = dead;
          stall_threshold = 0;
          stall_value = 0;
          stall_intended = 0;
          stall_since = t_crash;
          stall_at = now;
          stall_waiters =
            List.map
              (fun (pw : Channel.pending_wait) ->
                (pw.Channel.pw_key, pw.Channel.pw_rank, pw.Channel.pw_threshold))
              (Channel.pending_waits channels);
        }
      in
      (match recovery with
      | Some r -> r.Chaos.stalls <- r.Chaos.stalls @ [ stall ]
      | None -> ());
      journal_ev
        (Obs.Journal.Stall_detected
           {
             key = stall.Chaos.stall_key;
             rank = stall.Chaos.stall_rank;
             threshold = stall.Chaos.stall_threshold;
             value = stall.Chaos.stall_value;
           });
      raise (Chaos.Stall stall)
    end;
    (* Re-validate the remapped protocol before touching anything:
       the rewritten program must still be statically complete. *)
    let remapped = Fault.remap_program program ~dead ~survivors in
    Analyzer.check_exn remapped;
    (* Alias each rerouted key to the counter the blocked consumers
       are already parked on, so force-signals and watchdog retries
       under the new names land on the right counter. *)
    let n = List.length survivors in
    let sv = Array.of_list survivors in
    for c = 0 to cpr - 1 do
      let target = sv.(c mod n) in
      let alias = next_alias.(target) in
      next_alias.(target) <- alias + 1;
      let key rank channel = Instr.key_of_target (Instr.Pc { rank; channel }) in
      Channel.register_remap channels ~key:(key dead c)
        ~alias:(key target alias)
    done;
    (* The survivors re-host the dead shard: transfers touching it
       succeed again, reading recovered memory. *)
    Cluster.mark_recovered cluster ~rank_id:dead;
    journal_ev (Obs.Journal.Remapped { rank = dead; tiles = List.length lost });
    (match recovery with
    | Some r ->
      r.Chaos.remapped_tiles <- r.Chaos.remapped_tiles + List.length lost
    | None -> ());
    metrics_set "recovery.remapped_tiles" (float_of_int (List.length lost));
    Queue.add (dead, t_crash) settling
  in
  let spawn_replays () =
    let pending =
      List.filter
        (fun e ->
          (not e.le_done)
          && (not e.le_replaying)
          && (Hashtbl.mem crashed_once e.le_rank || e.le_poisoned))
        ledger
    in
    match (pending, survivors_now ()) with
    | [], _ | _, [] -> ()
    | pending, _ ->
      (* Replay from a *fresh* build of the program when the caller
         provides one: task closures can hold accumulator state
         (flash-attention online softmax), so re-running a partially
         executed closure would double-count. *)
      let source = match rebuild with Some f -> f () | None -> program in
      let fresh_task : (int * string * string, Program.task) Hashtbl.t =
        Hashtbl.create 64
      in
      Program.iter_tasks source ~f:(fun ~rank role task ->
          let key = (rank, role.Program.role_name, task.Program.label) in
          if not (Hashtbl.mem fresh_task key) then
            Hashtbl.replace fresh_task key task);
      (* Group by (rank, role) preserving ledger order; one replay
         process per group keeps intra-role task order. *)
      let groups : ((int * string) * ledger_entry list) list =
        List.fold_left
          (fun acc e ->
            let key = (e.le_rank, e.le_role) in
            match List.assoc_opt key acc with
            | None -> acc @ [ (key, [ e ]) ]
            | Some _ ->
              List.map
                (fun (k, v) -> if k = key then (k, v @ [ e ]) else (k, v))
                acc)
          [] pending
      in
      (* Claim every entry inside the tick, before any replay runs, so
         the next tick's sweep cannot spawn a duplicate replay. *)
      List.iter (fun e -> e.le_replaying <- true) pending;
      let next_exec = ref 0 in
      List.iter
        (fun (((owner_rank : int), _role), entries) ->
          (* Executing survivors for this group, intra-island-first
             relative to the entries' owner: NVLink-local survivors
             absorb the replays before any cross-island peer does. *)
          let sv = Array.of_list (ordered_survivors ~relative_to:owner_rank) in
          let n = Array.length sv in
          let owner_island = island_of owner_rank in
          Process.spawn engine (fun () ->
              (* Each replay group is one sequential stream: its own
                 causal worker keeps replayed spans chained in order. *)
              let worker =
                if Obs.Telemetry.active telemetry then
                  Obs.Span.fresh_worker
                    (Obs.Telemetry.spans (Option.get telemetry))
                else -1
              in
              List.iter
                (fun (e : ledger_entry) ->
                  match
                    Hashtbl.find_opt fresh_task
                      (e.le_rank, e.le_role, e.le_label)
                  with
                  | None ->
                    (* The rebuild lost this task: nothing to replay —
                       release the claim and count it done so the crash
                       can settle instead of wedging accounting. *)
                    e.le_done <- true;
                    e.le_replaying <- false
                  | Some task -> (
                    (* Round-robin the executing survivor per tile. *)
                    let exec_rank = sv.(!next_exec mod n) in
                    incr next_exec;
                    let cross_island = island_of exec_rank <> owner_island in
                    if cross_island then begin
                      (match recovery with
                      | Some r ->
                        r.Chaos.cross_island_replays <-
                          r.Chaos.cross_island_replays + 1
                      | None -> ());
                      metric_inc "recovery.cross_island_replays"
                    end;
                    let skip = ref e.le_notified in
                    let ctx =
                      {
                        ec_exec_rank = exec_rank;
                        (* A replay is only as alive as its executor: a
                           survivor dying mid-replay must abandon, not
                           plough on against a dead rank's resources. *)
                        ec_live = live_for exec_rank;
                        ec_force_copy = true;
                        (* Checkpoint replayed notifies too, so a replay
                           cut short by a second crash resumes past the
                           epochs it already delivered. *)
                        ec_on_notify =
                          (fun () -> e.le_notified <- e.le_notified + 1);
                      }
                    in
                    let pending_loads = ref [] in
                    let comm_active = ref 0 in
                    let exec =
                      exec_instr cluster channels memory ~telemetry ~data
                        ~rank:owner_rank ~ctx ~lane:Trace.Comm_sm ~worker_sms:1
                        ~comm_active ~pending_loads ~worker
                        ~label:
                          (task.Program.label
                          ^ if cross_island then "+replay@x" else "+replay")
                    in
                    match
                      List.iter
                        (fun instr ->
                          match instr with
                          | Instr.Notify _ when !skip > 0 ->
                            (* Checkpointed epoch: already delivered
                               before the crash; re-issuing would
                               overshoot the counter past epochs other
                               waits rely on. *)
                            decr skip
                          | instr -> exec instr)
                        task.Program.instrs
                    with
                    | () ->
                      e.le_done <- true;
                      e.le_replaying <- false;
                      incr replayed_total;
                      (match recovery with
                      | Some r ->
                        r.Chaos.replayed_tiles <- r.Chaos.replayed_tiles + 1
                      | None -> ())
                    | exception Abandoned ->
                      (* The executing survivor died mid-replay: poison
                         and release the entry; the next sweep replays
                         it on a remaining survivor. *)
                      e.le_poisoned <- true;
                      e.le_replaying <- false))
                entries))
        groups
  in
  let settle () =
    let rec go () =
      match Queue.peek_opt settling with
      | Some (dead, t_crash) when lost_entries ledger ~dead = [] ->
        ignore (Queue.pop settling);
        let latency = Cluster.now cluster -. t_crash in
        let replayed = !replayed_total - !settled_replayed in
        settled_replayed := !replayed_total;
        (match recovery with
        | Some r ->
          r.Chaos.failed_over <- r.Chaos.failed_over @ [ (dead, latency) ]
        | None -> ());
        metrics_set "recovery.replayed_tiles" (float_of_int replayed);
        metrics_observe "recovery.latency_us" latency;
        journal_ev (Obs.Journal.Resumed { rank = dead; replayed; latency });
        go ()
      | _ -> ()
    in
    go ()
  in
  let failover_hook () =
    while not (Queue.is_empty pending_crashes) do
      handle_crash (Queue.pop pending_crashes)
    done;
    spawn_replays ();
    settle ()
  in
  (* Structural stall triage pauses while a crash is mid-recovery: the
     never-sent signals it would trip on are the ones replay delivers. *)
  let recovering () = not (Queue.is_empty settling) in
  (* The watchdog is just another sim process; while it lives, the
     event queue never drains, so a genuine hang surfaces as a
     structured Chaos.Stall rather than Engine.Deadlock. *)
  (match chaos with
  | Some ({ Chaos.c_watchdog = Some wd; _ } as control) ->
    let hooks = if failover_armed then Some failover_hook else None in
    let quiesce = if failover_armed then Some recovering else None in
    Process.spawn engine
      (Chaos.watchdog_body ?hooks ?quiesce ~engine ~channels ~telemetry
         ~control ~wd)
  | _ -> ());
  (try Engine.run engine with
   | Engine.Deadlock msg ->
     (* Preserve the context the engine had when the run wedged: the
        journal keeps it next to the signal history that explains it,
        and the exception payload carries the pending-waiter set plus
        the journal tail for callers without telemetry access. *)
     if Obs.Telemetry.active telemetry then
       Obs.Journal.record
         (Obs.Telemetry.journal (Option.get telemetry))
         ~t:(Cluster.now cluster)
         (Obs.Journal.Deadlock
            { message = msg; blocked = Engine.blocked_processes engine });
     raise (Engine.Deadlock (enrich_deadlock channels ~telemetry msg)));
  if Obs.Telemetry.active telemetry then begin
    let tele = Option.get telemetry in
    let m = Obs.Telemetry.metrics tele in
    Obs.Metrics.set_gauge m "engine.events_executed"
      (float_of_int (Engine.executed_events engine));
    Obs.Metrics.set_gauge m "engine.blocked_time_us"
      (Engine.blocked_time engine);
    Obs.Metrics.set_gauge m "engine.makespan_us"
      (Cluster.now cluster -. start);
    Cluster.record_utilization cluster tele
  end;
  {
    makespan = Cluster.now cluster -. start;
    channels;
    memory;
    notifies = Channel.total_notifies channels;
  }
