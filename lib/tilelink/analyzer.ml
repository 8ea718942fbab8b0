(* Whole-program protocol analyzer.

   The lowered protocol is a set of monotonic counters: every Notify
   adds to one, every Wait blocks until one reaches a threshold.  Three
   static views of that protocol catch the classic signalling bugs
   before a simulation (or a real kernel) wedges:

   1. *Accounting* — per key, compare the total supply producers will
      ever signal against every registered waiter threshold.  A wait
      demanding more than the supply can never complete (unmatched); a
      signalled key with no waiter is a wrong f_R/f_C resolution on the
      consumer side (unconsumed); supply past the highest registered
      threshold starts an epoch no registered waiter covers (reuse).

   2. *Reachability* — run the protocol to a fixpoint with every task
      stream maximally parallel.  Because counters are monotonic and
      waits are [>=] comparisons, executing everything eagerly is the
      most permissive schedule: any stream still blocked at the
      fixpoint is blocked under *every* worker schedule, so a reported
      cycle is a true deadlock, never a scheduling artifact.

   3. *Ordering* — per-task acquire/release violations from
      [Consistency], resolved through the key space so the diagnostic
      names the producing rank and channel of the fence that was
      crossed (the [hoist_loads_unsafe] class of miscompile).

   All three index signal state by dense [Slot] number; only the
   diagnostics format keys, in the runtime's counter-key naming
   ([pc[r][c]], [peer[d<-s][c]], [host[d<-s]]), so static reports line
   up with runtime deadlock enrichment and chaos stall output. *)

type severity = Error | Warning

type edge = {
  e_rank : int;
  e_role : string;
  e_task : string;
  e_key : string;
  e_threshold : int;
  e_producer_rank : int;
}

type kind =
  | Unmatched_wait of { threshold : int; available : int }
  | Unconsumed_notify of { amount : int }
  | Epoch_reuse of { available : int; max_threshold : int; waiters : int }
  | Deadlock_cycle of { cycle : edge list }
  | Data_race of {
      race : Consistency.fence_kind;
      position : int;
      fence_position : int;
      access : string;
    }
  | Mapping_mismatch of { expected : int; actual : int }

type diag = {
  severity : severity;
  kind : kind;
  key : string;
  rank : int;
  channel : int option;
  producer : int;
  role : string;
  task : string;
  detail : string;
}

type report = {
  program : string;
  world_size : int;
  diags : diag list;
  keys : int;
  notifies : int;
  waits : int;
}

let severity_to_string = function Error -> "error" | Warning -> "warning"

let kind_name = function
  | Unmatched_wait _ -> "unmatched_wait"
  | Unconsumed_notify _ -> "unconsumed_notify"
  | Epoch_reuse _ -> "epoch_reuse"
  | Deadlock_cycle _ -> "deadlock_cycle"
  | Data_race _ -> "data_race"
  | Mapping_mismatch _ -> "mapping_mismatch"

let diag_to_string d =
  Printf.sprintf "[%s] %s %s: %s" (severity_to_string d.severity)
    (kind_name d.kind) d.key d.detail

(* ------------------------------------------------------------------ *)
(* Signal inventory                                                    *)
(* ------------------------------------------------------------------ *)

(* One signalling endpoint: who, from where, how much. *)
type endpoint = {
  ep_amount : int; (* notify amount or wait threshold *)
  ep_rank : int;
  ep_role : string;
  ep_task : string;
}

type key_info = {
  k_target : Instr.signal_target;
  mutable k_notifies : endpoint list; (* reverse traversal order *)
  mutable k_waits : endpoint list;
}

(* Per-target state lives in slot-indexed arrays (see [Slot]); a key
   string is formatted only when a diagnostic names it. *)
type inventory = {
  inv_layout : Slot.layout;
  inv_names : Slot.names;
  inv_keys : key_info option array;
  mutable inv_order : int list; (* slots in first-touch order *)
  mutable inv_notifies : int;
  mutable inv_waits : int;
}

let slot_of inv target =
  Slot.of_target ~op:"Analyzer.analyze" inv.inv_layout target
let key_of inv slot = Slot.name inv.inv_names slot

let inventory_of (p : Program.t) =
  let layout = Slot.of_program p in
  let inv =
    {
      inv_layout = layout;
      inv_names = Slot.names layout;
      inv_keys = Array.make (Slot.size layout) None;
      inv_order = [];
      inv_notifies = 0;
      inv_waits = 0;
    }
  in
  let info target =
    let slot = slot_of inv target in
    match inv.inv_keys.(slot) with
    | Some ki -> ki
    | None ->
      let ki =
        { k_target = target; k_notifies = []; k_waits = [] }
      in
      inv.inv_keys.(slot) <- Some ki;
      inv.inv_order <- slot :: inv.inv_order;
      ki
  in
  Program.iter_tasks p ~f:(fun ~rank role task ->
      List.iter
        (fun instr ->
          match instr with
          | Instr.Notify { target; amount; _ } ->
            let ki = info target in
            ki.k_notifies <-
              {
                ep_amount = amount;
                ep_rank = rank;
                ep_role = role.Program.role_name;
                ep_task = task.Program.label;
              }
              :: ki.k_notifies;
            inv.inv_notifies <- inv.inv_notifies + 1
          | Instr.Wait { target; threshold; _ } ->
            let ki = info target in
            ki.k_waits <-
              {
                ep_amount = threshold;
                ep_rank = rank;
                ep_role = role.Program.role_name;
                ep_task = task.Program.label;
              }
              :: ki.k_waits;
            inv.inv_waits <- inv.inv_waits + 1
          | _ -> ())
        task.Program.instrs);
  inv.inv_order <- List.rev inv.inv_order;
  Array.iter
    (Option.iter (fun ki ->
         ki.k_notifies <- List.rev ki.k_notifies;
         ki.k_waits <- List.rev ki.k_waits))
    inv.inv_keys;
  inv

let find_info inv slot = Option.get inv.inv_keys.(slot)

let supply ki = List.fold_left (fun a ep -> a + ep.ep_amount) 0 ki.k_notifies

let max_threshold ki =
  List.fold_left (fun a ep -> max a ep.ep_amount) 0 ki.k_waits

let mk_diag severity kind key (ki : key_info) (ep : endpoint) detail =
  {
    severity;
    kind;
    key;
    rank = ep.ep_rank;
    channel = Instr.channel_of_target ki.k_target;
    producer = Instr.producer_of_target ki.k_target;
    role = ep.ep_role;
    task = ep.ep_task;
    detail;
  }

(* ------------------------------------------------------------------ *)
(* 1. Accounting: unmatched / unconsumed / epoch reuse                 *)
(* ------------------------------------------------------------------ *)

let accounting_diags inv =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  List.iter
    (fun slot ->
      let ki = find_info inv slot in
      let avail = supply ki in
      let unmatched =
        List.filter (fun ep -> ep.ep_amount > avail) ki.k_waits
      in
      (match unmatched with
      | [] -> ()
      | first :: _ ->
        let key = key_of inv slot in
        emit
          (mk_diag Error
             (Unmatched_wait { threshold = first.ep_amount; available = avail })
             key ki first
             (Printf.sprintf
                "rank %d %s/%s waits %s >= %d but producers only ever signal \
                 %d%s"
                first.ep_rank first.ep_role first.ep_task key first.ep_amount
                avail
                (match List.length unmatched with
                | 1 -> ""
                | n -> Printf.sprintf " (%d waits affected)" n))));
      (match (ki.k_notifies, ki.k_waits) with
      | first :: _, [] ->
        let key = key_of inv slot in
        emit
          (mk_diag Warning
             (Unconsumed_notify { amount = avail })
             key ki first
             (Printf.sprintf
                "rank %d %s/%s signals %s (+%d total) but no task ever waits \
                 on it"
                first.ep_rank first.ep_role first.ep_task key avail))
      | _ -> ());
      match ki.k_waits with
      | first_wait :: _ when ki.k_notifies <> [] ->
        let t_max = max_threshold ki in
        if avail > t_max then begin
          let key = key_of inv slot in
          emit
            (mk_diag Error
               (Epoch_reuse
                  {
                    available = avail;
                    max_threshold = t_max;
                    waiters = List.length ki.k_waits;
                  })
               key ki first_wait
               (Printf.sprintf
                  "%s is signalled to %d but the highest of its %d registered \
                   waiter thresholds is %d: the key is re-signalled past \
                   every registered waiter's epoch"
                  key avail (List.length ki.k_waits) t_max))
        end
      | _ -> ())
    inv.inv_order;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* 2. Reachability: eager fixpoint + wait-for cycles                   *)
(* ------------------------------------------------------------------ *)

(* One task as an independent stream; [s_rest] is what it has yet to
   execute (its head is the wait it is blocked on, once stuck). *)
type stream = {
  s_id : int;
  s_rank : int;
  s_role : string;
  s_task : string;
  mutable s_rest : Instr.t list;
}

let streams_of (p : Program.t) =
  let streams = ref [] in
  let id = ref 0 in
  Program.iter_tasks p ~f:(fun ~rank role task ->
      streams :=
        {
          s_id = !id;
          s_rank = rank;
          s_role = role.Program.role_name;
          s_task = task.Program.label;
          s_rest = task.Program.instrs;
        }
        :: !streams;
      incr id);
  Array.of_list (List.rev !streams)

(* Run every stream eagerly until all are finished or blocked on a
   wait.  Monotone counters make this schedule maximally permissive,
   so the blocked set is exactly the statically-doomed set. *)
let run_fixpoint inv streams =
  let size = Slot.size inv.inv_layout in
  let avail = Array.make size 0 in
  let blocked = Array.make size [] in
  let runnable = Queue.create () in
  Array.iter (fun s -> Queue.add s.s_id runnable) streams;
  let rec step s =
    match s.s_rest with
    | Instr.Wait { target; threshold; _ } :: rest ->
      let slot = slot_of inv target in
      if avail.(slot) >= threshold then begin
        s.s_rest <- rest;
        step s
      end
      else blocked.(slot) <- s.s_id :: blocked.(slot)
    | Instr.Notify { target; amount; _ } :: rest ->
      let slot = slot_of inv target in
      avail.(slot) <- avail.(slot) + amount;
      s.s_rest <- rest;
      List.iter (fun id -> Queue.add id runnable) blocked.(slot);
      blocked.(slot) <- [];
      step s
    | _ :: rest ->
      s.s_rest <- rest;
      step s
    | [] -> ()
  in
  while not (Queue.is_empty runnable) do
    step streams.(Queue.pop runnable)
  done

(* Wait-for cycles among statically-matched blocked streams: streams
   stuck on a key whose supply is short are already reported as
   unmatched waits; the rest are blocked on signals that exist but
   cannot be emitted — the circular part of the graph is the root
   cause. *)
let deadlock_diags inv streams =
  let stuck =
    Array.to_list streams |> List.filter (fun s -> s.s_rest <> [])
  in
  if stuck = [] then []
  else begin
    let wait_of s =
      match s.s_rest with
      | Instr.Wait { target; threshold; _ } :: _ ->
        (slot_of inv target, threshold, target)
      | _ -> assert false (* fixpoint only blocks on waits *)
    in
    let statically_matched s =
      let slot, threshold, _ = wait_of s in
      match inv.inv_keys.(slot) with
      | None -> false
      | Some ki -> threshold <= supply ki
    in
    let nodes = List.filter statically_matched stuck in
    let node_ids = List.map (fun s -> s.s_id) nodes in
    let by_id = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace by_id s.s_id s) nodes;
    (* slot -> stuck matched streams still holding a notify to it *)
    let producers = Array.make (Slot.size inv.inv_layout) [] in
    List.iter
      (fun s ->
        let seen = Hashtbl.create 8 in
        List.iter
          (function
            | Instr.Notify { target; _ } ->
              let slot = slot_of inv target in
              if not (Hashtbl.mem seen slot) then begin
                Hashtbl.add seen slot ();
                producers.(slot) <- s.s_id :: producers.(slot)
              end
            | _ -> ())
          s.s_rest)
      nodes;
    let succs id =
      let s = Hashtbl.find by_id id in
      let slot, _, _ = wait_of s in
      List.rev producers.(slot)
    in
    (* DFS with colors; every back edge closes one cycle. *)
    let color = Hashtbl.create 16 in
    let col id = Option.value ~default:`White (Hashtbl.find_opt color id) in
    let stack = ref [] in
    let cycles = ref [] in
    let rec dfs id =
      Hashtbl.replace color id `Grey;
      stack := id :: !stack;
      List.iter
        (fun next ->
          match col next with
          | `Grey ->
            (* !stack = id :: ... :: next :: _; the prefix down to
               [next] is the cycle, oldest first. *)
            let rec take acc = function
              | [] -> acc
              | x :: rest -> if x = next then x :: acc else take (x :: acc) rest
            in
            cycles := take [] !stack :: !cycles
          | `White -> dfs next
          | `Black -> ())
        (succs id);
      Hashtbl.replace color id `Black;
      stack := List.tl !stack
    in
    List.iter (fun id -> if col id = `White then dfs id) node_ids;
    let cycles = List.rev !cycles in
    (* Cap the report: one diag per cycle, at most four cycles — a
       wedged collective usually repeats one pattern per rank pair. *)
    let rec cap n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: cap (n - 1) rest
    in
    let cycle_diag ids =
      let streams_in = List.map (Hashtbl.find by_id) ids in
      let n = List.length streams_in in
      let edges =
        List.mapi
          (fun i s ->
            let slot, threshold, _ = wait_of s in
            let next = List.nth streams_in ((i + 1) mod n) in
            {
              e_rank = s.s_rank;
              e_role = s.s_role;
              e_task = s.s_task;
              e_key = key_of inv slot;
              e_threshold = threshold;
              e_producer_rank = next.s_rank;
            })
          streams_in
      in
      let first = List.hd streams_in in
      let slot, threshold, target = wait_of first in
      let rendered =
        String.concat " -> "
          (List.map
             (fun e ->
               Printf.sprintf "rank %d %s/%s waits %s >= %d" e.e_rank e.e_role
                 e.e_task e.e_key e.e_threshold)
             edges)
      in
      {
        severity = Error;
        kind = Deadlock_cycle { cycle = edges };
        key = key_of inv slot;
        rank = first.s_rank;
        channel = Instr.channel_of_target target;
        producer = Instr.producer_of_target target;
        role = first.s_role;
        task = first.s_task;
        detail =
          Printf.sprintf
            "circular wait among %d task streams (threshold %d): %s -> back \
             to rank %d"
            n threshold rendered first.s_rank;
      }
    in
    let norm ids = List.sort compare ids in
    let seen = Hashtbl.create 4 in
    let distinct =
      List.filter
        (fun ids ->
          let k = norm ids in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        cycles
    in
    List.map cycle_diag (cap 4 distinct)
  end

(* ------------------------------------------------------------------ *)
(* 3. Ordering: per-task fence violations, resolved to keys            *)
(* ------------------------------------------------------------------ *)

let race_diags inv (p : Program.t) =
  let diags = ref [] in
  Program.iter_tasks p ~f:(fun ~rank role task ->
      List.iter
        (fun (fv : Consistency.fence_violation) ->
          let target =
            match fv.Consistency.fv_fence with
            | Instr.Wait { target; _ } | Instr.Notify { target; _ } -> target
            | _ -> assert false (* fences are waits/notifies by construction *)
          in
          let key = key_of inv (slot_of inv target) in
          let verb =
            match fv.Consistency.fv_kind with
            | Consistency.Read_before_acquire ->
              "reads before the acquire wait on"
            | Consistency.Write_after_release ->
              "writes after the release notify on"
          in
          diags :=
            {
              severity = Error;
              kind =
                Data_race
                  {
                    race = fv.Consistency.fv_kind;
                    position = fv.Consistency.fv_position;
                    fence_position = fv.Consistency.fv_fence_position;
                    access = Instr.to_string fv.Consistency.fv_instr;
                  };
              key;
              rank;
              channel = Instr.channel_of_target target;
              producer = Instr.producer_of_target target;
              role = role.Program.role_name;
              task = task.Program.label;
              detail =
                Printf.sprintf
                  "rank %d %s/%s instr %d (%s) %s %s (instr %d): data race \
                   with the producing rank %d"
                  rank role.Program.role_name task.Program.label
                  fv.Consistency.fv_position
                  (Instr.to_string fv.Consistency.fv_instr)
                  verb key fv.Consistency.fv_fence_position
                  (Instr.producer_of_target target);
            }
            :: !diags)
        (Consistency.task_fence_violations task.Program.instrs));
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let analyze (p : Program.t) =
  let inv = inventory_of p in
  let streams = streams_of p in
  run_fixpoint inv streams;
  let diags =
    accounting_diags inv @ deadlock_diags inv streams @ race_diags inv p
  in
  {
    program = Program.name p;
    world_size = Program.world_size p;
    diags;
    keys = List.length inv.inv_order;
    notifies = inv.inv_notifies;
    waits = inv.inv_waits;
  }

let errors report =
  List.filter (fun d -> d.severity = Error) report.diags

let ok report = errors report = []

let check p =
  match errors (analyze p) with [] -> Ok () | diags -> Error diags

exception Protocol_violation of diag list

let () =
  Printexc.register_printer (function
    | Protocol_violation diags ->
      Some
        (Printf.sprintf "Analyzer.Protocol_violation (%d diagnostics):\n%s"
           (List.length diags)
           (String.concat "\n"
              (List.map (fun d -> "  " ^ diag_to_string d) diags)))
    | _ -> None)

let check_exn p =
  match check p with Ok () -> () | Error diags -> raise (Protocol_violation diags)

let check_message p =
  match check p with
  | Ok () -> Ok ()
  | Error diags ->
    let shown =
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      take 3 diags
    in
    let suffix =
      match List.length diags - List.length shown with
      | 0 -> ""
      | more -> Printf.sprintf " (+%d more)" more
    in
    Error
      (String.concat "; " (List.map diag_to_string shown) ^ suffix)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = Tilelink_obs.Json

let num i = Json.Num (float_of_int i)

let edge_to_json e =
  Json.Obj
    [
      ("rank", num e.e_rank);
      ("role", Json.Str e.e_role);
      ("task", Json.Str e.e_task);
      ("key", Json.Str e.e_key);
      ("threshold", num e.e_threshold);
      ("producer_rank", num e.e_producer_rank);
    ]

let kind_fields = function
  | Unmatched_wait { threshold; available } ->
    [ ("threshold", num threshold); ("available", num available) ]
  | Unconsumed_notify { amount } -> [ ("amount", num amount) ]
  | Epoch_reuse { available; max_threshold; waiters } ->
    [
      ("available", num available);
      ("max_threshold", num max_threshold);
      ("waiters", num waiters);
    ]
  | Deadlock_cycle { cycle } ->
    [ ("cycle", Json.List (List.map edge_to_json cycle)) ]
  | Data_race { race; position; fence_position; access } ->
    [
      ( "race",
        Json.Str
          (match race with
          | Consistency.Read_before_acquire -> "read_before_acquire"
          | Consistency.Write_after_release -> "write_after_release") );
      ("position", num position);
      ("fence_position", num fence_position);
      ("access", Json.Str access);
    ]
  | Mapping_mismatch { expected; actual } ->
    [ ("expected", num expected); ("actual", num actual) ]

let diag_to_json d =
  Json.Obj
    ([
       ("severity", Json.Str (severity_to_string d.severity));
       ("kind", Json.Str (kind_name d.kind));
       ("key", Json.Str d.key);
       ("rank", num d.rank);
       ( "channel",
         match d.channel with None -> Json.Null | Some c -> num c );
       ("producer", num d.producer);
       ("role", Json.Str d.role);
       ("task", Json.Str d.task);
       ("detail", Json.Str d.detail);
     ]
    @ kind_fields d.kind)

let report_to_json r =
  Json.Obj
    [
      ("program", Json.Str r.program);
      ("world_size", num r.world_size);
      ("keys", num r.keys);
      ("notifies", num r.notifies);
      ("waits", num r.waits);
      ("errors", num (List.length (errors r)));
      ( "warnings",
        num
          (List.length (List.filter (fun d -> d.severity = Warning) r.diags))
      );
      ("diags", Json.List (List.map diag_to_json r.diags));
    ]

(* ------------------------------------------------------------------ *)
(* Mapping cross-check                                                 *)
(* ------------------------------------------------------------------ *)

let check_against_mapping (p : Program.t) ~mapping =
  if
    Mapping.ranks mapping <> Program.world_size p
    || Mapping.channels_per_rank mapping <> p.Program.pc_channels
  then
    invalid_arg
      "Analyzer.check_against_mapping: mapping layout does not match program";
  let inv = inventory_of p in
  let diags = ref [] in
  List.iter
    (fun slot ->
      let ki = find_info inv slot in
      match ki.k_target with
      | Instr.Pc { rank; channel } ->
        let expected =
          Mapping.expected mapping
            ~channel:(Mapping.global_channel mapping ~rank ~local:channel)
        in
        let over_waits =
          List.filter (fun ep -> ep.ep_amount > expected) ki.k_waits
        in
        (match over_waits with
        | [] -> ()
        | first :: _ ->
          let key = key_of inv slot in
          diags :=
            mk_diag Error
              (Mapping_mismatch { expected; actual = first.ep_amount })
              key ki first
              (Printf.sprintf
                 "rank %d %s/%s waits %s >= %d but the mapping registers only \
                  %d producer tiles for this channel"
                 first.ep_rank first.ep_role first.ep_task key first.ep_amount
                 expected)
            :: !diags);
        let total = supply ki in
        if total > expected then
          let first = List.hd ki.k_notifies in
          let key = key_of inv slot in
          diags :=
            mk_diag Error
              (Mapping_mismatch { expected; actual = total })
              key ki first
              (Printf.sprintf
                 "%s receives %d signals but the mapping registers only %d \
                  producer tiles for this channel"
                 key total expected)
            :: !diags
      | Instr.Peer _ | Instr.Host _ -> ())
    inv.inv_order;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Mutation corpus                                                     *)
(* ------------------------------------------------------------------ *)

(* [rank]'s Notify/Wait instructions in [Fault]'s task order, paired
   with their resolved slot. *)
let rank_signals inv (p : Program.t) ~rank =
  let notifies = ref [] and waits = ref [] in
  List.iter
    (fun role ->
      List.iter
        (fun (task : Program.task) ->
          List.iter
            (fun instr ->
              match instr with
              | Instr.Notify { target; amount; _ } ->
                notifies := (slot_of inv target, amount) :: !notifies
              | Instr.Wait { target; threshold; _ } ->
                waits := (slot_of inv target, threshold) :: !waits
              | _ -> ())
            task.Program.instrs)
        role.Program.tasks)
    (Program.plans p).(rank);
  (List.rev !notifies, List.rev !waits)

let mutation_corpus ~seed (p : Program.t) =
  let world = Program.world_size p in
  let inv = inventory_of p in
  let key_stats slot =
    match inv.inv_keys.(slot) with
    | None -> (0, 0, 0)
    | Some ki -> (supply ki, max_threshold ki, List.length ki.k_waits)
  in
  (* All (rank, nth) whose mutation is statically visible, across the
     whole program; the seed picks one deterministically. *)
  let eligible ~signals ~keep =
    List.concat_map
      (fun rank ->
        signals rank
        |> List.mapi (fun nth item -> (nth, item))
        |> List.filter_map (fun (nth, item) ->
               if keep item then Some (rank, nth) else None))
      (List.init world Fun.id)
  in
  let pick ~salt = function
    | [] -> None
    | candidates ->
      Some (List.nth candidates ((seed + salt) mod List.length candidates))
  in
  let signals = Array.init world (fun rank -> rank_signals inv p ~rank) in
  let notify_signals rank = fst signals.(rank) in
  let wait_signals rank = snd signals.(rank) in
  (* Losing this notify leaves some registered waiter short. *)
  let drop_visible (slot, amount) =
    let avail, t_max, waiters = key_stats slot in
    waiters > 0 && t_max > avail - amount
  in
  (* Demanding one more than this wait does must exceed the supply. *)
  let bump_wait_visible (slot, threshold) =
    let avail, _, _ = key_stats slot in
    threshold + 1 > avail
  in
  (* One extra signal must pass every registered threshold. *)
  let bump_notify_visible (slot, _) =
    let avail, t_max, waiters = key_stats slot in
    waiters > 0 && avail + 1 > t_max
  in
  let corpus = ref [] in
  let add name mutant = corpus := (name, mutant) :: !corpus in
  (match pick ~salt:1 (eligible ~signals:notify_signals ~keep:drop_visible) with
  | Some (rank, nth) -> add "dropped_notify" (Fault.drop_notify p ~rank ~nth)
  | None -> ());
  (if world > 1 then
     match pick ~salt:2 (eligible ~signals:notify_signals ~keep:drop_visible) with
     | Some (rank, nth) ->
       add "swapped_rank" (Fault.swap_notify_rank p ~rank ~nth)
     | None -> ());
  (match
     pick ~salt:3 (eligible ~signals:wait_signals ~keep:bump_wait_visible)
   with
  | Some (rank, nth) ->
    add "wait_epoch_off_by_one" (Fault.bump_wait_threshold p ~rank ~nth)
  | None -> ());
  (match
     pick ~salt:4 (eligible ~signals:notify_signals ~keep:bump_notify_visible)
   with
  | Some (rank, nth) ->
    add "notify_epoch_off_by_one" (Fault.bump_notify_amount p ~rank ~nth)
  | None -> ());
  add "unsafe_hoist" (Pipeline.pipeline_program_unsafe ~stages:4 p);
  List.rev !corpus
