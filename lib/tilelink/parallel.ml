(* The parallel execution backend: lower a mapped program onto the
   domain-team substrate (Tilelink_exec.Backend) and really run it.

   Where the sequential interpreter advances a simulated clock and
   executes data actions from one thread, this backend executes them
   on OCaml 5 domains for real: every task of every role becomes one
   Backend stream homed on its rank's domain (rank mod team size),
   and every signal target becomes one atomic monotonic counter,
   indexed by its dense [Slot] and labelled with its counter key
   ("pc[r][c]" / "peer[d<-s][c]" / "host[d<-s]").  Wait/Notify
   lower to acquire loads / release fetch-and-adds on those counters —
   the Pc protocol of instr.ml executed against the real OCaml memory
   model instead of the simulated one.

   Soundness gate: the static analyzer (PR 4) pre-flights every
   program before it is admitted.  The analyzer's reachability
   fixpoint executes each task as its own maximally-parallel stream —
   exactly the stream model the substrate runs — so analyzer-clean
   programs cannot deadlock here for any team size >= 1, and its
   happens-before race check guarantees that all cross-task tensor
   traffic is ordered by the counters the waits acquire.  Any
   protocol-respecting schedule therefore computes bit-identical
   tensors to the sequential interpreter.

   Timing (Sleep) and placement (Load/Store staging tokens) are
   simulation concerns and lower to nothing. *)

module Backend = Tilelink_exec.Backend
module Obs = Tilelink_obs

type result = {
  p_wall_us : float;
  p_notifies : int;
  p_stats : Backend.stats;
  p_key_values : (string * int) list;
}

let lower ~data ~memory (program : Program.t) =
  let layout = Slot.of_program program in
  let names = Slot.names layout in
  (* One backend counter per slot, created (and its key formatted) the
     first time a wait or notify names it. *)
  let counters : Backend.counter option array =
    Array.make (Slot.size layout) None
  in
  let counter_of target =
    let slot = Slot.of_target ~op:"Parallel.lower" layout target in
    match counters.(slot) with
    | Some c -> c
    | None ->
      let c = Backend.counter (Slot.name names slot) in
      counters.(slot) <- Some c;
      c
  in
  let streams = ref [] in
  Array.iteri
    (fun rank roles ->
      List.iter
        (fun (role : Program.role) ->
          List.iter
            (fun (task : Program.task) ->
              let ops =
                List.filter_map
                  (fun (instr : Instr.t) ->
                    match instr with
                    | Instr.Wait { target; threshold; _ } ->
                      Some
                        (Backend.Wait
                           { counter = counter_of target; threshold })
                    | Instr.Notify { target; amount; _ } ->
                      Some
                        (Backend.Notify { counter = counter_of target; amount })
                    | Instr.Compute { label; action; _ } -> (
                      match action with
                      | Some act when data ->
                        Some
                          (Backend.Exec
                             { label; run = (fun () -> act memory ~rank) })
                      | Some _ | None -> None)
                    | Instr.Copy { label; src; dst; action; _ } ->
                      if data then
                        let act =
                          match action with
                          | Some act -> act
                          | None -> Dataop.copy_action src dst
                        in
                        Some
                          (Backend.Exec
                             { label; run = (fun () -> act memory ~rank) })
                      else None
                    | Instr.Load _ | Instr.Store _ | Instr.Sleep _ -> None)
                  task.Program.instrs
              in
              let label =
                Printf.sprintf "r%d/%s/%s" rank role.Program.role_name
                  task.Program.label
              in
              streams := Backend.stream ~label ~home:rank ops :: !streams)
            role.Program.tasks)
        roles)
    program.Program.plans;
  (counters, List.rev !streams)

let record_telemetry telemetry ~domains (stats : Backend.stats) =
  if Obs.Telemetry.active telemetry then begin
    let m = Obs.Telemetry.metrics (Option.get telemetry) in
    Obs.Metrics.inc m ~by:stats.Backend.total_execs "parallel.execs";
    Obs.Metrics.inc m ~by:stats.Backend.total_notifies "parallel.notifies";
    Obs.Metrics.inc m ~by:stats.Backend.total_parks "parallel.parks";
    Obs.Metrics.set_gauge m "parallel.domains" (float_of_int domains);
    Obs.Metrics.set_gauge m "parallel.wall_us" (stats.Backend.wall_s *. 1e6);
    let busy =
      Array.fold_left
        (fun acc d -> acc +. d.Backend.d_busy_s)
        0.0 stats.Backend.per_domain
    in
    Obs.Metrics.set_gauge m "parallel.busy_us" (busy *. 1e6);
    Array.iteri
      (fun i d ->
        Obs.Metrics.set_gauge m
          (Printf.sprintf "parallel.busy_us.d%d" i)
          (d.Backend.d_busy_s *. 1e6))
      stats.Backend.per_domain
  end

let run ?telemetry ?(data = true) ?memory ~domains (program : Program.t) =
  (match Program.validate program with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Parallel.run: invalid program: " ^ msg));
  (* The soundness gate: no program reaches the domains without a
     clean static protocol analysis. *)
  Analyzer.check_exn program;
  let memory =
    match memory with
    | Some m -> m
    | None -> Memory.create ~world_size:(Program.world_size program)
  in
  let counters, streams = lower ~data ~memory program in
  let team = Backend.shared domains in
  let stats = Backend.run team streams in
  record_telemetry telemetry ~domains stats;
  let key_values =
    Array.fold_left
      (fun acc -> function
        | Some c -> (Backend.counter_key c, Backend.counter_value c) :: acc
        | None -> acc)
      [] counters
    |> List.sort compare
  in
  ( memory,
    {
      p_wall_us = stats.Backend.wall_s *. 1e6;
      p_notifies = stats.Backend.total_notifies;
      p_stats = stats;
      p_key_values = key_values;
    } )
