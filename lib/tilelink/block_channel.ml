(* BlockChannel (paper §6): the tile-centric mapping context.

   The real TileLink passes a special [BlockChannel] parameter into the
   Triton kernel; its embedded metadata (rank, world size, barrier
   configuration, producer/consumer block relationships) is decomposed
   during AST translation to construct the tile-centric mapping.  Here
   it is the record kernel builders thread through lowering. *)

type t = {
  rank : int;
  world_size : int;
  mapping : Mapping.t;
  channel_base : int;  (* offset into the rank's pc channel array *)
  peer_channels : int;
}

let create ?(channel_base = 0) ?(peer_channels = 1) ~rank ~world_size mapping
    =
  if rank < 0 || rank >= world_size then
    invalid_arg "Block_channel.create: rank out of range";
  if Mapping.ranks mapping <> world_size then
    invalid_arg "Block_channel.create: mapping/world size mismatch";
  { rank; world_size; mapping; channel_base; peer_channels }

let rank t = t.rank
let world_size t = t.world_size
let mapping t = t.mapping
let channel_base t = t.channel_base
let peer_channels t = t.peer_channels

(* Channels this link occupies: [channel_base, channel_base + extent). *)
let channel_extent t = Mapping.num_channels t.mapping

let lower_config t : Lower.config =
  { Lower.mapping = t.mapping; rank = t.rank; world_size = t.world_size }

(* Lower a statement list in this context, applying the channel-base
   offset to every producer/consumer signal target.

   With [telemetry], lowering also reports the static shape of the
   signal fabric it is about to occupy: a [Channel_acquire] journal
   event for the channel range (timestamped 0 — lowering happens before
   simulation time starts) and counters for how many wait/notify
   instructions the tile-centric primitives expanded into. *)
let lower ?telemetry t stmts =
  if Tilelink_obs.Telemetry.active telemetry then begin
    let tele = Option.get telemetry in
    Tilelink_obs.Journal.record
      (Tilelink_obs.Telemetry.journal tele)
      ~t:0.0
      (Tilelink_obs.Journal.Channel_acquire
         { rank = t.rank; base = t.channel_base; extent = channel_extent t });
    (* Zero-length marker span at t=0: makes the lowering's channel
       occupation visible to the span DAG without adding any charged
       time (never on the critical path — zero duration, no preds). *)
    Tilelink_obs.Span.record_task
      (Tilelink_obs.Telemetry.spans tele)
      ~kind:Tilelink_obs.Span.Compute
      ~label:
        (Printf.sprintf "lower.acquire[%d..%d)" t.channel_base
           (t.channel_base + channel_extent t))
      ~rank:t.rank ~worker:(-1) ~t0:0.0 ~t1:0.0
  end;
  let note_instr = function
    | Instr.Wait _ ->
      Option.iter
        (fun tele ->
          Tilelink_obs.Metrics.inc
            (Tilelink_obs.Telemetry.metrics tele)
            "lowered.waits")
        telemetry
    | Instr.Notify _ ->
      Option.iter
        (fun tele ->
          Tilelink_obs.Metrics.inc
            (Tilelink_obs.Telemetry.metrics tele)
            "lowered.notifies")
        telemetry
    | _ -> ()
  in
  let shift = function
    | Instr.Wait { target = Instr.Pc { rank; channel }; threshold; guards } ->
      Instr.Wait
        {
          target = Instr.Pc { rank; channel = channel + t.channel_base };
          threshold;
          guards;
        }
    | Instr.Notify { target = Instr.Pc { rank; channel }; amount; releases }
      ->
      Instr.Notify
        {
          target = Instr.Pc { rank; channel = channel + t.channel_base };
          amount;
          releases;
        }
    | instr -> instr
  in
  let lowered = Lower.lower (lower_config t) stmts in
  if Tilelink_obs.Telemetry.active telemetry then List.iter note_instr lowered;
  if t.channel_base = 0 then lowered else List.map shift lowered
