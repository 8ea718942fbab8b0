(* Barrier channels: the signal fabric the primitives compile to.

   Every rank owns [channels_per_rank] producer/consumer channels plus
   [peer_channels] peer channels per remote rank, plus one host channel;
   all of them live in one flat array indexed by [Slot].
   A channel is a monotonic counter in NVSHMEM-style symmetric memory;
   notifies are release-stores, waits are acquire-loads (the simulator
   realizes them as waitable counters). *)

(* What the fault interceptor decides about one notify.  [Delay]
   reschedules delivery after the given number of microseconds through
   the scheduler the runtime installed. *)
type decision = Deliver | Drop | Duplicate | Delay of float

type interceptor = kind:string -> key:string -> rank:int -> amount:int -> decision

type pending_wait = {
  pw_key : string;
  pw_rank : int;
  pw_threshold : int;
  pw_since : float;
}

(* Per-kind telemetry names, built once: the signal path never
   concatenates a metric or span name per event. *)
type kind = {
  kind : string;
  notifies_metric : string;
  waits_metric : string;
  wait_us_metric : string;
  notify_span : string;
  wait_span : string;
}

let kind name =
  {
    kind = name;
    notifies_metric = "notifies." ^ name;
    waits_metric = "waits." ^ name;
    wait_us_metric = "wait_us." ^ name;
    notify_span = "notify." ^ name;
    wait_span = "wait." ^ name;
  }

let pc_kind = kind "pc"
let peer_kind = kind "peer"
let host_kind = kind "host"

type t = {
  layout : Slot.layout;
  (* One counter per slot of the layout (see [Slot]): pc, then peer,
     then host channels. *)
  counters : Tilelink_sim.Counter.t array;
  (* Counter keys, formatted on first use for telemetry, the fault
     interceptor and pending-wait diagnostics. *)
  names : Slot.names;
  (* Telemetry sink plus the simulation clock that timestamps its
     events.  [None] (the default) keeps the original zero-overhead
     signal path. *)
  telemetry : Tilelink_obs.Telemetry.t option;
  clock : unit -> float;
  (* Fault-injection hook applied to every notify; [None] delivers
     everything untouched. *)
  interceptor : interceptor option;
  (* How to defer a delayed delivery (the runtime wires this to
     [Engine.schedule]); without it delays degrade to prompt delivery. *)
  scheduler : (float -> (unit -> unit) -> unit) option;
  (* Remap aliases: extra key names of existing slots, so the watchdog
     can re-issue a signal knowing only a rerouted key. *)
  aliases : (string, int) Hashtbl.t;
  (* Cumulative value each slot *should* have received, including
     dropped notifies: threshold <= intended means the signal was sent
     and lost in flight (retryable); threshold > intended means the
     producer never issued it (structural). *)
  intended : int array;
  (* Waits currently blocked, keyed by a unique id, so a watchdog can
     see who is blocked on what and since when. *)
  pending : (int, pending_wait) Hashtbl.t;
  mutable next_wait_id : int;
}

let name t slot = Slot.name t.names slot

(* Delivery is an idempotent set-to-epoch, not an add: [epoch] is the
   intended cumulative value captured when the notify was issued.  A
   duplicate arrival, or a delayed delivery landing after the watchdog
   already force-released the wait, is then a no-op instead of an
   overshoot that would prematurely release future waits on the same
   key.  This mirrors release-stores of a monotonically increasing
   flag value (the hardware notify these channels model). *)
let deliver t ?pred ~kind ~rank slot ~epoch ~amount =
  let counter = t.counters.(slot) in
  Tilelink_sim.Counter.set_at_least counter epoch;
  if Tilelink_obs.Telemetry.active t.telemetry then begin
    let tele = Option.get t.telemetry in
    Tilelink_obs.Metrics.inc
      (Tilelink_obs.Telemetry.metrics tele)
      kind.notifies_metric;
    let key = name t slot in
    let value = Tilelink_sim.Counter.value counter in
    let now = t.clock () in
    Tilelink_obs.Journal.record
      (Tilelink_obs.Telemetry.journal tele)
      ~t:now
      (Tilelink_obs.Journal.Signal_set { key; rank; amount; value });
    (* The span is recorded at *delivery* (not issue): a dropped notify
       never becomes a wait-resolution candidate, and a delayed one
       carries its real arrival time.  [pred] is the issuer's causal
       cursor captured at issue time. *)
    Tilelink_obs.Span.record_notify
      (Tilelink_obs.Telemetry.spans tele)
      ?pred ~label:kind.notify_span ~rank ~key ~value ~t:now
  end

let fault_mark t ~fault_kind ~key ~rank =
  if Tilelink_obs.Telemetry.active t.telemetry then begin
    let tele = Option.get t.telemetry in
    Tilelink_obs.Metrics.inc
      (Tilelink_obs.Telemetry.metrics tele)
      ("fault." ^ fault_kind);
    Tilelink_obs.Journal.record
      (Tilelink_obs.Telemetry.journal tele)
      ~t:(t.clock ())
      (Tilelink_obs.Journal.Fault_injected { kind = fault_kind; key; rank })
  end

(* Notify with fault interception.  Intended-value bookkeeping counts
   the notify once regardless of the decision: a dropped signal was
   still *sent* (so a retry may legitimately re-issue it), a duplicate
   only entitles the consumer to one increment. *)
let notify_instr ?worker t ~kind ~rank slot ~amount =
  let epoch = t.intended.(slot) + amount in
  t.intended.(slot) <- epoch;
  (* Causal predecessor of the (eventual) delivery: the issuing
     worker's last span, captured *now* so a delayed delivery still
     points at what the producer had done when it issued the signal. *)
  let pred =
    if Tilelink_obs.Telemetry.active t.telemetry then
      match worker with
      | Some w when w >= 0 ->
        Tilelink_obs.Span.cursor
          (Tilelink_obs.Telemetry.spans (Option.get t.telemetry))
          ~worker:w
      | _ -> None
    else None
  in
  match t.interceptor with
  | None -> deliver t ?pred ~kind ~rank slot ~epoch ~amount
  | Some decide -> (
    let key = name t slot in
    match decide ~kind:kind.kind ~key ~rank ~amount with
    | Deliver -> deliver t ?pred ~kind ~rank slot ~epoch ~amount
    | Drop -> fault_mark t ~fault_kind:"drop" ~key ~rank
    | Duplicate ->
      fault_mark t ~fault_kind:"duplicate" ~key ~rank;
      deliver t ?pred ~kind ~rank slot ~epoch ~amount;
      deliver t ?pred ~kind ~rank slot ~epoch ~amount
    | Delay d -> (
      fault_mark t ~fault_kind:"delay" ~key ~rank;
      match t.scheduler with
      | Some sched ->
        sched d (fun () -> deliver t ?pred ~kind ~rank slot ~epoch ~amount)
      | None -> deliver t ?pred ~kind ~rank slot ~epoch ~amount))

(* Block until the slot's counter reaches [threshold].  Only a wait
   that actually parks enters the pending-wait registry — the edge list
   watchdogs and deadlock enrichment read — and the registry is kept
   whether or not telemetry is on.  The cancellation tag is the
   *executing* rank (the process that blocks here), which for pc waits
   differs from [rank] (the channel owner): killing a rank must wake
   the workers it hosts, not the waiters watching its channels. *)
let await t ?waiter ~rank slot ~threshold =
  let counter = t.counters.(slot) in
  if Tilelink_sim.Counter.value counter < threshold then begin
    let id = t.next_wait_id in
    t.next_wait_id <- id + 1;
    Hashtbl.replace t.pending id
      { pw_key = name t slot; pw_rank = rank; pw_threshold = threshold;
        pw_since = t.clock () };
    let tag = Option.value ~default:Tilelink_sim.Counter.no_tag waiter in
    Tilelink_sim.Counter.await_ge ~tag counter threshold;
    Hashtbl.remove t.pending id
  end

(* Instrumented wait: journal begin/end (even for waits that are
   satisfied immediately — a zero-latency wait is still a pairing
   point) and feed the per-primitive wait-latency histogram. *)
let wait_instr ?waiter ?worker t ~kind ~rank slot ~threshold =
  if Tilelink_obs.Telemetry.active t.telemetry then begin
    let tele = Option.get t.telemetry in
    let journal = Tilelink_obs.Telemetry.journal tele in
    let key = name t slot in
    let t0 = t.clock () in
    Tilelink_obs.Journal.record journal ~t:t0
      (Tilelink_obs.Journal.Wait_begin { key; rank; threshold });
    await t ?waiter ~rank slot ~threshold;
    let t1 = t.clock () in
    Tilelink_obs.Journal.record journal ~t:t1
      (Tilelink_obs.Journal.Wait_end { key; rank; threshold; started = t0 });
    let metrics = Tilelink_obs.Telemetry.metrics tele in
    Tilelink_obs.Metrics.inc metrics kind.waits_metric;
    Tilelink_obs.Metrics.observe metrics kind.wait_us_metric (t1 -. t0);
    (* Only a wait that actually blocked becomes a stall span; an
       immediately satisfied wait has no causal weight. *)
    if t1 > t0 then
      Tilelink_obs.Span.record_wait
        (Tilelink_obs.Telemetry.spans tele)
        ~label:kind.wait_span
        ~rank:(Option.value ~default:rank waiter)
        ~worker:(Option.value ~default:(-1) worker)
        ~key ~threshold ~t0 ~t1
  end
  else await t ?waiter ~rank slot ~threshold

let create ~world_size ~channels_per_rank ?(peer_channels = 1) ?telemetry
    ?(clock = fun () -> 0.0) ?interceptor ?scheduler () =
  if world_size <= 0 then invalid_arg "Channel.create: world_size";
  if channels_per_rank <= 0 then
    invalid_arg "Channel.create: channels_per_rank";
  if peer_channels <= 0 then invalid_arg "Channel.create: peer_channels";
  let layout =
    Slot.layout ~world_size ~pc_channels:channels_per_rank ~peer_channels
  in
  let size = Slot.size layout in
  {
    layout;
    counters = Array.init size (fun _ -> Tilelink_sim.Counter.create ());
    names = Slot.names layout;
    telemetry;
    clock;
    interceptor;
    scheduler;
    aliases = Hashtbl.create 8;
    intended = Array.make size 0;
    pending = Hashtbl.create 16;
    next_wait_id = 0;
  }

(* Deterministic ordering: oldest wait first, ties broken
   lexicographically so the watchdog's pick is reproducible. *)
let pending_waits t =
  Hashtbl.fold (fun _ pw acc -> pw :: acc) t.pending []
  |> List.sort (fun a b ->
         match compare a.pw_since b.pw_since with
         | 0 -> compare (a.pw_key, a.pw_rank, a.pw_threshold)
                  (b.pw_key, b.pw_rank, b.pw_threshold)
         | c -> c)

(* A key names a slot either through a registered remap alias or as
   the slot's own canonical key. *)
let slot_of_key t key =
  match Hashtbl.find_opt t.aliases key with
  | Some slot -> Some slot
  | None -> Slot.of_key t.layout key

let key_value t ~key =
  Option.map
    (fun slot -> Tilelink_sim.Counter.value t.counters.(slot))
    (slot_of_key t key)

let intended_value t ~key =
  match slot_of_key t key with Some slot -> t.intended.(slot) | None -> 0

(* The watchdog's re-issue path: idempotent (set-at-least, not add) and
   deliberately bypasses the interceptor — a recovery action must not
   itself be faulted away silently; the chaos schedule models lossy
   retries separately. *)
let force_signal t ~key ~target =
  match slot_of_key t key with
  | None -> invalid_arg (Printf.sprintf "Channel.force_signal: unknown key %s" key)
  | Some slot -> Tilelink_sim.Counter.set_at_least t.counters.(slot) target

(* Elastic remap support: register [alias] as another name of the
   counter behind [key].  Rerouted keys of a remapped protocol resolve
   (for force_signal / key_value / the watchdog) to the original
   counter the already-blocked consumers are waiting on. *)
let register_remap t ~key ~alias =
  match slot_of_key t key with
  | None ->
    invalid_arg (Printf.sprintf "Channel.register_remap: unknown key %s" key)
  | Some slot -> Hashtbl.replace t.aliases alias slot

let world_size t = t.layout.Slot.world_size
let channels_per_rank t = t.layout.Slot.pc_channels

(* Force-release every wait a crashed rank's processes are blocked in:
   the counters keep their values (nothing is delivered), the woken
   workers observe the rank is dead and abandon their tasks.  Without
   this a dead rank's parked workers would keep the engine's live count
   up forever and a polling watchdog would spin for eternity. *)
let cancel_rank_waits t ~rank =
  if rank < 0 || rank >= world_size t then
    invalid_arg
      (Printf.sprintf "Channel.cancel_rank_waits: rank %d out of range" rank);
  Array.fold_left
    (fun n c -> n + Tilelink_sim.Counter.cancel_tag c ~tag:rank)
    0 t.counters

(* Every accessor resolves its target through [Slot], which range-checks
   each rank and channel and names the operation in the error.

   Producer/consumer channel on [rank]. *)
let pc_notify ?worker t ~rank ~channel ~amount =
  notify_instr ?worker t ~kind:pc_kind ~rank
    (Slot.pc ~op:"Channel.pc_notify" t.layout ~rank ~channel)
    ~amount

let pc_wait ?waiter ?worker t ~rank ~channel ~threshold =
  wait_instr ?waiter ?worker t ~kind:pc_kind ~rank
    (Slot.pc ~op:"Channel.pc_wait" t.layout ~rank ~channel)
    ~threshold

let pc_value t ~rank ~channel =
  Tilelink_sim.Counter.value
    t.counters.(Slot.pc ~op:"Channel.pc_value" t.layout ~rank ~channel)

(* Peer channel: [src] signals [dst]. *)
let peer_notify ?worker t ~src ~dst ?(channel = 0) ~amount () =
  notify_instr ?worker t ~kind:peer_kind ~rank:src
    (Slot.peer ~op:"Channel.peer_notify" t.layout ~src ~dst ~channel)
    ~amount

let peer_wait ?waiter ?worker t ~src ~dst ?(channel = 0) ~threshold () =
  wait_instr ?waiter ?worker t ~kind:peer_kind ~rank:dst
    (Slot.peer ~op:"Channel.peer_wait" t.layout ~src ~dst ~channel)
    ~threshold

let peer_value t ~src ~dst ?(channel = 0) () =
  Tilelink_sim.Counter.value
    t.counters.(Slot.peer ~op:"Channel.peer_value" t.layout ~src ~dst ~channel)

(* Host channel: copy-engine completion signalled to [dst]'s kernels. *)
let host_notify ?worker t ~src ~dst ~amount =
  notify_instr ?worker t ~kind:host_kind ~rank:src
    (Slot.host ~op:"Channel.host_notify" t.layout ~src ~dst)
    ~amount

let host_wait ?waiter ?worker t ~src ~dst ~threshold =
  wait_instr ?waiter ?worker t ~kind:host_kind ~rank:dst
    (Slot.host ~op:"Channel.host_wait" t.layout ~src ~dst)
    ~threshold

let total_notifies t =
  Array.fold_left
    (fun n c -> n + Tilelink_sim.Counter.notify_count c)
    0 t.counters
