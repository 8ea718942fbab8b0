(** Barrier channels: the signal fabric tile-centric primitives compile
    to (NVSHMEM-style symmetric counters with release/acquire
    semantics).

    Counters live in one array indexed by {!Slot}; every accessor
    resolves its arguments through the slot functions and raises
    [Invalid_argument "Channel.<op>: <what> <value> out of range"] for
    an out-of-range rank or channel.  Counter keys ([pc[r][c]],
    [peer[d<-s][c]], [host[d<-s]]) are formatted once per slot, on
    first use, for telemetry, the interceptor and pending waits. *)

type t

(** Fault-interception verdict for one notify.  [Delay d] delivers the
    signal [d] µs later (through the scheduler installed at
    {!create}); [Duplicate] delivers it twice (the intended value only
    counts it once, so duplicates inflate the counter harmlessly —
    waits are [>= threshold]). *)
type decision = Deliver | Drop | Duplicate | Delay of float

type interceptor =
  kind:string -> key:string -> rank:int -> amount:int -> decision
(** Called on every notify with the channel kind ([pc]/[peer]/[host]),
    the counter key, the signalling rank and the amount. *)

(** A wait currently blocked inside {!pc_wait}/{!peer_wait}/{!host_wait}:
    which counter, which rank is waiting, for what threshold, since
    when (simulation time). *)
type pending_wait = {
  pw_key : string;
  pw_rank : int;
  pw_threshold : int;
  pw_since : float;
}

val create :
  world_size:int ->
  channels_per_rank:int ->
  ?peer_channels:int ->
  ?telemetry:Tilelink_obs.Telemetry.t ->
  ?clock:(unit -> float) ->
  ?interceptor:interceptor ->
  ?scheduler:(float -> (unit -> unit) -> unit) ->
  unit ->
  t
(** With [telemetry], every notify/wait records a journal event
    ([clock] supplies the simulation time) and feeds per-primitive
    counters and wait-latency histograms ([wait_us.pc] / [.peer] /
    [.host]).  Without it the signal path is unchanged.

    [interceptor] sees every notify and may drop, duplicate or delay
    it; injected faults are counted under [fault.*] metrics and
    journalled as [Fault_injected].  [scheduler delay thunk] is how a
    delayed delivery is deferred (the runtime passes
    [Engine.schedule]); without one, [Delay] degrades to prompt
    delivery. *)

val world_size : t -> int
val channels_per_rank : t -> int

val pc_notify :
  ?worker:int -> t -> rank:int -> channel:int -> amount:int -> unit
(** [worker] is the span-recorder worker id of the issuing execution
    stream; when telemetry is on, the delivery span's causal
    predecessor is that worker's last span at issue time. *)

val pc_wait :
  ?waiter:int ->
  ?worker:int ->
  t ->
  rank:int ->
  channel:int ->
  threshold:int ->
  unit
(** [waiter] is the *executing* rank blocking in the wait (which for pc
    channels differs from [rank], the channel owner); it tags the parked
    process so {!cancel_rank_waits} can force-wake it if that rank
    crashes.  [worker] chains the stall span (if the wait blocks) into
    that execution stream's program order. *)

val pc_value : t -> rank:int -> channel:int -> int

val peer_notify :
  ?worker:int ->
  t ->
  src:int ->
  dst:int ->
  ?channel:int ->
  amount:int ->
  unit ->
  unit

val peer_wait :
  ?waiter:int ->
  ?worker:int ->
  t ->
  src:int ->
  dst:int ->
  ?channel:int ->
  threshold:int ->
  unit ->
  unit

val peer_value : t -> src:int -> dst:int -> ?channel:int -> unit -> int

val host_notify : ?worker:int -> t -> src:int -> dst:int -> amount:int -> unit

val host_wait :
  ?waiter:int -> ?worker:int -> t -> src:int -> dst:int -> threshold:int -> unit

val cancel_rank_waits : t -> rank:int -> int
(** Force-wake every wait whose executing rank (the [waiter] tag) is
    [rank], without delivering anything: counters keep their values and
    the resumed processes see their thresholds unsatisfied.  Returns the
    number of waits released.  This is how a crash stops a dead rank's
    workers from parking forever. *)

val register_remap : t -> key:string -> alias:string -> unit
(** Make [alias] resolve (for {!force_signal}, {!key_value} and
    {!intended_value}) to the same counter as [key] — the elastic-remap
    hook that reroutes a dead rank's channel keys onto survivor-owned
    counters.  Aliases are the only keys kept in a table; canonical
    keys are parsed back to their slot.  Raises [Invalid_argument] when
    [key] is unknown. *)

val total_notifies : t -> int

val pending_waits : t -> pending_wait list
(** Waits currently blocked, oldest first (deterministic order); a wait
    whose threshold is already met never appears.
    Maintained whether or not telemetry is enabled: this is the
    waiters-for edge list watchdogs and deadlock enrichment read. *)

val key_value : t -> key:string -> int option
(** Current value of the counter named [key] (a canonical key or a
    registered alias), if it exists. *)

val intended_value : t -> key:string -> int
(** Cumulative amount every producer *attempted* to deliver to [key],
    including notifies the interceptor dropped.  [threshold <=
    intended_value] means a lost-in-flight signal (retryable);
    [threshold > intended_value] means the producer never issued it. *)

val force_signal : t -> key:string -> target:int -> unit
(** Idempotently raise the counter named [key] to at least [target],
    waking satisfied waiters.  Bypasses the interceptor — this is the
    watchdog's recovery path.  Raises [Invalid_argument] on an unknown
    key. *)
