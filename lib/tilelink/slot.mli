(** Dense integer slots for signal targets.

    A program's channel layout — [W] ranks, [P] producer/consumer
    channels per rank, [Q] peer channels per (src, dst) pair — numbers
    every signal target it can name:

    - [Pc {rank; channel}] is slot [rank * P + channel], in [\[0, W·P)];
    - [Peer {src; dst; channel}] is slot [W·P + (dst * W + src) * Q + channel],
      in [\[W·P, W·P + W²·Q)];
    - [Host {src; dst}] is slot [W·P + W²·Q + dst * W + src], the last [W²].

    The analyzer, the channel fabric and the parallel lowering index
    their per-target state by slot.  The counter-key string of a slot
    ({!key}, identical to {!Instr.key_of_target}) is only needed for
    diagnostics, telemetry and remap aliases; {!names} formats each key
    at most once. *)

type layout = private {
  world_size : int;
  pc_channels : int;
  peer_channels : int;
}

val layout : world_size:int -> pc_channels:int -> peer_channels:int -> layout
(** Raises [Invalid_argument] unless every count is positive. *)

val of_program : Program.t -> layout
val size : layout -> int

(** Slot of one target.  [op] names the caller in the error: an
    out-of-range rank or channel raises
    [Invalid_argument "<op>: <what> <value> out of range"]. *)

val pc : op:string -> layout -> rank:int -> channel:int -> int
val peer : op:string -> layout -> src:int -> dst:int -> channel:int -> int
val host : op:string -> layout -> src:int -> dst:int -> int
val of_target : op:string -> layout -> Instr.signal_target -> int

val target : layout -> int -> Instr.signal_target
(** Inverse of {!of_target}.  Raises [Invalid_argument] outside
    [\[0, size)]. *)

val key : layout -> int -> string
(** [Instr.key_of_target (target layout slot)]. *)

val of_key : layout -> string -> int option
(** The slot whose {!key} is exactly this string, if any. *)

(** Memoised {!key}: each slot's string is formatted on first use. *)
type names

val names : layout -> names
val name : names -> int -> string
