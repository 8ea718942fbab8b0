(** Tile labels built without [Printf].

    Builders name every task and compute tile ("gemm[3,1]k0",
    "rs[s2,5]"); formatting those through [Printf] costs tens of words
    per label.  These builders write the decimal digits straight into
    one string of the right length, so a label is one allocation and
    byte-identical to the [%d] rendering. *)

val int1 : string -> int -> string -> string
(** [int1 s0 a s1] is [s0 ^ string_of_int a ^ s1]. *)

val int2 : string -> int -> string -> int -> string -> string
(** [int2 s0 a s1 b s2] is [s0 ^ string_of_int a ^ s1 ^ string_of_int b ^ s2]. *)

val int3 :
  string -> int -> string -> int -> string -> int -> string -> string
(** Three integers interleaved with four literals, as {!int2}. *)
