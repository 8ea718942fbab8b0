(** Tensor-parallel MLP kernels built from tile-centric primitives:
    AllGather + GEMM and GEMM + ring ReduceScatter (Figures 1 and 4 of
    the paper).

    Both builders produce programs whose data actions implement real
    tensor semantics, so the same program is validated numerically at
    small shapes and timed at paper shapes. *)

open Tilelink_core
open Tilelink_machine

(** {2 AllGather + GEMM}

    Buffers per rank: ["x_shard"] [m/world, k] input shard, ["x_full"]
    [m, k] gather destination, ["w"] [k, n] weights, ["y"] [m, n]
    output. *)

type ag_gemm_spec = {
  m : int;  (** global rows (batch x seq) *)
  k : int;  (** hidden dim (gather width) *)
  n : int;  (** output columns per rank *)
  world_size : int;
}

val ag_gemm_alloc : ag_gemm_spec -> seed:int -> Memory.t
(** Fresh memories with deterministic random inputs. *)

val ag_gemm_reference :
  Memory.t -> ag_gemm_spec -> rank:int -> Tilelink_tensor.Tensor.t

val ag_gemm_graph : ag_gemm_spec -> Planner.graph
(** The AllGather+GEMM operator graph: one [Gemm] consumer named
    ["gemm"] writing ["y"] from weights ["w"], gathering ["x_shard"]
    into ["x_full"].  Raises [Invalid_argument] when [m] does not divide
    over the world. *)

val ag_gemm_program :
  ?transfer:[ `Pull | `Push ] ->
  config:Design_space.config ->
  ag_gemm_spec ->
  spec_gpu:Spec.t ->
  Program.t
(** {!Planner.synthesize} of {!ag_gemm_graph} at [config], with the
    inner loop over [k] in two chunks.  [`Pull] (default) fetches
    remote tiles and signals locally; [`Push] broadcasts the rank's own
    tiles to every peer and notifies remote consumers (Figure 3b).
    Raises [Invalid_argument] when a tile dimension is not positive or
    the comm tile does not divide the shard. *)

(** {2 GEMM + ring ReduceScatter (Figure 4)}

    Buffers per rank: ["act"] [m, k], ["w2"] [k, n], ["gemm_out"] [m, n]
    partials, ["rs_buffer"]/["rs_send"] [m, n] ring buffers, ["out"]
    [m/world, n] final shard. *)

type gemm_rs_spec = {
  rs_m : int;  (** global output rows *)
  rs_k : int;  (** per-rank reduction dim *)
  rs_n : int;
  rs_world : int;
}

val gemm_rs_alloc : gemm_rs_spec -> seed:int -> Memory.t

val gemm_rs_reference :
  Memory.t -> gemm_rs_spec -> rank:int -> Tilelink_tensor.Tensor.t

val gemm_rs_program :
  config:Design_space.config -> gemm_rs_spec -> spec_gpu:Spec.t -> Program.t
(** The GEMM producer (compute tile, [compute_order]) feeding
    {!Tilelink_core.Ring_rs.tasks} over ["gemm_out"] (comm tile), bound
    as role ["ring-rs-sm"], ["ring-rs-dma"] or ["ring-rs-hybrid"].
    Raises [Invalid_argument] when a tile dimension is not positive or
    a tile does not divide the rank's shard. *)
