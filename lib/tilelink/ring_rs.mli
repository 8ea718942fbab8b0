(** The ring ReduceScatter consumer of Figure 4 (lines 11-26), defined
    once and composed into every kernel that reduces a partial product
    over the ranks: GEMM+RS ([Mlp.gemm_rs_program]) and MoE part 2
    ([Moe.part2_program]). *)

val tasks : Block_channel.t -> src:string -> Tile.grid -> Program.task list
(** [tasks bc ~src grid] is every ring stage's tasks for the rank of
    [bc], stage-major, each stage in row-major tile order.  [grid] tiles
    one rank's output shard: [extent_m] rows per rank by [extent_n]
    columns.

    At stage [s] the rank reduces segment [(rank + s + 1) mod world] of
    [src] (a [world * extent_m] row buffer whose tiles the producer
    announces on [bc]'s producer/consumer channels), adding the partial
    sum its ring successor pushed into ["rs_buffer"] (peer wait on the
    tile's key, threshold [s]).  Every stage but the last stages the sum
    in ["rs_send"] and pushes it into the ring predecessor's
    ["rs_buffer"] with a peer notify; the last stage stores the fully
    reduced tile into ["out"] ([extent_m] rows).  Tasks are labelled
    ["rs[s<stage>,<tile>]"], their computes ["reduce[s<stage>,<tile>]"].
    The peer channel of a tile is its row-major index in [grid], so the
    program needs [Tile.tile_count grid] peer channels.

    @raise Invalid_argument if the tile does not divide the shard (a
    non-positive tile is already rejected by [Tile.grid]). *)
