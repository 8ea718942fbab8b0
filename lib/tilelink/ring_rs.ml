(* The ring ReduceScatter consumer of Figure 4 (lines 11-26).

   Each rank owns one [extent_m]-row segment of the reduced output.  At
   stage s it reads segment (rank + s + 1) mod R of the local partial
   [src] once the producer has announced the tile, adds the running sum
   its ring successor pushed into "rs_buffer", and either forwards the
   result to its ring predecessor (stages 0 .. R-2) or stores the final
   tile into "out" (stage R-1). *)

open Tilelink_tensor

let access = Instr.access

let tasks bc ~src (grid : Tile.grid) =
  let r = Block_channel.world_size bc in
  let rank = Block_channel.rank bc in
  let m_per_rank = grid.Tile.extent_m in
  (* [Tile.grid] has already rejected a non-positive tile. *)
  if m_per_rank mod grid.Tile.tile_m <> 0
     || grid.Tile.extent_n mod grid.Tile.tile_n <> 0
  then invalid_arg "Ring_rs.tasks: rs tile must divide the shard";
  let to_rank = (rank - 1 + r) mod r in
  let from_rank = (rank + 1) mod r in
  let reduce_stmts ~stage tile =
    let seg = (rank + stage + 1) mod r in
    let llo, lhi = Tile.rows grid tile in
    let ((clo, chi) as col) = Tile.cols grid tile in
    let glo = (seg * m_per_rank) + llo and ghi = (seg * m_per_rank) + lhi in
    let row = (glo, ghi) in
    let tile_key = Tile.linearize grid tile in
    let last = stage = r - 1 in
    let partial = access ~buffer:src ~row ~col () in
    let received = access ~buffer:"rs_buffer" ~row ~col () in
    let result =
      if last then access ~buffer:"out" ~row:(llo, lhi) ~col ()
      else access ~buffer:"rs_send" ~row ~col ()
    in
    let action memory ~rank =
      let block name =
        Tensor.block
          (Memory.find memory ~rank ~name)
          ~row_lo:glo ~row_hi:ghi ~col_lo:clo ~col_hi:chi
      in
      let data =
        if stage = 0 then block src else Tensor.add (block src) (block "rs_buffer")
      in
      if last then
        Tensor.set_block
          (Memory.find memory ~rank ~name:"out")
          ~row_lo:llo ~col_lo:clo data
      else
        Tensor.set_block
          (Memory.find memory ~rank ~name:"rs_send")
          ~row_lo:glo ~col_lo:clo data
    in
    let wait_peer =
      if stage = 0 then []
      else
        [
          Primitive.Peer_tile_wait
            { tile_key; src = from_rank; threshold = stage; guards = [ received ] };
          Primitive.Load received;
        ]
    in
    let tail =
      if last then [ Primitive.Store result ]
      else
        [
          Primitive.Tile_push_data
            { src = result; dst_rank = to_rank; dst = received };
          Primitive.Peer_tile_notify
            {
              tile_key;
              dst = to_rank;
              amount = 1;
              releases =
                [ access ~rank:to_rank ~buffer:"rs_buffer" ~row ~col () ];
            };
        ]
    in
    [
      Primitive.Consumer_tile_wait { lo = glo; hi = ghi; buffer = src; col };
      Primitive.Load partial;
    ]
    @ wait_peer
    @ [
        Primitive.Compute
          {
            label = Label.int2 "reduce[s" stage "," tile_key "]";
            cost =
              Instr.Memory_tile
                {
                  rows = lhi - llo;
                  cols = chi - clo;
                  passes = (if stage = 0 then 2 else 3);
                };
            reads = [ partial ];
            writes = [ result ];
            action = Some action;
          };
      ]
    @ tail
  in
  let rs_task ~stage tile =
    {
      Program.label = Label.int2 "rs[s" stage "," (Tile.linearize grid tile) "]";
      instrs = Block_channel.lower bc (reduce_stmts ~stage tile);
    }
  in
  let stage_tasks stage =
    List.map (rs_task ~stage) (Tile.enumerate ~rank grid Tile.Row_major)
  in
  List.concat (List.init r stage_tasks)
