open Tilelink_core
open Tilelink_tensor

(* ------------------------------------------------------------------ *)
(* Softmax                                                             *)
(* ------------------------------------------------------------------ *)

let softmax_graph ~m ~k ~world =
  Planner.graph ~name:"planned_ag_softmax" ~rows:m ~cols:k ~world
    [ Planner.consumer ~name:"softmax" ~out:"p" Planner.Softmax_rows ]

let softmax_alloc ~m ~k ~world ~seed =
  let memory = Memory.create ~world_size:world in
  let shard_rows = m / world in
  for rank = 0 to world - 1 do
    Memory.bind memory ~rank ~name:"x_shard"
      (Tensor.random ~seed:(seed + rank) (Shape.of_list [ shard_rows; k ]));
    ignore (Memory.alloc memory ~rank ~name:"x_full" (Shape.of_list [ m; k ]));
    ignore (Memory.alloc memory ~rank ~name:"p" (Shape.of_list [ m; k ]))
  done;
  memory

let gathered_shards memory ~world =
  Tensor.concat_rows
    (List.init world (fun r -> Memory.find memory ~rank:r ~name:"x_shard"))

let softmax_reference memory ~m:_ ~world =
  Planner.softmax_rows (gathered_shards memory ~world)

(* ------------------------------------------------------------------ *)
(* MoE dense-FFN proxy                                                 *)
(* ------------------------------------------------------------------ *)

let moe_graph ~m ~k ~n ~world =
  Planner.graph ~name:"planned_ag_ffn" ~rows:m ~cols:k ~world
    [
      Planner.consumer ~name:"gate" ~out:"h_gate"
        (Planner.Gemm { weights = "w_gate"; n });
      Planner.consumer ~name:"up" ~out:"h_up"
        (Planner.Gemm { weights = "w_up"; n });
    ]

let moe_alloc ~m ~k ~n ~world ~seed =
  let memory = Memory.create ~world_size:world in
  let shard_rows = m / world in
  for rank = 0 to world - 1 do
    Memory.bind memory ~rank ~name:"x_shard"
      (Tensor.random ~seed:(seed + rank) (Shape.of_list [ shard_rows; k ]));
    Memory.bind memory ~rank ~name:"w_gate"
      (Tensor.random ~seed:(seed + 1000 + rank) (Shape.of_list [ k; n ]));
    Memory.bind memory ~rank ~name:"w_up"
      (Tensor.random ~seed:(seed + 2000 + rank) (Shape.of_list [ k; n ]));
    ignore (Memory.alloc memory ~rank ~name:"x_full" (Shape.of_list [ m; k ]));
    ignore (Memory.alloc memory ~rank ~name:"h_gate" (Shape.of_list [ m; n ]));
    ignore (Memory.alloc memory ~rank ~name:"h_up" (Shape.of_list [ m; n ]))
  done;
  memory

let moe_reference memory ~weights ~rank =
  Linalg.gemm
    (gathered_shards memory ~world:(Memory.world_size memory))
    (Memory.find memory ~rank ~name:weights)

(* ------------------------------------------------------------------ *)
(* Fused GEMM + softmax                                                *)
(* ------------------------------------------------------------------ *)

let fused_graph (spec : Mlp.ag_gemm_spec) =
  Planner.graph ~name:"planned_ag_fused" ~rows:spec.Mlp.m ~cols:spec.Mlp.k
    ~world:spec.Mlp.world_size
    [
      Planner.consumer ~name:"gemm" ~out:"y"
        (Planner.Gemm { weights = "w"; n = spec.Mlp.n });
      Planner.consumer ~name:"softmax" ~out:"p" Planner.Softmax_rows;
    ]

let fused_alloc (spec : Mlp.ag_gemm_spec) ~seed =
  let memory = Mlp.ag_gemm_alloc spec ~seed in
  for rank = 0 to spec.Mlp.world_size - 1 do
    ignore
      (Memory.alloc memory ~rank ~name:"p"
         (Shape.of_list [ spec.Mlp.m; spec.Mlp.k ]))
  done;
  memory

let fused_gemm_reference memory spec ~rank = Mlp.ag_gemm_reference memory spec ~rank

let fused_softmax_reference memory (spec : Mlp.ag_gemm_spec) =
  Planner.softmax_rows (gathered_shards memory ~world:spec.Mlp.world_size)

(* ------------------------------------------------------------------ *)
(* Families                                                            *)
(* ------------------------------------------------------------------ *)

type family = Fam_mlp | Fam_softmax | Fam_moe | Fam_fused

let family_names = [ "mlp"; "softmax"; "moe"; "fused" ]

let family_of_string = function
  | "mlp" -> Some Fam_mlp
  | "softmax" -> Some Fam_softmax
  | "moe" -> Some Fam_moe
  | "fused" -> Some Fam_fused
  | _ -> None

let build family ~m ~k ~n ~world ~seed =
  match family with
  | Fam_mlp ->
    let spec = { Mlp.m; k; n; world_size = world } in
    (Mlp.ag_gemm_graph spec, Mlp.ag_gemm_alloc spec ~seed)
  | Fam_softmax -> (softmax_graph ~m ~k ~world, softmax_alloc ~m ~k ~world ~seed)
  | Fam_moe -> (moe_graph ~m ~k ~n ~world, moe_alloc ~m ~k ~n ~world ~seed)
  | Fam_fused ->
    let spec = { Mlp.m; k; n; world_size = world } in
    (fused_graph spec, fused_alloc spec ~seed)
