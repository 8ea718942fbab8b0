(* Low-level device instructions — the target of backend lowering.

   Tile-centric primitives compile into [Wait] (acquire) and [Notify]
   (release) instructions carrying the buffer ranges they guard, plus
   [Copy] for data movement; loads, stores and compute keep explicit
   access metadata so the software pipeliner and the memory-consistency
   verifier can reason about reordering without re-deriving aliasing.

   Data semantics ride along as closures over the rank memories: the
   same instruction stream is interpreted for timing alone or for
   timing + real data. *)

type range = int * int

type access = {
  buffer : string;
  mem_rank : int option;  (* None = the executing rank *)
  row : range;
  col : range;
}

let access ?rank ~buffer ~row ~col () = { buffer; mem_rank = rank; row; col }

let ranges_overlap (a_lo, a_hi) (b_lo, b_hi) = a_lo < b_hi && b_lo < a_hi

(* Two accesses may alias: same buffer ("*" is a wildcard matching any
   buffer), same resolved rank (a [None] rank conservatively aliases
   any rank), overlapping rectangles. *)
let accesses_overlap a b =
  (String.equal a.buffer "*" || String.equal b.buffer "*"
  || String.equal a.buffer b.buffer)
  && (match (a.mem_rank, b.mem_rank) with
     | Some r1, Some r2 -> r1 = r2
     | _ -> true)
  && ranges_overlap a.row b.row
  && ranges_overlap a.col b.col

type signal_target =
  | Pc of { rank : int; channel : int }
      (** Producer/consumer channel [channel] on [rank]. *)
  | Peer of { src : int; dst : int; channel : int }
      (** Peer channel [channel] from [src] to [dst]; channels give
          per-tile granularity to peer signalling. *)
  | Host of { src : int; dst : int }
      (** Copy-engine completion channel from [src] observed by
          kernels on [dst]. *)

let signal_target_to_string = function
  | Pc { rank; channel } -> Printf.sprintf "pc(r%d,c%d)" rank channel
  | Peer { src; dst; channel } ->
    Printf.sprintf "peer(%d->%d,c%d)" src dst channel
  | Host { src; dst } -> Printf.sprintf "host(%d->%d)" src dst

(* Canonical counter-key of a signal target — the exact name the
   runtime channel table uses, so static diagnostics line up with
   runtime deadlock/chaos output (and with [Chaos.parse_key]). *)
let key_of_target = function
  | Pc { rank; channel } -> Printf.sprintf "pc[%d][%d]" rank channel
  | Peer { src; dst; channel } -> Printf.sprintf "peer[%d<-%d][%d]" dst src channel
  | Host { src; dst } -> Printf.sprintf "host[%d<-%d]" dst src

(* Inverse of [key_of_target] for the three key shapes.  Lenient about
   spelling (leading zeros, trailing text); callers that need the
   canonical key compare against [key_of_target]. *)
let target_of_key key =
  let scan fmt f = try Some (Scanf.sscanf key fmt f) with _ -> None in
  match scan "pc[%d][%d]" (fun rank channel -> Pc { rank; channel }) with
  | Some t -> Some t
  | None -> (
    match
      scan "peer[%d<-%d][%d]" (fun dst src channel ->
          Peer { src; dst; channel })
    with
    | Some t -> Some t
    | None -> scan "host[%d<-%d]" (fun dst src -> Host { src; dst }))

(* The rank a wait on this target observes from — the counter's owner
   for [Pc], the producing side for [Peer]/[Host]. *)
let producer_of_target = function
  | Pc { rank; _ } -> rank
  | Peer { src; _ } -> src
  | Host { src; _ } -> src

let channel_of_target = function
  | Pc { channel; _ } | Peer { channel; _ } -> Some channel
  | Host _ -> None

type cost =
  | Gemm_tile of { tm : int; tn : int; k : int }
  | Attention_tile of { tq : int; tkv : int; d : int }
  | Memory_tile of { rows : int; cols : int; passes : int }
  | Fixed_cost of float
  | Free

(* A data action mutates the rank memories; [rank] is the executing
   rank so [mem_rank = None] accesses can be resolved. *)
type action = Memory.t -> rank:int -> unit

type t =
  | Load of { access : access }
      (** Global -> register staging; ordering token for pipelining. *)
  | Store of { access : access }
  | Compute of {
      label : string;
      cost : cost;
      reads : access list;
      writes : access list;
      action : action option;
    }
  | Copy of {
      label : string;
      src : access;
      dst : access;
      bytes : float;
      action : action option;
    }
      (** Data movement between ranks (or within one).  The executing
          resource (SM worker or DMA engine) is decided by the role
          hosting the instruction, not the instruction itself. *)
  | Wait of { target : signal_target; threshold : int; guards : access list }
      (** Acquire: no later load/compute touching [guards] may execute
          before this. *)
  | Notify of { target : signal_target; amount : int; releases : access list }
      (** Release: every earlier store/compute writing [releases] must
          complete before this. *)
  | Sleep of float
      (** Fixed latency (host gaps, launch overheads inside a role). *)

let reads_of = function
  | Load { access } -> [ access ]
  | Compute { reads; _ } -> reads
  | Copy { src; _ } -> [ src ]
  | Store _ | Wait _ | Notify _ | Sleep _ -> []

let writes_of = function
  | Store { access } -> [ access ]
  | Compute { writes; _ } -> writes
  | Copy { dst; _ } -> [ dst ]
  | Load _ | Wait _ | Notify _ | Sleep _ -> []

let to_string = function
  | Load { access } ->
    Printf.sprintf "load %s[%d:%d,%d:%d]" access.buffer (fst access.row)
      (snd access.row) (fst access.col) (snd access.col)
  | Store { access } ->
    Printf.sprintf "store %s[%d:%d,%d:%d]" access.buffer (fst access.row)
      (snd access.row) (fst access.col) (snd access.col)
  | Compute { label; _ } -> Printf.sprintf "compute %s" label
  | Copy { label; bytes; _ } -> Printf.sprintf "copy %s (%.0fB)" label bytes
  | Wait { target; threshold; _ } ->
    Printf.sprintf "wait %s >= %d" (signal_target_to_string target) threshold
  | Notify { target; amount; _ } ->
    Printf.sprintf "notify %s += %d" (signal_target_to_string target) amount
  | Sleep d -> Printf.sprintf "sleep %.2fus" d

let pp ppf t = Fmt.string ppf (to_string t)
