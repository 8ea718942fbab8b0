(* Dense signal slots: pc slots first, then peer slots, then host
   slots (see slot.mli for the formula).  The peer and host blocks are
   ordered [dst]-major, matching the channel fabric's historical
   [dst][src][channel] nesting, so iterating slots in order visits
   counters in the same order as before. *)

type layout = { world_size : int; pc_channels : int; peer_channels : int }

let layout ~world_size ~pc_channels ~peer_channels =
  if world_size <= 0 || pc_channels <= 0 || peer_channels <= 0 then
    invalid_arg "Slot.layout: counts must be positive";
  { world_size; pc_channels; peer_channels }

let of_program (p : Program.t) =
  layout ~world_size:p.Program.world_size ~pc_channels:p.Program.pc_channels
    ~peer_channels:p.Program.peer_channels

let peer_base l = l.world_size * l.pc_channels
let host_base l = peer_base l + (l.world_size * l.world_size * l.peer_channels)
let size l = host_base l + (l.world_size * l.world_size)

let out_of_range op what v =
  invalid_arg (Printf.sprintf "%s: %s %d out of range" op what v)

let check op what v bound = if v < 0 || v >= bound then out_of_range op what v

let pc ~op l ~rank ~channel =
  check op "rank" rank l.world_size;
  check op "channel" channel l.pc_channels;
  (rank * l.pc_channels) + channel

let peer ~op l ~src ~dst ~channel =
  check op "src rank" src l.world_size;
  check op "dst rank" dst l.world_size;
  check op "peer channel" channel l.peer_channels;
  peer_base l + ((((dst * l.world_size) + src) * l.peer_channels) + channel)

let host ~op l ~src ~dst =
  check op "src rank" src l.world_size;
  check op "dst rank" dst l.world_size;
  host_base l + ((dst * l.world_size) + src)

let of_target ~op l = function
  | Instr.Pc { rank; channel } -> pc ~op l ~rank ~channel
  | Instr.Peer { src; dst; channel } -> peer ~op l ~src ~dst ~channel
  | Instr.Host { src; dst } -> host ~op l ~src ~dst

let target l slot =
  if slot < 0 || slot >= size l then out_of_range "Slot.target" "slot" slot;
  if slot < peer_base l then
    Instr.Pc { rank = slot / l.pc_channels; channel = slot mod l.pc_channels }
  else if slot < host_base l then begin
    let s = slot - peer_base l in
    let pair = s / l.peer_channels in
    Instr.Peer
      {
        src = pair mod l.world_size;
        dst = pair / l.world_size;
        channel = s mod l.peer_channels;
      }
  end
  else begin
    let s = slot - host_base l in
    Instr.Host { src = s mod l.world_size; dst = s / l.world_size }
  end

let key l slot = Instr.key_of_target (target l slot)

(* Only the canonical spelling of a key names its slot. *)
let of_key l k =
  match Instr.target_of_key k with
  | None -> None
  | Some t -> (
    match of_target ~op:"Slot.of_key" l t with
    | slot when String.equal (key l slot) k -> Some slot
    | _ -> None
    | exception Invalid_argument _ -> None)

type names = { n_layout : layout; cache : string array }

let names l = { n_layout = l; cache = Array.make (size l) "" }

let name n slot =
  let s = n.cache.(slot) in
  if s <> "" then s
  else begin
    let s = key n.n_layout slot in
    n.cache.(slot) <- s;
    s
  end
