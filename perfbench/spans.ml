(* In-memory span recorder for the benchmark's traced run.

   The benchmark wraps every call it makes into a layer's public
   function in [record]; with recording off, [record] is a plain call.
   Spans nest through a parent stack (the benchmark is single-threaded
   on its calling domain), are kept in memory and written out once, at
   exit, so the trace file costs nothing while the clock runs. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  layer : string;
  name : string;
  start : float;  (** host seconds (Unix epoch) *)
  stop : float;
  minor_words : float;
      (** words allocated on the calling domain inside the span *)
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let record ~layer name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = Gc.minor_words () in
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        let minor_words = Gc.minor_words () -. w0 in
        stack := List.tl !stack;
        recorded :=
          { id; parent; layer; name; start; stop; minor_words } :: !recorded)
      f
  end

(* [f]'s result and the spans it recorded, in the order they ended
   (a child before its parent). *)
let capture f =
  recorded := [];
  enabled := true;
  let result = Fun.protect ~finally:(fun () -> enabled := false) f in
  let spans = List.rev !recorded in
  recorded := [];
  (result, spans)

let duration s = s.stop -. s.start

(* Self time: a span's duration minus what its direct children cover
   (children run one after another on the same domain, so they never
   overlap each other). *)
let self_times spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)))
    spans
