(* Counted resource (semaphore) with FIFO admission.

   Models pools of identical execution units: streaming multiprocessors
   of a GPU, DMA copy-engine channels, host threads.  Acquisition order
   is strictly FIFO so the simulator stays deterministic and no waiter
   starves. *)

type waiter = { amount : int; resume : unit -> unit }

type t = {
  name : string;
  capacity : int;
  mutable available : int;
  waiting : waiter Queue.t;
  mutable busy_integral : float;   (* ∫ (capacity - available) dt *)
  mutable last_update : float;
  engine : Engine.t;
}

let create engine ~name ~capacity =
  if capacity <= 0 then invalid_arg "Resource.create: capacity must be > 0";
  {
    name;
    capacity;
    available = capacity;
    waiting = Queue.create ();
    busy_integral = 0.0;
    last_update = 0.0;
    engine;
  }

let name t = t.name
let capacity t = t.capacity
let available t = t.available
let in_use t = t.capacity - t.available
let queue_length t = Queue.length t.waiting

let account t =
  let now = Engine.now t.engine in
  t.busy_integral <-
    t.busy_integral +. (float_of_int (in_use t) *. (now -. t.last_update));
  t.last_update <- now

let busy_time t =
  account t;
  t.busy_integral

let utilization t ~horizon =
  if horizon <= 0.0 then 0.0
  else busy_time t /. (float_of_int t.capacity *. horizon)

(* Grant the head waiter if it fits.  FIFO: a large request at the head
   blocks smaller ones behind it (no barging), mirroring how a kernel
   waiting for a full wave of SMs holds the launch queue. *)
let rec drain t =
  match Queue.peek_opt t.waiting with
  | Some w when w.amount <= t.available ->
    ignore (Queue.pop t.waiting);
    account t;
    t.available <- t.available - w.amount;
    w.resume ();
    drain t
  | _ -> ()

let acquire t amount =
  if amount <= 0 then invalid_arg "Resource.acquire: amount must be > 0";
  if amount > t.capacity then
    invalid_arg
      (Printf.sprintf "Resource.acquire: %d exceeds capacity %d of %s" amount
         t.capacity t.name);
  if Queue.is_empty t.waiting && amount <= t.available then begin
    account t;
    t.available <- t.available - amount
  end
  else
    Process.suspend (fun resume ->
        Queue.push { amount; resume } t.waiting)

let release t amount =
  if amount <= 0 then invalid_arg "Resource.release: amount must be > 0";
  account t;
  t.available <- t.available + amount;
  if t.available > t.capacity then
    invalid_arg
      (Printf.sprintf "Resource.release: %s over capacity" t.name);
  drain t

(* Release on both the normal and the exceptional exit, without the
   closure [Fun.protect] would allocate per use. *)
let use t amount f =
  acquire t amount;
  match f () with
  | v ->
    release t amount;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    release t amount;
    Printexc.raise_with_backtrace e bt
