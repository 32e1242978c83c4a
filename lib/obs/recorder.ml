let dummy_event =
  { Event.t_us = 0; pid = 0; kind = Event.Invoke; trace = 0; a = 0; b = 0 }

(* One atomic sequence word per slot (Vyukov bounded MPSC).  Invariants, for
   slot index [i = pos land mask]:
     seq = pos                -> slot free, a producer may claim ticket [pos]
     seq = pos + 1            -> slot published, consumer may read ticket [pos]
     seq = pos + capacity     -> slot consumed, free for ticket [pos + capacity]
   Producers race on [head] with CAS; the single consumer owns [tail].

   The slots come in chunks of up to 256, allocated on first use: a chunk
   still [[||]] stands for slots in the state the ring starts in
   ([seq = i], nothing published), and the first producer to reach it
   installs it in that state with one CAS.  So [start] costs one word per
   chunk, and a run pays only for the slots its events reach. *)
type slot = { seq : int Atomic.t; mutable ev : Event.t }

type t = {
  chunks : slot array Atomic.t array;
  shift : int; (* log2 of the slots per chunk *)
  cmask : int; (* the slots per chunk, less one *)
  mask : int;
  head : int Atomic.t;
  mutable tail : int; (* consumer-owned *)
  recorded : int Atomic.t;
  dropped : int Atomic.t;
  mutable reported_drops : int; (* drops already accounted by a Drops event *)
  epoch_us : int;
  sink : Event.t -> unit;
  flush : unit -> unit;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let chunk_slots = 256

(* The slot of ticket [pos], installing its chunk if no producer has. *)
let claim_slot t pos =
  let i = pos land t.mask in
  let c = t.chunks.(i lsr t.shift) in
  let a = Atomic.get c in
  let a =
    if Array.length a > 0 then a
    else begin
      let base = i land lnot t.cmask in
      let fresh =
        Array.init (t.cmask + 1) (fun j ->
            { seq = Atomic.make (base + j); ev = dummy_event })
      in
      ignore (Atomic.compare_and_set c [||] fresh);
      Atomic.get c
    end
  in
  a.(i land t.cmask)

(* [false] = ring full; the caller counts the drop. *)
let try_push t ev =
  let rec claim pos =
    let slot = claim_slot t pos in
    let seq = Atomic.get slot.seq in
    let diff = seq - pos in
    if diff = 0 then
      if Atomic.compare_and_set t.head pos (pos + 1) then (
        slot.ev <- ev;
        Atomic.set slot.seq (pos + 1);
        Atomic.incr t.recorded;
        true)
      else claim (Atomic.get t.head)
    else if diff < 0 then false (* consumer hasn't freed this slot yet *)
    else claim (Atomic.get t.head)
  in
  claim (Atomic.get t.head)

let push t ev =
  try_push t ev
  || begin
       Atomic.incr t.dropped;
       false
     end

(* The clock of a virtual-time loop while it runs: its events then carry
   virtual µs since the run's start instead of wall-clock time. *)
let virtual_clock : (unit -> int) option Atomic.t = Atomic.make None

let stamp t =
  match Atomic.get virtual_clock with
  | None -> Prelude.Mclock.now_us () - t.epoch_us
  | Some now -> now ()

(* Single consumer only: pop every published event into the sink. *)
let rec pop_all t =
  let pos = t.tail in
  let i = pos land t.mask in
  let a = Atomic.get t.chunks.(i lsr t.shift) in
  (* a chunk no producer installed has nothing published *)
  if Array.length a > 0 then begin
    let slot = a.(i land t.cmask) in
    if Atomic.get slot.seq = pos + 1 then begin
      let ev = slot.ev in
      Atomic.set slot.seq (pos + t.mask + 1);
      t.tail <- pos + 1;
      t.sink ev;
      pop_all t
    end
  end

let account_drops t =
  let d = Atomic.get t.dropped in
  if d > t.reported_drops then begin
    t.sink
      {
        Event.t_us = stamp t;
        pid = -1;
        kind = Event.Drops;
        trace = 0;
        a = d - t.reported_drops;
        b = 0;
      };
    t.reported_drops <- d
  end

let drain t =
  pop_all t;
  account_drops t;
  t.flush ()

let start ?(capacity = 65536) ~epoch_us ~sink ?(flush = fun () -> ()) () =
  let capacity = next_pow2 (max 2 capacity) in
  let per_chunk = min capacity chunk_slots in
  {
    chunks = Array.init (capacity / per_chunk) (fun _ -> Atomic.make [||]);
    shift = log2 per_chunk;
    cmask = per_chunk - 1;
    mask = capacity - 1;
    head = Atomic.make 0;
    tail = 0;
    recorded = Atomic.make 0;
    dropped = Atomic.make 0;
    reported_drops = 0;
    epoch_us;
    sink;
    flush;
  }

let stop = drain

let stats t = (Atomic.get t.recorded, Atomic.get t.dropped)

(* Process-global instance *)

let state : t option Atomic.t = Atomic.make None
let install t = Atomic.set state (Some t)
let uninstall () = Atomic.set state None
let active () = Atomic.get state <> None

let with_clock now f =
  Atomic.set virtual_clock (Some now);
  Fun.protect ~finally:(fun () -> Atomic.set virtual_clock None) f

(* Under a virtual clock the loop is the only producer and the one
   consumer: a full ring is drained in place instead of dropping. *)
let emit ~pid ~kind ?(trace = 0) ?(a = 0) ?(b = 0) () =
  match Atomic.get state with
  | None -> ()
  | Some t ->
      let ev = { Event.t_us = stamp t; pid; kind; trace; a; b } in
      if not (try_push t ev) then
        if Atomic.get virtual_clock <> None then begin
          drain t;
          ignore (push t ev)
        end
        else Atomic.incr t.dropped

(* Sinks *)

let memory_sink () =
  let acc = ref [] in
  ((fun ev -> acc := ev :: !acc), fun () -> List.rev !acc)

let file_magic = "TBTRACE1"

let file_sink path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  if (Unix.fstat fd).Unix.st_size = 0 then (
    let n = Unix.write_substring fd file_magic 0 (String.length file_magic) in
    assert (n = String.length file_magic));
  let buf = Buffer.create 4096 in
  let sink ev = Event.encode buf ev in
  let flush () =
    if Buffer.length buf > 0 then (
      let s = Buffer.contents buf in
      Buffer.clear buf;
      let rec write pos =
        if pos < String.length s then
          let n = Unix.write_substring fd s pos (String.length s - pos) in
          write (pos + n)
      in
      write 0)
  in
  let close () =
    flush ();
    Unix.close fd
  in
  (sink, flush, close)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let mlen = String.length file_magic in
  if len < mlen || String.sub s 0 mlen <> file_magic then
    failwith (Printf.sprintf "obs: %s is not a trace file" path);
  let rec go pos acc =
    match Event.decode s ~pos with
    | Some (ev, next) -> go next (ev :: acc)
    | None -> List.rev acc
  in
  go mlen []
