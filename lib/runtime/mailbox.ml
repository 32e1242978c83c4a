(** See the interface for the contract.  The queue is a sorted association
    list keyed by ([deliver_at], sequence) — mailboxes hold at most a few
    in-flight messages per peer, so O(n) insertion beats the constant
    factors of a heap and keeps same-time items in insertion order.

    The wake-up channel is a self-pipe created the first time a taker
    parks.  [put] writes one byte only when a taker is parked and no byte
    is already pending, so a busy mailbox costs no syscalls and the pipe
    never holds more than one byte. *)

type 'a item = { at : int; seq : int; v : 'a }

type 'a t = {
  mutex : Mutex.t;
  mutable items : 'a item list;  (** sorted by [(at, seq)] *)
  mutable next_seq : int;
  mutable pipe : (Unix.file_descr * Unix.file_descr) option;
      (** (read end, write end); [None] until first parked, and after
          {!close} *)
  mutable parked : bool;  (** a taker is (about to be) in [wait_readable] *)
  mutable signalled : bool;  (** a wake byte sits in the pipe *)
  mutable closed : bool;
}

let create () =
  {
    mutex = Mutex.create ();
    items = [];
    next_seq = 0;
    pipe = None;
    parked = false;
    signalled = false;
    closed = false;
  }

let rec insert it = function
  | [] -> [ it ]
  | hd :: tl ->
      if it.at < hd.at || (it.at = hd.at && it.seq < hd.seq) then it :: hd :: tl
      else hd :: insert it tl

let wake_byte = Bytes.make 1 'w'
let drain_buf = Bytes.create 1  (* contents ignored: shared is fine *)

let put t ~deliver_at v =
  Mutex.lock t.mutex;
  let it = { at = deliver_at; seq = t.next_seq; v } in
  t.next_seq <- t.next_seq + 1;
  t.items <- insert it t.items;
  (match t.pipe with
  | Some (_, w) when t.parked && not t.signalled ->
      t.signalled <- true;
      ignore (Unix.single_write w wake_byte 0 1)
  | _ -> ());
  Mutex.unlock t.mutex

(* Called with the mutex held (released before raising). *)
let pipe_of t =
  match t.pipe with
  | Some p -> p
  | None ->
      if t.closed then begin
        Mutex.unlock t.mutex;
        invalid_arg "Mailbox.take: closed"
      end;
      let r, w = Unix.pipe ~cloexec:true () in
      t.pipe <- Some (r, w);
      (r, w)

let take t ~deadline =
  Mutex.lock t.mutex;
  let rec loop () =
    let now = Prelude.Mclock.now_us () in
    match t.items with
    | hd :: tl
      when hd.at <= now
           && (match deadline with None -> true | Some d -> hd.at <= d) ->
        t.items <- tl;
        Mutex.unlock t.mutex;
        Some hd.v
    | items -> (
        match deadline with
        | Some d when now >= d ->
            Mutex.unlock t.mutex;
            None
        | _ ->
            (* Sleep until the earliest instant anything can change on its
               own — the head ripening or the deadline — or a [put]. *)
            let timeout_ns =
              match (items, deadline) with
              | [], None -> -1
              | hd :: _, None -> (hd.at - now) * 1_000
              | [], Some d -> (d - now) * 1_000
              | hd :: _, Some d -> (min hd.at d - now) * 1_000
            in
            let r, _ = pipe_of t in
            t.parked <- true;
            Mutex.unlock t.mutex;
            ignore (Prelude.Os.wait_readable r ~timeout_ns);
            Mutex.lock t.mutex;
            t.parked <- false;
            if t.signalled then begin
              t.signalled <- false;
              ignore (Unix.read r drain_buf 0 1)
            end;
            loop ())
  in
  loop ()

let length t =
  Mutex.lock t.mutex;
  let n = List.length t.items in
  Mutex.unlock t.mutex;
  n

let close t =
  Mutex.lock t.mutex;
  t.closed <- true;
  (match t.pipe with
  | Some (r, w) ->
      t.pipe <- None;
      Unix.close r;
      Unix.close w
  | None -> ());
  Mutex.unlock t.mutex
