(** See the interface.  No thread runs here: the owning loop's [poll]
    waits on every socket at once and its [flush] writes what the cycle
    queued.  Each outgoing link is a small state machine (down → connecting
    → up, with a backoff timer while down), each accepted socket carries
    its own input and reply buffers, and another thread (or a signal
    handler) reaches the loop only by [wake]'s byte on the wake pipe. *)

type listener = { listen_fd : Unix.file_descr; host : string; port : int }

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> failwith ("cannot resolve " ^ host)
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found -> failwith ("cannot resolve " ^ host))

let listen ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (resolve host, port));
  Unix.listen fd 64;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  { listen_fd = fd; host; port }

type hello_verdict = Peer of int | Client | Reject of string

let quiet_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let quiet_shutdown fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* ---- byte buffers ---- *)

module Buf = struct
  type t = { mutable buf : Bytes.t; mutable lo : int; mutable hi : int }

  let initial = 16_384
  let create () = { buf = Bytes.create initial; lo = 0; hi = 0 }
  let length t = t.hi - t.lo

  (* Room for [want] bytes past [hi].  Sliding moves the live bytes to the
     front; the capacity doubles until it is at least twice live + want,
     so after any move the free tail is at least as large as what moved —
     each byte is copied O(1) times amortised. *)
  let reserve t want =
    if Bytes.length t.buf - t.hi < want then begin
      let live = t.hi - t.lo in
      let cap = ref (Bytes.length t.buf) in
      while 2 * (live + want) > !cap do
        cap := 2 * !cap
      done;
      let dst =
        if !cap = Bytes.length t.buf then t.buf else Bytes.create !cap
      in
      Bytes.blit t.buf t.lo dst 0 live;
      t.buf <- dst;
      t.lo <- 0;
      t.hi <- live
    end

  (* Consume [k] bytes; an emptied buffer restarts at the front and gives
     back an oversized backing store (a multi-MiB catch-up reply). *)
  let consume t k =
    t.lo <- t.lo + k;
    if t.lo = t.hi then begin
      t.lo <- 0;
      t.hi <- 0;
      if Bytes.length t.buf > 4 * initial then t.buf <- Bytes.create initial
    end

  let add t s =
    let len = String.length s in
    reserve t len;
    Bytes.blit_string s 0 t.buf t.hi len;
    t.hi <- t.hi + len

  let fill t read =
    reserve t 4096;
    let n = read t.buf t.hi (Bytes.length t.buf - t.hi) in
    if n > 0 then t.hi <- t.hi + n;
    n

  (* Decoded in place: [Codec.decode_frame] judges the header as soon as
     it is in, so a corrupt stream is dropped without waiting for the
     bytes its bogus length promises, and copies out only the payload of
     a whole, checksummed frame.  The string view of [buf] does not
     outlive the call. *)
  let next_frame t =
    match
      Codec.decode_frame ~pos:t.lo ~len:(length t) (Bytes.unsafe_to_string t.buf)
    with
    | Codec.Got (frame, next) ->
        let total = next - t.lo in
        consume t total;
        Codec.Got (frame, total)
    | (Codec.Corrupt _ | Codec.Need_more _) as p -> p
end

(* ---- windowed medians ---- *)

(* The last [size] samples of one quantity, clamped at 0, as a ring in
   arrival order and the same values kept sorted: a sample evicts the
   ring's oldest from the sorted copy and slides into its place, so a
   median is one read and an update allocates nothing. *)
module Window = struct
  let size = 16

  type t = {
    ring : int array;
    sorted : int array;  (** the first [count] hold the ring's values *)
    mutable count : int;
    mutable next : int;
  }

  let create () =
    { ring = Array.make size 0; sorted = Array.make size 0; count = 0; next = 0 }

  let add w v =
    let v = max 0 v and s = w.sorted in
    (* the hole: where the evicted sample sat, or one past the end *)
    let hole =
      if w.count < size then begin
        w.count <- w.count + 1;
        w.count - 1
      end
      else begin
        let old = w.ring.(w.next) and i = ref 0 in
        while s.(!i) <> old do incr i done;
        !i
      end
    in
    w.ring.(w.next) <- v;
    w.next <- (w.next + 1) mod size;
    let i = ref hole in
    while !i > 0 && s.(!i - 1) > v do
      s.(!i) <- s.(!i - 1);
      decr i
    done;
    while !i < w.count - 1 && s.(!i + 1) < v do
      s.(!i) <- s.(!i + 1);
      incr i
    done;
    s.(!i) <- v

  let count w = w.count

  (* The [i]th smallest sample; [max_int] past the samples there are. *)
  let nth w i = if i < w.count then w.sorted.(i) else max_int
end

(* ---- waking early ---- *)

module Lead = struct
  (* One window of lateness samples per floor(log2 wait_ns). *)
  type t = Window.t array

  let create () = Array.init 63 (fun _ -> Window.create ())

  let bucket wait_ns =
    let rec go b v = if v <= 1 then b else go (b + 1) (v lsr 1) in
    go 0 wait_ns

  (* The lower median, at most half the wait. *)
  let lead_ns t ~wait_ns =
    if wait_ns <= 0 then 0
    else
      let w = t.(bucket wait_ns) in
      let c = Window.count w in
      if c = 0 then 0 else min (Window.nth w ((c - 1) / 2)) (wait_ns / 2)

  let observe t ~wait_ns ~ready ~late_ns =
    if ready = 0 && wait_ns > 0 then Window.add t.(bucket wait_ns) late_ns
end

(* ---- staying awake for the next request ---- *)

module Awake = struct
  type t = { turns : Window.t; wakes : Window.t }

  let create () = { turns = Window.create (); wakes = Window.create () }
  let observe t ~turnaround_ns = Window.add t.turns turnaround_ns
  let woke t ~late_ns = Window.add t.wakes late_ns

  (* The upper median — once half the window reads long, it reads long —
     and [max_int] until the window is full. *)
  let median w =
    if Window.count w < Window.size then max_int
    else Window.nth w (Window.size / 2)

  (* How many wake-ups a turnaround may last and still earn a spin.  The
     spin yields between its polls, so it costs the client and the peers
     that share the vCPUs no time slice: what it risks is our own CPU
     time, priced against the wake-up it saves.  On the trio workloads
     turnarounds run 2–4 wake-ups; a client that thinks ~1 ms does not
     reach 8. *)
  let wakes_per_turn = 8

  let budget_ns t ~wait_ns =
    let m = median t.turns and w = median t.wakes in
    if w = max_int || m > wakes_per_turn * w then 0 else min wait_ns (2 * m)
end

(* ---- counters ---- *)

type counters = {
  mutable sent : int;
  mutable dropped : int;
  mutable reconnects : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable disconnected_us : int;
      (** cumulative µs links spent wanting a connection they did not have *)
  mutable queue_hwm : int;  (** data-lane high-water mark, max over links *)
  mutable ctrl_hwm : int;  (** control-lane high-water mark, max over links *)
  mutable lane_shed : int;  (** frames shed from full data lanes *)
}

(* The loop's own work, kept off the wire. *)
type poll_counters = {
  mutable cycles : int;
  mutable sleeps : int;
  mutable zero_polls : int;
  mutable spins : int;
  mutable spins_caught : int;
  mutable reads : int;
  mutable writes : int;
}

(* ---- outgoing peer links ---- *)

type link_state =
  | Down of int  (** [Mclock] µs of the next connect attempt *)
  | Connecting of Unix.file_descr * int  (** since *)
  | Up of Unix.file_descr

type link = {
  dst : int;
  lanes : string Lanes.t;
  out : Buf.t;  (** the batch being written: whole frames from [lanes] *)
  mutable marks : int list;
      (** start offsets in [out] of the batch's frames, newest first — a
          failed connection restarts from the partly written one *)
  mutable state : link_state;
  mutable attempts : int;  (** connect attempts so far (for reconnects) *)
  mutable backoff : int;
      (** next reconnect delay, µs; doubles per failure up to the cap and
          resets to the minimum once a connection comes up *)
  mutable wanting_since : int;
      (** [Mclock] µs since which the link has had bytes to send and no
          connection; [-1] when it is not waiting *)
  mutable stalled_since : int;
      (** when a write last left bytes behind without progress; [-1] *)
  mutable blocked : bool;  (** the last write left bytes behind *)
}

(* ---- accepted connections ---- *)

type role = Unknown | Peer_from of int | Client_role

type sock = {
  sid : int;
  sfd : Unix.file_descr;
  inb : Buf.t;
  outb : Buf.t;  (** unsent client replies *)
  mutable role : role;
  mutable live : bool;
  mutable backlog : bool;  (** complete frames may still sit in [inb] *)
  mutable paused : bool;  (** neither read nor decoded until resumed *)
  mutable closing : bool;  (** close once [outb] is flushed *)
  mutable wblocked : bool;
}

type client_conn = sock

let conn_id c = c.sid

(* A client's unread replies are bounded at ~128 KiB: the kernel's send
   buffer is pinned small (asked for 16 KiB, Linux doubles it; pinning
   also stops autotuning from absorbing megabytes), and the loop's reply
   buffer holds at most [reply_cap] more.  A closed-loop client never has
   more than one reply queued. *)
let client_sndbuf = 16 * 1024
let reply_cap = 96 * 1024

let kill_sock s =
  if s.live then begin
    s.live <- false;
    quiet_shutdown s.sfd;
    quiet_close s.sfd
  end

let conn_write_frame c ~kind payload =
  let len = Codec.header_len + Buffer.length payload in
  c.live && (not c.closing)
  &&
  if Buf.length c.outb + len > reply_cap then begin
    kill_sock c;
    false
  end
  else begin
    Buf.reserve c.outb len;
    Codec.frame_into c.outb.Buf.buf ~pos:c.outb.Buf.hi ~kind payload;
    c.outb.Buf.hi <- c.outb.Buf.hi + len;
    true
  end

let conn_close c = c.closing <- true
let conn_pause c = c.paused <- true

let conn_resume c =
  if c.paused then begin
    c.paused <- false;
    c.backlog <- true
  end

let frames_per_cycle = 32

type 'msg input = From_peer of int * 'msg | From_client of client_conn * Codec.frame

(* ---- the socket set ---- *)

type 'msg t = {
  me : int;
  n : int;
  addrs : (string * int) array;
  hello : string;
  listener : listener;
  classify_hello : Codec.frame -> hello_verdict;
  decode_peer : src:int -> Codec.frame -> 'msg option;
  encode_peer : 'msg -> string;
  lane_of : 'msg -> Lanes.lane;
  links : link array;
  mutable socks : sock list;  (** live accepted connections, newest first *)
  mutable next_sid : int;
  inputs : 'msg input Queue.t;
  ctrs : counters;
  backoff_min_us : int;
  backoff_max_us : int;
  log : string -> unit;
  (* poll scratch, grown on demand and reused *)
  mutable pfds : Unix.file_descr array;
  mutable pev : int array;
  mutable prev : int array;
  lead : Lead.t;
  awake : Awake.t;
  mutable replied : bool;  (** the last [flush] wrote a client reply *)
  age : int array;  (** [Os.recv_aged]'s out-parameter *)
  mutable arrived : int;
      (** earliest arrival of the bytes read from clients this cycle,
          [CLOCK_MONOTONIC] ns; [max_int] if none *)
  mutable slept : bool;  (** the last [ppoll] had a timeout, or none *)
  mutable slept_from : int;  (** when it started *)
  lc : poll_counters;
  (* the wake pipe *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable closed : bool;
}

(* Each link's data lane holds at most this many frames and bytes; a link
   whose pending bytes make no progress for [write_stall_us] is cut. *)
let max_queue = 4096
let max_lane_bytes = 4 lsl 20
let write_stall_us = 2_000_000

let create ~me ~addrs ~listener ~hello ~classify_hello ~decode_peer
    ~encode_peer ?lane_of ?(backoff_min_us = 20_000)
    ?(backoff_max_us = 1_000_000)
    ?(log = fun s -> prerr_endline s) () =
  let n = Array.length addrs in
  if me < 0 || me >= n then invalid_arg "Tcp_transport.create: me out of range";
  let lane_of = match lane_of with Some f -> f | None -> fun _ -> Lanes.Data in
  Unix.set_nonblock listener.listen_fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let slots = n + 8 in
  {
    me;
    n;
    addrs;
    hello;
    listener;
    classify_hello;
    decode_peer;
    encode_peer;
    lane_of;
    links =
      Array.init n (fun dst ->
          {
            dst;
            lanes =
              Lanes.create ~max_data_frames:max_queue
                ~max_data_bytes:max_lane_bytes ~size_of:String.length ();
            out = Buf.create ();
            marks = [];
            state = Down 0;
            attempts = 0;
            backoff = backoff_min_us;
            wanting_since = -1;
            stalled_since = -1;
            blocked = false;
          });
    socks = [];
    next_sid = 0;
    inputs = Queue.create ();
    ctrs =
      {
        sent = 0;
        dropped = 0;
        reconnects = 0;
        bytes_out = 0;
        bytes_in = 0;
        disconnected_us = 0;
        queue_hwm = 0;
        ctrl_hwm = 0;
        lane_shed = 0;
      };
    backoff_min_us;
    backoff_max_us;
    log;
    pfds = Array.make slots listener.listen_fd;
    pev = Array.make slots 0;
    prev = Array.make slots 0;
    lead = Lead.create ();
    awake = Awake.create ();
    replied = false;
    age = [| -1 |];
    arrived = max_int;
    slept = false;
    slept_from = 0;
    lc =
      {
        cycles = 0;
        sleeps = 0;
        zero_polls = 0;
        spins = 0;
        spins_caught = 0;
        reads = 0;
        writes = 0;
      };
    wake_r;
    wake_w;
    closed = false;
  }

(* ---- sending ---- *)

(* [frame] is [msg] encoded, forced by the first destination that is a
   peer, so a broadcast encodes once. *)
let enqueue t ~dst ~trace msg frame =
  t.ctrs.sent <- t.ctrs.sent + 1;
  Obs.Recorder.emit ~pid:t.me ~kind:Obs.Event.Send ~trace ~a:dst ();
  if dst = t.me then Queue.push (From_peer (t.me, msg)) t.inputs
  else if dst < 0 || dst >= t.n then
    invalid_arg "Tcp_transport.send_all: dst out of range"
  else begin
    let link = t.links.(dst) in
    let shed = Lanes.push link.lanes (t.lane_of msg) (Lazy.force frame) in
    if shed > 0 then begin
      t.ctrs.dropped <- t.ctrs.dropped + shed;
      t.ctrs.lane_shed <- t.ctrs.lane_shed + shed;
      if Obs.Recorder.active () then
        for _ = 1 to shed do
          Obs.Recorder.emit ~pid:t.me ~kind:Obs.Event.Shed ~trace
            ~a:Obs.Event.shed_queue ~b:dst ()
        done
    end;
    (* Sample lane depths into the trace only when a lane sets a new
       high-water mark — a counter per send would double event volume. *)
    let ctrl_depth = Lanes.ctrl_length link.lanes in
    let data_depth = Lanes.data_length link.lanes in
    if ctrl_depth > t.ctrs.ctrl_hwm then begin
      t.ctrs.ctrl_hwm <- ctrl_depth;
      Obs.Recorder.emit ~pid:t.me ~kind:Obs.Event.Queue_depth
        ~a:Obs.Event.lane_ctrl ~b:ctrl_depth ()
    end;
    if data_depth > t.ctrs.queue_hwm then begin
      t.ctrs.queue_hwm <- data_depth;
      Obs.Recorder.emit ~pid:t.me ~kind:Obs.Event.Queue_depth
        ~a:Obs.Event.lane_data ~b:data_depth ()
    end
  end

let send_all t ~dsts ~trace msg =
  let frame = lazy (t.encode_peer msg) in
  List.iter (fun dst -> enqueue t ~dst ~trace msg frame) dsts

(* ---- link state machine ---- *)

let wants link = Buf.length link.out > 0 || not (Lanes.is_empty link.lanes)

let charge_disconnected t link now =
  if link.wanting_since >= 0 then begin
    t.ctrs.disconnected_us <-
      t.ctrs.disconnected_us + max 0 (now - link.wanting_since);
    link.wanting_since <- -1
  end

let connect_failed t link now =
  link.state <- Down (now + link.backoff);
  link.backoff <- min (2 * link.backoff) t.backoff_max_us

(* The connection is up: the hello goes first, then whatever frame was
   cut short by the previous connection (whole), then the rest of the
   batch.  Frames written completely before a failure are not resent. *)
let link_up t link fd now =
  link.state <- Up fd;
  link.backoff <- t.backoff_min_us;
  link.blocked <- false;
  link.stalled_since <- -1;
  charge_disconnected t link now;
  let out = link.out in
  (* the frame the write stopped in, else the first not yet started *)
  let restart =
    List.fold_left
      (fun acc m -> if m <= out.Buf.lo then max acc m else acc)
      (-1) link.marks
  in
  let restart =
    if restart >= 0 then restart
    else List.fold_left min out.Buf.hi link.marks
  in
  let rest = Bytes.sub_string out.Buf.buf restart (out.Buf.hi - restart) in
  let hlen = String.length t.hello in
  link.marks <-
    List.filter_map
      (fun m -> if m >= restart then Some (m - restart + hlen) else None)
      link.marks;
  out.Buf.lo <- 0;
  out.Buf.hi <- 0;
  Buf.add out t.hello;
  Buf.add out rest

let start_connect t link now =
  if link.attempts > 0 then t.ctrs.reconnects <- t.ctrs.reconnects + 1;
  link.attempts <- link.attempts + 1;
  let host, port = t.addrs.(link.dst) in
  match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> connect_failed t link now
  | fd -> (
      match
        Unix.set_nonblock fd;
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        Unix.connect fd (Unix.ADDR_INET (resolve host, port))
      with
      | () -> link_up t link fd now
      | exception
          Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EINTR), _, _)
        ->
          link.state <- Connecting (fd, now)
      | exception (Unix.Unix_error _ | Failure _) ->
          quiet_close fd;
          connect_failed t link now)

(* A connection died (write error, hang-up, stall): retry at once — the
   backoff applies to failed connects, not to the first retry. *)
let drop_link link now =
  (match link.state with
  | Up fd | Connecting (fd, _) ->
      quiet_shutdown fd;
      quiet_close fd
  | Down _ -> ());
  link.state <- Down now;
  link.blocked <- false;
  link.stalled_since <- -1

let connect_done t link fd now =
  match Unix.getsockopt_error fd with
  | None -> link_up t link fd now
  | Some _ | (exception Unix.Unix_error _) ->
      quiet_close fd;
      connect_failed t link now

(* Move whole frames from the lanes (control first) into the empty batch
   buffer, up to a batch cap, so a control frame never waits behind more
   than one batch of data. *)
let batch_cap = 256 * 1024

let refill link =
  let out = link.out in
  let rec go () =
    if Buf.length out < batch_cap then
      match Lanes.peek link.lanes with
      | None -> ()
      | Some (lane, frame) ->
          Lanes.drop link.lanes lane;
          link.marks <- out.Buf.hi :: link.marks;
          Buf.add out frame;
          go ()
  in
  go ()

let write_buf t fd (b : Buf.t) =
  t.lc.writes <- t.lc.writes + 1;
  match
    Prelude.Os.send_nowait fd (Bytes.unsafe_to_string b.Buf.buf) b.Buf.lo
      (Buf.length b)
  with
  | k ->
      t.ctrs.bytes_out <- t.ctrs.bytes_out + k;
      Buf.consume b k;
      Ok (Buf.length b = 0)
  | exception Unix.Unix_error _ -> Error ()

let rec flush_link t link now =
  match link.state with
  | Down at ->
      if wants link && now >= at then begin
        start_connect t link now;
        match link.state with Up _ -> flush_link t link now | _ -> ()
      end
  | Connecting (fd, since) ->
      if now - since >= write_stall_us then begin
        quiet_close fd;
        connect_failed t link now
      end
  | Up fd ->
      (* Frames join the batch only while none of it went out yet, so the
         marks keep naming frame starts. *)
      if Buf.length link.out = 0 then link.marks <- [];
      if link.out.Buf.lo = 0 then refill link;
      if Buf.length link.out > 0 && not link.blocked then begin
        let before = Buf.length link.out in
        match write_buf t fd link.out with
        | Ok true ->
            link.marks <- [];
            link.stalled_since <- -1
        | Ok false ->
            link.blocked <- true;
            if Buf.length link.out < before || link.stalled_since < 0 then
              link.stalled_since <- now
        | Error () -> drop_link link now
      end;
      (match link.state with
      | Up _ when link.blocked && now - link.stalled_since >= write_stall_us
        ->
          drop_link link now
      | _ -> ())

let flush_sock t s =
  if s.live && Buf.length s.outb > 0 && not s.wblocked then begin
    match write_buf t s.sfd s.outb with
    | Ok done_ ->
        t.replied <- true;
        s.wblocked <- not done_
    | Error () -> kill_sock s
  end;
  if s.live && s.closing && Buf.length s.outb = 0 then kill_sock s

(* ---- reading ---- *)

let read_sock t s =
  t.lc.reads <- t.lc.reads + 1;
  match
    Buf.fill s.inb (fun buf off len ->
        Prelude.Os.recv_aged s.sfd buf off len ~age:t.age)
  with
  | 0 -> `Eof
  | k ->
      t.ctrs.bytes_in <- t.ctrs.bytes_in + k;
      (match s.role with
      | Client_role when t.age.(0) >= 0 ->
          t.arrived <- min t.arrived (Prelude.Os.monotonic_ns () - t.age.(0))
      | Client_role | Peer_from _ | Unknown -> ());
      `Data
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      `Data
  | exception Unix.Unix_error _ -> `Eof

(* Turn up to [limit] buffered frames into inputs. *)
let decode_sock t s ~limit =
  let rec go k =
    if k >= limit then s.backlog <- true
    else
      match Buf.next_frame s.inb with
      | Codec.Need_more _ -> s.backlog <- false
      | Codec.Corrupt e ->
          t.log (Printf.sprintf "replica %d: corrupt frame: %s" t.me e);
          s.backlog <- false;
          kill_sock s
      | Codec.Got (frame, _) -> (
          match s.role with
          | Peer_from src ->
              (match t.decode_peer ~src frame with
              | Some msg -> Queue.push (From_peer (src, msg)) t.inputs
              | None -> ());
              go (k + 1)
          | Client_role ->
              Queue.push (From_client (s, frame)) t.inputs;
              go (k + 1)
          | Unknown -> (
              match t.classify_hello frame with
              | Peer src ->
                  s.role <- Peer_from src;
                  (* The peer is up and listening: a link to it that is
                     waiting out a backoff retries at once. *)
                  (match t.links.(src).state with
                  | Down _ when src <> t.me -> t.links.(src).state <- Down 0
                  | Down _ | Connecting _ | Up _ -> ());
                  go k
              | Reject why ->
                  t.log
                    (Printf.sprintf "replica %d: rejected connection: %s" t.me
                       why);
                  s.backlog <- false;
                  kill_sock s
              | Client ->
                  s.role <- Client_role;
                  (try Unix.setsockopt_int s.sfd Unix.SO_SNDBUF client_sndbuf
                   with Unix.Unix_error _ -> ());
                  Queue.push (From_client (s, frame)) t.inputs;
                  go (k + 1)))
  in
  go 0

let accept_all t =
  let rec go () =
    match Unix.accept ~cloexec:true t.listener.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        Prelude.Os.stamp_arrivals fd;
        let s =
          {
            sid = t.next_sid;
            sfd = fd;
            inb = Buf.create ();
            outb = Buf.create ();
            role = Unknown;
            live = true;
            backlog = false;
            paused = false;
            closing = false;
            wblocked = false;
          }
        in
        t.next_sid <- t.next_sid + 1;
        t.socks <- s :: t.socks;
        go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let drain_wake t =
  let buf = Bytes.create 64 in
  try
    while Unix.read t.wake_r buf 0 (Bytes.length buf) > 0 do
      ()
    done
  with Unix.Unix_error _ -> ()

(* No lock: a signal handler on the loop's own thread may call it, and an
   extra wake byte is harmless. *)
let wake t =
  if not t.closed then
    try ignore (Unix.single_write t.wake_w (Bytes.make 1 'w') 0 1)
    with Unix.Unix_error _ -> ()

(* ---- the cycle ---- *)

let ensure_slots t k =
  if Array.length t.pfds < k then begin
    let k = 2 * k in
    t.pfds <- Array.make k t.listener.listen_fd;
    t.pev <- Array.make k 0;
    t.prev <- Array.make k 0
  end

let os_poll t ~count ~timeout_ns =
  t.slept <- timeout_ns <> 0;
  if t.slept then begin
    t.lc.sleeps <- t.lc.sleeps + 1;
    t.slept_from <- Prelude.Os.monotonic_ns ()
  end
  else t.lc.zero_polls <- t.lc.zero_polls + 1;
  Prelude.Os.poll t.pfds ~events:t.pev ~revents:t.prev ~count ~timeout_ns

(* Wait [wait_ns] on [CLOCK_MONOTONIC] (read after the caller's [Mclock],
   so the wait never ends before its [Mclock] deadline): one sleeping
   [ppoll] until the wait's learned lead before the end, then zero-timeout
   ones over the same set until the end, so a ready fd, [wake] or a signal
   still ends it at once.  Only a sleep that timed out teaches [t.lead]
   how late it woke.  The spin is bounded by the lead, which is at most
   half the wait.  Between polls that find nothing it yields the vCPU, so
   a client or a peer that is runnable meanwhile runs on it. *)
let rec spin t ~count ~until =
  if Prelude.Os.monotonic_ns () >= until then 0
  else
    match os_poll t ~count ~timeout_ns:0 with
    | 0 ->
        Prelude.Os.sched_yield ();
        spin t ~count ~until
    | r -> r

let sleep_then_spin t ~count ~wait_ns =
  let sleep_ns = wait_ns - Lead.lead_ns t.lead ~wait_ns in
  let t0 = Prelude.Os.monotonic_ns () in
  let ready = os_poll t ~count ~timeout_ns:sleep_ns in
  Lead.observe t.lead ~wait_ns ~ready
    ~late_ns:(Prelude.Os.monotonic_ns () - t0 - sleep_ns);
  if ready <> 0 then ready else spin t ~count ~until:(t0 + wait_ns)

(* A wait of [timeout_ns] ([< 0]: no deadline) that began at [from]
   after a reply: spin for {!Awake}'s budget first, then sleep what is
   left as any wait does. *)
let wait_after_reply t ~count ~timeout_ns ~from =
  let wait_ns = if timeout_ns < 0 then max_int else timeout_ns in
  let budget = Awake.budget_ns t.awake ~wait_ns in
  let caught =
    if budget <= 0 then 0
    else begin
      t.lc.spins <- t.lc.spins + 1;
      let r = spin t ~count ~until:(from + budget) in
      if r > 0 then t.lc.spins_caught <- t.lc.spins_caught + 1;
      r
    end
  in
  if caught <> 0 then caught
  else if timeout_ns < 0 then os_poll t ~count ~timeout_ns
  else
    let rest = wait_ns - (Prelude.Os.monotonic_ns () - from) in
    if rest > 0 then sleep_then_spin t ~count ~wait_ns:rest else 0

(* What the cycle's wait, which began at [from] and ended with [ready]
   ([woke]: when a sleeping [ppoll] returned with fds ready, else 0),
   teaches {!Awake} once the reads placed the clients' bytes in time: a
   sleep that client bytes ended, how long after their arrival it woke;
   a wait after a reply, the client's turnaround — until its bytes
   arrived, or the whole wait when nothing came.  Bytes that were there
   before the wait began say nothing about how long to wait. *)
let learn t ~after_reply ~from ~woke ~ready ~timeout_ns =
  if t.arrived < max_int then begin
    if woke > 0 && t.arrived >= t.slept_from && t.arrived <= woke then
      Awake.woke t.awake ~late_ns:(woke - t.arrived);
    if after_reply && t.arrived > from then
      Awake.observe t.awake ~turnaround_ns:(t.arrived - from)
  end
  else if after_reply && ready = 0 then
    Awake.observe t.awake ~turnaround_ns:timeout_ns;
  t.arrived <- max_int

(* Poll-set layout: 0 = listener, 1 = wake pipe, then one slot per link
   with a socket, then one per live accepted socket — the same order the
   results are read back in. *)
let poll t ~deadline_us =
  t.lc.cycles <- t.lc.cycles + 1;
  if List.exists (fun s -> not s.live) t.socks then
    t.socks <- List.filter (fun s -> s.live) t.socks;
  ensure_slots t (2 + t.n + List.length t.socks);
  let open Prelude.Os in
  t.pfds.(0) <- t.listener.listen_fd;
  t.pev.(0) <- pollin;
  t.pfds.(1) <- t.wake_r;
  t.pev.(1) <- pollin;
  let k = ref 2 in
  Array.iter
    (fun link ->
      match link.state with
      | Down _ -> ()
      | Connecting (fd, _) ->
          t.pfds.(!k) <- fd;
          t.pev.(!k) <- pollout;
          incr k
      | Up fd ->
          t.pfds.(!k) <- fd;
          t.pev.(!k) <- (if link.blocked then pollout else 0);
          incr k)
    t.links;
  let polled = t.socks in
  let backlog = ref (not (Queue.is_empty t.inputs)) in
  List.iter
    (fun s ->
      if s.backlog && not s.paused then backlog := true;
      t.pfds.(!k) <- s.sfd;
      t.pev.(!k) <-
        (if s.backlog || s.paused then 0 else pollin)
        lor if s.wblocked then pollout else 0;
      incr k)
    polled;
  let timeout_ns =
    if !backlog then 0
    else if deadline_us = max_int then -1
    else 1000 * max 0 (deadline_us - Prelude.Mclock.now_us ())
  in
  let after_reply = timeout_ns <> 0 && t.replied in
  if after_reply then t.replied <- false;
  let from = Prelude.Os.monotonic_ns () in
  let ready =
    if after_reply then wait_after_reply t ~count:!k ~timeout_ns ~from
    else if timeout_ns > 0 then sleep_then_spin t ~count:!k ~wait_ns:timeout_ns
    else os_poll t ~count:!k ~timeout_ns
  in
  let woke = if ready > 0 && t.slept then Prelude.Os.monotonic_ns () else 0 in
  if ready < 0 then Array.fill t.prev 0 !k 0;
  if t.prev.(0) land pollin <> 0 then accept_all t;
  let i = ref 2 in
  Array.iter
    (fun link ->
      match link.state with
      | Down _ -> ()
      | Connecting (fd, _) ->
          if t.prev.(!i) <> 0 then connect_done t link fd (Prelude.Mclock.now_us ());
          incr i
      | Up _ ->
          let r = t.prev.(!i) in
          if r land pollerr <> 0 then drop_link link (Prelude.Mclock.now_us ())
          else if r land pollout <> 0 then link.blocked <- false;
          incr i)
    t.links;
  List.iter
    (fun s ->
      let r = t.prev.(!i) in
      incr i;
      if r land pollout <> 0 then s.wblocked <- false;
      let eof = r land pollin <> 0 && read_sock t s = `Eof in
      if s.live && (not s.paused) && (r land pollin <> 0 || s.backlog) then
        decode_sock t s ~limit:(if eof then max_int else frames_per_cycle);
      if eof then kill_sock s)
    polled;
  learn t ~after_reply ~from ~woke ~ready ~timeout_ns;
  if t.prev.(1) land pollin <> 0 then drain_wake t

let lead t = t.lead
let awake t = t.awake

let poll_counters t = { t.lc with sleeps = t.lc.sleeps }
let next_input t = Queue.take_opt t.inputs
let queued_inputs t = Queue.length t.inputs

let flush t ~now_us =
  Array.iter
    (fun link ->
      if link.dst <> t.me then begin
        (match link.state with
        | Down _ | Connecting _ ->
            if wants link && link.wanting_since < 0 then
              link.wanting_since <- now_us
        | Up _ -> ());
        flush_link t link now_us
      end)
    t.links;
  List.iter (flush_sock t) t.socks

let next_wake_us t =
  Array.fold_left
    (fun acc link ->
      match link.state with
      | Down at when wants link -> min acc at
      | Connecting (_, since) -> min acc (since + write_stall_us)
      | Up _ when link.blocked && link.stalled_since >= 0 ->
          min acc (link.stalled_since + write_stall_us)
      | _ -> acc)
    max_int t.links

let stats t =
  let c = t.ctrs in
  {
    Runtime.Transport_intf.sent = c.sent;
    dropped = c.dropped;
    link =
      Some
        {
          Runtime.Transport_intf.reconnects = c.reconnects;
          bytes_out = c.bytes_out;
          bytes_in = c.bytes_in;
          disconnected_us = c.disconnected_us;
          queue_hwm = c.queue_hwm;
          ctrl_hwm = c.ctrl_hwm;
          lane_shed = c.lane_shed;
        };
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    let now = Prelude.Mclock.now_us () in
    Array.iter
      (fun link ->
        if link.dst <> t.me then begin
          charge_disconnected t link now;
          drop_link link now
        end)
      t.links;
    List.iter kill_sock t.socks;
    t.socks <- [];
    quiet_close t.listener.listen_fd;
    quiet_close t.wake_r;
    quiet_close t.wake_w
  end
