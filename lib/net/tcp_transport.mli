(** Real TCP sockets between Algorithm 1 replicas — the transport that
    puts each replica in its own OS process — as a {e thread-free socket
    set} that its owner's loop steps.  It runs no thread: the loop calls
    {!poll} (a wait on every socket until its deadline, then accepts,
    connect completions and reads), takes the decoded {!input}s in
    arrival order per connection, steps whatever it hosts, and calls
    {!flush} to write everything the cycle queued — one write per
    socket.  Shards, cores and timers are the caller's business.  Apart
    from {!wake}, every function must be called from the owning loop's
    thread.

    Topology: every replica listens on one address ([addrs.(pid)]) and
    keeps one {e outgoing} connection per peer, used only for sending;
    accepted connections are used only for receiving (and, for clients,
    for the replies).

    Connect/accept handshake: the first frame on an outgoing connection is
    the caller-supplied [hello] (carrying [(pid, n, params)] and the object
    tag — see {!Codec.hello}); the accepting side classifies it via
    [classify_hello] and either registers the connection as a peer link,
    treats it as a client (a load-generator/client connection opens with
    an [Invoke] frame instead of a [Hello]), or rejects it.

    Reconnect: a link connects (non-blocking) once it has something to
    send.  When its connection fails it reconnects with capped exponential
    backoff ([backoff_min_us] doubling up to [backoff_max_us], per link,
    reset to the minimum whenever a connection comes up so a healed link
    probes at full cadence again); the waits are loop timers
    ({!next_wake_us}), and every attempt beyond a link's first is counted
    in {!Runtime.Transport_intf.link_stats.reconnects}.  A frame only
    partly written when a connection fails is retransmitted whole after
    reconnecting (the receiver discards the truncated copy at EOF).

    Overload: each link's write queue is a two-lane priority queue
    ({!Lanes}).  [lane_of] classifies each outgoing message; control
    frames (heartbeats, sync probes, catch-up) always preempt data frames,
    so the failure detector and ε estimator stay live at saturation.  The
    data lane is bounded (4096 frames and 4 MiB per link); overflow sheds
    oldest-first, counted in [dropped] and [lane_shed] and emitted as
    [Obs.Event.Shed] events — never silent.
    Frames leave the lanes only when the link's previous batch is fully
    written, so a wedged peer backs frames up into the lanes, where they
    are bounded.  Within a lane the links stay FIFO, as in the paper's
    model; across a crash/reconnect or a shed, delivery is not guaranteed
    — Algorithm 1 assumes reliable links, and a run that loses frames is
    caught by the post-hoc linearizability check.

    A link whose pending bytes make no progress for 2 s is cut and goes
    back through the reconnect path.  A client that leaves
    ~128 KiB of replies unread is cut off (see {!reply_cap}): its op-id
    retry covers the lost replies, and it can never stall the loop. *)

type listener = private {
  listen_fd : Unix.file_descr;
  host : string;
  port : int;  (** actual port — useful with [~port:0] *)
}

val resolve : string -> Unix.inet_addr
(** Dotted-quad or name lookup.  @raise Failure if unresolvable. *)

val listen : host:string -> port:int -> listener
(** Bind and listen ([SO_REUSEADDR]); [port = 0] picks an ephemeral port,
    reported back in the result.  @raise Unix.Unix_error on bind
    failure. *)

(** A byte buffer with a read cursor: bytes are appended at the tail and
    consumed from the head, and room is made by sliding the live bytes to
    the front or doubling, never both more than the bytes that passed
    through — amortised linear, however the stream was split.  Each
    connection reassembles its frames in one. *)
module Buf : sig
  type t

  val create : unit -> t
  val length : t -> int  (** bytes appended but not yet consumed *)

  val fill : t -> (Bytes.t -> int -> int -> int) -> int
  (** [fill b read] calls [read buf off len] once to append up to [len]
      bytes at [buf.[off]] and returns its result (0 = EOF). *)

  val next_frame : t -> Codec.frame Codec.progress
  (** Consume the next complete frame ([Got (frame, its length)]), or
      report [Need_more]/[Corrupt] without consuming.  Decodes in place:
      only the frame's payload is copied. *)
end

(** An accepted connection that opened as a client. *)
type client_conn

val conn_id : client_conn -> int
(** Unique per transport. *)

val reply_cap : int
(** Unsent reply bytes the loop holds for a client connection (96 KiB),
    on top of its kernel send buffer, which is pinned to 32 KiB: a client
    is cut off once ~128 KiB of its replies sit unread. *)

val conn_write_frame : client_conn -> kind:int -> Buffer.t -> bool
(** Queue the frame of [kind] around the buffer's payload for the next
    {!flush}, encoded straight into the connection's reply buffer
    ({!Codec.frame_into}); never blocks.  [false] if the connection is
    closed — or is closed now, because the queued replies would pass
    {!reply_cap}. *)

val conn_close : client_conn -> unit
(** Close the connection once its queued replies are flushed. *)

val conn_pause : client_conn -> unit
(** Stop reading and decoding the connection: its further frames wait in
    its buffer and the kernel's, pushing back on the client. *)

val conn_resume : client_conn -> unit
(** Undo {!conn_pause}; buffered frames become inputs from the next
    cycle on. *)

type hello_verdict =
  | Peer of int  (** a replica with this pid; receive entries from it *)
  | Client  (** not a handshake — a client connection *)
  | Reject of string  (** incompatible handshake: log and drop *)

val frames_per_cycle : int
(** At most this many frames of one connection (32) become inputs per
    cycle; the rest wait in its buffer, and the socket is not read until
    they are taken, so one pipelining client cannot crowd out the
    others. *)

(** What one cycle read, in arrival order per connection. *)
type 'msg input =
  | From_peer of int * 'msg  (** a decoded message and its sender's pid *)
  | From_client of client_conn * Codec.frame

type 'msg t
(** A socket set carrying ['msg] values. *)

val create :
  me:int ->
  addrs:(string * int) array ->
  listener:listener ->
  hello:string ->
  classify_hello:(Codec.frame -> hello_verdict) ->
  decode_peer:(src:int -> Codec.frame -> 'msg option) ->
  encode_peer:('msg -> string) ->
  ?lane_of:('msg -> Lanes.lane) ->
  ?backoff_min_us:int ->
  ?backoff_max_us:int ->
  ?log:(string -> unit) ->
  unit ->
  'msg t
(** The socket set for replica [me].  [addrs] lists every replica's listen
    address (index = pid); [listener] must already be bound to
    [addrs.(me)] (possibly with an ephemeral port — pass the rebound
    address in [addrs]).  Nothing connects or reads before the first
    {!poll}.

    [decode_peer] turns a frame received from peer [src] into a message
    ([None] skips the frame) and [encode_peer] is its inverse for
    {!send_all}.
    [lane_of] assigns each message a {!Lanes.lane}; when omitted every
    message rides the (bounded) data lane.

    Defaults: backoff 20 ms → 1 s, [log] writes to [stderr]. *)

val send_all : 'msg t -> dsts:int list -> trace:int -> 'msg -> unit
(** Queue [msg] on each of [dsts]' lanes in order (a destination may
    repeat) for the next {!flush}, calling [encode_peer] once: every
    peer's lane gets the same bytes.  A destination [= me] queues it as
    an input of this cycle instead.  [trace] tags the [Send]
    observability event. *)

val poll : 'msg t -> deadline_us:int -> unit
(** One cycle's wait and reads: wait on the listener, the wake pipe,
    every connection and every outgoing link (asking for [POLLOUT] only
    where bytes are pending) until an fd is ready, a signal arrives or
    [Mclock] reaches [deadline_us] — at once while inputs are still
    queued.  Then accept, complete connects, read each ready connection
    once, decode into inputs (emitting through the caller's
    [decode_peer]), and drain the wake pipe.

    Returns at the deadline, never before it and not one VM wake-up
    after it: the wait is one sleeping [ppoll] that times out the
    {!Lead} learned for waits of its length before the deadline, then
    zero-timeout [ppoll]s over the same set until the deadline, timed on
    [CLOCK_MONOTONIC] ({!Prelude.Os.monotonic_ns}) so a wall-clock step
    never stretches them.  A ready fd, {!wake} or a signal ends either
    part at once.

    The wait right after a cycle whose {!flush} wrote a client reply
    first spins with zero-timeout [ppoll]s for {!Awake}'s budget — a
    client that answers sooner than this vCPU wakes from a sleep is
    caught awake — and hands the rest of the wait to the sleep above.
    A poll that may not wait (inputs queued, the deadline passed) leaves
    the reply pending for the next one that does. *)

(** How early {!poll} stops sleeping so that it returns on time: on a VM
    an idle vCPU wakes from a [ppoll] tens of µs after its timeout, more
    the longer it slept.  Per log2 bucket of wait length the estimator
    keeps that bucket's last 16 lateness samples; the lead is their
    median, so one stolen wake-up does not make every later wait spin. *)
module Lead : sig
  type t

  val create : unit -> t

  val lead_ns : t -> wait_ns:int -> int
  (** How long before the end of a [wait_ns] wait to stop sleeping: the
      median of its bucket's samples, 0 before the first, and never more
      than half the wait. *)

  val observe : t -> wait_ns:int -> ready:int -> late_ns:int -> unit
  (** One sleep of a [wait_ns] wait returned [ready] (the [ppoll]
      result), [late_ns] after its timeout.  Only a timeout ([ready = 0])
      is a sample: a wake that found an fd ready or a signal says nothing
      about timer lateness. *)
end

val lead : 'msg t -> Lead.t
(** The socket set's estimator. *)

(** How long {!poll} stays awake after a client reply: the competitive
    spin-then-block rule (Karlin et al., SOSP '91) — spin only while the
    client's expected turnaround is short against a wake-up, and then
    for at most twice that turnaround.  Both are measured on the
    clients' own bytes, placed in time by the kernel's arrival stamps
    ({!Prelude.Os.recv_aged}): a {e turnaround} runs from the start of a
    wait after a reply until the client's next bytes arrived (the whole
    wait when none came), a {e wake-up} from their arrival until a sleep
    they ended returned.  Each is a ring of the last 16 samples and its
    upper median, so 8 timed-out waits after replies turn the
    turnaround long. *)
module Awake : sig
  type t

  val create : unit -> t

  val observe : t -> turnaround_ns:int -> unit

  val woke : t -> late_ns:int -> unit

  val budget_ns : t -> wait_ns:int -> int
  (** How long to spin before sleeping a [wait_ns] wait ([max_int]: no
      deadline): [min wait_ns (2 × turnaround)] when the turnaround is at
      most two wake-ups — a client that blocks between requests spends
      one wake-up of its own inside each turnaround, so this weighs its
      work against ours — else 0, and 0 before 16 samples of each. *)
end

val awake : 'msg t -> Awake.t
(** The socket set's turnaround ring. *)

(** The loop's own work since {!create}, kept off the wire. *)
type poll_counters = private {
  mutable cycles : int;  (** {!poll} calls: one per cycle of a loop *)
  mutable sleeps : int;  (** [ppoll]s with a timeout, or none *)
  mutable zero_polls : int;
      (** zero-timeout [ppoll]s: spin steps, and polls with inputs queued
          or a deadline already passed *)
  mutable spins : int;  (** pre-sleep spins started after a client reply *)
  mutable spins_caught : int;  (** of those, the ones that found an fd ready *)
  mutable reads : int;  (** [read]s of accepted connections *)
  mutable writes : int;  (** [send]s on links and client connections *)
}

val poll_counters : 'msg t -> poll_counters
(** A copy of the counters as they stand. *)

val next_input : 'msg t -> 'msg input option
(** The next queued input; [None] once this cycle's are taken. *)

val queued_inputs : 'msg t -> int

val flush : 'msg t -> now_us:int -> unit
(** End of cycle: start the connects that are due, cut stalled links, and
    write each link's lanes (control first) and each client's replies —
    one non-blocking write per socket. *)

val next_wake_us : 'msg t -> int
(** [Mclock] µs of the transport's own next deadline (a reconnect or a
    connect/stall timeout); [max_int] if none. *)

val wake : 'msg t -> unit
(** End the current or next [ppoll] at once.  The only function safe to
    call from another thread, until {!close}; it takes no lock, so a
    signal handler running on the loop's own thread may call it too. *)

val stats : 'msg t -> Runtime.Transport_intf.stats

val close : 'msg t -> unit
(** Close every socket, the listener and the wake pipe.  Idempotent. *)
