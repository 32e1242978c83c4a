(** Real TCP sockets between Algorithm 1 replicas — the transport that
    puts each replica in its own OS process.  The interface is deliberately
    narrow: {!send} a message to a peer, and receive through the caller's
    [deliver] callback.  Mailboxes, shards and event loops are the
    caller's business.

    Topology: every replica listens on one address ([addrs.(pid)]) and
    maintains one {e outgoing} connection per peer, used only for sending;
    incoming connections are used only for receiving.  Each outgoing link
    has a dedicated writer thread draining a bounded frame queue, so
    [send] never blocks the replica's event loop on the network.

    Connect/accept handshake: the first frame on an outgoing connection is
    the caller-supplied [hello] (carrying [(pid, n, params)] and the object
    tag — see {!Codec.hello}); the accepting side classifies it via
    [classify_hello] and either registers the connection as a peer link,
    hands it to [on_client] (a load-generator/client connection opens with
    an [Invoke] frame instead of a [Hello]), or rejects it.

    Reconnect: when a link's connection fails, its writer reconnects with
    capped exponential backoff ([backoff_min_us] doubling up to
    [backoff_max_us], per link, reset to the minimum whenever a connect +
    Hello succeeds so a healed link probes at full cadence again); every
    attempt beyond a link's first is counted in
    {!Runtime.Transport_intf.link_stats.reconnects}.  The frame being
    written when a connection fails is retransmitted after reconnecting
    (the receiver discards the truncated copy at EOF).

    Overload: each link's write queue is a two-lane priority queue
    ({!Lanes}).  [lane_of] classifies each outgoing message; control
    frames (heartbeats, sync probes, catch-up) always preempt data frames,
    so the failure detector and ε estimator stay live at saturation.  The
    data lane is bounded ([max_queue] frames and [max_lane_bytes] bytes
    per link); overflow sheds oldest-first, counted in [dropped] and
    [lane_shed] and emitted as [Obs.Event.Shed] events — never silent.
    Within a lane the links stay FIFO, as in the paper's model; across a
    crash/reconnect or a shed, delivery is not guaranteed — Algorithm 1
    assumes reliable links, and a run that loses frames is caught by the
    post-hoc linearizability check.

    Every socket carries a bounded send timeout, so a writer blocked
    against a dead peer's full kernel buffer observes transport shutdown
    within one timeout slice (and gives up on the connection after
    [write_stall_us], falling back to the reconnect path) instead of
    relying on reconnect backoff alone. *)

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

(** A connection handed to the [on_client] callback: the raw socket plus
    any bytes that were read past the first frame. *)
type client_conn

val conn_read_frame : client_conn -> Codec.frame option
(** Next frame on a client connection (blocking); [None] on EOF, error or
    a corrupt stream. *)

val conn_write : client_conn -> string -> bool
(** Write bytes (a pre-encoded frame); [false] if the connection died. *)

type hello_verdict =
  | Peer of int  (** a replica with this pid; receive entries from it *)
  | Client  (** not a handshake — hand the connection to [on_client] *)
  | Reject of string  (** incompatible handshake: log and drop *)

type 'msg t
(** A running transport carrying ['msg] values. *)

val create :
  me:int ->
  addrs:(string * int) array ->
  listener:listener ->
  hello:string ->
  classify_hello:(Codec.frame -> hello_verdict) ->
  decode_peer:(src:int -> Codec.frame -> 'msg option) ->
  encode_peer:('msg -> string) ->
  deliver:(src:int -> 'msg -> unit) ->
  ?on_client:(first:Codec.frame -> client_conn -> unit) ->
  ?max_queue:int ->
  ?max_lane_bytes:int ->
  ?lane_of:('msg -> Lanes.lane) ->
  ?write_stall_us:int ->
  ?backoff_min_us:int ->
  ?backoff_max_us:int ->
  ?log:(string -> unit) ->
  unit ->
  'msg t
(** Start the acceptor and per-peer writer threads and return the
    transport.  [addrs] lists every replica's listen address (index =
    pid); [listener] must already be bound to [addrs.(me)] (possibly with
    an ephemeral port — pass the rebound address in [addrs]).

    [decode_peer] turns a received frame from peer [src] into a message;
    [None] skips the frame.  Each decoded message is handed to [deliver]
    on the reading connection's thread, in arrival order per link.
    [encode_peer] is its inverse for {!send}.  [on_client] runs in the
    accepting connection's own thread and owns the connection until it
    returns; invocations may block there without stalling peer traffic.

    [lane_of] assigns each message a {!Lanes.lane}; when omitted every
    message rides the (bounded) data lane.

    Defaults: [max_queue] 4096 frames/link, [max_lane_bytes] 4 MiB/link,
    [write_stall_us] 2 s, backoff 20 ms → 1 s, [log] writes to [stderr]. *)

val send : 'msg t -> dst:int -> trace:int -> 'msg -> unit
(** Queue [msg] for peer [dst] on its lane; never blocks on the network.
    [dst = me] hands the message straight to [deliver].  [trace] tags the
    [Send] observability event. *)

val stats : 'msg t -> Runtime.Transport_intf.stats

val close : 'msg t -> unit
(** Shut down every socket and join the acceptor and writer threads. *)
