(** Versioned, length-prefixed binary wire format for Algorithm 1
    clusters.

    Two layers:

    - an {e untyped framing layer} ({!encode_frame}/{!decode_frame}): every
      frame is [magic "TB" | version | kind | payload length (u32 BE) |
      CRC-32 | payload].  The CRC (IEEE 802.3, over version, kind, length
      and payload) makes corruption — truncation aside — a detected error:
      any single bit flip in the covered region is caught by construction,
      and a flip in the magic or a truncating flip in the length field
      surfaces as {!Corrupt} or {!Need_more}.  Decoding {e never raises}:
      a stream reader can feed arbitrary bytes and always gets a
      three-valued verdict.
    - a {e typed layer} ({!Make}), generic over a per-object (de)serialiser
      ({!OBJ_CODEC}; the registered objects live in {!Wire}).  Peer frames
      are the replica core's own {!Runtime.Replica_core.Make.wire},
      serialised in place with the shard id last ({!Make.encode_peer},
      {!Make.decode_peer}); client and handshake frames are {!Make.msg}.
      Payloads use {!Prelude.Varint} integers (zigzag) and
      length-prefixed strings; a malformed payload inside a well-framed
      frame decodes to an error, not an exception.

    The wire protocol (who sends which message) is documented in
    [Tcp_transport] and README "Wire format". *)

val version : int
(** Current wire version (10 — v2 added the trace id to [Entry]/[Invoke]
    payloads; v3 added the client operation id to both, plus the
    catch-up request/reply frames for post-crash peer anti-entropy; v4
    added the shard id to every op/ack/catch-up payload and the shard
    count to the handshake, so a sharded namespace multiplexes many
    Algorithm 1 instances over one per-peer link; v5 added the quorum
    fallback's frames — the heartbeat doubling as the mode announcement
    plus forward/propose/ack/commit/nack/fill, all shard-tagged; v6
    added the clock-synchronization probe frames [Ping]/[Pong]; v7 added
    overload protection — the client deadline on [Invoke], the [Shed]
    refusal frame, and the two-lane queue counters on [Stats]; v8 added
    [ack] and [want] to [Hb], so the fast path's release gate is freed
    by receipt acks and prompted heartbeats instead of the heartbeat
    tick; v9 added the [Catchup_state] transfer frame, since a replica
    keeps no log of what it applied; v10 changed no byte, only the
    meaning of a stamp — the shared clock plus the offset, with no run
    epoch subtracted — so a v9 peer, whose stamps sit far below, fails
    the handshake instead of corrupting the order).  A decoder rejects
    every other version, so incompatible formats — older peers included
    — fail the handshake cleanly instead of misparsing. *)

val header_len : int
val max_payload : int

type frame = { kind : int; payload : string }

type 'a progress =
  | Got of 'a * int  (** decoded value, offset of the next byte to read *)
  | Need_more of int  (** how many more bytes (at least) must arrive *)
  | Corrupt of string

val encode_frame : kind:int -> payload:string -> string
(** @raise Invalid_argument if [kind] is not a byte or the payload exceeds
    {!max_payload}. *)

val frame_into : Bytes.t -> pos:int -> kind:int -> Buffer.t -> unit
(** [frame_into dst ~pos ~kind payload] writes {!encode_frame}'s bytes
    at [pos] in [dst], which must have [header_len + Buffer.length
    payload] bytes of room there — a frame encoded straight into a send
    buffer.  @raise Invalid_argument as {!encode_frame}. *)

val decode_frame : ?pos:int -> ?len:int -> string -> frame progress
(** Decode one frame from the [len] bytes starting at [pos] (defaults: 0
    and the rest of the string).  Total function: bad magic, bad version,
    oversized length and checksum mismatch are {!Corrupt}, and so is a
    [pos]/[len] outside the string; an incomplete frame is {!Need_more}.
    The header is judged as soon as it is in, before the bytes its length
    promises.  Only the payload is copied, once its checksum holds, so a
    stream reader can decode straight from its receive buffer. *)

(** {2 Payload primitives} *)

exception Bad_payload of string
(** Raised by {!Rd} accessors and {!OBJ_CODEC} readers on malformed
    payloads — the same exception as {!Prelude.Varint.Malformed}; confined
    to the codec: {!Make}'s decoders catch it and return an error. *)

module Wr : sig
  val int : Buffer.t -> int -> unit  (** zigzag LEB128 varint *)

  val string : Buffer.t -> string -> unit  (** varint length + bytes *)
end

module Rd : sig
  type t

  val of_string : string -> t
  val int : t -> int
  val string : t -> string
  val at_end : t -> bool

  val fail : string -> 'a
  (** [raise (Bad_payload _)] — for object codecs rejecting bad tags. *)
end

(** {2 Typed messages} *)

(** Per-object (de)serialiser: how one registered data type's operations
    and results travel.  Readers raise {!Bad_payload} on malformed input
    and nothing else. *)
module type OBJ_CODEC = sig
  module D : Spec.Data_type.S

  val obj_tag : int
  (** Wire identity of the object, carried in the handshake so a register
      replica never deserialises queue operations. *)

  val write_op : Buffer.t -> D.op -> unit
  val read_op : Rd.t -> D.op
  val write_result : Buffer.t -> D.result -> unit
  val read_result : Rd.t -> D.result

  val write_state : Buffer.t -> D.state -> unit
  (** Serialise a whole object state — used by the durability layer's
      snapshots ({!Persist}), never by wire frames. *)

  val read_state : Rd.t -> D.state
end

type hello = {
  pid : int;
  n : int;
  d : int;
  u : int;
  eps : int;
  x : int;
  obj_tag : int;
  shards : int;  (** shard count of the sender's namespace; 0 = unsharded *)
}
(** The connect handshake: the sender's identity plus the parameters it
    runs Algorithm 1 with.  Receivers reject mismatches — a cluster whose
    members disagree on [(n, d, u, ε, X)], on the object, or on the shard
    topology would silently violate the model's admissibility assumptions
    (or route operations to the wrong object) instead. *)

module Make (O : OBJ_CODEC) : sig
  type wire = Runtime.Replica_core.Make(O.D).wire
  (** Everything replicas say to each other.  Frame kinds: entry 1,
      catch-up request 7, reply 8 and state transfer 19, heartbeat 9,
      forward 10, propose 11, quorum ack 12, commit 13, nack 14, fill 15,
      sync ping 16 and pong 17. *)

  val encode_peer : int * wire -> string
  (** The frame of a shard's message, shard id last in the payload. *)

  val decode_peer : frame -> (int * wire, string) result
  (** The shard and message of a peer frame; [Error] on a kind that is not
      a peer frame's, a malformed payload, or trailing bytes.  The shard
      id is not range-checked. *)

  type msg =
    | Hello of hello  (** first frame on a replica→replica connection *)
    | Entry of {
        op : O.D.op;
        time : int;
        pid : int;
        trace : int;
        op_id : int;
        shard : int;
      }
        (** an Algorithm 1 protocol message: operation + ⟨time, pid⟩ stamp
            + originating trace id (0 when untraced) + client operation id
            (0 when the client did not ask for idempotence) + shard id of
            the instance it belongs to (0 = the only shard).  The bytes of
            the peer frame [(shard, Wire_entry _)], for callers that
            speak to a replica without its core's types. *)
    | Invoke of {
        op : O.D.op;
        trace : int;
        op_id : int;
        shard : int;
        deadline : int;
            (** client-minted absolute deadline, µs on the shared
                monotonic timeline ({!Prelude.Mclock}); 0 = none.  A
                server sheds the op instead of starting work it cannot
                finish in time. *)
      }
        (** client → replica; a retry re-sends the same [op_id] (and the
            same deadline — the deadline belongs to the operation, not
            the attempt) *)
    | Result of { result : O.D.result; shard : int }
        (** replica → client, echoing the invoking shard *)
    | Stats_req  (** client → replica: transport stats probe *)
    | Stats of Runtime.Transport_intf.stats  (** replica → client *)
    | Error_msg of string  (** replica → client: invocation failed *)
    | Shed of { reason : string; shard : int }
        (** replica → client: the op was refused (or abandoned) by
            overload protection — deadline already passed, admission
            control predicted a miss, or the inflight budget was full.
            A distinct retryable class: the op was {e not} executed, so
            an idempotent retry with capped backoff is always safe. *)
  (** Client, handshake and bare entry frames. *)

  val equal_msg : msg -> msg -> bool
  val pp_msg : Format.formatter -> msg -> unit

  val encode : msg -> string
  (** Full frame bytes, ready for the wire. *)

  val write_payload : Buffer.t -> msg -> int
  (** Append [msg]'s payload to the buffer and return its frame kind, for
      {!frame_into}. *)

  val decode_payload : frame -> (msg, string) result
  (** Interpret an already-framed payload; [Error] on a kind that is no
      {!msg}'s (peer frames other than an entry included), malformed
      payload, or trailing bytes. *)

  val decode : ?pos:int -> string -> msg progress
  (** {!decode_frame} followed by {!decode_payload}; total. *)
end
