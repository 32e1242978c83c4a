(** See the interface.  Layout of a frame:

    {v
    offset  size  field
    0       2     magic "TB"
    2       1     version
    3       1     kind
    4       4     payload length, u32 big-endian
    8       4     CRC-32 (IEEE) over bytes 2..7 and the payload
    12      len   payload
    v} *)

(* v1: initial framing.  v2: Entry and Invoke payloads carry the
   originating operation's trace id (one varint) so per-process [Obs]
   traces reassemble into cross-replica spans.  v3: Entry and Invoke also
   carry the client operation id (one varint, 0 = none) for idempotent
   retries, and two catch-up frame kinds (7, 8) implement peer
   anti-entropy after a crash.  v4: every op/ack/catch-up payload gains a
   trailing shard id (one varint, 0 = the only shard) so many Algorithm 1
   instances multiplex over one per-peer link, and the hello carries the
   sender's shard count for handshake-time topology agreement.  v5: seven
   quorum-fallback frame kinds (9–15) — the heartbeat/mode announcement
   and the forward/propose/ack/commit/nack/fill frames of the degraded
   ABD mode — all shard-tagged like every other op frame.  v6: two
   clock-synchronization frame kinds (16, 17) — the timestamped Ping and
   its echo Pong carrying the receiver's rx/tx readings, from which the
   prober estimates per-peer offset and uncertainty (NTP-style RTT
   halves).  v7: overload protection — the Invoke payload gains a trailing
   absolute deadline (one varint µs on the shared monotonic timeline, 0 =
   none) so servers can shed work that can no longer meet it, a Shed frame
   kind (18) carries the refusal reason back to the client as a distinct
   retryable class, and the Stats link payload gains the two-lane queue
   counters (ctrl_hwm, lane_shed).  v8: event-driven release gate — the
   Hb payload gains two trailing varints, [ack] (receipt ack of the
   addressee's fast-path entry with that stamp time) and [want] (reply
   with a heartbeat once your clock reaches this value), 0 = none for
   both.  v9: bounded replica state — a replica keeps no log of what it
   applied, so a catch-up asker below its high-water mark gets a state
   transfer frame (19): the replier's object, high-water mark, dedup
   window (op, stamp, op id, result) and queued entries.  v10: no byte
   changes, but stamps are read on the shared clock plus the offset, with
   no run epoch subtracted, so a v9 peer's stamps would sit far below
   every v10 stamp.  Peers speaking other versions are rejected at decode ("unsupported version N"), which the handshake turns
   into a clean [Error_msg] rather than a crash. *)
let version = 10
let header_len = 12
let max_payload = 1 lsl 24  (* 16 MiB: far above any entry, guards length bombs *)
let magic0 = 'T'
let magic1 = 'B'

type frame = { kind : int; payload : string }

type 'a progress =
  | Got of 'a * int
  | Need_more of int
  | Corrupt of string

let u32_be s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

(* The CRC of the frame at [pos] with a [len]-byte payload: version,
   kind and length exactly as laid out on the wire, then the payload. *)
let frame_crc s ~pos ~len =
  let r = Prelude.Crc32.update 0xffffffff s ~pos:(pos + 2) ~len:6 in
  Prelude.Crc32.update r s ~pos:(pos + header_len) ~len lxor 0xffffffff

(* The header of a frame whose [len]-byte payload already sits at
   [pos + header_len] in [dst]; the CRC runs over [dst] itself, so any
   single-bit flip in bytes 2.. is detected. *)
let seal dst ~pos ~kind ~len =
  if kind < 0 || kind > 0xff then invalid_arg "Codec.encode_frame: kind";
  if len > max_payload then invalid_arg "Codec.encode_frame: payload too large";
  Bytes.set dst pos magic0;
  Bytes.set dst (pos + 1) magic1;
  Bytes.set dst (pos + 2) (Char.chr version);
  Bytes.set dst (pos + 3) (Char.chr kind);
  Bytes.set_int32_be dst (pos + 4) (Int32.of_int len);
  let crc = frame_crc (Bytes.unsafe_to_string dst) ~pos ~len in
  Bytes.set_int32_be dst (pos + 8) (Int32.of_int crc)

let encode_frame ~kind ~payload =
  let len = String.length payload in
  let b = Bytes.create (header_len + len) in
  Bytes.blit_string payload 0 b header_len len;
  seal b ~pos:0 ~kind ~len;
  Bytes.unsafe_to_string b

let frame_into dst ~pos ~kind payload =
  let len = Buffer.length payload in
  Buffer.blit payload 0 dst (pos + header_len) len;
  seal dst ~pos ~kind ~len

(* In place: the CRC runs over [s] itself (bytes 2..7 of the header are
   exactly the version, kind and length [seal] covers), and only a
   verified payload is copied out. *)
let decode_frame ?(pos = 0) ?len s =
  let size = String.length s in
  let avail = match len with Some l -> l | None -> size - pos in
  if pos < 0 || avail < 0 || avail > size - pos then
    Corrupt "bounds outside the string"
  else if avail < header_len then Need_more (header_len - avail)
  else if s.[pos] <> magic0 || s.[pos + 1] <> magic1 then Corrupt "bad magic"
  else if Char.code s.[pos + 2] <> version then
    Corrupt (Printf.sprintf "unsupported version %d" (Char.code s.[pos + 2]))
  else
    let kind = Char.code s.[pos + 3] in
    let len = u32_be s (pos + 4) in
    if len > max_payload then
      Corrupt (Printf.sprintf "oversized frame (%d bytes)" len)
    else if avail < header_len + len then Need_more (header_len + len - avail)
    else
      if frame_crc s ~pos ~len <> u32_be s (pos + 8) then
        Corrupt "checksum mismatch"
      else
        Got
          ( { kind; payload = String.sub s (pos + header_len) len },
            pos + header_len + len )

(* ---- payload primitives ---- *)

(* A malformed varint is a malformed payload: one exception for both. *)
exception Bad_payload = Prelude.Varint.Malformed

module Wr = struct
  let int = Prelude.Varint.add_int

  let string b s =
    Prelude.Varint.add_uint b (String.length s);
    Buffer.add_string b s
end

module Rd = struct
  type t = Prelude.Varint.reader

  let of_string s = { Prelude.Varint.src = s; pos = 0 }
  let fail msg = raise (Bad_payload msg)
  let int = Prelude.Varint.get_int

  let string (t : t) =
    let len = Prelude.Varint.get_uint t in
    if len < 0 || t.pos + len > String.length t.src then
      fail "truncated string"
    else begin
      let s = String.sub t.src t.pos len in
      t.pos <- t.pos + len;
      s
    end

  let at_end (t : t) = t.pos = String.length t.src
end

(* ---- typed messages ---- *)

module type OBJ_CODEC = sig
  module D : Spec.Data_type.S

  val obj_tag : int
  val write_op : Buffer.t -> D.op -> unit
  val read_op : Rd.t -> D.op
  val write_result : Buffer.t -> D.result -> unit
  val read_result : Rd.t -> D.result
  val write_state : Buffer.t -> D.state -> unit
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
  shards : int;
}

(* frame kinds *)
let k_hello = 0
let k_entry = 1
let k_invoke = 2
let k_result = 3
let k_stats_req = 4
let k_stats = 5
let k_error = 6
let k_catchup_req = 7
let k_catchup_rep = 8
let k_hb = 9
let k_forward = 10
let k_propose = 11
let k_qack = 12
let k_qcommit = 13
let k_fnack = 14
let k_qfill = 15
let k_ping = 16
let k_pong = 17
let k_shed = 18
let k_catchup_state = 19

module Make (O : OBJ_CODEC) = struct
  module R = Runtime.Replica_core.Make (O.D)

  type wire = R.wire

  type msg =
    | Hello of hello
    | Entry of {
        op : O.D.op;
        time : int;
        pid : int;
        trace : int;
        op_id : int;
        shard : int;
      }
    | Invoke of {
        op : O.D.op;
        trace : int;
        op_id : int;
        shard : int;
        deadline : int;
            (** absolute µs on the shared monotonic timeline; 0 = none *)
      }
    | Result of { result : O.D.result; shard : int }
    | Stats_req
    | Stats of Runtime.Transport_intf.stats
    | Error_msg of string
    | Shed of { reason : string; shard : int }

  let equal_msg a b =
    match (a, b) with
    | Hello h1, Hello h2 -> h1 = h2
    | Entry e1, Entry e2 ->
        O.D.equal_op e1.op e2.op && e1.time = e2.time && e1.pid = e2.pid
        && e1.trace = e2.trace && e1.op_id = e2.op_id && e1.shard = e2.shard
    | Invoke i1, Invoke i2 ->
        O.D.equal_op i1.op i2.op && i1.trace = i2.trace && i1.op_id = i2.op_id
        && i1.shard = i2.shard && i1.deadline = i2.deadline
    | Result r1, Result r2 ->
        O.D.equal_result r1.result r2.result && r1.shard = r2.shard
    | Stats_req, Stats_req -> true
    | Stats s1, Stats s2 -> s1 = s2
    | Error_msg e1, Error_msg e2 -> String.equal e1 e2
    | Shed s1, Shed s2 ->
        String.equal s1.reason s2.reason && s1.shard = s2.shard
    | _ -> false

  let pp_msg fmt = function
    | Hello h ->
        Format.fprintf fmt
          "hello{pid=%d n=%d d=%d u=%d eps=%d x=%d obj=%d shards=%d}" h.pid
          h.n h.d h.u h.eps h.x h.obj_tag h.shards
    | Entry e ->
        Format.fprintf fmt "entry{%a @@ ⟨%d,%d⟩ t=%x id=%d s=%d}" O.D.pp_op
          e.op e.time e.pid e.trace e.op_id e.shard
    | Invoke i ->
        Format.fprintf fmt "invoke{%a t=%x id=%d s=%d dl=%d}" O.D.pp_op i.op
          i.trace i.op_id i.shard i.deadline
    | Result r ->
        Format.fprintf fmt "result{%a s=%d}" O.D.pp_result r.result r.shard
    | Stats_req -> Format.pp_print_string fmt "stats?"
    | Stats s ->
        Format.fprintf fmt "stats{%a}" Runtime.Transport_intf.pp_stats s
    | Error_msg e -> Format.fprintf fmt "error{%s}" e
    | Shed s -> Format.fprintf fmt "shed{%s s=%d}" s.reason s.shard

  (* ---- peer frames: the core's wire, one writer and one reader per kind,
     every payload ending in its shard id ---- *)

  (* ⟨op, ⟨time, pid⟩⟩, as every entry travels *)
  let put_entry b (e : R.Alg.entry) =
    O.write_op b e.op;
    Wr.int b e.ts.time;
    Wr.int b e.ts.pid

  let get_entry r =
    let op = O.read_op r in
    let time = Rd.int r in
    let pid = Rd.int r in
    { R.Alg.op; ts = Prelude.Stamp.make ~time ~pid }

  let put_list b put l =
    Wr.int b (List.length l);
    List.iter put l

  let get_list r what get =
    let c = Rd.int r in
    if c < 0 || c > max_payload then
      Rd.fail (Printf.sprintf "bad %s count %d" what c);
    List.init c (fun _ -> get r)

  let put_queued b (e, op_id) =
    put_entry b e;
    Wr.int b op_id

  let get_queued r =
    let e = get_entry r in
    let op_id = Rd.int r in
    (e, op_id)

  let write_wire b = function
    | R.Wire_entry (e, trace, op_id) ->
        put_entry b e;
        Wr.int b trace;
        Wr.int b op_id;
        k_entry
    | R.Wire_catchup_req { time; cpid } ->
        Wr.int b time;
        Wr.int b cpid;
        k_catchup_req
    | R.Wire_catchup_rep { entries; time; cpid } ->
        put_list b (put_queued b) entries;
        Wr.int b time;
        Wr.int b cpid;
        k_catchup_rep
    | R.Wire_catchup_state { obj; time; cpid; window; entries } ->
        O.write_state b obj;
        Wr.int b time;
        Wr.int b cpid;
        put_list b
          (fun (e, result, op_id) ->
            put_queued b (e, op_id);
            O.write_result b result)
          window;
        put_list b (put_queued b) entries;
        k_catchup_state
    | R.Wire_quorum (R.Hb h) ->
        Wr.int b h.stamp;
        Wr.int b h.epoch;
        Wr.int b (if h.qmode then 1 else 0);
        Wr.int b h.seq;
        Wr.int b h.floor;
        Wr.int b h.ack;
        Wr.int b h.want;
        k_hb
    | R.Wire_quorum (R.Forward f) ->
        Wr.int b f.qid;
        Wr.int b f.origin;
        O.write_op b f.op;
        Wr.int b f.op_id;
        Wr.int b f.trace;
        k_forward
    | R.Wire_quorum (R.Propose { epoch; qseq; p }) ->
        Wr.int b epoch;
        Wr.int b qseq;
        Wr.int b p.q_time;
        Wr.int b p.q_origin;
        Wr.int b p.q_qid;
        O.write_op b p.q_op;
        Wr.int b p.q_op_id;
        Wr.int b p.q_trace;
        k_propose
    | R.Wire_quorum (R.Qack { epoch; qseq }) ->
        Wr.int b epoch;
        Wr.int b qseq;
        k_qack
    | R.Wire_quorum (R.Qcommit { epoch; qseq }) ->
        Wr.int b epoch;
        Wr.int b qseq;
        k_qcommit
    | R.Wire_quorum (R.Fnack { qid }) ->
        Wr.int b qid;
        k_fnack
    | R.Wire_quorum (R.Qfill { epoch; from_seq }) ->
        Wr.int b epoch;
        Wr.int b from_seq;
        k_qfill
    | R.Wire_sync (R.Sping { seq; t0 }) ->
        Wr.int b seq;
        Wr.int b t0;
        k_ping
    | R.Wire_sync (R.Spong { seq; t0; t_rx; t_tx }) ->
        Wr.int b seq;
        Wr.int b t0;
        Wr.int b t_rx;
        Wr.int b t_tx;
        k_pong

  let read_wire kind r =
    if kind = k_entry then begin
      let e = get_entry r in
      let trace = Rd.int r in
      let op_id = Rd.int r in
      R.Wire_entry (e, trace, op_id)
    end
    else if kind = k_catchup_req then begin
      let time = Rd.int r in
      let cpid = Rd.int r in
      R.Wire_catchup_req { time; cpid }
    end
    else if kind = k_catchup_rep then begin
      let entries = get_list r "catchup entry" get_queued in
      let time = Rd.int r in
      let cpid = Rd.int r in
      R.Wire_catchup_rep { entries; time; cpid }
    end
    else if kind = k_catchup_state then begin
      let obj = O.read_state r in
      let time = Rd.int r in
      let cpid = Rd.int r in
      let window =
        get_list r "transfer window" (fun r ->
            let e, op_id = get_queued r in
            let result = O.read_result r in
            (e, result, op_id))
      in
      let entries = get_list r "transfer entry" get_queued in
      R.Wire_catchup_state { obj; time; cpid; window; entries }
    end
    else if kind = k_hb then begin
      let stamp = Rd.int r in
      let epoch = Rd.int r in
      let qmode =
        match Rd.int r with
        | 0 -> false
        | 1 -> true
        | t -> Rd.fail (Printf.sprintf "hb: bad mode tag %d" t)
      in
      let seq = Rd.int r in
      let floor = Rd.int r in
      let ack = Rd.int r in
      let want = Rd.int r in
      R.Wire_quorum (R.Hb { stamp; epoch; qmode; seq; floor; ack; want })
    end
    else if kind = k_forward then begin
      let qid = Rd.int r in
      let origin = Rd.int r in
      let op = O.read_op r in
      let op_id = Rd.int r in
      let trace = Rd.int r in
      R.Wire_quorum (R.Forward { qid; origin; op; op_id; trace })
    end
    else if kind = k_propose then begin
      let epoch = Rd.int r in
      let qseq = Rd.int r in
      let q_time = Rd.int r in
      let q_origin = Rd.int r in
      let q_qid = Rd.int r in
      let q_op = O.read_op r in
      let q_op_id = Rd.int r in
      let q_trace = Rd.int r in
      R.Wire_quorum
        (R.Propose
           {
             epoch;
             qseq;
             p = { R.q_time; q_op; q_origin; q_qid; q_op_id; q_trace };
           })
    end
    else if kind = k_qack then begin
      let epoch = Rd.int r in
      let qseq = Rd.int r in
      R.Wire_quorum (R.Qack { epoch; qseq })
    end
    else if kind = k_qcommit then begin
      let epoch = Rd.int r in
      let qseq = Rd.int r in
      R.Wire_quorum (R.Qcommit { epoch; qseq })
    end
    else if kind = k_fnack then R.Wire_quorum (R.Fnack { qid = Rd.int r })
    else if kind = k_qfill then begin
      let epoch = Rd.int r in
      let from_seq = Rd.int r in
      R.Wire_quorum (R.Qfill { epoch; from_seq })
    end
    else if kind = k_ping then begin
      let seq = Rd.int r in
      let t0 = Rd.int r in
      R.Wire_sync (R.Sping { seq; t0 })
    end
    else if kind = k_pong then begin
      let seq = Rd.int r in
      let t0 = Rd.int r in
      let t_rx = Rd.int r in
      let t_tx = Rd.int r in
      R.Wire_sync (R.Spong { seq; t0; t_rx; t_tx })
    end
    else Rd.fail (Printf.sprintf "not a peer frame kind %d" kind)

  let write_peer b (shard, w) =
    let kind = write_wire b w in
    Wr.int b shard;
    kind

  let encode_with write v =
    let b = Buffer.create 32 in
    let kind = write b v in
    encode_frame ~kind ~payload:(Buffer.contents b)

  let encode_peer = encode_with write_peer

  (* A whole payload read by [read] (top-level, so passing it allocates
     nothing), or why not. *)
  let read_payload read frame =
    match
      let r = Rd.of_string frame.payload in
      let v = read frame.kind r in
      if Rd.at_end r then Ok v else Error "trailing payload bytes"
    with
    | verdict -> verdict
    | exception Bad_payload msg -> Error msg

  let read_peer kind r =
    let w = read_wire kind r in
    let shard = Rd.int r in
    (shard, w)

  let decode_peer = read_payload read_peer

  (* ---- client and handshake frames ---- *)

  let write_payload b msg =
    match msg with
    | Hello h ->
        Wr.int b h.pid;
        Wr.int b h.n;
        Wr.int b h.d;
        Wr.int b h.u;
        Wr.int b h.eps;
        Wr.int b h.x;
        Wr.int b h.obj_tag;
        Wr.int b h.shards;
        k_hello
    | Entry { op; time; pid; trace; op_id; shard } ->
        write_peer b
          ( shard,
            R.Wire_entry
              ({ R.Alg.op; ts = Prelude.Stamp.make ~time ~pid }, trace, op_id) )
    | Invoke i ->
        O.write_op b i.op;
        Wr.int b i.trace;
        Wr.int b i.op_id;
        Wr.int b i.shard;
        Wr.int b i.deadline;
        k_invoke
    | Result r ->
        O.write_result b r.result;
        Wr.int b r.shard;
        k_result
    | Stats_req -> k_stats_req
    | Stats s ->
        Wr.int b s.Runtime.Transport_intf.sent;
        Wr.int b s.dropped;
        (match s.link with
        | None -> Wr.int b 0
        | Some l ->
            Wr.int b 1;
            Wr.int b l.reconnects;
            Wr.int b l.bytes_out;
            Wr.int b l.bytes_in;
            Wr.int b l.disconnected_us;
            Wr.int b l.queue_hwm;
            Wr.int b l.ctrl_hwm;
            Wr.int b l.lane_shed);
        k_stats
    | Error_msg e ->
        Wr.string b e;
        k_error
    | Shed s ->
        Wr.string b s.reason;
        Wr.int b s.shard;
        k_shed

  let encode = encode_with write_payload

  let read_msg kind r =
    if kind = k_hello then
      let pid = Rd.int r in
      let n = Rd.int r in
      let d = Rd.int r in
      let u = Rd.int r in
      let eps = Rd.int r in
      let x = Rd.int r in
      let obj_tag = Rd.int r in
      let shards = Rd.int r in
      Hello { pid; n; d; u; eps; x; obj_tag; shards }
    else if kind = k_invoke then begin
      let op = O.read_op r in
      let trace = Rd.int r in
      let op_id = Rd.int r in
      let shard = Rd.int r in
      let deadline = Rd.int r in
      Invoke { op; trace; op_id; shard; deadline }
    end
    else if kind = k_result then begin
      let result = O.read_result r in
      let shard = Rd.int r in
      Result { result; shard }
    end
    else if kind = k_stats_req then Stats_req
    else if kind = k_stats then begin
      let sent = Rd.int r in
      let dropped = Rd.int r in
      let link =
        match Rd.int r with
        | 0 -> None
        | 1 ->
            let reconnects = Rd.int r in
            let bytes_out = Rd.int r in
            let bytes_in = Rd.int r in
            let disconnected_us = Rd.int r in
            let queue_hwm = Rd.int r in
            let ctrl_hwm = Rd.int r in
            let lane_shed = Rd.int r in
            Some
              {
                Runtime.Transport_intf.reconnects;
                bytes_out;
                bytes_in;
                disconnected_us;
                queue_hwm;
                ctrl_hwm;
                lane_shed;
              }
        | t -> Rd.fail (Printf.sprintf "stats: bad link tag %d" t)
      in
      Stats { Runtime.Transport_intf.sent; dropped; link }
    end
    else if kind = k_error then Error_msg (Rd.string r)
    else if kind = k_shed then begin
      let reason = Rd.string r in
      let shard = Rd.int r in
      Shed { reason; shard }
    end
    else Rd.fail (Printf.sprintf "not a client frame kind %d" kind)

  let decode_payload frame =
    if frame.kind = k_entry then
      match decode_peer frame with
      | Ok (shard, R.Wire_entry (e, trace, op_id)) ->
          Ok
            (Entry
               {
                 op = e.op;
                 time = e.ts.time;
                 pid = e.ts.pid;
                 trace;
                 op_id;
                 shard;
               })
      | Ok _ -> Error "not an entry"
      | Error e -> Error e
    else read_payload read_msg frame

  let decode ?(pos = 0) s =
    match decode_frame ~pos s with
    | Need_more k -> Need_more k
    | Corrupt e -> Corrupt e
    | Got (frame, next) -> (
        match decode_payload frame with
        | Ok msg -> Got (msg, next)
        | Error e -> Corrupt e)
end
