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

exception Bad_payload of string

module Wr = struct
  let rec uint b n =
    if n land lnot 0x7f = 0 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      uint b (n lsr 7)
    end

  let int b i = uint b ((i lsl 1) lxor (i asr 62))

  let string b s =
    uint b (String.length s);
    Buffer.add_string b s
end

module Rd = struct
  type t = { buf : string; mutable pos : int }

  let of_string s = { buf = s; pos = 0 }
  let fail msg = raise (Bad_payload msg)

  let byte t =
    if t.pos >= String.length t.buf then fail "truncated payload"
    else begin
      let c = Char.code t.buf.[t.pos] in
      t.pos <- t.pos + 1;
      c
    end

  (* Top-level, not a local closure: a varint read allocates nothing. *)
  let rec uint_from t shift acc =
    if shift > 62 then fail "varint overflow"
    else
      let c = byte t in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then acc else uint_from t (shift + 7) acc

  let uint t = uint_from t 0 0

  let int t =
    let n = uint t in
    (n lsr 1) lxor (-(n land 1))

  let string t =
    let len = uint t in
    if len < 0 || t.pos + len > String.length t.buf then
      fail "truncated string"
    else begin
      let s = String.sub t.buf t.pos len in
      t.pos <- t.pos + len;
      s
    end

  let at_end t = t.pos = String.length t.buf
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
    | Catchup_req of { time : int; cpid : int; shard : int }
    | Catchup_rep of {
        entries : (O.D.op * int * int * int) list;
            (** op, time, pid, op id — stamp order *)
        time : int;
        cpid : int;
        shard : int;
      }
    | Catchup_state of {
        obj : O.D.state;
        time : int;
        cpid : int;  (** the replier's high-water mark *)
        window : (O.D.op * int * int * int * O.D.result) list;
            (** op, time, pid, op id, result — stamp order *)
        entries : (O.D.op * int * int * int) list;
            (** queued: op, time, pid, op id — stamp order *)
        shard : int;
      }
    | Hb of {
        stamp : int;
        epoch : int;
        qmode : bool;
        seq : int;
        floor : int;
        ack : int;
        want : int;
        shard : int;
      }
    | Forward of {
        qid : int;
        origin : int;
        op : O.D.op;
        op_id : int;
        trace : int;
        shard : int;
      }
    | Propose of {
        epoch : int;
        qseq : int;
        time : int;
        origin : int;
        qid : int;
        op : O.D.op;
        op_id : int;
        trace : int;
        shard : int;
      }
    | Qack of { epoch : int; qseq : int; shard : int }
    | Qcommit of { epoch : int; qseq : int; shard : int }
    | Fnack of { qid : int; shard : int }
    | Qfill of { epoch : int; from_seq : int; shard : int }
    | Ping of { seq : int; t0 : int; shard : int }
    | Pong of { seq : int; t0 : int; t_rx : int; t_tx : int; shard : int }
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
    | Catchup_req q1, Catchup_req q2 ->
        q1.time = q2.time && q1.cpid = q2.cpid && q1.shard = q2.shard
    | Catchup_rep p1, Catchup_rep p2 ->
        p1.time = p2.time && p1.cpid = p2.cpid && p1.shard = p2.shard
        && List.length p1.entries = List.length p2.entries
        && List.for_all2
             (fun (o1, t1, p1, i1) (o2, t2, p2, i2) ->
               O.D.equal_op o1 o2 && t1 = t2 && p1 = p2 && i1 = i2)
             p1.entries p2.entries
    | Catchup_state s1, Catchup_state s2 ->
        O.D.equal_state s1.obj s2.obj
        && s1.time = s2.time && s1.cpid = s2.cpid && s1.shard = s2.shard
        && List.length s1.window = List.length s2.window
        && List.for_all2
             (fun (o1, t1, p1, i1, r1) (o2, t2, p2, i2, r2) ->
               O.D.equal_op o1 o2 && t1 = t2 && p1 = p2 && i1 = i2
               && O.D.equal_result r1 r2)
             s1.window s2.window
        && List.length s1.entries = List.length s2.entries
        && List.for_all2
             (fun (o1, t1, p1, i1) (o2, t2, p2, i2) ->
               O.D.equal_op o1 o2 && t1 = t2 && p1 = p2 && i1 = i2)
             s1.entries s2.entries
    | Hb h1, Hb h2 ->
        h1.stamp = h2.stamp && h1.epoch = h2.epoch && h1.qmode = h2.qmode
        && h1.seq = h2.seq && h1.floor = h2.floor && h1.ack = h2.ack
        && h1.want = h2.want && h1.shard = h2.shard
    | Forward f1, Forward f2 ->
        f1.qid = f2.qid && f1.origin = f2.origin && O.D.equal_op f1.op f2.op
        && f1.op_id = f2.op_id && f1.trace = f2.trace && f1.shard = f2.shard
    | Propose p1, Propose p2 ->
        p1.epoch = p2.epoch && p1.qseq = p2.qseq && p1.time = p2.time
        && p1.origin = p2.origin && p1.qid = p2.qid
        && O.D.equal_op p1.op p2.op && p1.op_id = p2.op_id
        && p1.trace = p2.trace && p1.shard = p2.shard
    | Qack a1, Qack a2 ->
        a1.epoch = a2.epoch && a1.qseq = a2.qseq && a1.shard = a2.shard
    | Qcommit c1, Qcommit c2 ->
        c1.epoch = c2.epoch && c1.qseq = c2.qseq && c1.shard = c2.shard
    | Fnack n1, Fnack n2 -> n1.qid = n2.qid && n1.shard = n2.shard
    | Qfill q1, Qfill q2 ->
        q1.epoch = q2.epoch && q1.from_seq = q2.from_seq
        && q1.shard = q2.shard
    | Ping p1, Ping p2 ->
        p1.seq = p2.seq && p1.t0 = p2.t0 && p1.shard = p2.shard
    | Pong p1, Pong p2 ->
        p1.seq = p2.seq && p1.t0 = p2.t0 && p1.t_rx = p2.t_rx
        && p1.t_tx = p2.t_tx && p1.shard = p2.shard
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
    | Catchup_req q ->
        Format.fprintf fmt "catchup?{hwm=⟨%d,%d⟩ s=%d}" q.time q.cpid q.shard
    | Catchup_rep p ->
        Format.fprintf fmt "catchup{%d entries, hwm=⟨%d,%d⟩ s=%d}"
          (List.length p.entries) p.time p.cpid p.shard
    | Catchup_state p ->
        Format.fprintf fmt
          "transfer{hwm=⟨%d,%d⟩ window=%d entries=%d s=%d}" p.time p.cpid
          (List.length p.window) (List.length p.entries) p.shard
    | Hb h ->
        Format.fprintf fmt
          "hb{clk=%d e=%d %s seq=%d floor=%d ack=%d want=%d s=%d}" h.stamp
          h.epoch
          (if h.qmode then "quorum" else "fast")
          h.seq h.floor h.ack h.want h.shard
    | Forward f ->
        Format.fprintf fmt "fwd{%a qid=%d from=%d id=%d t=%x s=%d}" O.D.pp_op
          f.op f.qid f.origin f.op_id f.trace f.shard
    | Propose p ->
        Format.fprintf fmt "propose{e=%d #%d %a @@ ⟨%d,%d⟩ qid=%d id=%d s=%d}"
          p.epoch p.qseq O.D.pp_op p.op p.time p.origin p.qid p.op_id p.shard
    | Qack a -> Format.fprintf fmt "qack{e=%d #%d s=%d}" a.epoch a.qseq a.shard
    | Qcommit c ->
        Format.fprintf fmt "qcommit{e=%d #%d s=%d}" c.epoch c.qseq c.shard
    | Fnack n -> Format.fprintf fmt "fnack{qid=%d s=%d}" n.qid n.shard
    | Qfill q ->
        Format.fprintf fmt "qfill{e=%d from=%d s=%d}" q.epoch q.from_seq
          q.shard
    | Ping p -> Format.fprintf fmt "ping{#%d t0=%d s=%d}" p.seq p.t0 p.shard
    | Pong p ->
        Format.fprintf fmt "pong{#%d t0=%d rx=%d tx=%d s=%d}" p.seq p.t0
          p.t_rx p.t_tx p.shard
    | Shed s -> Format.fprintf fmt "shed{%s s=%d}" s.reason s.shard

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
    | Entry e ->
        O.write_op b e.op;
        Wr.int b e.time;
        Wr.int b e.pid;
        Wr.int b e.trace;
        Wr.int b e.op_id;
        Wr.int b e.shard;
        k_entry
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
    | Catchup_req q ->
        Wr.int b q.time;
        Wr.int b q.cpid;
        Wr.int b q.shard;
        k_catchup_req
    | Catchup_rep p ->
        Wr.int b (List.length p.entries);
        List.iter
          (fun (op, time, pid, op_id) ->
            O.write_op b op;
            Wr.int b time;
            Wr.int b pid;
            Wr.int b op_id)
          p.entries;
        Wr.int b p.time;
        Wr.int b p.cpid;
        Wr.int b p.shard;
        k_catchup_rep
    | Catchup_state p ->
        O.write_state b p.obj;
        Wr.int b p.time;
        Wr.int b p.cpid;
        Wr.int b (List.length p.window);
        List.iter
          (fun (op, time, pid, op_id, result) ->
            O.write_op b op;
            Wr.int b time;
            Wr.int b pid;
            Wr.int b op_id;
            O.write_result b result)
          p.window;
        Wr.int b (List.length p.entries);
        List.iter
          (fun (op, time, pid, op_id) ->
            O.write_op b op;
            Wr.int b time;
            Wr.int b pid;
            Wr.int b op_id)
          p.entries;
        Wr.int b p.shard;
        k_catchup_state
    | Hb h ->
        Wr.int b h.stamp;
        Wr.int b h.epoch;
        Wr.int b (if h.qmode then 1 else 0);
        Wr.int b h.seq;
        Wr.int b h.floor;
        Wr.int b h.ack;
        Wr.int b h.want;
        Wr.int b h.shard;
        k_hb
    | Forward f ->
        Wr.int b f.qid;
        Wr.int b f.origin;
        O.write_op b f.op;
        Wr.int b f.op_id;
        Wr.int b f.trace;
        Wr.int b f.shard;
        k_forward
    | Propose p ->
        Wr.int b p.epoch;
        Wr.int b p.qseq;
        Wr.int b p.time;
        Wr.int b p.origin;
        Wr.int b p.qid;
        O.write_op b p.op;
        Wr.int b p.op_id;
        Wr.int b p.trace;
        Wr.int b p.shard;
        k_propose
    | Qack a ->
        Wr.int b a.epoch;
        Wr.int b a.qseq;
        Wr.int b a.shard;
        k_qack
    | Qcommit c ->
        Wr.int b c.epoch;
        Wr.int b c.qseq;
        Wr.int b c.shard;
        k_qcommit
    | Fnack n ->
        Wr.int b n.qid;
        Wr.int b n.shard;
        k_fnack
    | Qfill q ->
        Wr.int b q.epoch;
        Wr.int b q.from_seq;
        Wr.int b q.shard;
        k_qfill
    | Ping p ->
        Wr.int b p.seq;
        Wr.int b p.t0;
        Wr.int b p.shard;
        k_ping
    | Pong p ->
        Wr.int b p.seq;
        Wr.int b p.t0;
        Wr.int b p.t_rx;
        Wr.int b p.t_tx;
        Wr.int b p.shard;
        k_pong
    | Shed s ->
        Wr.string b s.reason;
        Wr.int b s.shard;
        k_shed

  let encode msg =
    let b = Buffer.create 32 in
    let kind = write_payload b msg in
    encode_frame ~kind ~payload:(Buffer.contents b)

  let decode_payload frame =
    match
      let r = Rd.of_string frame.payload in
      let msg =
        if frame.kind = k_hello then
          let pid = Rd.int r in
          let n = Rd.int r in
          let d = Rd.int r in
          let u = Rd.int r in
          let eps = Rd.int r in
          let x = Rd.int r in
          let obj_tag = Rd.int r in
          let shards = Rd.int r in
          Hello { pid; n; d; u; eps; x; obj_tag; shards }
        else if frame.kind = k_entry then begin
          let op = O.read_op r in
          let time = Rd.int r in
          let pid = Rd.int r in
          let trace = Rd.int r in
          let op_id = Rd.int r in
          let shard = Rd.int r in
          Entry { op; time; pid; trace; op_id; shard }
        end
        else if frame.kind = k_invoke then begin
          let op = O.read_op r in
          let trace = Rd.int r in
          let op_id = Rd.int r in
          let shard = Rd.int r in
          let deadline = Rd.int r in
          Invoke { op; trace; op_id; shard; deadline }
        end
        else if frame.kind = k_result then begin
          let result = O.read_result r in
          let shard = Rd.int r in
          Result { result; shard }
        end
        else if frame.kind = k_stats_req then Stats_req
        else if frame.kind = k_stats then begin
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
        else if frame.kind = k_error then Error_msg (Rd.string r)
        else if frame.kind = k_catchup_req then begin
          let time = Rd.int r in
          let cpid = Rd.int r in
          let shard = Rd.int r in
          Catchup_req { time; cpid; shard }
        end
        else if frame.kind = k_catchup_rep then begin
          let count = Rd.int r in
          if count < 0 || count > max_payload then
            Rd.fail (Printf.sprintf "catchup: bad entry count %d" count);
          let entries = ref [] in
          for _ = 1 to count do
            let op = O.read_op r in
            let time = Rd.int r in
            let pid = Rd.int r in
            let op_id = Rd.int r in
            entries := (op, time, pid, op_id) :: !entries
          done;
          let entries = List.rev !entries in
          let time = Rd.int r in
          let cpid = Rd.int r in
          let shard = Rd.int r in
          Catchup_rep { entries; time; cpid; shard }
        end
        else if frame.kind = k_catchup_state then begin
          let obj = O.read_state r in
          let time = Rd.int r in
          let cpid = Rd.int r in
          (* A counted run of items, read in order. *)
          let items what read =
            let c = Rd.int r in
            if c < 0 || c > max_payload then
              Rd.fail (Printf.sprintf "transfer: bad %s count %d" what c);
            let acc = ref [] in
            for _ = 1 to c do
              acc := read () :: !acc
            done;
            List.rev !acc
          in
          let window =
            items "window" (fun () ->
                let op = O.read_op r in
                let time = Rd.int r in
                let pid = Rd.int r in
                let op_id = Rd.int r in
                let result = O.read_result r in
                (op, time, pid, op_id, result))
          in
          let entries =
            items "entry" (fun () ->
                let op = O.read_op r in
                let time = Rd.int r in
                let pid = Rd.int r in
                let op_id = Rd.int r in
                (op, time, pid, op_id))
          in
          let shard = Rd.int r in
          Catchup_state { obj; time; cpid; window; entries; shard }
        end
        else if frame.kind = k_hb then begin
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
          let shard = Rd.int r in
          Hb { stamp; epoch; qmode; seq; floor; ack; want; shard }
        end
        else if frame.kind = k_forward then begin
          let qid = Rd.int r in
          let origin = Rd.int r in
          let op = O.read_op r in
          let op_id = Rd.int r in
          let trace = Rd.int r in
          let shard = Rd.int r in
          Forward { qid; origin; op; op_id; trace; shard }
        end
        else if frame.kind = k_propose then begin
          let epoch = Rd.int r in
          let qseq = Rd.int r in
          let time = Rd.int r in
          let origin = Rd.int r in
          let qid = Rd.int r in
          let op = O.read_op r in
          let op_id = Rd.int r in
          let trace = Rd.int r in
          let shard = Rd.int r in
          Propose { epoch; qseq; time; origin; qid; op; op_id; trace; shard }
        end
        else if frame.kind = k_qack then begin
          let epoch = Rd.int r in
          let qseq = Rd.int r in
          let shard = Rd.int r in
          Qack { epoch; qseq; shard }
        end
        else if frame.kind = k_qcommit then begin
          let epoch = Rd.int r in
          let qseq = Rd.int r in
          let shard = Rd.int r in
          Qcommit { epoch; qseq; shard }
        end
        else if frame.kind = k_fnack then begin
          let qid = Rd.int r in
          let shard = Rd.int r in
          Fnack { qid; shard }
        end
        else if frame.kind = k_qfill then begin
          let epoch = Rd.int r in
          let from_seq = Rd.int r in
          let shard = Rd.int r in
          Qfill { epoch; from_seq; shard }
        end
        else if frame.kind = k_ping then begin
          let seq = Rd.int r in
          let t0 = Rd.int r in
          let shard = Rd.int r in
          Ping { seq; t0; shard }
        end
        else if frame.kind = k_pong then begin
          let seq = Rd.int r in
          let t0 = Rd.int r in
          let t_rx = Rd.int r in
          let t_tx = Rd.int r in
          let shard = Rd.int r in
          Pong { seq; t0; t_rx; t_tx; shard }
        end
        else if frame.kind = k_shed then begin
          let reason = Rd.string r in
          let shard = Rd.int r in
          Shed { reason; shard }
        end
        else Rd.fail (Printf.sprintf "unknown frame kind %d" frame.kind)
      in
      if Rd.at_end r then Ok msg else Error "trailing payload bytes"
    with
    | verdict -> verdict
    | exception Bad_payload msg -> Error msg

  let decode ?(pos = 0) s =
    match decode_frame ~pos s with
    | Need_more k -> Need_more k
    | Corrupt e -> Corrupt e
    | Got (frame, next) -> (
        match decode_payload frame with
        | Ok msg -> Got (msg, next)
        | Error e -> Corrupt e)
end
