(* Tests for the networked runtime: codec frame/message roundtrips for
   every registered wire object, corrupt-frame behaviour (truncations and
   bit flips must fail cleanly, never raise), and the TCP transport end to
   end — in-process replica stacks on ephemeral loopback ports, plus
   reconnect-with-backoff after a peer comes up late. *)

let rng_of seed = Prelude.Rng.make seed

(* ---- generic frame layer ---- *)

let frame_roundtrip =
  QCheck.Test.make ~count:200 ~name:"frame encode/decode roundtrip"
    QCheck.(pair (int_bound 255) (string_of_size Gen.(0 -- 2048)))
    (fun (kind, payload) ->
      let s = Net.Codec.encode_frame ~kind ~payload in
      match Net.Codec.decode_frame s with
      | Net.Codec.Got (f, next) ->
          f.Net.Codec.kind = kind
          && String.equal f.Net.Codec.payload payload
          && next = String.length s
      | _ -> false)

let frame_trailing_bytes =
  QCheck.Test.make ~count:100 ~name:"frame decode leaves trailing bytes"
    QCheck.(pair (string_of_size Gen.(0 -- 64)) (string_of_size Gen.(1 -- 64)))
    (fun (payload, garbage) ->
      let s = Net.Codec.encode_frame ~kind:3 ~payload ^ garbage in
      match Net.Codec.decode_frame s with
      | Net.Codec.Got (f, next) ->
          String.equal f.Net.Codec.payload payload
          && next = String.length s - String.length garbage
      | _ -> false)

let frame_truncation =
  QCheck.Test.make ~count:300 ~name:"truncated frames never parse, never raise"
    QCheck.(pair (string_of_size Gen.(0 -- 256)) pos_int)
    (fun (payload, cut) ->
      let s = Net.Codec.encode_frame ~kind:1 ~payload in
      let keep = cut mod String.length s in
      let truncated = String.sub s 0 keep in
      match Net.Codec.decode_frame truncated with
      | Net.Codec.Need_more _ -> true
      | Net.Codec.Got _ | Net.Codec.Corrupt _ -> false)

let frame_bit_flip =
  QCheck.Test.make ~count:500 ~name:"single bit flips are always detected"
    QCheck.(pair (string_of_size Gen.(0 -- 128)) (pair pos_int pos_int))
    (fun (payload, (byte_choice, bit_choice)) ->
      let s = Net.Codec.encode_frame ~kind:2 ~payload in
      let i = byte_choice mod String.length s in
      let bit = bit_choice mod 8 in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      match Net.Codec.decode_frame (Bytes.to_string b) with
      | Net.Codec.Got _ -> false (* a flip must never yield a valid frame *)
      | Net.Codec.Corrupt _ -> true
      | Net.Codec.Need_more _ ->
          (* legal only if the flip grew the length field or broke the
             magic in a way that starves the reader — never for payload *)
          i < Net.Codec.header_len)

(* A stream reader decodes straight from its buffer with [~pos ~len]: any
   window, in bounds or not, never raises, and an in-bounds one reads
   exactly what the same bytes copied out would. *)
let frame_window =
  QCheck.Test.make ~count:500 ~name:"a pos/len window decodes as its copy"
    QCheck.(
      pair
        (pair (string_of_size Gen.(0 -- 16)) (string_of_size Gen.(0 -- 64)))
        (pair (oneof [ always 0; int_range (-20) 20 ]) (int_range (-90) 4)))
    (fun ((garbage, payload), (shift, short)) ->
      let s = garbage ^ Net.Codec.encode_frame ~kind:5 ~payload ^ garbage in
      (* around the frame's start, up to a few bytes past the end *)
      let pos = String.length garbage + shift in
      let len = String.length s - pos + short in
      let in_bounds = pos >= 0 && len >= 0 && pos + len <= String.length s in
      match (Net.Codec.decode_frame ~pos ~len s, in_bounds) with
      | Net.Codec.Corrupt _, false -> true
      | _, false -> false
      | Net.Codec.Got (f, next), true -> (
          match Net.Codec.decode_frame (String.sub s pos len) with
          | Net.Codec.Got (g, k) -> f = g && next = pos + k
          | _ -> false)
      | p, true -> p = Net.Codec.decode_frame (String.sub s pos len))

(* ---- wire version mismatch ---- *)

(* Re-stamp a well-formed frame with another version byte, recomputing the
   CRC so the frame is exactly what an older/newer peer would send — only
   the version check can reject it, not the checksum. *)
let forge_version frame ~version =
  let b = Bytes.of_string frame in
  Bytes.set b 2 (Char.chr version);
  let payload_len = Bytes.length b - Net.Codec.header_len in
  let covered =
    Bytes.sub_string b 2 6
    ^ Bytes.sub_string b Net.Codec.header_len payload_len
  in
  let crc = Prelude.Crc32.sub covered ~pos:0 ~len:(String.length covered) in
  Bytes.set b 8 (Char.chr ((crc lsr 24) land 0xff));
  Bytes.set b 9 (Char.chr ((crc lsr 16) land 0xff));
  Bytes.set b 10 (Char.chr ((crc lsr 8) land 0xff));
  Bytes.set b 11 (Char.chr (crc land 0xff));
  Bytes.to_string b

let test_version_rejected_by_decoder () =
  let good = Net.Codec.encode_frame ~kind:3 ~payload:"payload" in
  (* sanity: the forge helper preserves validity at the current version *)
  (match Net.Codec.decode_frame (forge_version good ~version:Net.Codec.version) with
  | Net.Codec.Got _ -> ()
  | _ -> Alcotest.fail "forge_version broke a current-version frame");
  List.iter
    (fun v ->
      match Net.Codec.decode_frame (forge_version good ~version:v) with
      | Net.Codec.Corrupt msg ->
          Alcotest.(check string)
            (Printf.sprintf "version %d names itself" v)
            (Printf.sprintf "unsupported version %d" v)
            msg
      | Net.Codec.Got _ | Net.Codec.Need_more _ ->
          Alcotest.failf "version %d frame must be Corrupt" v)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 255 ]

(* A one-shard host — what [timebounds serve] runs — for the in-process
   TCP tests. *)
module H = Shard.Host.Make (Net.Wire.Kv_wired)

let host_config ?(offset = 0) ?durable ?(log = fun _ -> ()) ~pid ~addrs
    params =
  {
    Shard.Host.pid;
    shards = 1;
    addrs;
    params;
    offset;
    start_us = None;
    trace = None;
    durable;
    fsync = (if durable = None then Durable.Wal.Never else Durable.Wal.Always);
    snapshot_every = 0;
    chaos = None;
    fallback = None;
    sync = None;
    log;
  }

(* An old (v1) peer connecting to a live replica stack: the handshake must
   be rejected cleanly — connection closed, replica healthy for current
   clients afterwards. *)
let test_version_rejected_by_handshake () =
  let module Cl = Net.Client.Make (Net.Wire.Kv_wired) in
  let module C = Net.Codec.Make (Net.Wire.Kv_codec) in
  let listener = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let port = listener.Net.Tcp_transport.port in
  let addrs = [| ("127.0.0.1", port) |] in
  let params = Core.Params.make ~n:1 ~d:7000 ~u:5500 ~eps:0 ~x:0 () in
  let handle = H.start ~listener (host_config ~pid:0 ~addrs params) in
  let hello =
    C.encode
      (C.Hello
         { Net.Codec.pid = 0; n = 1; d = 7000; u = 5500; eps = 0; x = 0;
           obj_tag = Net.Wire.Kv_codec.obj_tag; shards = 0 })
  in
  let old = forge_version hello ~version:1 in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let b = Bytes.of_string old in
  ignore (Unix.write fd b 0 (Bytes.length b));
  let buf = Bytes.create 256 in
  let closed =
    match Unix.read fd buf 0 256 with
    | 0 -> true
    | _ -> false (* the replica must not answer an unsupported version *)
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true
  in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Alcotest.(check bool) "v1 handshake closed without a reply" true closed;
  (match Cl.connect ~host:"127.0.0.1" ~port () with
  | Ok conn ->
      (match Cl.invoke conn (Spec.Kv_map.Put (1, 2)) with
      | Ok Spec.Kv_map.Ack -> ()
      | Ok r ->
          Alcotest.failf "put after rejected peer: unexpected %s"
            (Format.asprintf "%a" Spec.Kv_map.pp_result r)
      | Error e -> Alcotest.failf "put after rejected peer: %s" e);
      Cl.close conn
  | Error e -> Alcotest.failf "current client must still connect: %s" e);
  ignore (H.stop handle)

(* Every handshake the host refuses: the connection is closed without a
   reply, the reason is logged, and clients are served afterwards. *)
let test_handshake_rejections () =
  let module Cl = Net.Client.Make (Net.Wire.Kv_wired) in
  let module C = Net.Codec.Make (Net.Wire.Kv_codec) in
  let listener = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let port = listener.Net.Tcp_transport.port in
  let addrs = [| ("127.0.0.1", port); ("127.0.0.1", 1) |] in
  let params = Core.Params.make ~n:2 ~d:7000 ~u:5500 ~eps:0 ~x:0 () in
  let lines = ref [] and lock = Mutex.create () in
  let log l =
    Mutex.lock lock;
    lines := l :: !lines;
    Mutex.unlock lock
  in
  let handle = H.start ~listener (host_config ~log ~pid:0 ~addrs params) in
  let good =
    { Net.Codec.pid = 1; n = 2; d = 7000; u = 5500; eps = 0; x = 0;
      obj_tag = Net.Wire.Kv_codec.obj_tag; shards = 1 }
  in
  let hello h = C.encode (C.Hello h) in
  let garbled =
    let k = Char.code (hello good).[3] in
    Net.Codec.encode_frame ~kind:k ~payload:"\xff\xff\xff"
  in
  let cases =
    [
      ( "object mismatch",
        hello { good with obj_tag = Net.Wire.Register_codec.obj_tag } );
      ("parameter mismatch", hello { good with d = 7001 });
      ("shard topology mismatch", hello { good with shards = 2 });
      ("bad peer pid", hello { good with pid = 5 });
      ("bad handshake", garbled);
    ]
  in
  List.iter
    (fun (reason, frame) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring fd frame 0 (String.length frame));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let buf = Bytes.create 256 in
      let closed =
        match Unix.read fd buf 0 256 with
        | 0 -> true
        | _ -> false
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true
      in
      Unix.close fd;
      Alcotest.(check bool) (reason ^ ": closed without a reply") true closed;
      let prefix = "replica 0: rejected connection: " ^ reason in
      Mutex.lock lock;
      let seen =
        List.exists
          (fun l ->
            String.length l >= String.length prefix
            && String.sub l 0 (String.length prefix) = prefix)
          !lines
      in
      Mutex.unlock lock;
      Alcotest.(check bool) (reason ^ ": logged") true seen)
    cases;
  (match Cl.connect ~host:"127.0.0.1" ~port () with
  | Ok conn ->
      (match Cl.invoke conn (Spec.Kv_map.Get 1) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "get after rejections: %s" e);
      Cl.close conn
  | Error e -> Alcotest.failf "client must still connect: %s" e);
  ignore (H.stop handle)

(* ---- per-object message roundtrips ---- *)

let msg_roundtrip_tests () =
  List.map
    (fun (module W : Net.Wire.WIRED) ->
      let name = Printf.sprintf "%s messages roundtrip" W.L.label in
      (* Draw (op, result) pairs by actually running sampled ops against
         the sequential spec, so results are representative
         (Found/Absent/Value/…). *)
      let sampled_pairs seed k =
        let rng = rng_of seed in
        let rec go state n acc =
          if n = 0 then acc
          else
            let op =
              match Prelude.Rng.int rng 3 with
              | 0 -> W.L.sample_mutator rng
              | 1 -> W.L.sample_accessor rng
              | _ -> W.L.sample_other rng
            in
            let state', result = W.L.D.apply state op in
            go state' (n - 1) ((op, result) :: acc)
        in
        go W.L.D.initial k []
      in
      QCheck.Test.make ~count:50 ~name QCheck.small_int (fun seed ->
          let module C = Net.Codec.Make (W.C) in
          let module R = Runtime.Replica_core.Make (W.C.D) in
          let roundtrip m =
            match C.decode (C.encode m) with
            | Net.Codec.Got (m', _) -> C.equal_msg m m'
            | _ -> false
          in
          (* Peer frames hold plain data but for the object state. *)
          let same w w' =
            match (w, w') with
            | R.Wire_catchup_state s, R.Wire_catchup_state s' ->
                W.C.D.equal_state s.obj s'.obj
                && s.time = s'.time && s.cpid = s'.cpid
                && s.window = s'.window && s.entries = s'.entries
            | _ -> w = w'
          in
          let peer shard w =
            match Net.Codec.decode_frame (C.encode_peer (shard, w)) with
            | Net.Codec.Got (f, _) -> (
                match C.decode_peer f with
                | Ok (shard', w') -> shard = shard' && same w w'
                | Error _ -> false)
            | _ -> false
          in
          let entry op time pid =
            { R.Alg.op; ts = Prelude.Stamp.make ~time ~pid }
          in
          (* Trace ids span the whole 56-bit ⟨origin, counter⟩ layout, so
             the varint length varies across the samples. *)
          let trace = seed * 2654435761 land ((1 lsl 56) - 1) in
          (* Shard ids span small and multi-byte varints. *)
          let shard = seed * 37 mod 1024 in
          List.for_all
            (fun (op, result) ->
              roundtrip
                (C.Invoke
                   {
                     op;
                     trace;
                     op_id = seed * 31;
                     shard;
                     deadline = seed * 7919;
                   })
              && roundtrip
                   (C.Invoke
                      { op; trace = 0; op_id = 0; shard = 0; deadline = 0 })
              && roundtrip (C.Result { result; shard })
              && roundtrip
                   (C.Shed
                      {
                        reason =
                          Printf.sprintf "shed: deadline unmeetable (%d)" seed;
                        shard;
                      })
              && roundtrip
                   (C.Entry
                      {
                        op;
                        time = seed * 7919;
                        pid = seed mod 16;
                        trace;
                        op_id = seed * 13;
                        shard;
                      })
              && peer shard
                   (R.Wire_entry
                      (entry op (seed * 7919) (seed mod 16), trace, seed * 13))
              && peer shard
                   (R.Wire_catchup_req
                      { time = seed * 7919; cpid = seed mod 16 })
              && peer shard
                   (R.Wire_catchup_rep
                      {
                        entries =
                          [ (entry op (seed * 7919) (seed mod 16), seed * 17) ];
                        time = (seed * 7919) - 1;
                        cpid = (seed + 1) mod 16;
                      })
              && peer 0 (R.Wire_catchup_rep { entries = []; time = -1; cpid = 0 })
              && peer shard
                   (R.Wire_catchup_state
                      {
                        obj = fst (W.L.D.apply W.L.D.initial op);
                        time = seed * 7919;
                        cpid = seed mod 16;
                        window =
                          [ (entry op ((seed * 7919) - 3) (seed mod 16), result,
                             seed * 17) ];
                        entries =
                          [ (entry op ((seed * 7919) + 1) ((seed + 1) mod 16), 0) ];
                      })
              && peer shard
                   (R.Wire_quorum
                      (R.Forward
                         {
                           qid = seed * 104_729;
                           origin = seed mod 16;
                           op;
                           op_id = seed * 13;
                           trace;
                         }))
              && peer shard
                   (R.Wire_quorum
                      (R.Propose
                         {
                           epoch = seed mod 7;
                           qseq = seed * 389;
                           p =
                             {
                               (* a stamp behind the shared clock's zero *)
                               R.q_time = -((seed * 7919) + 1);
                               q_op = op;
                               q_origin = seed mod 16;
                               q_qid = (1 lsl 40) + seed;
                               q_op_id = seed * 31;
                               q_trace = trace;
                             };
                         }))
              && peer shard
                   (R.Wire_quorum (R.Qack { epoch = seed; qseq = seed * 1_000_003 }))
              && peer shard
                   (R.Wire_quorum
                      (R.Qcommit { epoch = (1 lsl 20) + seed; qseq = seed * 389 }))
              && peer shard (R.Wire_quorum (R.Fnack { qid = (1 lsl 35) + seed }))
              && peer shard
                   (R.Wire_quorum
                      (R.Qfill { epoch = seed mod 7; from_seq = seed * 300 })))
            (sampled_pairs seed 20)
          && roundtrip
               (C.Hello
                  {
                    Net.Codec.pid = seed mod 8;
                    n = 3 + (seed mod 5);
                    d = 7000;
                    u = 5500;
                    eps = 334;
                    x = seed mod 100;
                    obj_tag = W.C.obj_tag;
                    shards = shard;
                  })
          && roundtrip C.Stats_req
          && roundtrip
               (C.Stats
                  {
                    Runtime.Transport_intf.sent = seed;
                    dropped = seed / 2;
                    link =
                      Some
                        {
                          Runtime.Transport_intf.reconnects = 1;
                          bytes_out = seed * 3;
                          bytes_in = seed * 5;
                          disconnected_us = seed * 7;
                          queue_hwm = seed mod 4096;
                          ctrl_hwm = seed mod 64;
                          lane_shed = seed mod 17;
                        };
                  })
          && roundtrip (C.Error_msg "boom")
          && peer shard
               (R.Wire_quorum
                  (R.Hb
                     { stamp = seed * 7919; epoch = seed mod 7; qmode = false;
                       seq = seed mod 3; floor = min_int; ack = 0; want = 0 }))
          && peer shard
               (* acks and prompts are clock values: large, and (for a
                  corrected clock behind the epoch) possibly negative *)
               (R.Wire_quorum
                  (R.Hb
                     { stamp = max_int - seed; epoch = seed; qmode = true;
                       seq = 2; floor = seed * 11; ack = (1 lsl 61) + seed;
                       want = -(seed + 1) }))
          && peer shard (R.Wire_sync (R.Sping { seq = seed; t0 = seed * 7919 }))
          && peer shard
               (R.Wire_sync
                  (R.Spong
                     {
                       seq = seed;
                       t0 = seed * 7919;
                       t_rx = (seed * 7919) + 3;
                       t_tx = (seed * 7919) + 5;
                     }))
          && peer 0
               (* a corrected clock can briefly sit behind the epoch, so
                  negative timestamps must survive the varint *)
               (R.Wire_sync
                  (R.Spong { seq = 0; t0 = -(seed * 3); t_rx = -1; t_tx = 0 }))))
    Net.Wire.all

module Kv_r = Runtime.Replica_core.Make (Net.Wire.Kv_codec.D)

let msg_corrupt_payloads =
  QCheck.Test.make ~count:300 ~name:"corrupt payloads error out, never raise"
    QCheck.(pair (int_bound 20) (string_of_size Gen.(0 -- 64)))
    (fun (kind, payload) ->
      let module C = Net.Codec.Make (Net.Wire.Kv_codec) in
      let frame = { Net.Codec.kind; payload } in
      (match C.decode_payload frame with Ok _ | Error _ -> true)
      && match C.decode_peer frame with Ok _ | Error _ -> true)

(* One fixed frame of every peer kind, plus a bare entry and a hello,
   pinned to their wire-v10 bytes: a peer of the same version must read
   them, so not one byte may move without a version bump. *)
let test_golden_frames () =
  let module C = Net.Codec.Make (Net.Wire.Kv_codec) in
  let module R = Kv_r in
  let open Spec.Kv_map in
  let entry op time pid = { R.Alg.op; ts = Prelude.Stamp.make ~time ~pid } in
  let obj = fst (apply (fst (apply initial (Put (1, 2)))) (Put (300, -5))) in
  let q w = R.Wire_quorum w in
  let peers =
    [
      ( "entry",
        ( 200,
          R.Wire_entry
            (entry (Put (300, -70000)) 1_700_000_123_456 2, 0x1234_5678_9abc,
             1_000_001) ),
        "54420a010000001999678f6900d804dfc50880a9bafef96204f8eac4e78a8d0982897a9003"
      );
      ( "catchup_req",
        (5, R.Wire_catchup_req { time = -1; cpid = 0 }),
        "54420a07000000038a40bbee01000a" );
      ( "catchup_rep",
        ( 1,
          R.Wire_catchup_rep
            {
              entries =
                [ (entry (Put (1, 2)) 1_000_000 1, 7);
                  (entry (Del 300) 1_000_001 2, 0) ];
              time = 999_999;
              cpid = 2;
            } ),
        "54420a0800000016851191870400020480897a020e02d80482897a0400fe887a0402" );
      ( "catchup_state",
        ( 3,
          R.Wire_catchup_state
            {
              obj;
              time = 2_000_000;
              cpid = 1;
              window = [ (entry (Swap (3, 4)) 1_999_000 0, Found 9, 42) ];
              entries = [ (entry (Get 3) 2_000_100 2, 0) ];
            } ),
        "54420a13000000214c556d0d040204d804098092f4010202060608b082f40100540012020406c893f401040006"
      );
      ( "hb",
        ( 129,
          q
            (R.Hb
               { stamp = 1_700_000_000_000; epoch = 3; qmode = true; seq = 1;
                 floor = -5; ack = 1 lsl 40; want = -(1 lsl 20) }) ),
        "54420a0900000015cee5c6fa80a0abfef96206020209808080808040ffff7f8202" );
      ( "forward",
        ( 64,
          q
            (R.Forward
               { qid = 77; origin = 2; op = Put (8, 9); op_id = 12345;
                 trace = 99 }) ),
        "54420a0a0000000d547ba62a9a0104001012f2c001c6018001" );
      ( "propose",
        ( 0,
          q
            (R.Propose
               {
                 epoch = 4;
                 qseq = 1000;
                 p =
                   { R.q_time = -12; q_op = Del 8; q_origin = 1; q_qid = 78;
                     q_op_id = 0; q_trace = 1 lsl 50 };
               }) ),
        "54420a0b00000013fca1392f08d00f17029c01021000808080808080800400" );
      ( "qack",
        (2, q (R.Qack { epoch = 4; qseq = 1000 })),
        "54420a0c000000042fd4686208d00f04" );
      ( "qcommit",
        (2, q (R.Qcommit { epoch = 4; qseq = 1001 })),
        "54420a0d000000043b2ba84f08d20f04" );
      ("fnack", (63, q (R.Fnack { qid = 79 })), "54420a0e000000032d33db6c9e017e");
      ( "qfill",
        (1, q (R.Qfill { epoch = 5; from_seq = 128 })),
        "54420a0f000000048c2169e40a800202" );
      ( "ping",
        (0, R.Wire_sync (R.Sping { seq = 300; t0 = -4_000 })),
        "54420a1000000005476bf8acd804bf3e00" );
      ( "pong",
        ( 0,
          R.Wire_sync
            (R.Spong
               { seq = 300; t0 = -4_000; t_rx = 1_000_000_000;
                 t_tx = 1_000_000_017 }) ),
        "54420a110000000fd426f07fd804bf3e80a8d6b907a2a8d6b90700" );
    ]
  in
  let hex s =
    String.concat ""
      (List.map
         (fun c -> Printf.sprintf "%02x" (Char.code c))
         (List.of_seq (String.to_seq s)))
  in
  List.iter
    (fun (name, m, want) ->
      let bytes = C.encode_peer m in
      Alcotest.(check string) (name ^ " bytes") want (hex bytes);
      (* read back, they write the same bytes again *)
      match Net.Codec.decode_frame bytes with
      | Net.Codec.Got (f, _) -> (
          match C.decode_peer f with
          | Ok m' ->
              Alcotest.(check string) (name ^ " reread") want
                (hex (C.encode_peer m'))
          | Error e -> Alcotest.failf "%s: %s" name e)
      | _ -> Alcotest.failf "%s: frame" name)
    peers;
  Alcotest.(check string) "hello bytes"
    "54420a000000000dea38f70f0406b06df8559c05f40304d804"
    (hex
       (C.encode
          (C.Hello
             { Net.Codec.pid = 2; n = 3; d = 7000; u = 5500; eps = 334;
               x = 250; obj_tag = Net.Wire.Kv_codec.obj_tag; shards = 300 })));
  Alcotest.(check string) "bare entry bytes"
    "54420a010000001999678f6900d804dfc50880a9bafef96204f8eac4e78a8d0982897a9003"
    (hex
       (C.encode
          (C.Entry
             { op = Put (300, -70000); time = 1_700_000_123_456; pid = 2;
               trace = 0x1234_5678_9abc; op_id = 1_000_001; shard = 200 })))

(* ---- TCP transport + serve stacks, in process ---- *)

let kv_params =
  Core.Params.make ~n:3 ~d:7000 ~u:5500
    ~eps:(Core.Params.optimal_eps ~n:3 ~u:5500)
    ~x:0 ()

let test_tcp_cluster_in_process () =
  let module Cl = Net.Client.Make (Net.Wire.Kv_wired) in
  let n = 3 in
  let listeners =
    Array.init n (fun _ -> Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0)
  in
  let addrs =
    Array.map (fun (l : Net.Tcp_transport.listener) -> ("127.0.0.1", l.port)) listeners
  in
  let handles =
    Array.init n (fun pid ->
        H.start ~listener:listeners.(pid)
          (host_config ~offset:(pid * 100) ~pid ~addrs kv_params))
  in
  let conns =
    Array.map
      (fun (_, port) ->
        match Cl.connect ~host:"127.0.0.1" ~port () with
        | Ok c -> c
        | Error e -> Alcotest.failf "client connect: %s" e)
      addrs
  in
  (* Sequential invocations through different replicas must read their
     own writes: a put acked on replica 0 is visible to a get invoked on
     replica 2 only after it responds — which linearizability (and the
     execute-hold of Algorithm 1) guarantees for non-overlapping ops. *)
  let put k v =
    match Cl.invoke conns.(k mod n) (Spec.Kv_map.Put (k, v)) with
    | Ok Spec.Kv_map.Ack -> ()
    | Ok r -> Alcotest.failf "put: unexpected %s" (Format.asprintf "%a" Spec.Kv_map.pp_result r)
    | Error e -> Alcotest.failf "put: %s" e
  in
  let get k =
    match Cl.invoke conns.((k + 1) mod n) (Spec.Kv_map.Get k) with
    | Ok r -> r
    | Error e -> Alcotest.failf "get: %s" e
  in
  for k = 0 to 5 do
    put k (k * 11)
  done;
  for k = 0 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "get %d sees put" k)
      true
      (get k = Spec.Kv_map.Found (k * 11))
  done;
  (* Transport stats flowed: every replica broadcast its puts. *)
  Array.iteri
    (fun i conn ->
      match Cl.stats conn with
      | Ok s ->
          Alcotest.(check bool)
            (Printf.sprintf "replica %d sent messages" i)
            true
            (s.Runtime.Transport_intf.sent > 0);
          Alcotest.(check bool)
            (Printf.sprintf "replica %d moved bytes" i)
            true
            (match s.Runtime.Transport_intf.link with
            | Some l -> l.Runtime.Transport_intf.bytes_out > 0
            | None -> false)
      | Error e -> Alcotest.failf "stats: %s" e)
    conns;
  Array.iter Cl.close conns;
  Array.iter
    (fun h ->
      let answered, _stats = H.stop h in
      Alcotest.(check bool) "replica answered ops" true (answered.(0) > 0))
    handles

(* ---- the socket set, stepped by hand ---- *)

module Rc = Net.Codec.Make (Net.Wire.Register_codec)

let reg_hello pid =
  Rc.encode
    (Rc.Hello
       { Net.Codec.pid; n = 2; d = 7000; u = 5500; eps = 0; x = 0;
         obj_tag = Net.Wire.Register_codec.obj_tag; shards = 0 })

let reg_classify frame =
  match Rc.decode_payload frame with
  | Ok (Rc.Hello h) -> Net.Tcp_transport.Peer h.Net.Codec.pid
  | Ok _ -> Net.Tcp_transport.Client
  | Error e -> Net.Tcp_transport.Reject e

let reg_set ?(log = fun _ -> ()) ?(backoff_min_us = 5_000)
    ?(backoff_max_us = 40_000) ~me ~listener ~addrs () =
  Net.Tcp_transport.create ~me ~addrs ~listener ~hello:(reg_hello me)
    ~classify_hello:reg_classify
    ~decode_peer:(fun ~src:_ frame ->
      match Rc.decode_payload frame with Ok m -> Some m | Error _ -> None)
    ~encode_peer:Rc.encode ~backoff_min_us ~backoff_max_us ~log ()

(* One loop cycle as a host runs it — poll, take the inputs, write —
   returning this cycle's inputs. *)
let cycle ?(wait_us = 2_000) t =
  Net.Tcp_transport.poll t
    ~deadline_us:
      (min (Prelude.Mclock.now_us () + wait_us) (Net.Tcp_transport.next_wake_us t));
  let rec take acc =
    match Net.Tcp_transport.next_input t with
    | Some i -> take (i :: acc)
    | None -> List.rev acc
  in
  let inputs = take [] in
  Net.Tcp_transport.flush t ~now_us:(Prelude.Mclock.now_us ());
  inputs

let test_tcp_reconnect_backoff () =
  (* Reserve a port for peer 1, then close it so connects fail until the
     peer actually starts: transport 0 must retry with backoff and deliver
     the queued frame once peer 1 appears. *)
  let l0 = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let l1_probe = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let port1 = l1_probe.Net.Tcp_transport.port in
  Unix.close l1_probe.Net.Tcp_transport.listen_fd;
  let addrs = [| ("127.0.0.1", l0.Net.Tcp_transport.port); ("127.0.0.1", port1) |] in
  let t0 = reg_set ~me:0 ~listener:l0 ~addrs () in
  let entry =
    Rc.Entry
      { op = Spec.Register.Write 42; time = 1; pid = 0; trace = 7; op_id = 9;
        shard = 0 }
  in
  Net.Tcp_transport.send_all t0 ~dsts:[ 1 ] ~trace:0 entry;
  (* let several connect attempts fail *)
  let until = Prelude.Mclock.now_us () + 150_000 in
  while Prelude.Mclock.now_us () < until do
    ignore (cycle t0)
  done;
  let l1 = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:port1 in
  let t1 = reg_set ~me:1 ~listener:l1 ~addrs () in
  let give_up = Prelude.Mclock.now_us () + 5_000_000 in
  let rec await () =
    ignore (cycle t0);
    match cycle t1 with
    | Net.Tcp_transport.From_peer (src, m) :: _ -> Some (src, m)
    | _ -> if Prelude.Mclock.now_us () < give_up then await () else None
  in
  (match await () with
  | Some (src, m) ->
      Alcotest.(check int) "frame src" 0 src;
      Alcotest.(check bool) "frame survives reconnect" true (Rc.equal_msg m entry)
  | None -> Alcotest.fail "queued frame not delivered after peer came up");
  let stats = Net.Tcp_transport.stats t0 in
  (match stats.Runtime.Transport_intf.link with
  | Some l ->
      Alcotest.(check bool) "reconnects counted" true
        (l.Runtime.Transport_intf.reconnects >= 1);
      (* the ~150 ms the link spent retrying is attributed to it *)
      Alcotest.(check bool) "disconnected time counted" true
        (l.Runtime.Transport_intf.disconnected_us > 50_000);
      Alcotest.(check bool) "queue high-water mark seen" true
        (l.Runtime.Transport_intf.queue_hwm >= 1)
  | None -> Alcotest.fail "tcp transport must report link stats");
  Net.Tcp_transport.close t0;
  Net.Tcp_transport.close t1

(* A peer that comes up connects to us first: its hello proves it is
   listening, so our link to it stops waiting out its backoff — replicas
   started together link up in one round trip, not one backoff. *)
let test_peer_hello_cuts_backoff () =
  let l0 = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let l1_probe = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let port1 = l1_probe.Net.Tcp_transport.port in
  Unix.close l1_probe.Net.Tcp_transport.listen_fd;
  let addrs = [| ("127.0.0.1", l0.Net.Tcp_transport.port); ("127.0.0.1", port1) |] in
  (* a 10 s backoff: only the hello can bring the link up in time *)
  let t0 =
    reg_set ~backoff_min_us:10_000_000 ~backoff_max_us:10_000_000 ~me:0
      ~listener:l0 ~addrs ()
  in
  let entry i =
    Rc.Entry
      { op = Spec.Register.Write i; time = i; pid = 0; trace = 0; op_id = i;
        shard = 0 }
  in
  Net.Tcp_transport.send_all t0 ~dsts:[ 1 ] ~trace:0 (entry 1);
  for _ = 1 to 3 do ignore (cycle t0) done (* refused; now backing off *);
  let l1 = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:port1 in
  let t1 = reg_set ~me:1 ~listener:l1 ~addrs () in
  Net.Tcp_transport.send_all t1 ~dsts:[ 0 ] ~trace:0 (entry 2);
  let t_up = Prelude.Mclock.now_us () in
  let give_up = t_up + 3_000_000 in
  let rec await () =
    ignore (cycle t0);
    match cycle t1 with
    | Net.Tcp_transport.From_peer (0, m) :: _ -> Some m
    | _ -> if Prelude.Mclock.now_us () < give_up then await () else None
  in
  let got = await () in
  Net.Tcp_transport.close t0;
  Net.Tcp_transport.close t1;
  match got with
  | Some m -> Alcotest.(check bool) "queued frame delivered" true (Rc.equal_msg m (entry 1))
  | None -> Alcotest.fail "link stayed in backoff after the peer's hello"

let connect_to port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let invoke_frame i =
  Rc.encode
    (Rc.Invoke
       { op = Spec.Register.Write i; trace = 0; op_id = i; shard = 0;
         deadline = 0 })

(* One pipelining client with a deep backlog and one closed-loop client on
   the same socket set: every cycle serves both — the pipeliner at most
   [frames_per_cycle] frames, the closed-loop client its one frame. *)
let test_cycle_fairness () =
  let l = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let port = l.Net.Tcp_transport.port in
  let t =
    reg_set ~me:0 ~listener:l
      ~addrs:[| ("127.0.0.1", port) |] ()
  in
  let cap = Net.Tcp_transport.frames_per_cycle in
  let backlog = 25 * cap in
  let piper = connect_to port and closed = connect_to port in
  write_all piper (String.concat "" (List.init backlog invoke_frame));
  write_all closed (invoke_frame 0);
  (* both connections accepted and classified *)
  let ids = Hashtbl.create 2 in
  let served = ref [] in
  let give_up = Prelude.Mclock.now_us () + 5_000_000 in
  let piped = ref 0 in
  while !piped < backlog && Prelude.Mclock.now_us () < give_up do
    let per = Hashtbl.create 2 in
    List.iter
      (function
        | Net.Tcp_transport.From_client (c, _) ->
            let id = Net.Tcp_transport.conn_id c in
            Hashtbl.replace per id (1 + Option.value ~default:0 (Hashtbl.find_opt per id))
        | Net.Tcp_transport.From_peer _ -> ())
      (cycle ~wait_us:50_000 t);
    Hashtbl.iter (fun id _ -> Hashtbl.replace ids id ()) per;
    if Hashtbl.length per > 0 then served := per :: !served;
    (* the pipeliner connected first, so it has the lower id *)
    let ids = List.of_seq (Hashtbl.to_seq_keys ids) in
    let piper_id = List.fold_left min max_int ids
    and closed_id = List.fold_left max min_int ids in
    piped := !piped + Option.value ~default:0 (Hashtbl.find_opt per piper_id);
    (* the closed-loop client answers each service with its next frame *)
    if List.length ids = 2 && Hashtbl.mem per closed_id then
      write_all closed (invoke_frame 0)
  done;
  Unix.close piper;
  Unix.close closed;
  Net.Tcp_transport.close t;
  Alcotest.(check int) "two clients" 2 (Hashtbl.length ids);
  let cycles = List.rev !served in
  (* from the first cycle that saw both, until the pipeliner's backlog
     ran dry, each cycle served both, the pipeliner within its cap *)
  let both = List.filter (fun per -> Hashtbl.length per = 2) cycles in
  Alcotest.(check bool)
    (Printf.sprintf "backlog spread over cycles (%d of %d cycles shared)"
       (List.length both) (List.length cycles))
    true
    (List.length both >= (backlog / cap) - 2);
  List.iter
    (fun per ->
      Hashtbl.iter
        (fun _ k -> Alcotest.(check bool) "within the per-cycle cap" true (k <= cap))
        per)
    cycles;
  let rec shared_run = function
    | per :: rest when Hashtbl.length per = 2 -> 1 + shared_run rest
    | _ -> 0
  in
  let rec from_first_shared = function
    | [] -> []
    | per :: rest as l -> if Hashtbl.length per = 2 then l else from_first_shared rest
  in
  let run = shared_run (from_first_shared cycles) in
  Alcotest.(check bool)
    (Printf.sprintf "no cycle skipped a client while the backlog lasted (%d)" run)
    true
    (run >= (backlog / cap) - 2)

(* ---- frame reassembly ---- *)

let big_catchup () =
  let module C = Net.Codec.Make (Net.Wire.Kv_codec) in
  let entries =
    List.init 300_000 (fun i ->
        ( {
            Kv_r.Alg.op = Spec.Kv_map.Put (i, i * 7);
            ts = Prelude.Stamp.make ~time:(i * 13) ~pid:(i mod 3);
          },
          i ))
  in
  let msg = (0, Kv_r.Wire_catchup_rep { entries; time = 4_000_000; cpid = 1 }) in
  (msg, C.encode_peer msg)

(* Feed [stream] through a connection buffer in chunks of the given sizes
   (cycled); return the frames it yields. *)
let reassemble stream sizes =
  let b = Net.Tcp_transport.Buf.create () in
  let pos = ref 0 and sizes = ref sizes and out = ref [] in
  let next_size () =
    match !sizes with
    | [] -> 8192
    | k :: rest ->
        sizes := rest @ [ k ];
        k
  in
  let rec pop () =
    match Net.Tcp_transport.Buf.next_frame b with
    | Net.Codec.Got (f, _) ->
        out := f :: !out;
        pop ()
    | Net.Codec.Need_more _ -> ()
    | Net.Codec.Corrupt e -> Alcotest.failf "corrupt: %s" e
  in
  while !pos < String.length stream do
    let k = min (next_size ()) (String.length stream - !pos) in
    let got =
      Net.Tcp_transport.Buf.fill b (fun buf off len ->
          let k = min k len in
          Bytes.blit_string stream !pos buf off k;
          k)
    in
    pos := !pos + got;
    pop ()
  done;
  Alcotest.(check int) "nothing left over" 0 (Net.Tcp_transport.Buf.length b);
  List.rev !out

let test_reassembly_linear () =
  let module C = Net.Codec.Make (Net.Wire.Kv_codec) in
  let msg, frame = big_catchup () in
  Alcotest.(check bool) "a multi-MiB frame" true (String.length frame > 4 lsl 20);
  let small = C.encode (C.Error_msg "tail") in
  let stream = frame ^ small ^ frame in
  let check label sizes =
    let t0 = Prelude.Mclock.now_us () in
    let frames = reassemble stream sizes in
    let took = Prelude.Mclock.now_us () - t0 in
    Alcotest.(check int) (label ^ ": three frames") 3 (List.length frames);
    List.iteri
      (fun i (f : Net.Codec.frame) ->
        let want = if i = 1 then small else frame in
        match Net.Codec.decode_frame want with
        | Net.Codec.Got (w, _) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: frame %d byte-identical" label i)
              true
              (w.Net.Codec.kind = f.Net.Codec.kind
              && String.equal w.Net.Codec.payload f.Net.Codec.payload)
        | _ -> Alcotest.fail "reference frame")
      frames;
    (match C.decode_peer (List.hd frames) with
    | Ok m -> Alcotest.(check bool) (label ^ ": decodes") true (m = msg)
    | Error e -> Alcotest.failf "%s: %s" label e);
    took
  in
  ignore (check "8 KiB reads" [ 8192 ]);
  let rng = Prelude.Rng.make 7 in
  ignore (check "random splits" (List.init 64 (fun _ -> 1 + Prelude.Rng.int rng 20_000)));
  (* 1-byte reads: 9 M reads; a quadratic rebuild would copy ~10^13
     bytes, the cursor copies each byte a bounded number of times *)
  let took = check "1-byte reads" [ 1 ] in
  Alcotest.(check bool)
    (Printf.sprintf "1-byte reassembly is linear (%d ms)" (took / 1000))
    true (took < 30_000_000)

(* A corrupt frame drops its own connection only: the sender sees the
   close, and another connection's frames keep arriving. *)
let test_corrupt_frame_drops_one_connection () =
  let l = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let port = l.Net.Tcp_transport.port in
  let logged = ref [] in
  let t =
    reg_set ~log:(fun s -> logged := s :: !logged) ~me:0 ~listener:l
      ~addrs:[| ("127.0.0.1", port); ("127.0.0.1", 1) |] ()
  in
  let bad = connect_to port and good = connect_to port in
  write_all bad (reg_hello 1);
  write_all good (invoke_frame 1);
  let corrupt =
    let b = Bytes.of_string (invoke_frame 2) in
    let i = Bytes.length b - 1 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  in
  write_all bad corrupt;
  ignore (cycle ~wait_us:50_000 t);
  ignore (cycle ~wait_us:50_000 t);
  write_all good (invoke_frame 3);
  let later = cycle ~wait_us:200_000 t in
  let buf = Bytes.create 16 in
  let closed =
    match Unix.read bad buf 0 16 with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
  in
  Unix.close bad;
  Unix.close good;
  Net.Tcp_transport.close t;
  Alcotest.(check bool) "corrupt sender cut" true closed;
  Alcotest.(check bool) "corruption logged" true
    (List.exists
       (fun s -> s = "replica 0: corrupt frame: checksum mismatch")
       !logged);
  Alcotest.(check int) "the other connection still flows" 1 (List.length later)

(* ---- durable restart over TCP ---- *)

(* Run [f] on a fresh durable directory, removed afterwards. *)
let with_durable_dir name f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tb-net-%s-%d" name (Unix.getpid ()))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  cleanup ();
  Fun.protect ~finally:cleanup (fun () -> f dir)

(* One replica stack with a durable directory: mutate, stop, restart on
   the same directory — the WAL must bring the object back, and a client
   replaying an op id must get the recorded result without a re-apply. *)
let test_tcp_durable_restart_recovers () =
  let module Cl = Net.Client.Make (Net.Wire.Kv_wired) in
  with_durable_dir "durable" @@ fun dir ->
  let params = Core.Params.make ~n:1 ~d:7000 ~u:5500 ~eps:0 ~x:0 () in
  let recovered_line = ref false in
  let recovered_text = ref "" in
  let cfg port =
    host_config ~durable:dir ~pid:0
      ~addrs:[| ("127.0.0.1", port) |]
      ~log:(fun s ->
        let has_sub sub =
          let ls = String.length sub and le = String.length s in
          let rec go i =
            i + ls <= le && (String.sub s i ls = sub || go (i + 1))
          in
          go 0
        in
        if has_sub "recovered" then begin
          recovered_line := true;
          recovered_text := s
        end)
      params
  in
  (* The Recover event must carry what the log line says: [a] = mutations
     replayed, [b] = the recovery's wall time. *)
  let sink, contents = Obs.Recorder.memory_sink () in
  let recorder =
    Obs.Recorder.start ~epoch_us:(Prelude.Mclock.now_us ()) ~sink ()
  in
  Obs.Recorder.install recorder;
  let invoke ?op_id conn op =
    match Cl.invoke ?op_id conn op with
    | Ok r -> r
    | Error e -> Alcotest.failf "invoke: %s" e
  in
  let l1 = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let port = l1.Net.Tcp_transport.port in
  let h1 = H.start ~listener:l1 (cfg port) in
  (match Cl.connect ~host:"127.0.0.1" ~port () with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok conn ->
      Alcotest.(check bool) "put 1" true
        (invoke ~op_id:1 conn (Spec.Kv_map.Put (1, 10)) = Spec.Kv_map.Ack);
      Alcotest.(check bool) "put 2" true
        (invoke ~op_id:2 conn (Spec.Kv_map.Put (2, 20)) = Spec.Kv_map.Ack);
      (* a replay of op id 2 is answered from the dedup table, not
         re-applied: key 2 must keep the original value *)
      Alcotest.(check bool) "replayed op id answered" true
        (invoke ~op_id:2 conn (Spec.Kv_map.Put (2, 999)) = Spec.Kv_map.Ack);
      Alcotest.(check bool) "replay did not re-apply" true
        (invoke conn (Spec.Kv_map.Get 2) = Spec.Kv_map.Found 20);
      Cl.close conn);
  (* let every mutation reach its Execute timer and hence the WAL *)
  Prelude.Mclock.sleep_us 100_000;
  ignore (H.stop h1);
  Alcotest.(check bool) "first boot is genesis, no recovery line" false
    !recovered_line;
  (* restart on the same directory (and port): state must come back *)
  let l2 = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port in
  let h2 = H.start ~listener:l2 (cfg port) in
  Alcotest.(check bool) "restart logs recovery" true !recovered_line;
  (match Cl.connect ~host:"127.0.0.1" ~port () with
  | Error e -> Alcotest.failf "reconnect: %s" e
  | Ok conn ->
      Alcotest.(check bool) "key 1 recovered" true
        (invoke conn (Spec.Kv_map.Get 1) = Spec.Kv_map.Found 10);
      Alcotest.(check bool) "key 2 recovered" true
        (invoke conn (Spec.Kv_map.Get 2) = Spec.Kv_map.Found 20);
      (* dedup state is durable too: a replay from before the crash is
         still recognised after the restart *)
      Alcotest.(check bool) "pre-crash op id recognised" true
        (invoke ~op_id:1 conn (Spec.Kv_map.Put (1, 777)) = Spec.Kv_map.Ack);
      Alcotest.(check bool) "pre-crash replay not re-applied" true
        (invoke conn (Spec.Kv_map.Get 1) = Spec.Kv_map.Found 10);
      Cl.close conn);
  ignore (H.stop h2);
  Obs.Recorder.uninstall ();
  Obs.Recorder.stop recorder;
  let recovers =
    List.filter
      (fun (e : Obs.Event.t) -> e.Obs.Event.kind = Obs.Event.Recover)
      (contents ())
  in
  Alcotest.(check int) "one Recover event for the restarted shard" 1
    (List.length recovers);
  let took =
    Scanf.sscanf !recovered_text
      "replica 0: recovered %_d mutations from %_s in %dµs" Fun.id
  in
  List.iter
    (fun (e : Obs.Event.t) ->
      Alcotest.(check int) "Recover a = replayed mutations" 2 e.Obs.Event.a;
      Alcotest.(check int) "Recover b = the logged recovery time" took
        e.Obs.Event.b)
    recovers

(* Three boots of one durable host, each a fresh run.  The first runs
   300 ms before it writes, so its stamp is far above anything a clock
   restarted at the second boot could read: the second boot's write must
   still land above the recovered mark, and the third boot must read
   both. *)
let test_tcp_durable_reruns_keep_writes () =
  let module Cl = Net.Client.Make (Net.Wire.Kv_wired) in
  with_durable_dir "reruns" @@ fun dir ->
  let params = Core.Params.make ~n:1 ~d:7000 ~u:5500 ~eps:0 ~x:0 () in
  let boot ?(wait_us = 0) ops =
    let l = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
    let port = l.Net.Tcp_transport.port in
    let h =
      H.start ~listener:l
        (host_config ~durable:dir ~pid:0 ~addrs:[| ("127.0.0.1", port) |] params)
    in
    Prelude.Mclock.sleep_us wait_us;
    let results =
      match Cl.connect ~host:"127.0.0.1" ~port () with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok conn ->
          let rs =
            List.map
              (fun op ->
                match Cl.invoke conn op with
                | Ok r -> r
                | Error e -> Alcotest.failf "invoke: %s" e)
              ops
          in
          Cl.close conn;
          rs
    in
    (* let every mutation reach its Execute timer and hence the WAL *)
    Prelude.Mclock.sleep_us 100_000;
    ignore (H.stop h);
    results
  in
  let check what expected got =
    Alcotest.(check bool) what true (got = expected)
  in
  check "boot 1 put" [ Spec.Kv_map.Ack ]
    (boot ~wait_us:300_000 [ Spec.Kv_map.Put (1, 10) ]);
  check "boot 2 put and read back" [ Spec.Kv_map.Ack; Spec.Kv_map.Found 20 ]
    (boot [ Spec.Kv_map.Put (2, 20); Spec.Kv_map.Get 2 ]);
  check "boot 3 reads both boots' writes"
    [ Spec.Kv_map.Found 10; Spec.Kv_map.Found 20 ]
    (boot [ Spec.Kv_map.Get 1; Spec.Kv_map.Get 2 ])

let test_client_retry_classification () =
  let module Cl = Net.Client.Make (Net.Wire.Kv_wired) in
  List.iter
    (fun e ->
      Alcotest.(check bool) (e ^ " is retryable") true (Cl.retryable e))
    [
      "timeout waiting for reply";
      "connection lost";
      "connection closed by replica";
      "replica error: retry: operation 7 in flight";
      "shed: inflight budget full (64/64)";
      "shed: deadline passed";
    ];
  Alcotest.(check bool) "semantic errors are not retryable" false
    (Cl.retryable "replica error: unknown op")

(* ---- the client port ---- *)

(* [Net.Client.recv] against a raw accepted loopback socket: the test
   writes reply frames by hand, however split, and reads what the client
   makes of them. *)
module Kcl = Net.Client.Make (Net.Wire.Kv_wired)
module Kc = Kcl.C

let client_pair () =
  let l = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let cl =
    match Kcl.connect ~host:"127.0.0.1" ~port:l.Net.Tcp_transport.port () with
    | Ok c -> c
    | Error e -> Alcotest.failf "client connect: %s" e
  in
  let server, _ = Unix.accept l.Net.Tcp_transport.listen_fd in
  Unix.close l.Net.Tcp_transport.listen_fd;
  Unix.setsockopt server Unix.TCP_NODELAY true;
  (cl, server)

let reply i = Kc.encode (Kc.Result { result = Spec.Kv_map.Found i; shard = 0 })

let expect_reply cl i =
  match Kcl.recv cl with
  | Ok (Kc.Result { result = Spec.Kv_map.Found j; shard = 0 }) when j = i -> ()
  | Ok m -> Alcotest.failf "reply %d: got %s" i (Format.asprintf "%a" Kc.pp_msg m)
  | Error e -> Alcotest.failf "reply %d: %s" i e

let expect_error cl want =
  match Kcl.recv cl with
  | Ok m -> Alcotest.failf "want %S, got %s" want (Format.asprintf "%a" Kc.pp_msg m)
  | Error e ->
      Alcotest.(check string) "error" want e;
      e

let test_client_coalesced () =
  let cl, server = client_pair () in
  write_all server (reply 1 ^ reply 2);
  expect_reply cl 1;
  expect_reply cl 2;
  write_all server (reply 3);
  expect_reply cl 3;
  Kcl.close cl;
  Unix.close server

let test_client_byte_at_a_time () =
  let cl, server = client_pair () in
  let stream = reply 1 ^ reply 200_000 in
  let writer =
    Thread.create
      (fun () ->
        String.iter
          (fun c ->
            write_all server (String.make 1 c);
            Unix.sleepf 0.0002)
          stream)
      ()
  in
  expect_reply cl 1;
  expect_reply cl 200_000;
  Thread.join writer;
  Kcl.close cl;
  Unix.close server

let test_client_corrupt () =
  let cl, server = client_pair () in
  let b = Bytes.of_string (reply 1) in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  write_all server (Bytes.to_string b);
  ignore (expect_error cl "corrupt reply: checksum mismatch");
  Kcl.close cl;
  Unix.close server

let test_client_eof_mid_frame () =
  let cl, server = client_pair () in
  let r = reply 1 in
  write_all server (String.sub r 0 (String.length r - 3));
  Unix.close server;
  ignore (expect_error cl "connection closed by replica");
  Kcl.close cl

(* A timeout mid-frame keeps the half it read: once the rest arrives, the
   same connection yields the whole reply. *)
let test_client_timeout_mid_frame () =
  let cl, server = client_pair () in
  Kcl.set_timeout cl (Some 20_000);
  let r = reply 1 in
  let half = String.length r / 2 in
  write_all server (String.sub r 0 half);
  let e = expect_error cl "timeout waiting for reply" in
  Alcotest.(check bool) "retryable" true (Kcl.retryable e);
  write_all server (String.sub r half (String.length r - half));
  expect_reply cl 1;
  Kcl.close cl;
  Unix.close server

(* [SO_RCVTIMEO] is a syscall per op on a retrying driver: the client sets
   it only when the wanted timeout changes.  Resetting the option behind
   the client's back shows whether it called again. *)
let test_client_timeout_cached () =
  let cl, server = client_pair () in
  let kernel () = Unix.getsockopt_float cl.Kcl.fd Unix.SO_RCVTIMEO in
  Kcl.set_timeout cl (Some 250_000);
  Alcotest.(check (float 0.01)) "set" 0.25 (kernel ());
  Unix.setsockopt_float cl.Kcl.fd Unix.SO_RCVTIMEO 0.;
  Kcl.set_timeout cl (Some 250_000);
  Alcotest.(check (float 0.01)) "same timeout: no call" 0. (kernel ());
  Kcl.set_timeout cl None;
  Kcl.set_timeout cl (Some 500_000);
  Alcotest.(check (float 0.01)) "changed: set again" 0.5 (kernel ());
  Kcl.close cl;
  Unix.close server

(* The allocation gate: 10 000 replies, 100 per write, through one
   connection.  Reading into the connection's buffer puts nothing on the
   major heap per reply (a fresh 8 KiB read buffer per call put ~1 035
   words there); the minor words bound is about twice what a reply costs
   now (26 words).  GC counters do not move with scheduling, so the bounds are
   tight. *)
let test_client_allocation_gate () =
  let cl, server = client_pair () in
  let batch = String.concat "" (List.init 100 reply) in
  let replies = 10_000 in
  let run () =
    for _ = 1 to replies / 100 do
      write_all server batch;
      for _ = 1 to 100 do
        match Kcl.recv cl with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "recv: %s" e
      done
    done
  in
  run () (* warm: the buffer and the codec's tables exist *);
  let g0 = Gc.quick_stat () in
  run ();
  let g1 = Gc.quick_stat () in
  Kcl.close cl;
  Unix.close server;
  let per x = x /. float_of_int replies in
  let major = per (g1.Gc.major_words -. g0.Gc.major_words)
  and minor = per (g1.Gc.minor_words -. g0.Gc.minor_words) in
  Alcotest.(check bool)
    (Printf.sprintf "major words per reply %.2f <= 16" major)
    true (major <= 16.);
  Alcotest.(check bool)
    (Printf.sprintf "minor words per reply %.1f <= 52" minor)
    true (minor <= 52.)

(* ---- waking on time ---- *)

module Lead = Net.Tcp_transport.Lead

let ms = 1_000_000 (* ns *)

let test_lead_starts_at_zero () =
  let l = Lead.create () in
  List.iter
    (fun wait_ns ->
      Alcotest.(check int) (Printf.sprintf "lead for %d ns" wait_ns) 0
        (Lead.lead_ns l ~wait_ns))
    [ 0; 1; 100_000; ms; 12 * ms + (ms / 2); 1_000 * ms ]

let test_lead_timeouts_only () =
  let l = Lead.create () and wait_ns = 12 * ms + (ms / 2) in
  (* a wake that found an fd ready (woken 7 ms early, say) or a signal *)
  Lead.observe l ~wait_ns ~ready:1 ~late_ns:(-7 * ms);
  Lead.observe l ~wait_ns ~ready:3 ~late_ns:900_000;
  Lead.observe l ~wait_ns ~ready:(-1) ~late_ns:500_000;
  Alcotest.(check int) "ready and interrupted wakes are no samples" 0
    (Lead.lead_ns l ~wait_ns);
  Lead.observe l ~wait_ns ~ready:0 ~late_ns:70_000;
  Alcotest.(check int) "a timeout is" 70_000 (Lead.lead_ns l ~wait_ns);
  for _ = 1 to 20 do
    Lead.observe l ~wait_ns ~ready:1 ~late_ns:(-2 * ms)
  done;
  Alcotest.(check int) "ready wakes leave it alone" 70_000
    (Lead.lead_ns l ~wait_ns)

(* One stolen wake-up must not make every later wait spin: the median
   ignores it, wherever it falls in the window. *)
let test_lead_ignores_an_outlier () =
  let wait_ns = 12 * ms + (ms / 2) in
  for at = 0 to 15 do
    let l = Lead.create () in
    for i = 0 to 15 do
      let late_ns = if i = at then 5 * ms else 28_000 + (i mod 5 * 1_000) in
      Lead.observe l ~wait_ns ~ready:0 ~late_ns
    done;
    let lead = Lead.lead_ns l ~wait_ns in
    Alcotest.(check bool)
      (Printf.sprintf "outlier at %d: lead %d ns" at lead)
      true
      (lead >= 28_000 && lead <= 32_000)
  done;
  (* ...while a lasting change moves it within one window *)
  let l = Lead.create () in
  for _ = 1 to 16 do Lead.observe l ~wait_ns ~ready:0 ~late_ns:30_000 done;
  for _ = 1 to 16 do Lead.observe l ~wait_ns ~ready:0 ~late_ns:80_000 done;
  Alcotest.(check int) "the window moved on" 80_000 (Lead.lead_ns l ~wait_ns)

let test_lead_buckets () =
  let l = Lead.create () in
  let long = 12 * ms + (ms / 2) and short = 100_000 in
  for _ = 1 to 16 do Lead.observe l ~wait_ns:long ~ready:0 ~late_ns:80_000 done;
  Alcotest.(check int) "a 100 µs wait inherits nothing" 0
    (Lead.lead_ns l ~wait_ns:short);
  Alcotest.(check int) "nor does a 1 ms one" 0 (Lead.lead_ns l ~wait_ns:ms);
  Alcotest.(check int) "the same bucket does" 80_000
    (Lead.lead_ns l ~wait_ns:(long + (2 * ms)));
  for _ = 1 to 16 do Lead.observe l ~wait_ns:short ~ready:0 ~late_ns:7_000 done;
  Alcotest.(check int) "short waits learn their own" 7_000
    (Lead.lead_ns l ~wait_ns:short);
  Alcotest.(check int) "long ones keep theirs" 80_000
    (Lead.lead_ns l ~wait_ns:long);
  (* a lead never eats more than half its wait *)
  for _ = 1 to 16 do Lead.observe l ~wait_ns:short ~ready:0 ~late_ns:60_000 done;
  Alcotest.(check int) "at most half the wait" 35_000
    (Lead.lead_ns l ~wait_ns:70_000)

(* A one-replica socket set with nothing to send. *)
let idle_set () =
  let l = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let t =
    reg_set ~me:0 ~listener:l
      ~addrs:[| ("127.0.0.1", l.Net.Tcp_transport.port) |]
      ()
  in
  (t, l.Net.Tcp_transport.port)

let test_poll_never_early () =
  let t, _ = idle_set () in
  let rng = rng_of 20 in
  let waits =
    List.init 200 (fun _ -> Prelude.Rng.int rng 3_001) @ List.init 4 (fun _ -> 12_500)
  in
  List.iter
    (fun wait_us ->
      let deadline_us = Prelude.Mclock.now_us () + wait_us in
      Net.Tcp_transport.poll t ~deadline_us;
      let now = Prelude.Mclock.now_us () in
      if now < deadline_us then
        Alcotest.failf "a %d µs wait returned %d µs early" wait_us
          (deadline_us - now))
    waits;
  (* the set learned a lead, so the waits above woke early and spun *)
  Alcotest.(check bool) "a lead was learned" true
    (Lead.lead_ns (Net.Tcp_transport.lead t) ~wait_ns:(12_500 * 1_000) > 0);
  Net.Tcp_transport.close t

(* Seed a 50 ms lead for 100 ms waits: the sleep ends 50 ms in, and the
   rest of the wait is the spin. *)
let long_wait_us = 100_000

let seed_long_lead t =
  for _ = 1 to 16 do
    Lead.observe (Net.Tcp_transport.lead t) ~wait_ns:(long_wait_us * 1_000)
      ~ready:0 ~late_ns:(50 * ms)
  done

let lead_of t =
  Lead.lead_ns (Net.Tcp_transport.lead t) ~wait_ns:(long_wait_us * 1_000)

(* Poll [long_wait_us] ahead while a forked child runs [during] [at_us]
   in (75 ms: mid-spin); return how early the poll came back.  A child
   process, not a thread: the spinning poll holds the runtime lock, so a
   thread's stimulus can run late.  The child exits only once the poll
   is over (the parent closes [hold_w]): tearing down its copy of this
   address space would slow the polling parent by milliseconds. *)
let poll_with ?(at_us = 75_000) t ~during =
  let t0 = Prelude.Mclock.now_us () in
  let hold_r, hold_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close hold_w;
      Prelude.Mclock.sleep_us (t0 + at_us - Prelude.Mclock.now_us ());
      let status = match during () with () -> 0 | exception _ -> 1 in
      ignore (Unix.read hold_r (Bytes.create 1) 0 1);
      Unix._exit status
  | child ->
      Unix.close hold_r;
      Fun.protect
        ~finally:(fun () ->
          Unix.close hold_w;
          ignore (Unix.waitpid [] child))
        (fun () ->
          let deadline_us = t0 + long_wait_us in
          Net.Tcp_transport.poll t ~deadline_us;
          deadline_us - Prelude.Mclock.now_us ())

let test_poll_spin_serves_sockets () =
  let t, port = idle_set () in
  let c = connect_to port in
  (* accept the client *)
  for _ = 1 to 3 do ignore (cycle ~wait_us:1_000 t) done;
  seed_long_lead t;
  let seeded = lead_of t in
  let early = poll_with t ~during:(fun () -> write_all c (invoke_frame 1)) in
  Alcotest.(check bool)
    (Printf.sprintf "bytes mid-spin end the wait (%d µs early)" early)
    true (early > 10_000);
  (match Net.Tcp_transport.next_input t with
  | Some (Net.Tcp_transport.From_client _) -> ()
  | _ -> Alcotest.fail "the frame is queued as an input");
  (* bytes already there end the sleep at once, and such wakes are no
     lateness samples *)
  for i = 2 to 20 do
    write_all c (invoke_frame i);
    let deadline_us = Prelude.Mclock.now_us () + long_wait_us in
    Net.Tcp_transport.poll t ~deadline_us;
    Alcotest.(check bool) "ready at once" true
      (Prelude.Mclock.now_us () < deadline_us);
    ignore (Net.Tcp_transport.next_input t)
  done;
  Alcotest.(check int) "ready wakes taught the lead nothing" seeded (lead_of t);
  Unix.close c;
  Net.Tcp_transport.close t

let test_poll_spin_wakes () =
  let t, _ = idle_set () in
  seed_long_lead t;
  let early = poll_with t ~during:(fun () -> Net.Tcp_transport.wake t) in
  Alcotest.(check bool)
    (Printf.sprintf "wake ends the spin (%d µs early)" early)
    true (early > 10_000);
  Net.Tcp_transport.close t

(* ---- staying awake after a reply ---- *)

module Awake = Net.Tcp_transport.Awake

let us = 1_000 (* ns *)

(* Turnarounds and wake-ups as a loop would have measured them. *)
let awake_with ?(wakes = List.init 16 (fun _ -> 12 * us)) turnarounds =
  let a = Awake.create () in
  List.iter (fun late_ns -> Awake.woke a ~late_ns) wakes;
  List.iter (fun turnaround_ns -> Awake.observe a ~turnaround_ns) turnarounds;
  a

let test_awake_needs_a_window () =
  let a = awake_with (List.init 15 (fun _ -> 12 * us)) in
  Alcotest.(check int) "15 turnarounds: no spin" 0
    (Awake.budget_ns a ~wait_ns:(100 * ms));
  Awake.observe a ~turnaround_ns:(12 * us);
  Alcotest.(check int) "16: twice the median" (24 * us)
    (Awake.budget_ns a ~wait_ns:(100 * ms));
  let a =
    awake_with ~wakes:(List.init 15 (fun _ -> 12 * us))
      (List.init 16 (fun _ -> 12 * us))
  in
  Alcotest.(check int) "15 wake-ups: no spin" 0
    (Awake.budget_ns a ~wait_ns:(100 * ms))

let test_awake_short_turnarounds_spin () =
  let a = awake_with (List.init 16 (fun i -> (10 * us) + (i * 200))) in
  List.iter
    (fun wait_ns ->
      let b = Awake.budget_ns a ~wait_ns in
      if b <= 0 || b > wait_ns then
        Alcotest.failf "a %d ns wait got a %d ns spin" wait_ns b)
    [ 100 * ms; 70 * ms; max_int; 5 * us ];
  Alcotest.(check int) "a short wait spins whole" (5 * us)
    (Awake.budget_ns a ~wait_ns:(5 * us));
  (* the upper median of 10.0, 10.2, ... 13.0 µs is 11.6 µs *)
  Alcotest.(check int) "twice the median" (2 * 11_600)
    (Awake.budget_ns a ~wait_ns:(100 * ms))

let test_awake_slow_clients_sleep () =
  let a = awake_with (List.init 16 (fun _ -> 2 * ms)) in
  Alcotest.(check int) "2 ms turnarounds: no spin" 0
    (Awake.budget_ns a ~wait_ns:(100 * ms));
  let a = awake_with (List.init 16 (fun _ -> 97 * us)) in
  Alcotest.(check int) "just above eight 12 µs wake-ups: no spin" 0
    (Awake.budget_ns a ~wait_ns:(100 * ms));
  let a = awake_with (List.init 16 (fun _ -> 96 * us)) in
  Alcotest.(check int) "eight wake-ups: spin" (192 * us)
    (Awake.budget_ns a ~wait_ns:(100 * ms))

(* A trio's client as its replicas measured it: wake-ups of 27 µs,
   turnarounds of 77–106 µs. *)
let test_awake_trio_client_spins () =
  let turns = List.init 15 (fun i -> (77 + (2 * i)) * us) @ [ 106 * us ] in
  let a = awake_with ~wakes:(List.init 16 (fun _ -> 27 * us)) turns in
  (* the upper median of 77, 79, ... 105, 106 µs is 93 µs *)
  Alcotest.(check int) "twice the upper median" (2 * 93 * us)
    (Awake.budget_ns a ~wait_ns:(100 * ms))

let test_awake_quiet_client_stops () =
  let a = awake_with (List.init 16 (fun _ -> 12 * us)) in
  for k = 1 to 8 do
    Awake.observe a ~turnaround_ns:(100 * ms);
    let b = Awake.budget_ns a ~wait_ns:(100 * ms) in
    if k < 8 && b = 0 then Alcotest.failf "stopped after %d timeouts" k;
    if k = 8 then Alcotest.(check int) "8 timed-out waits stop it" 0 b
  done

(* One stolen wake-up among the samples leaves the wake cost where it
   was, so a client slower than eight real wake-ups still gets no spin. *)
let test_awake_outlier_wake () =
  for at = 0 to 15 do
    let wakes = List.init 16 (fun i -> if i = at then 5 * ms else 30 * us) in
    let a = awake_with ~wakes (List.init 16 (fun _ -> 1 * ms)) in
    Alcotest.(check int)
      (Printf.sprintf "outlier at %d: 1 ms turnarounds still sleep" at)
      0
      (Awake.budget_ns a ~wait_ns:(100 * ms))
  done

(* The kernel stamps a socket's bytes as they arrive: a read 20 ms after
   a write reports them about 20 ms old.  Linux turns stamping on for
   the first such socket a little later (a deferred switch), so the
   first bytes may come unstamped. *)
let test_arrivals_are_stamped () =
  let srv = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let c = connect_to srv.Net.Tcp_transport.port in
  let s, _ = Unix.accept srv.Net.Tcp_transport.listen_fd in
  Prelude.Os.stamp_arrivals s;
  let age = [| -1 |] and buf = Bytes.create 16 in
  let rec warm k =
    write_all c "x";
    Unix.sleepf 0.002;
    ignore (Prelude.Os.recv_aged s buf 0 16 ~age);
    if age.(0) < 0 && k > 0 then warm (k - 1)
  in
  warm 100;
  write_all c "hello";
  Unix.sleepf 0.02;
  let k = Prelude.Os.recv_aged s buf 0 16 ~age in
  Alcotest.(check string) "the bytes" "hello" (Bytes.sub_string buf 0 k);
  Alcotest.(check bool)
    (Printf.sprintf "%d ns old" age.(0))
    true
    (age.(0) >= 20 * ms && age.(0) < 1_000 * ms);
  (match Prelude.Os.recv_aged s buf 0 16 ~age with
  | _ -> Alcotest.fail "an empty socket reads EAGAIN"
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  Unix.close c;
  Unix.close s;
  Unix.close srv.Net.Tcp_transport.listen_fd

(* A socket set with one accepted client whose ring says: turnarounds of
   20 ms, wake-ups of 50 ms — after a reply, a 100 ms wait spins 40 ms
   before it sleeps. *)
let awake_set () =
  let t, port = idle_set () in
  let c = connect_to port in
  write_all c (invoke_frame 1);
  let rec accept k =
    match cycle ~wait_us:1_000 t with
    | Net.Tcp_transport.From_client (conn, _) :: _ -> conn
    | _ when k > 0 -> accept (k - 1)
    | _ -> Alcotest.fail "the client was never served"
  in
  let conn = accept 100 in
  let a = Net.Tcp_transport.awake t in
  for _ = 1 to 16 do
    Awake.woke a ~late_ns:(50 * ms);
    Awake.observe a ~turnaround_ns:(20 * ms)
  done;
  (t, c, conn)

let test_awake_bytes_end_the_spin () =
  let t, c, conn = awake_set () in
  let payload = Buffer.create 16 in
  let kind =
    Rc.write_payload payload
      (Rc.Invoke
         { op = Spec.Register.Write 1; trace = 0; op_id = 1; shard = 0;
           deadline = 0 })
  in
  ignore (Net.Tcp_transport.conn_write_frame conn ~kind payload);
  Net.Tcp_transport.flush t ~now_us:(Prelude.Mclock.now_us ());
  (* a poll whose deadline has passed is no wait: the spin waits for the
     next one *)
  Net.Tcp_transport.poll t ~deadline_us:0;
  let before = Net.Tcp_transport.poll_counters t in
  let early = poll_with ~at_us:10_000 t ~during:(fun () -> write_all c (invoke_frame 2)) in
  let after = Net.Tcp_transport.poll_counters t in
  Alcotest.(check bool)
    (Printf.sprintf "bytes mid-spin end the wait (%d µs early)" early)
    true (early > 50_000);
  Alcotest.(check int) "one spin started" 1
    (after.Net.Tcp_transport.spins - before.Net.Tcp_transport.spins);
  Alcotest.(check int) "and caught the input" 1
    (after.Net.Tcp_transport.spins_caught - before.Net.Tcp_transport.spins_caught);
  Alcotest.(check int) "without sleeping" 0
    (after.Net.Tcp_transport.sleeps - before.Net.Tcp_transport.sleeps);
  (match Net.Tcp_transport.next_input t with
  | Some (Net.Tcp_transport.From_client _) -> ()
  | _ -> Alcotest.fail "the frame is queued as an input");
  Unix.close c;
  Net.Tcp_transport.close t

let test_awake_no_reply_no_spin () =
  let t, c, _ = awake_set () in
  let before = Net.Tcp_transport.poll_counters t in
  for _ = 1 to 50 do
    ignore (cycle ~wait_us:1_000 t)
  done;
  let after = Net.Tcp_transport.poll_counters t in
  Alcotest.(check int) "no spin in 50 waits" 0
    (after.Net.Tcp_transport.spins - before.Net.Tcp_transport.spins);
  (* a wait whose deadline passed while the loop was preempted polls
     without sleeping *)
  Alcotest.(check bool) "the waits slept" true
    (after.Net.Tcp_transport.sleeps - before.Net.Tcp_transport.sleeps >= 45);
  Unix.close c;
  Net.Tcp_transport.close t

(* The sorted windows read the medians that sorting a copy of the last
   16 samples reads: the lower median for {!Lead}, the upper one of a
   full window for {!Awake}, over duplicates, negatives (clamped to 0),
   and partial and full windows, after every sample. *)
let windowed_medians =
  QCheck.Test.make ~count:300 ~name:"windowed medians match a sorted copy"
    QCheck.(list_of_size Gen.(0 -- 64) (int_range (-50) 200))
    (fun samples ->
      let l = Lead.create () and a = Awake.create () in
      (* a wait long enough that the lead is the median itself, and
         wake-ups long enough that every turnaround earns a spin *)
      let wait_ns = 1 lsl 40 in
      for _ = 1 to 16 do Awake.woke a ~late_ns:ms done;
      let seen = ref [] in
      List.for_all
        (fun v ->
          Lead.observe l ~wait_ns ~ready:0 ~late_ns:v;
          Awake.observe a ~turnaround_ns:v;
          seen := v :: !seen;
          let last = List.filteri (fun i _ -> i < 16) !seen in
          let c = List.length last in
          let sorted = Array.make 16 max_int in
          List.iteri (fun i v -> sorted.(i) <- max 0 v) last;
          Array.sort Int.compare sorted;
          let lead = if c = 0 then 0 else sorted.((c - 1) / 2) in
          let budget = if c < 16 then 0 else 2 * sorted.(8) in
          Lead.lead_ns l ~wait_ns = lead
          && Awake.budget_ns a ~wait_ns:max_int = budget)
        samples)

(* A broadcast to n − 1 peers runs [encode_peer] once, and every peer
   still reads the bytes a lone send would have written: its hello, then
   the frame. *)
let test_broadcast_encodes_once () =
  let n = 4 in
  let listeners =
    Array.init n (fun _ -> Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0)
  in
  let addrs =
    Array.map (fun l -> ("127.0.0.1", l.Net.Tcp_transport.port)) listeners
  in
  let encodes = ref 0 in
  let t =
    Net.Tcp_transport.create ~me:0 ~addrs ~listener:listeners.(0)
      ~hello:(reg_hello 0) ~classify_hello:reg_classify
      ~decode_peer:(fun ~src:_ _ -> None)
      ~encode_peer:(fun m ->
        incr encodes;
        Rc.encode m)
      ~log:ignore ()
  in
  let entry =
    Rc.Entry
      { op = Spec.Register.Write 5; time = 3; pid = 0; trace = 0; op_id = 1;
        shard = 0 }
  in
  Net.Tcp_transport.send_all t ~dsts:[ 1; 2; 3 ] ~trace:0 entry;
  Alcotest.(check int) "one encode for three peers" 1 !encodes;
  let want = reg_hello 0 ^ Rc.encode entry in
  for _ = 1 to 20 do ignore (cycle ~wait_us:1_000 t) done;
  for dst = 1 to n - 1 do
    let fd, _ = Unix.accept listeners.(dst).Net.Tcp_transport.listen_fd in
    let buf = Bytes.create (String.length want) in
    let rec read off =
      if off < Bytes.length buf then
        match Unix.select [ fd ] [] [] 2.0 with
        | [], _, _ -> off
        | _ ->
            let k = Unix.read fd buf off (Bytes.length buf - off) in
            if k = 0 then off else read (off + k)
      else off
    in
    let got = read 0 in
    Alcotest.(check string)
      (Printf.sprintf "peer %d reads hello then the frame" dst)
      want (Bytes.sub_string buf 0 got);
    Unix.close fd
  done;
  Net.Tcp_transport.close t;
  Array.iteri
    (fun i l -> if i > 0 then Unix.close l.Net.Tcp_transport.listen_fd)
    listeners

(* The safety half of waking early: over real sockets, with the host
   loop's early wake-ups, no replica answers an operation before its
   class's hold — Respond's [b] is the replica's own invoke-to-response
   time on its loop clock — and the clients' history is linearizable.
   Pure mutators and accessors are answered by their own timer alone, so
   they run concurrently.  An OOP is answered when its entry executes,
   which a later-stamped entry's execute timer may do before the OOP's
   own d + ε (loopback delivers far under d − u), so OOPs run one at a
   time, after the rest. *)
module Kv_lin = Linearize.Make (Spec.Kv_map)

let test_holds_never_cut_short () =
  let module Cl = Net.Client.Make (Net.Wire.Kv_wired) in
  let n = 3 in
  let params =
    Core.Params.make ~n ~d:2_000 ~u:800
      ~eps:(Core.Params.optimal_eps ~n ~u:800)
      ~x:200 ()
  in
  let listeners =
    Array.init n (fun _ -> Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0)
  in
  let addrs =
    Array.map (fun (l : Net.Tcp_transport.listener) -> ("127.0.0.1", l.port)) listeners
  in
  let sink, contents = Obs.Recorder.memory_sink () in
  let recorder = Obs.Recorder.start ~epoch_us:(Prelude.Mclock.now_us ()) ~sink () in
  Obs.Recorder.install recorder;
  let handles =
    Array.init n (fun pid ->
        H.start ~listener:listeners.(pid)
          (host_config ~pid ~addrs params))
  in
  let conns =
    Array.map
      (fun (_, port) ->
        match Cl.connect ~host:"127.0.0.1" ~port () with
        | Ok c -> c
        | Error e -> Alcotest.failf "client connect: %s" e)
      addrs
  in
  let histories = Array.make n [] in
  let run pid op =
    let invoke = Prelude.Mclock.now_us () in
    match Cl.invoke conns.(pid) op with
    | Ok result ->
        let response = Prelude.Mclock.now_us () in
        histories.(pid) <-
          { Kv_lin.pid; op; result; invoke; response } :: histories.(pid)
    | Error e -> Alcotest.failf "invoke: %s" e
  in
  let per_client = 12 in
  let client pid =
    let rng = rng_of (pid + 1) in
    for i = 1 to per_client do
      run pid
        (match Prelude.Rng.int rng 3 with
        | 0 -> Spec.Kv_map.Put (Prelude.Rng.int rng 3, (100 * pid) + i)
        | 1 -> Spec.Kv_map.Del (Prelude.Rng.int rng 3)
        | _ -> Spec.Kv_map.Get (Prelude.Rng.int rng 3))
    done
  in
  List.iter Thread.join (List.init n (fun pid -> Thread.create client pid));
  let oops = 12 in
  for i = 1 to oops do
    run (i mod n) (Spec.Kv_map.Swap (i mod 3, 1_000 + i))
  done;
  Array.iter Cl.close conns;
  Array.iter (fun h -> ignore (H.stop h)) handles;
  Obs.Recorder.uninstall ();
  Obs.Recorder.stop recorder;
  let responds =
    List.filter (fun (e : Obs.Event.t) -> e.Obs.Event.kind = Obs.Event.Respond) (contents ())
  in
  Alcotest.(check int) "every op traced" ((n * per_client) + oops) (List.length responds);
  List.iter
    (fun (e : Obs.Event.t) ->
      let bound = Obs.Analyze.bound_us params e.Obs.Event.a in
      if e.Obs.Event.b < bound then
        Alcotest.failf "a %s answered in %d µs, under its %d µs hold"
          (Obs.Event.class_name e.Obs.Event.a) e.Obs.Event.b bound)
    responds;
  let history = List.concat_map List.rev (Array.to_list histories) in
  Alcotest.(check bool) "LINEARIZABLE" true
    (Kv_lin.is_linearizable (Kv_lin.check history))

(* ---- overload protection: lanes + admission ---- *)

(* Random pushes/pops against the two-lane queue.  Frames are (id, bytes);
   the checks are the queue's contract, not a re-implementation of its
   shed policy:
   - a data frame is never served while control frames are queued;
   - within each lane, popped ids are strictly increasing (FIFO survives
     even shedding, which only ever removes the *oldest* data frames);
   - the data lane never exceeds its frame or byte bound;
   - conservation — every pushed frame is popped, still queued, or
     counted shed; control is never shed. *)
let lanes_priority_and_bounds =
  QCheck.Test.make ~count:400
    ~name:"lanes: ctrl never behind data, bounds hold, sheds counted"
    QCheck.(list_of_size Gen.(1 -- 150) (pair bool (int_bound 3)))
    (fun ops ->
      let max_frames = 6 and max_bytes = 900 in
      let q =
        Net.Lanes.create ~max_data_frames:max_frames ~max_data_bytes:max_bytes
          ~size_of:snd ()
      in
      let next = ref 0 in
      let pushed_ctrl = ref 0 and pushed_data = ref 0 in
      let popped_ctrl = ref 0 and popped_data = ref 0 in
      let last_ctrl = ref (-1) and last_data = ref (-1) in
      let ok = ref true in
      let ensure c = if not c then ok := false in
      List.iter
        (fun (ctrl, code) ->
          (if code = 2 then
             match Net.Lanes.peek q with
             | None -> ensure (Net.Lanes.is_empty q)
             | Some (lane, (id, _)) ->
                 (match lane with
                 | Net.Lanes.Ctrl ->
                     ensure (id > !last_ctrl);
                     last_ctrl := id;
                     incr popped_ctrl
                 | Net.Lanes.Data ->
                     ensure (Net.Lanes.ctrl_length q = 0);
                     ensure (id > !last_data);
                     last_data := id;
                     incr popped_data);
                 Net.Lanes.drop q lane
           else begin
             let id = !next in
             incr next;
             (* code 3 = a frame bigger than the whole byte budget: it
                must be shed itself, not empty the lane *)
             let size = match code with 0 -> 64 | 1 -> 300 | _ -> 1200 in
             let lane = if ctrl then Net.Lanes.Ctrl else Net.Lanes.Data in
             let shed = Net.Lanes.push q lane (id, size) in
             if ctrl then begin
               ensure (shed = 0);
               incr pushed_ctrl
             end
             else incr pushed_data
           end);
          ensure (Net.Lanes.data_length q <= max_frames);
          ensure (Net.Lanes.data_bytes q <= max_bytes))
        ops;
      ensure (!pushed_ctrl = !popped_ctrl + Net.Lanes.ctrl_length q);
      ensure
        (!pushed_data
        = !popped_data + Net.Lanes.data_length q + Net.Lanes.shed q);
      !ok)

let test_admission_control () =
  let a = Net.Admission.create ~budget:2 () in
  let now = 1_000_000 in
  let is_shed reason =
    String.length reason >= 4 && String.sub reason 0 4 = "shed"
  in
  (* a fresh estimator admits even a tight deadline: it has no basis to
     refuse, and learns from the first completions instead of guessing *)
  (match Net.Admission.try_admit a ~now_us:now ~deadline_us:(now + 10) with
  | Net.Admission.Admitted -> ()
  | Net.Admission.Shed r -> Alcotest.failf "fresh estimator shed: %s" r);
  (match Net.Admission.try_admit a ~now_us:now ~deadline_us:0 with
  | Net.Admission.Admitted -> ()
  | Net.Admission.Shed r -> Alcotest.failf "budget not full yet: %s" r);
  (* budget full: refuse, with the retryable "shed" prefix *)
  (match Net.Admission.try_admit a ~now_us:now ~deadline_us:0 with
  | Net.Admission.Shed reason ->
      Alcotest.(check bool) "budget reason carries shed prefix" true
        (is_shed reason)
  | Net.Admission.Admitted -> Alcotest.fail "budget overrun");
  (* completions release slots and teach the EWMA *)
  Net.Admission.finish a ~elapsed_us:50_000;
  Net.Admission.finish a ~elapsed_us:50_000;
  Alcotest.(check int) "slots released" 0 (Net.Admission.inflight a);
  Alcotest.(check bool) "ewma learned" true (Net.Admission.ewma_us a > 10_000);
  (* a learned estimator refuses a deadline it cannot meet... *)
  (match Net.Admission.try_admit a ~now_us:now ~deadline_us:(now + 1_000) with
  | Net.Admission.Shed reason ->
      Alcotest.(check bool) "deadline reason carries shed prefix" true
        (is_shed reason)
  | Net.Admission.Admitted -> Alcotest.fail "unmeetable deadline admitted");
  (* ...but still admits a comfortable one, and deadline 0 = none *)
  (match
     Net.Admission.try_admit a ~now_us:now ~deadline_us:(now + 10_000_000)
   with
  | Net.Admission.Admitted -> Net.Admission.finish a ~elapsed_us:40_000
  | Net.Admission.Shed r -> Alcotest.failf "meetable deadline shed: %s" r);
  let t = Net.Admission.totals a in
  Alcotest.(check int) "admissions counted" 3 t.Net.Admission.admitted;
  Alcotest.(check int) "budget sheds counted" 1 t.Net.Admission.shed_budget;
  Alcotest.(check int) "deadline sheds counted" 1 t.Net.Admission.shed_deadline

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "net"
    [
      ( "codec",
        qsuite
          ([ frame_roundtrip; frame_trailing_bytes; frame_truncation;
             frame_bit_flip; frame_window; msg_corrupt_payloads ]
          @ msg_roundtrip_tests ())
        @ [
            Alcotest.test_case "other wire versions rejected" `Quick
              test_version_rejected_by_decoder;
            Alcotest.test_case "v1 peer fails the handshake cleanly" `Quick
              test_version_rejected_by_handshake;
            Alcotest.test_case "each handshake rejection" `Quick
              test_handshake_rejections;
            Alcotest.test_case "every frame kind keeps its v10 bytes" `Quick
              test_golden_frames;
          ] );
      ( "tcp",
        [
          Alcotest.test_case "in-process 3-replica cluster" `Quick
            test_tcp_cluster_in_process;
          Alcotest.test_case "reconnect with backoff" `Quick
            test_tcp_reconnect_backoff;
          Alcotest.test_case "a peer's hello cuts the backoff short" `Quick
            test_peer_hello_cuts_backoff;
          Alcotest.test_case "every cycle serves every client" `Quick
            test_cycle_fairness;
          Alcotest.test_case "a corrupt frame drops only its connection"
            `Quick test_corrupt_frame_drops_one_connection;
          Alcotest.test_case "multi-MiB frames reassemble linearly" `Quick
            test_reassembly_linear;
          Alcotest.test_case "poll never returns before its deadline" `Quick
            test_poll_never_early;
          Alcotest.test_case "bytes end the spin, queued" `Quick
            test_poll_spin_serves_sockets;
          Alcotest.test_case "wake ends the spin" `Quick test_poll_spin_wakes;
          Alcotest.test_case "holds are never cut short" `Quick
            test_holds_never_cut_short;
          Alcotest.test_case "a broadcast encodes once" `Quick
            test_broadcast_encodes_once;
        ] );
      ( "client",
        [
          Alcotest.test_case "two replies coalesced in one write" `Quick
            test_client_coalesced;
          Alcotest.test_case "a reply written a byte at a time" `Quick
            test_client_byte_at_a_time;
          Alcotest.test_case "a corrupt frame is a corrupt reply" `Quick
            test_client_corrupt;
          Alcotest.test_case "EOF mid-frame closes" `Quick
            test_client_eof_mid_frame;
          Alcotest.test_case "a timeout mid-frame is retryable" `Quick
            test_client_timeout_mid_frame;
          Alcotest.test_case "SO_RCVTIMEO set only on change" `Quick
            test_client_timeout_cached;
          Alcotest.test_case "no major words per reply" `Quick
            test_client_allocation_gate;
        ] );
      ( "wakelead",
        [
          Alcotest.test_case "starts at 0" `Quick test_lead_starts_at_zero;
          Alcotest.test_case "only timeouts are samples" `Quick
            test_lead_timeouts_only;
          Alcotest.test_case "one outlier moves nothing" `Quick
            test_lead_ignores_an_outlier;
          Alcotest.test_case "buckets are independent" `Quick test_lead_buckets;
        ] );
      ( "awake",
        [
          Alcotest.test_case "16 samples before a spin" `Quick
            test_awake_needs_a_window;
          Alcotest.test_case "short turnarounds spin within the wait" `Quick
            test_awake_short_turnarounds_spin;
          Alcotest.test_case "slow clients get no spin" `Quick
            test_awake_slow_clients_sleep;
          Alcotest.test_case "8 timed-out waits stop the spin" `Quick
            test_awake_quiet_client_stops;
          Alcotest.test_case "one outlier wake-up inflates nothing" `Quick
            test_awake_outlier_wake;
          Alcotest.test_case "arrivals carry their age" `Quick
            test_arrivals_are_stamped;
          Alcotest.test_case "client bytes end the pre-sleep spin" `Quick
            test_awake_bytes_end_the_spin;
          Alcotest.test_case "no reply, no spin" `Quick
            test_awake_no_reply_no_spin;
          Alcotest.test_case "a trio's client spins" `Quick
            test_awake_trio_client_spins;
        ]
        @ qsuite [ windowed_medians ] );
      ( "durable",
        [
          Alcotest.test_case "restart recovers from the durable dir" `Quick
            test_tcp_durable_restart_recovers;
          Alcotest.test_case "reruns keep every boot's writes" `Quick
            test_tcp_durable_reruns_keep_writes;
          Alcotest.test_case "retryable error classification" `Quick
            test_client_retry_classification;
        ] );
      ( "overload",
        qsuite [ lanes_priority_and_bounds ]
        @ [
            Alcotest.test_case "admission budget and deadlines" `Quick
              test_admission_control;
          ] );
    ]
