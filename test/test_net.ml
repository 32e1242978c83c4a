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
  let crc = Net.Codec.crc32 covered ~pos:0 ~len:(String.length covered) in
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
    [ 1; 2; 3; 4; 5; 6; 7; 9; 255 ]

(* A one-shard host — what [timebounds serve] runs — for the in-process
   TCP tests. *)
module H = Shard.Host.Make (Net.Wire.Kv_wired)

let host_config ?(offset = 0) ?start_us ?durable ?(log = fun _ -> ()) ~pid
    ~addrs params =
  {
    Shard.Host.pid;
    shards = 1;
    addrs;
    params;
    offset;
    start_us;
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
          let roundtrip m =
            match C.decode (C.encode m) with
            | Net.Codec.Got (m', _) -> C.equal_msg m m'
            | _ -> false
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
              && roundtrip
                   (C.Catchup_req
                      { time = seed * 7919; cpid = seed mod 16; shard })
              && roundtrip
                   (C.Catchup_rep
                      {
                        entries =
                          [ (op, seed * 7919, seed mod 16, seed * 17) ];
                        time = (seed * 7919) - 1;
                        cpid = (seed + 1) mod 16;
                        shard;
                      })
              && roundtrip
                   (C.Catchup_rep
                      { entries = []; time = -1; cpid = 0; shard = 0 }))
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
          && roundtrip
               (C.Hb
                  { stamp = seed * 7919; epoch = seed mod 7; qmode = false;
                    seq = seed mod 3; floor = min_int; ack = 0; want = 0;
                    shard })
          && roundtrip
               (* acks and prompts are clock values: large, and (for a
                  corrected clock behind the epoch) possibly negative *)
               (C.Hb
                  { stamp = max_int - seed; epoch = seed; qmode = true;
                    seq = 2; floor = seed * 11; ack = (1 lsl 61) + seed;
                    want = -(seed + 1); shard })
          && roundtrip (C.Ping { seq = seed; t0 = seed * 7919; shard })
          && roundtrip
               (C.Pong
                  {
                    seq = seed;
                    t0 = seed * 7919;
                    t_rx = (seed * 7919) + 3;
                    t_tx = (seed * 7919) + 5;
                    shard;
                  })
          && roundtrip
               (* a corrected clock can briefly sit behind the epoch, so
                  negative timestamps must survive the varint *)
               (C.Pong
                  { seq = 0; t0 = -(seed * 3); t_rx = -1; t_tx = 0; shard = 0 })))
    Net.Wire.all

let msg_corrupt_payloads =
  QCheck.Test.make ~count:300 ~name:"corrupt payloads error out, never raise"
    QCheck.(pair (int_bound 8) (string_of_size Gen.(0 -- 64)))
    (fun (kind, payload) ->
      let module C = Net.Codec.Make (Net.Wire.Kv_codec) in
      match C.decode_payload { Net.Codec.kind; payload } with
      | Ok _ | Error _ -> true)

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
  let start_us = Some (Prelude.Mclock.now_us ()) in
  let handles =
    Array.init n (fun pid ->
        H.start ~listener:listeners.(pid)
          (host_config ~offset:(pid * 100) ?start_us ~pid ~addrs kv_params))
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
      let records, _stats = H.stop h in
      Alcotest.(check bool) "replica recorded ops" true (records.(0) <> []))
    handles

let test_tcp_reconnect_backoff () =
  let module C = Net.Codec.Make (Net.Wire.Register_codec) in
  let hello pid =
    C.encode
      (C.Hello
         { Net.Codec.pid; n = 2; d = 7000; u = 5500; eps = 0; x = 0;
           obj_tag = Net.Wire.Register_codec.obj_tag; shards = 0 })
  in
  let classify frame =
    match C.decode_payload frame with
    | Ok (C.Hello h) -> Net.Tcp_transport.Peer h.Net.Codec.pid
    | Ok _ -> Net.Tcp_transport.Client
    | Error e -> Net.Tcp_transport.Reject e
  in
  let decode_peer ~src:_ frame =
    match C.decode_payload frame with Ok m -> Some m | Error _ -> None
  in
  let mk ~me ~listener ~addrs ~inbox =
    Net.Tcp_transport.create ~me ~addrs ~listener ~hello:(hello me)
      ~classify_hello:classify ~decode_peer ~encode_peer:C.encode
      ~deliver:(fun ~src m ->
        Runtime.Mailbox.put inbox ~deliver_at:(Prelude.Mclock.now_us ())
          (src, m))
      ~backoff_min_us:5_000 ~backoff_max_us:40_000
      ~log:(fun _ -> ())
      ()
  in
  (* Reserve a port for peer 1, then close it so connects fail until the
     peer actually starts: transport 0's writer must retry with backoff
     and deliver the queued frame once peer 1 appears. *)
  let l0 = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let l1_probe = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let port1 = l1_probe.Net.Tcp_transport.port in
  Unix.close l1_probe.Net.Tcp_transport.listen_fd;
  let addrs = [| ("127.0.0.1", l0.Net.Tcp_transport.port); ("127.0.0.1", port1) |] in
  let t0 = mk ~me:0 ~listener:l0 ~addrs ~inbox:(Runtime.Mailbox.create ()) in
  let entry =
    C.Entry
      { op = Spec.Register.Write 42; time = 1; pid = 0; trace = 7; op_id = 9;
        shard = 0 }
  in
  Net.Tcp_transport.send t0 ~dst:1 ~trace:0 entry;
  Prelude.Mclock.sleep_us 150_000 (* let several connect attempts fail *);
  let l1 = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:port1 in
  let inbox1 = Runtime.Mailbox.create () in
  let t1 = mk ~me:1 ~listener:l1 ~addrs ~inbox:inbox1 in
  let got =
    Runtime.Mailbox.take inbox1
      ~deadline:(Some (Prelude.Mclock.now_us () + 5_000_000))
  in
  (match got with
  | Some (src, m) ->
      Alcotest.(check int) "frame src" 0 src;
      Alcotest.(check bool) "frame survives reconnect" true (C.equal_msg m entry)
  | None -> Alcotest.fail "queued frame not delivered after peer came up");
  let stats = Net.Tcp_transport.stats t0 in
  (match stats.Runtime.Transport_intf.link with
  | Some l ->
      Alcotest.(check bool) "reconnects counted" true
        (l.Runtime.Transport_intf.reconnects >= 1);
      (* the ~150 ms the writer spent retrying is attributed to the link *)
      Alcotest.(check bool) "disconnected time counted" true
        (l.Runtime.Transport_intf.disconnected_us > 50_000);
      Alcotest.(check bool) "queue high-water mark seen" true
        (l.Runtime.Transport_intf.queue_hwm >= 1)
  | None -> Alcotest.fail "tcp transport must report link stats");
  Net.Tcp_transport.close t0;
  Net.Tcp_transport.close t1

(* ---- durable restart over TCP ---- *)

(* One replica stack with a durable directory: mutate, stop, restart on
   the same directory — the WAL must bring the object back, and a client
   replaying an op id must get the recorded result without a re-apply. *)
let test_tcp_durable_restart_recovers () =
  let module Cl = Net.Client.Make (Net.Wire.Kv_wired) in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tb-net-durable-%d" (Unix.getpid ()))
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
  Fun.protect ~finally:cleanup @@ fun () ->
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
             frame_bit_flip; msg_corrupt_payloads ]
          @ msg_roundtrip_tests ())
        @ [
            Alcotest.test_case "other wire versions rejected" `Quick
              test_version_rejected_by_decoder;
            Alcotest.test_case "v1 peer fails the handshake cleanly" `Quick
              test_version_rejected_by_handshake;
          ] );
      ( "tcp",
        [
          Alcotest.test_case "in-process 3-replica cluster" `Quick
            test_tcp_cluster_in_process;
          Alcotest.test_case "reconnect with backoff" `Quick
            test_tcp_reconnect_backoff;
        ] );
      ( "durable",
        [
          Alcotest.test_case "restart recovers from the durable dir" `Quick
            test_tcp_durable_restart_recovers;
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
