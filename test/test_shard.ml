(* Sharded namespace: ring balance and minimal-remap properties (the two
   qcheck contracts Ring.mli promises), directory determinism, per-shard
   fault-plan projection, zipfian sampler shape, and an in-process
   multi-shard host cluster — many Algorithm 1 instances multiplexed over
   one set of TCP links, driven across shards and verified to read their
   own writes. *)

let fair_bound ~members ~keys =
  (* 2× the fair share, plus a small absolute floor so tiny key counts
     don't flap on rounding. *)
  (2 * keys / members) + 8

(* Balance: with the default 64 vnodes, no member owns more than ~2× its
   fair share of uniformly drawn keys, for any seed and member count. *)
let balance_prop =
  QCheck.Test.make ~name:"ring balance within 2x of fair at 64 vnodes"
    ~count:40
    QCheck.(pair small_int (int_range 2 16))
    (fun (seed, members) ->
      let ring =
        Shard.Ring.make ~seed ~members:(List.init members Fun.id) ()
      in
      let keys = 20_000 in
      let census = Shard.Ring.spread ring ~keys in
      let bound = fair_bound ~members ~keys in
      Array.for_all (fun (_, owned) -> owned <= bound) census)

(* Minimal remapping, join side: adding a member moves a key only if it
   now routes to the new member — nothing reshuffles between survivors. *)
let add_remap_prop =
  QCheck.Test.make ~name:"adding a member only moves keys to it" ~count:40
    QCheck.(pair small_int (int_range 2 12))
    (fun (seed, members) ->
      let before =
        Shard.Ring.make ~seed ~members:(List.init members Fun.id) ()
      in
      let after = Shard.Ring.add before members in
      List.for_all
        (fun key ->
          let b = Shard.Ring.route before key in
          let a = Shard.Ring.route after key in
          a = b || a = members)
        (List.init 2_000 (fun i -> (i * 2654435761) lxor seed)))

(* Minimal remapping, leave side: removing a member moves only the keys it
   owned; every other key keeps its owner. *)
let remove_remap_prop =
  QCheck.Test.make ~name:"removing a member only moves its own keys"
    ~count:40
    QCheck.(pair small_int (int_range 3 12))
    (fun (seed, members) ->
      let before =
        Shard.Ring.make ~seed ~members:(List.init members Fun.id) ()
      in
      let victim = seed mod members in
      let after = Shard.Ring.remove before victim in
      List.for_all
        (fun key ->
          let b = Shard.Ring.route before key in
          let a = Shard.Ring.route after key in
          if b = victim then a <> victim else a = b)
        (List.init 2_000 (fun i -> (i * 40503) lxor (seed * 7))))

(* Construction-order independence: the ring is a pure function of
   (seed, vnodes, member set), so a shuffled member list builds the same
   routing table — what lets every process rebuild it locally. *)
let order_independent_prop =
  QCheck.Test.make ~name:"ring independent of member construction order"
    ~count:30
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, members) ->
      let ids = List.init members Fun.id in
      let shuffled =
        List.sort (fun a b -> compare ((a * 31) mod 17) ((b * 31) mod 17)) ids
      in
      let r1 = Shard.Ring.make ~seed ~members:ids () in
      let r2 = Shard.Ring.make ~seed ~members:shuffled () in
      List.for_all
        (fun key -> Shard.Ring.route r1 key = Shard.Ring.route r2 key)
        (List.init 500 (fun i -> i * 7919)))

let test_ring_validation () =
  Alcotest.check_raises "empty members" (Invalid_argument "Ring.make: members must be non-empty")
    (fun () -> ignore (Shard.Ring.make ~seed:1 ~members:[] ()));
  let r = Shard.Ring.make ~seed:1 ~members:[ 0; 1 ] () in
  Alcotest.(check (list int)) "members ascending" [ 0; 1 ] (Shard.Ring.members r);
  (match Shard.Ring.remove r 0 with
  | r' -> (
      Alcotest.(check (list int)) "removed" [ 1 ] (Shard.Ring.members r');
      match Shard.Ring.remove r' 1 with
      | _ -> Alcotest.fail "removing the last member must raise"
      | exception Invalid_argument _ -> ()));
  match Shard.Ring.add r 1 with
  | _ -> Alcotest.fail "duplicate add must raise"
  | exception Invalid_argument _ -> ()

(* ---- directory ---- *)

let test_directory_pure () =
  let mk () = Shard.Directory.make ~vnodes:32 ~seed:99 ~shards:16 ~n:5 () in
  let d1 = mk () and d2 = mk () in
  for key = 0 to 999 do
    let l1 = Shard.Directory.locate d1 ~key and l2 = Shard.Directory.locate d2 ~key in
    Alcotest.(check bool) "same location from same three integers" true (l1 = l2);
    Alcotest.(check bool) "shard in range" true
      (l1.Shard.Directory.shard >= 0 && l1.Shard.Directory.shard < 16);
    Alcotest.(check bool) "home in range" true
      (l1.Shard.Directory.home >= 0 && l1.Shard.Directory.home < 5);
    Alcotest.(check (list int)) "fully replicated" [ 0; 1; 2; 3; 4 ]
      l1.Shard.Directory.replicas
  done;
  (* Homes spread over the replica set rather than all landing on 0. *)
  let homes = Hashtbl.create 8 in
  for shard = 0 to 15 do
    Hashtbl.replace homes (Shard.Directory.home_of d1 ~shard) ()
  done;
  Alcotest.(check bool) "homes use several replicas" true (Hashtbl.length homes >= 2)

(* ---- per-shard fault-plan projection ---- *)

let test_plan_shard_scope () =
  match Fault.Fault_plan.compile ~seed:5 ~spec:"drop(50)%2@0.1s-0.5s;spike(2ms)" with
  | Error e -> Alcotest.failf "compile: %s" e
  | Ok plan ->
      let p2 = Fault.Fault_plan.for_shard plan 2 in
      let p0 = Fault.Fault_plan.for_shard plan 0 in
      Alcotest.(check int) "shard 2 keeps both rules" 2
        (List.length (Fault.Fault_plan.rules p2));
      Alcotest.(check int) "shard 0 keeps only the unscoped rule" 1
        (List.length (Fault.Fault_plan.rules p0));
      (* Same rule id in both projections: the id is the decision salt, so
         a rule behaves identically wherever it applies. *)
      let ids p =
        List.map (fun (r : Fault.Fault_plan.rule) -> r.Fault.Fault_plan.id)
          (Fault.Fault_plan.rules p)
      in
      Alcotest.(check bool) "unscoped rule keeps its id" true
        (List.for_all (fun id -> List.mem id (ids p2)) (ids p0))

let test_plan_shard_parse_errors () =
  (match Fault.Fault_plan.compile ~seed:1 ~spec:"drop(10)%x" with
  | Ok _ -> Alcotest.fail "bad shard scope must be rejected"
  | Error _ -> ());
  match Fault.Fault_plan.compile ~seed:1 ~spec:"drop(10)%-1" with
  | Ok _ -> Alcotest.fail "negative shard scope must be rejected"
  | Error _ -> ()

(* ---- zipfian sampler ---- *)

let test_zipf_shape () =
  let n = 1000 in
  let z = Runtime.Workloads.Zipf.make ~n ~theta:0.99 in
  let rng = Prelude.Rng.make 11 in
  let counts = Array.make n 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let k = Runtime.Workloads.Zipf.sample z rng in
    Alcotest.(check bool) "sample in range" true (k >= 0 && k < n);
    counts.(k) <- counts.(k) + 1
  done;
  (* Rank 0 must dominate the tail decisively under theta = 0.99. *)
  let tail = Array.fold_left ( + ) 0 (Array.sub counts (n / 2) (n / 2)) in
  Alcotest.(check bool) "head rank beats the entire upper-half tail" true
    (counts.(0) > tail);
  (* theta = 0 degenerates to uniform: no rank wildly over fair share. *)
  let u = Runtime.Workloads.Zipf.make ~n:10 ~theta:0. in
  let ucounts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let k = Runtime.Workloads.Zipf.sample u rng in
    ucounts.(k) <- ucounts.(k) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "uniform-ish at theta 0" true (c < 2_000))
    ucounts

(* ---- in-process multi-shard host cluster ---- *)

module H = Shard.Host.Make (Net.Wire.Kv_wired)

let test_host_cluster_in_process () =
  let module Cl = Net.Client.Make (Net.Wire.Kv_wired) in
  let n = 3 and shards = 4 in
  let params =
    Core.Params.make ~n ~d:7000 ~u:5500
      ~eps:(Core.Params.optimal_eps ~n:3 ~u:5500)
      ~x:0 ()
  in
  let listeners =
    Array.init n (fun _ -> Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0)
  in
  let addrs =
    Array.map
      (fun (l : Net.Tcp_transport.listener) -> ("127.0.0.1", l.port))
      listeners
  in
  let handles =
    Array.init n (fun pid ->
        H.start ~listener:listeners.(pid)
          {
            Shard.Host.pid;
            shards;
            addrs;
            params;
            offset = pid * 100;
            start_us = None;
            trace = None;
            durable = None;
            fsync = Durable.Wal.Never;
            snapshot_every = 0;
            chaos = None;
            fallback = None;
            sync = None;
            log = (fun _ -> ());
          })
  in
  let conns =
    Array.map
      (fun (_, port) ->
        match Cl.connect ~host:"127.0.0.1" ~port () with
        | Ok c -> c
        | Error e -> Alcotest.failf "client connect: %s" e)
      addrs
  in
  let dir = Shard.Directory.make ~vnodes:16 ~seed:42 ~shards ~n () in
  (* Route every key through the directory, write on its home replica,
     read it back through a *different* replica of the same shard:
     sequential cross-replica read-your-writes, per shard instance. *)
  let seen = Hashtbl.create 8 in
  for key = 0 to 23 do
    let loc = Shard.Directory.locate dir ~key in
    Hashtbl.replace seen loc.Shard.Directory.shard ();
    (match
       Cl.invoke ~shard:loc.Shard.Directory.shard
         conns.(loc.Shard.Directory.home)
         (Spec.Kv_map.Put (key, key * 13))
     with
    | Ok Spec.Kv_map.Ack -> ()
    | Ok r ->
        Alcotest.failf "put: unexpected %s"
          (Format.asprintf "%a" Spec.Kv_map.pp_result r)
    | Error e -> Alcotest.failf "put: %s" e);
    match
      Cl.invoke ~shard:loc.Shard.Directory.shard
        conns.((loc.Shard.Directory.home + 1) mod n)
        (Spec.Kv_map.Get key)
    with
    | Ok r ->
        Alcotest.(check bool)
          (Printf.sprintf "get %d (shard %d) sees put" key
             loc.Shard.Directory.shard)
          true
          (r = Spec.Kv_map.Found (key * 13))
    | Error e -> Alcotest.failf "get: %s" e
  done;
  Alcotest.(check bool) "keys actually spread over several shards" true
    (Hashtbl.length seen >= 2);
  (* Out-of-range shard tags must be refused, not crash the host. *)
  (match Cl.invoke ~shard:shards conns.(0) (Spec.Kv_map.Get 0) with
  | Ok _ -> Alcotest.fail "invoke with shard out of range must fail"
  | Error _ -> ());
  Array.iter Cl.close conns;
  Array.iter
    (fun h ->
      let answered, stats = H.stop h in
      Alcotest.(check bool) "host answered ops on some shard" true
        (Array.exists (fun k -> k > 0) answered);
      Alcotest.(check bool) "host transport sent messages" true
        (stats.Runtime.Transport_intf.sent > 0))
    handles

(* A bound-then-closed port: connects to it are refused, as to a replica
   that never started. *)
let dead_port () =
  let l = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  Unix.close l.Net.Tcp_transport.listen_fd;
  l.Net.Tcp_transport.port

let host_config ?(offset = 0) ?fallback ?(log = fun _ -> ()) ~pid ~shards
    ~addrs params =
  {
    Shard.Host.pid;
    shards;
    addrs;
    params;
    offset;
    start_us = None;
    trace = None;
    durable = None;
    fsync = Durable.Wal.Never;
    snapshot_every = 0;
    chaos = None;
    fallback;
    sync = None;
    log;
  }

(* The host composes the fallback's suspicion hook with its own logging:
   with replica 2 never started, replica 0 must log the suspicion within
   the failure detector's boot grace plus its timeout (plus a scheduling
   allowance) — the line the CI overload smoke and the benchmark's
   suspicion gate grep for. *)
let test_host_logs_suspicion () =
  let n = 3 in
  let params =
    Core.Params.make ~n ~d:7000 ~u:5500
      ~eps:(Core.Params.optimal_eps ~n ~u:5500)
      ~x:0 ()
  in
  let fallback = Quorum.Config.make ~hb_us:2_500 ~suspect_after:20 () in
  let listeners =
    Array.init 2 (fun _ -> Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0)
  in
  let addrs =
    [|
      ("127.0.0.1", listeners.(0).Net.Tcp_transport.port);
      ("127.0.0.1", listeners.(1).Net.Tcp_transport.port);
      ("127.0.0.1", dead_port ());
    |]
  in
  let lines = ref [] in
  let lock = Mutex.create () in
  let log s =
    Mutex.lock lock;
    lines := s :: !lines;
    Mutex.unlock lock
  in
  let logged line =
    Mutex.lock lock;
    let seen = List.mem line !lines in
    Mutex.unlock lock;
    seen
  in
  let t0 = Prelude.Mclock.now_us () in
  let handles =
    Array.init 2 (fun pid ->
        H.start ~listener:listeners.(pid)
          (host_config ~fallback ~log ~pid ~shards:1 ~addrs params))
  in
  let timeout = Quorum.Config.timeout_us fallback in
  let deadline = t0 + timeout (* boot grace *) + timeout + 250_000 in
  while
    (not (logged "replica 0: suspecting peer 2"))
    && Prelude.Mclock.now_us () < deadline
  do
    Prelude.Mclock.sleep_us 5_000
  done;
  let seen = logged "replica 0: suspecting peer 2" in
  Array.iter (fun h -> ignore (H.stop h)) handles;
  Alcotest.(check bool) "replica 0 logs its suspicion of the dead peer" true
    seen

(* The host's loop steps a frame on the shard its tag names; a frame
   tagged past the host's shard count must be dropped by the decode range
   check — the connection keeps flowing (a later valid frame on it still
   lands) and clients keep being answered. *)
let test_host_drops_out_of_range_shard () =
  let module C = Net.Codec.Make (Net.Wire.Kv_codec) in
  let module Cl = Net.Client.Make (Net.Wire.Kv_wired) in
  let n = 2 and shards = 4 in
  let params = Core.Params.make ~n ~d:7000 ~u:5500 ~eps:0 ~x:0 () in
  let listener = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let port = listener.Net.Tcp_transport.port in
  let addrs = [| ("127.0.0.1", port); ("127.0.0.1", dead_port ()) |] in
  let handle = H.start ~listener (host_config ~pid:0 ~shards ~addrs params) in
  (* Pose as replica 1 with matching parameters. *)
  let hello =
    C.encode
      (C.Hello
         {
           Net.Codec.pid = 1;
           n;
           d = 7000;
           u = 5500;
           eps = 0;
           x = 0;
           obj_tag = Net.Wire.Kv_codec.obj_tag;
           shards;
         })
  in
  let entry ~shard ~key ~v =
    C.encode
      (C.Entry
         {
           op = Spec.Kv_map.Put (key, v);
           time = Prelude.Mclock.now_us ();
           pid = 1;
           trace = 0;
           op_id = 0;
           shard;
         })
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let write s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  write hello;
  write (entry ~shard:shards ~key:5 ~v:50);
  write (entry ~shard:0 ~key:6 ~v:60);
  (* let the valid entry reach its execute time *)
  Prelude.Mclock.sleep_us 200_000;
  (match Cl.connect ~host:"127.0.0.1" ~port () with
  | Error e -> Alcotest.failf "client connect: %s" e
  | Ok conn ->
      (match Cl.invoke ~shard:0 conn (Spec.Kv_map.Get 6) with
      | Ok r ->
          Alcotest.(check bool) "valid frame after the bad one applied" true
            (r = Spec.Kv_map.Found 60)
      | Error e -> Alcotest.failf "get: %s" e);
      (match Cl.invoke ~shard:(shards - 1) conn (Spec.Kv_map.Put (1, 2)) with
      | Ok Spec.Kv_map.Ack -> ()
      | Ok r ->
          Alcotest.failf "put: unexpected %s"
            (Format.asprintf "%a" Spec.Kv_map.pp_result r)
      | Error e -> Alcotest.failf "put after bad frame: %s" e);
      Cl.close conn);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  ignore (H.stop handle)

(* ---- client replies come from the replica loop ---- *)

module Kc = Net.Codec.Make (Net.Wire.Kv_codec)
module Kcl = Net.Client.Make (Net.Wire.Kv_wired)

let invoke_frame ?(op_id = 0) ?(deadline = 0) op =
  Kc.encode (Kc.Invoke { op; trace = 0; op_id; shard = 0; deadline })

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let solo_host ?trace params =
  let listener = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let port = listener.Net.Tcp_transport.port in
  let handle =
    H.start ~listener
      {
        (host_config ~pid:0 ~shards:1 ~addrs:[| ("127.0.0.1", port) |] params)
        with
        Shard.Host.trace;
      }
  in
  let conn =
    match Kcl.connect ~host:"127.0.0.1" ~port () with
    | Ok c -> c
    | Error e -> Alcotest.failf "client connect: %s" e
  in
  Kcl.set_timeout conn (Some 5_000_000);
  (handle, conn)

(* The connection's reader posts an invoke and goes straight back to
   reading, so a client may pipeline: both frames are answered, in
   order (the replica runs one operation at a time). *)
let test_host_pipelined_invokes () =
  let params = Core.Params.make ~n:1 ~d:2000 ~u:0 ~eps:0 ~x:0 () in
  let handle, conn = solo_host params in
  write_all conn.Kcl.fd
    (invoke_frame ~op_id:1 (Spec.Kv_map.Put (7, 70))
    ^ invoke_frame ~op_id:2 (Spec.Kv_map.Get 7));
  let first = Kcl.recv conn in
  let second = Kcl.recv conn in
  Kcl.close conn;
  ignore (H.stop handle);
  let ok r = Ok (Kc.Result { result = r; shard = 0 }) in
  Alcotest.(check bool) "first frame answered first" true
    (first = ok Spec.Kv_map.Ack);
  Alcotest.(check bool) "second frame answered, after the put" true
    (second = ok (Spec.Kv_map.Found 70))

(* Every hold 0 on one replica: each request is served in the loop cycle
   that read it, its zero holds included: they are due at the cycle's
   clock reading, so the fire after the steps answers them before the
   write.  Firing them a cycle later costs ~1.5 cycles per op. *)
let test_host_one_cycle_per_request () =
  let params = Core.Params.make ~n:1 ~d:0 ~u:0 ~eps:0 ~x:0 () in
  let handle, conn = solo_host params in
  let ops = 2_000 in
  let rng = Prelude.Rng.make 33 in
  for i = 1 to ops do
    let key = Prelude.Rng.int rng 16 in
    let op =
      match i mod 4 with
      | 0 -> Spec.Kv_map.Put (key, i)
      | 1 -> Spec.Kv_map.Get key
      | 2 -> Spec.Kv_map.Swap (key, i)
      | _ -> Spec.Kv_map.Del key
    in
    match Kcl.invoke ~op_id:i conn op with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "op %d: %s" i e
  done;
  Kcl.close conn;
  let answered, _ = H.stop handle in
  Alcotest.(check int) "every op answered" ops answered.(0);
  let cycles = (H.counters handle).Net.Tcp_transport.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "%d cycles for %d ops (<= 1.05 per op)" cycles ops)
    true
    (float_of_int cycles <= 1.05 *. float_of_int ops)

(* A traced host is its recorder's consumer: the loop drains the ring
   into the trace file every cycle, so the events reach the file while it
   serves, not only when {!H.stop} drains what is left. *)
let test_host_traced_drains_while_running () =
  let path = Filename.temp_file "timebounds-host" ".trace" in
  let params = Core.Params.make ~n:1 ~d:0 ~u:0 ~eps:0 ~x:0 () in
  let handle, conn = solo_host ~trace:path params in
  let ops = 300 in
  for i = 1 to ops do
    match Kcl.invoke ~op_id:i conn (Spec.Kv_map.Put (i mod 8, i)) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "op %d: %s" i e
  done;
  let while_running = (Unix.stat path).Unix.st_size in
  Kcl.close conn;
  ignore (H.stop handle);
  let responds =
    List.length
      (List.filter
         (fun (e : Obs.Event.t) -> e.kind = Obs.Event.Respond)
         (Obs.Recorder.read_file path))
  in
  Sys.remove path;
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes on file before stop" while_running)
    true
    (while_running > String.length Obs.Recorder.file_magic);
  Alcotest.(check int) "every op's Respond in the file" ops responds

(* A client that pipelines invokes and never reads fills its socket
   buffers; the replica loop, which writes the replies, must drop that
   connection rather than wait on it.  Meanwhile a second connection's
   ops keep completing promptly and — the fallback armed — the loop keeps
   heartbeating, so no peer is suspected. *)
let test_host_non_reading_client_cannot_stall () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let n = 2 in
  let params =
    Core.Params.make ~n ~d:1000 ~u:200
      ~eps:(Core.Params.optimal_eps ~n ~u:200)
      ~x:0 ()
  in
  let fallback =
    Quorum.Config.make ~hb_us:2_500 ~suspect_after:80 ()
  in
  let listeners =
    Array.init n (fun _ -> Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0)
  in
  let addrs =
    Array.map (fun (l : Net.Tcp_transport.listener) -> ("127.0.0.1", l.port))
      listeners
  in
  let suspicions = Atomic.make 0 in
  let log line =
    if List.mem "suspecting" (String.split_on_char ' ' line) then
      Atomic.incr suspicions
  in
  let handles =
    Array.init n (fun pid ->
        H.start ~listener:listeners.(pid)
          (host_config ~fallback ~log ~pid ~shards:1 ~addrs params))
  in
  let port = snd addrs.(0) in
  let good =
    match Kcl.connect ~host:"127.0.0.1" ~port () with
    | Ok c -> c
    | Error e -> Alcotest.failf "client connect: %s" e
  in
  Kcl.set_timeout good (Some 5_000_000);
  let put c k =
    match Kcl.invoke c (Spec.Kv_map.Put (k, k)) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "put %d: %s" k e
  in
  put good 0 (* links up, first op paid *);
  let flood = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int flood Unix.SO_RCVBUF 4096;
  Unix.connect flood (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* Mostly frames the door sheds (deadline long past), whose replies
     fill the unread buffers fast; every 50th is a real op, so the replica
     holds some of this client's ops when its buffers are full. *)
  let blob =
    String.concat ""
      (List.init 20_000 (fun i ->
           invoke_frame
             ~deadline:(if i mod 50 = 0 then 0 else 1)
             (Spec.Kv_map.Put (i, i))))
  in
  let flooder =
    Thread.create
      (fun () -> try write_all flood blob with Unix.Unix_error _ -> ())
      ()
  in
  let worst = ref 0 in
  for k = 1 to 40 do
    let t0 = Prelude.Mclock.now_us () in
    put good k;
    worst := max !worst (Prelude.Mclock.now_us () - t0);
    Prelude.Mclock.sleep_us 10_000
  done;
  (* By now the host has cut the flood off: its unsent replies passed the
     cap.  Reading what reached the client ends at the close, long before
     the ~720 KB of replies 20,000 frames would earn. *)
  Unix.setsockopt_float flood Unix.SO_RCVTIMEO 2.0;
  let buf = Bytes.create 65536 in
  let rec drain total =
    match Unix.read flood buf 0 65536 with
    | 0 -> (true, total)
    | k -> drain (total + k)
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        (true, total)
    | exception Unix.Unix_error _ -> (false, total)
  in
  let was_cut, unread = drain 0 in
  (try Unix.shutdown flood Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Thread.join flooder;
  Unix.close flood;
  Kcl.close good;
  Array.iter (fun h -> ignore (H.stop h)) handles;
  Alcotest.(check bool)
    (Printf.sprintf "slowest op beside the flood (%d us) under 100 ms" !worst)
    true (!worst < 100_000);
  Alcotest.(check int) "suspicions" 0 (Atomic.get suspicions);
  Alcotest.(check bool)
    (Printf.sprintf "the non-reading client was cut off (%d bytes reached it)"
       unread)
    true
    (was_cut && unread < 4 * Net.Tcp_transport.reply_cap)

(* Stopping a host answers the invoke it still holds — from the replica
   loop, before the transport closes — and [stop] returns. *)
let test_host_stop_answers_inflight () =
  (* a 5 s accessor hold: the read is still in flight at [stop] *)
  let params = Core.Params.make ~n:1 ~d:5_000_000 ~u:0 ~eps:0 ~x:0 () in
  let handle, conn = solo_host params in
  (match Kcl.send conn (Kc.Invoke
                          { op = Spec.Kv_map.Get 1; trace = 0; op_id = 0;
                            shard = 0; deadline = 0 }) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e);
  Prelude.Mclock.sleep_us 50_000;
  let stopped = Atomic.make false in
  let stopper =
    Thread.create
      (fun () ->
        ignore (H.stop handle);
        Atomic.set stopped true)
      ()
  in
  let reply = Kcl.recv conn in
  let give_up = Prelude.Mclock.now_us () + 3_000_000 in
  while (not (Atomic.get stopped)) && Prelude.Mclock.now_us () < give_up do
    Prelude.Mclock.sleep_us 5_000
  done;
  Alcotest.(check bool) "stop returned" true (Atomic.get stopped);
  Thread.join stopper;
  Kcl.close conn;
  Alcotest.(check bool) "the in-flight invoke is answered" true
    (reply = Ok (Kc.Error_msg "replica stopped"))

(* Starting and stopping an armed in-process trio leaves no thread and
   no descriptor behind: every host loop is joined and every socket, pipe
   and listener closed by [stop].  A [%k]-scoped delay plan adds no
   thread either: its parked frames wait on the host's own loop. *)
let test_host_stop_leaks_nothing () =
  let count dir = Array.length (Sys.readdir dir) in
  (* A joined thread's kernel task can outlive [Thread.join] by a moment:
     read a count once it holds still. *)
  let settled dir =
    let give_up = Prelude.Mclock.now_us () + 2_000_000 in
    let rec go prev =
      Prelude.Mclock.sleep_us 20_000;
      let c = count dir in
      if c = prev || Prelude.Mclock.now_us () > give_up then c else go c
    in
    go (count dir)
  in
  (* the runtime's own helper thread exists before the baseline *)
  Thread.join (Thread.create ignore ());
  let tasks0 = settled "/proc/self/task" and fds0 = count "/proc/self/fd" in
  let n = 3 in
  let params =
    Core.Params.make ~n ~d:7000 ~u:5500
      ~eps:(Core.Params.optimal_eps ~n ~u:5500)
      ~x:0 ()
  in
  let fallback =
    Quorum.Config.make ~hb_us:2_500 ~suspect_after:80 ()
  in
  let listeners =
    Array.init n (fun _ -> Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0)
  in
  let addrs =
    Array.map (fun (l : Net.Tcp_transport.listener) -> ("127.0.0.1", l.port))
      listeners
  in
  let handles =
    Array.init n (fun pid ->
        H.start ~listener:listeners.(pid)
          {
            (host_config ~fallback ~pid ~shards:2 ~addrs params) with
            Shard.Host.sync =
              Some
                (Sync.Config.make ~interval_us:20_000 ~d:params.Core.Params.d
                   ~u:params.Core.Params.u ());
            chaos =
              (match
                 Fault.Fault_plan.compile ~seed:3 ~spec:"spike(3ms)%1"
               with
              | Ok plan -> Some plan
              | Error e -> Alcotest.failf "plan: %s" e);
          })
  in
  Array.iteri
    (fun i (_, port) ->
      match Kcl.connect ~host:"127.0.0.1" ~port () with
      | Error e -> Alcotest.failf "client connect: %s" e
      | Ok c ->
          (match Kcl.invoke ~shard:(i mod 2) c (Spec.Kv_map.Put (i, i)) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "put: %s" e);
          Kcl.close c)
    addrs;
  Prelude.Mclock.sleep_us 100_000;
  let during = count "/proc/self/task" in
  Array.iter (fun h -> ignore (H.stop h)) handles;
  Alcotest.(check int) "one loop thread per host while running" (tasks0 + n)
    during;
  Alcotest.(check int) "threads after stop" tasks0 (settled "/proc/self/task");
  Alcotest.(check int) "descriptors after stop" fds0 (count "/proc/self/fd")

(* A host's chaos fates are its shards' drivers' own: a two-host pair
   with two shards, shard 0 losing every send ([drop(100)%0]) and shard
   1's sends parked 2 ms ([spike(2ms)%1]).  Both shards answer every
   invoke; host 1 reads every shard-1 write made on host 0 (the delayed
   entries reached it) and none of shard 0's; and host 0's [Stats] reply
   counts each shard-0 loss as both sent and dropped. *)
let test_host_chaos_fates () =
  let n = 2 and shards = 2 and puts = 4 in
  let params = Core.Params.make ~n ~d:7000 ~u:5500 ~eps:0 ~x:0 () in
  let plan =
    match
      Fault.Fault_plan.compile ~seed:5 ~spec:"drop(100)%0;spike(2ms)%1"
    with
    | Ok plan -> plan
    | Error e -> Alcotest.failf "plan: %s" e
  in
  let listeners =
    Array.init n (fun _ -> Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0)
  in
  let addrs =
    Array.map (fun (l : Net.Tcp_transport.listener) -> ("127.0.0.1", l.port))
      listeners
  in
  let handles =
    Array.init n (fun pid ->
        H.start ~listener:listeners.(pid)
          {
            (host_config ~pid ~shards ~addrs params) with
            Shard.Host.chaos = Some plan;
          })
  in
  let conns =
    Array.map
      (fun (_, port) ->
        match Kcl.connect ~host:"127.0.0.1" ~port () with
        | Ok c -> c
        | Error e -> Alcotest.failf "client connect: %s" e)
      addrs
  in
  let invoke pid shard op =
    match Kcl.invoke ~shard conns.(pid) op with
    | Ok r -> r
    | Error e -> Alcotest.failf "shard %d on host %d: %s" shard pid e
  in
  for key = 1 to puts do
    for shard = 0 to shards - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "put %d on shard %d answered" key shard)
        true
        (invoke 0 shard (Spec.Kv_map.Put (key, (10 * key) + shard))
        = Spec.Kv_map.Ack)
    done
  done;
  for key = 1 to puts do
    Alcotest.(check bool)
      (Printf.sprintf "shard 1's delayed put %d reached host 1" key)
      true
      (invoke 1 1 (Spec.Kv_map.Get key) = Spec.Kv_map.Found ((10 * key) + 1));
    Alcotest.(check bool)
      (Printf.sprintf "shard 0's lost put %d never did" key)
      true
      (invoke 1 0 (Spec.Kv_map.Get key) = Spec.Kv_map.Absent)
  done;
  let stats =
    match Kcl.stats conns.(0) with
    | Ok s -> s
    | Error e -> Alcotest.failf "stats: %s" e
  in
  Alcotest.(check int) "dropped: one loss per shard-0 put" puts
    stats.Runtime.Transport_intf.dropped;
  Alcotest.(check int) "sent: the losses and the delayed entries" (2 * puts)
    stats.Runtime.Transport_intf.sent;
  Array.iter Kcl.close conns;
  let answered = Array.map (fun h -> fst (H.stop h)) handles in
  Alcotest.(check (array (array int))) "every invoke answered per shard"
    [| [| puts; puts |]; [| puts; puts |] |]
    answered

(* ---- the supervisor's exit-status wording ---- *)

let test_status_names_signals () =
  Alcotest.(check string) "SIGKILL by name" "killed by SIGKILL"
    (Shard.Cluster.status_string (Unix.WSIGNALED Sys.sigkill));
  Alcotest.(check string) "SIGTERM by name" "killed by SIGTERM"
    (Shard.Cluster.status_string (Unix.WSIGNALED Sys.sigterm));
  Alcotest.(check string) "exit code" "exited 2"
    (Shard.Cluster.status_string (Unix.WEXITED 2))

(* ---- the TCP driver against in-process hosts ---- *)

(* [k] listeners on consecutive loopback ports, as [Cluster.run] addresses
   its replicas: the first base port (from a scan) where all of them bind. *)
let consecutive_listeners k =
  let rec from base =
    if base > 60_000 then Alcotest.fail "no run of free consecutive ports";
    let rec bind i acc =
      if i = k then Some (Array.of_list (List.rev acc))
      else
        match Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:(base + i) with
        | l -> bind (i + 1) (l :: acc)
        | exception Unix.Unix_error _ ->
            List.iter
              (fun (l : Net.Tcp_transport.listener) ->
                Unix.close l.Net.Tcp_transport.listen_fd)
              acc;
            None
    in
    match bind 0 [] with Some ls -> (base, ls) | None -> from (base + k)
  in
  from (20_000 + (Unix.getpid () mod 1000 * 30))

(* [Cluster.run ~spawn:false] drives three in-process hosts over real
   sockets: every op completes, none fails, and every shard that saw
   traffic, and so the namespace, verdicts LINEARIZABLE. *)
let cluster_drives_hosts ~shards source () =
  let n = 3 and d = 2000 and u = 500 and slack = 5000 in
  let eps = Core.Params.optimal_eps ~n ~u in
  let params =
    Core.Params.make ~n ~d:(d + slack) ~u:(u + slack) ~eps ~x:0 ()
  in
  let base_port, listeners = consecutive_listeners n in
  let addrs = Array.init n (fun i -> ("127.0.0.1", base_port + i)) in
  let handles =
    Array.init n (fun pid ->
        H.start ~listener:listeners.(pid)
          (host_config ~pid ~shards ~addrs params))
  in
  let ops = 72 in
  let r =
    Fun.protect
      ~finally:(fun () -> Array.iter (fun h -> ignore (H.stop h)) handles)
      (fun () ->
        Shard.Cluster.Kv.run ~spawn:false ~n ~source ~d ~u ~eps ~slack
          ~base_port ~ops ~seed:5 ())
  in
  Alcotest.(check int) "every op completed" ops r.Shard.Cluster.completed;
  Alcotest.(check int) "no op failed" 0 r.Shard.Cluster.failed;
  Alcotest.(check (option string)) "not aborted" None r.Shard.Cluster.aborted;
  let linearizable = function
    | Runtime.Loadgen.Linearizable _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "namespace LINEARIZABLE" true
    (linearizable r.Shard.Cluster.verdict);
  Alcotest.(check int) "the shard reports cover every op" ops
    (List.fold_left
       (fun acc (s : Runtime.Loadgen.shard_report) -> acc + s.shard_ops)
       0 r.Shard.Cluster.per_shard);
  List.iter
    (fun (s : Runtime.Loadgen.shard_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d LINEARIZABLE" s.shard)
        true
        (s.shard_ops > 0 && linearizable s.shard_verdict))
    r.Shard.Cluster.per_shard

let test_cluster_object_mix =
  cluster_drives_hosts ~shards:1
    (Shard.Cluster.Kv.object_source ~n:3 ~mix:(50, 40, 10))

let test_cluster_zipf =
  cluster_drives_hosts ~shards:4
    (Shard.Cluster.zipf_source ~n:3 ~shards:4 ~keys:1000 ~theta:0.99
       ~vnodes:16 ~ring_seed:42 ~mix:(50, 40, 10))

(* Children that die at start-up end the run at once — the readiness
   connects do not outwait them — and the run leaves SIGCHLD as it found
   it. *)
let test_cluster_child_death_aborts () =
  let base_port, listeners = consecutive_listeners 3 in
  Array.iter
    (fun (l : Net.Tcp_transport.listener) ->
      Unix.close l.Net.Tcp_transport.listen_fd)
    listeners;
  let before = Sys.signal Sys.sigchld Sys.Signal_default in
  let t0 = Unix.gettimeofday () in
  let r =
    Shard.Cluster.Kv.run ~exe:"false" ~n:3
      ~source:(Shard.Cluster.Kv.object_source ~n:3 ~mix:(50, 40, 10))
      ~d:2000 ~u:500 ~base_port ~ops:24 ~seed:1 ()
  in
  let took = Unix.gettimeofday () -. t0 in
  let after = Sys.signal Sys.sigchld before in
  Alcotest.(check bool) "SIGCHLD disposition restored" true
    (after = Sys.Signal_default);
  let named =
    match r.Shard.Cluster.aborted with
    | Some why ->
        Scanf.sscanf_opt why "replica %d exited 1 mid-run%!" (fun i ->
            i >= 0 && i < 3)
        = Some true
    | None -> false
  in
  Alcotest.(check bool)
    (Printf.sprintf "aborted names the exit (%s)"
       (Option.value r.Shard.Cluster.aborted ~default:"not aborted"))
    true named;
  Alcotest.(check bool)
    (Printf.sprintf "returned at once (%.1f s)" took)
    true (took < 3.0)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "shard"
    [
      ( "ring",
        qsuite
          [
            balance_prop;
            add_remap_prop;
            remove_remap_prop;
            order_independent_prop;
          ]
        @ [ Alcotest.test_case "validation" `Quick test_ring_validation ] );
      ( "directory",
        [
          Alcotest.test_case "pure resolution, full replication" `Quick
            test_directory_pure;
        ] );
      ( "fault-scope",
        [
          Alcotest.test_case "%shard projection" `Quick test_plan_shard_scope;
          Alcotest.test_case "%shard parse errors" `Quick
            test_plan_shard_parse_errors;
        ] );
      ( "zipf",
        [ Alcotest.test_case "skewed head, uniform at 0" `Quick test_zipf_shape ] );
      ( "host",
        [
          Alcotest.test_case "in-process 3-replica 4-shard cluster" `Quick
            test_host_cluster_in_process;
          Alcotest.test_case "logs suspicion of a peer never started" `Quick
            test_host_logs_suspicion;
          Alcotest.test_case "drops a frame tagged past its shard count"
            `Quick test_host_drops_out_of_range_shard;
          Alcotest.test_case "answers pipelined invokes in order" `Quick
            test_host_pipelined_invokes;
          Alcotest.test_case "one loop cycle per request" `Quick
            test_host_one_cycle_per_request;
          Alcotest.test_case "a traced loop drains while it serves" `Quick
            test_host_traced_drains_while_running;
          Alcotest.test_case "a non-reading client cannot stall the replica"
            `Quick test_host_non_reading_client_cannot_stall;
          Alcotest.test_case "stop answers an in-flight invoke" `Quick
            test_host_stop_answers_inflight;
          Alcotest.test_case "a fault's losses and delays per shard" `Quick
            test_host_chaos_fates;
          Alcotest.test_case "start and stop leak no thread or descriptor"
            `Quick test_host_stop_leaks_nothing;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "exit statuses name their signal" `Quick
            test_status_names_signals;
          Alcotest.test_case "drives hosts with the object mix" `Quick
            test_cluster_object_mix;
          Alcotest.test_case "drives hosts with zipfian shards" `Quick
            test_cluster_zipf;
          Alcotest.test_case "a child dying at start-up aborts" `Quick
            test_cluster_child_death_aborts;
        ] );
    ]
