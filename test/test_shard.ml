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
  let start_us = Some (Prelude.Mclock.now_us ()) in
  let handles =
    Array.init n (fun pid ->
        H.start ~listener:listeners.(pid)
          {
            Shard.Host.pid;
            shards;
            addrs;
            params;
            offset = pid * 100;
            start_us;
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
      let records, stats = H.stop h in
      Alcotest.(check bool) "host recorded ops on some shard" true
        (Array.exists (fun per_shard -> per_shard <> []) records);
      Alcotest.(check bool) "host transport sent messages" true
        (stats.Runtime.Transport_intf.sent > 0))
    handles

(* A bound-then-closed port: connects to it are refused, as to a replica
   that never started. *)
let dead_port () =
  let l = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  Unix.close l.Net.Tcp_transport.listen_fd;
  l.Net.Tcp_transport.port

let host_config ?(offset = 0) ?start_us ?fallback ?(log = fun _ -> ()) ~pid
    ~shards ~addrs params =
  {
    Shard.Host.pid;
    shards;
    addrs;
    params;
    offset;
    start_us;
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
  let fallback =
    {
      Quorum.Config.default with
      Quorum.Config.hb_us = 2_500;
      suspect_after = 20;
    }
  in
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
  let start_us = Some t0 in
  let handles =
    Array.init 2 (fun pid ->
        H.start ~listener:listeners.(pid)
          (host_config ?start_us ~fallback ~log ~pid ~shards:1 ~addrs params))
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

(* The reader threads index a shard's mailbox by the frame's shard tag; a
   frame tagged past the host's shard count must be dropped by the decode
   range check — the connection keeps flowing (a later valid frame on it
   still lands) and clients keep being answered. *)
let test_host_drops_out_of_range_shard () =
  let module C = Net.Codec.Make (Net.Wire.Kv_codec) in
  let module Cl = Net.Client.Make (Net.Wire.Kv_wired) in
  let n = 2 and shards = 4 in
  let params = Core.Params.make ~n ~d:7000 ~u:5500 ~eps:0 ~x:0 () in
  let listener = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let port = listener.Net.Tcp_transport.port in
  let addrs = [| ("127.0.0.1", port); ("127.0.0.1", dead_port ()) |] in
  let t0 = Prelude.Mclock.now_us () in
  let handle =
    H.start ~listener
      (host_config ~start_us:t0 ~pid:0 ~shards ~addrs params)
  in
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
           time = Prelude.Mclock.now_us () - t0;
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

(* ---- the supervisor's exit-status wording ---- *)

let test_status_names_signals () =
  Alcotest.(check string) "SIGKILL by name" "killed by SIGKILL"
    (Shard.Cluster.status_string (Unix.WSIGNALED Sys.sigkill));
  Alcotest.(check string) "SIGTERM by name" "killed by SIGTERM"
    (Shard.Cluster.status_string (Unix.WSIGNALED Sys.sigterm));
  Alcotest.(check string) "exit code" "exited 2"
    (Shard.Cluster.status_string (Unix.WEXITED 2))

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
        ] );
      ( "cluster",
        [
          Alcotest.test_case "exit statuses name their signal" `Quick
            test_status_names_signals;
        ] );
    ]
