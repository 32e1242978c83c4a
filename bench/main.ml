(** Benchmark harness: one Bechamel test per reproduced table/figure.

    Two things happen here:

    1. every experiment of the registry (Tables I–IV, Figures 1/3/4-5,
       Theorems C.1/D.1/E.1, the clock-sync substrate, the X trade-off and
       the baseline comparison) is run once and its report — the rows/series
       the paper publishes — is printed;
    2. each experiment is then benchmarked under Bechamel (wall-clock per
       full run-family execution), demonstrating that regenerating the
       paper's entire evaluation costs milliseconds of simulated-adversary
       time.

    Latency numbers inside the reports are *simulated ticks* — exact by
    construction — so "paper vs measured" is about shape identity, not
    wall-clock. *)

open Bechamel
open Toolkit

let reports () =
  List.map
    (fun (e : Experiments.Registry.entry) -> e.run ())
    (Experiments.Registry.all ())

let tests =
  List.map
    (fun (e : Experiments.Registry.entry) ->
      Test.make ~name:e.id (Staged.stage (fun () -> ignore (e.run ()))))
    (Experiments.Registry.all ())

(* Raw engine throughput: one full 5-process, 15-operation simulated run of
   Algorithm 1 per iteration, per data type — how much simulated work a
   host-second buys. *)
module Throughput (D : Spec.Data_type.SAMPLED) = struct
  module Alg = Core.Algorithm1.Make (D)
  module Engine = Sim.Engine.Make (Alg)

  let n = 5
  let params = Core.Params.make ~n ~d:1200 ~u:400 ~eps:320 ~x:0 ()

  let script =
    List.concat_map
      (fun pid ->
        List.mapi
          (fun i op -> Sim.Workload.at pid op ((pid * 150) + (i * 2000)))
          (List.filteri (fun i _ -> i < 3) D.sample_ops))
      [ 0; 1; 2; 3; 4 ]

  let test =
    Test.make
      ~name:("engine-" ^ D.name)
      (Staged.stage (fun () ->
           ignore
             (Engine.run ~config:params ~n ~offsets:[| 0; 80; 160; 240; 320 |]
                ~delay:(Sim.Delay.constant 1000) script)))
end

module T_reg = Throughput (Spec.Register)
module T_queue = Throughput (Spec.Fifo_queue)
module T_stack = Throughput (Spec.Lifo_stack)
module T_tree = Throughput (Spec.Rooted_tree)
module T_bst = Throughput (Spec.Bst)
module T_kv = Throughput (Spec.Kv_map)

(* Linearizability-checker cost on a highly concurrent history: 18 mutually
   overlapping register operations — the memoized Wing–Gong search must stay
   polynomial-ish in practice. *)
module Lin_bench = struct
  module L = Linearize.Make (Spec.Register)

  let history : L.entry list =
    List.init 18 (fun i ->
        let pid = i mod 6 in
        let base = 100 * (i / 6) in
        {
          L.pid;
          op = (if i mod 3 = 0 then Spec.Register.Write i
                else if i mod 3 = 1 then Spec.Register.Rmw i
                else Spec.Register.Read);
          result =
            (if i mod 3 = 0 then Spec.Register.Ack else Spec.Register.Value 0);
          invoke = base;
          response = base + 5000 (* everything overlaps *);
        })

  let test =
    Test.make ~name:"wing-gong-18-concurrent"
      (Staged.stage (fun () -> ignore (L.check history)))
end

let throughput_tests =
  [
    T_reg.test;
    T_queue.test;
    T_stack.test;
    T_tree.test;
    T_bst.test;
    T_kv.test;
    Lin_bench.test;
  ]

(* Live-runtime group: Algorithm 1's live replicas in one process, on the
   virtual-time loop.  One full closed-loop run — cluster set-up, 48 ops
   over the delayed links, post-hoc linearizability check — per
   iteration, plus the histogram hot path on its own.  The designed holds
   cost nothing in virtual time, so the run entry times CPU only. *)
module Live_bench = struct
  module Gen = Runtime.Loadgen.Make (Runtime.Workloads.Register_live)

  let run_test =
    Test.make ~name:"live-register-n3-48ops-vt"
      (Staged.stage (fun () ->
           ignore
             (Gen.run ~n:3 ~d:300 ~u:100 ~slack:2000 ~round:48 ~ops:48 ~seed:7
                ())))

  let hist_test =
    Test.make ~name:"histogram-add-10k"
      (Staged.stage (fun () ->
           let h = Runtime.Histogram.create () in
           for i = 1 to 10_000 do
             Runtime.Histogram.add h (i * 17 mod 100_000)
           done;
           ignore (Runtime.Histogram.percentile h 99.)))
end

(* The same n = 3, 48-op register workload driven through the replica
   core under [Sim.Engine], the paper-model reference: the core's code and
   the post-hoc check, without the driver, the links or the load
   generator's rounds.  Parameters, mix,
   offsets and delay range follow [Loadgen.run] with the live entry's
   arguments: three closed-loop clients of 16 ops each. *)
module Core_sim_bench = struct
  module C = Runtime.Replica_core.Make (Spec.Register)
  module E = Sim.Engine.Make (C)
  module Lin = Linearize.Make (Spec.Register)
  module L = Runtime.Workloads.Register_live

  let run () =
    let n = 3 and d = 300 and u = 100 and slack = 2000 in
    let eps = Core.Params.optimal_eps ~n ~u in
    let params = Core.Params.make ~n ~d:(d + slack) ~u:(u + slack) ~eps () in
    let rng = Prelude.Rng.make 7 in
    let rng_delay, rng = Prelude.Rng.split rng in
    let offsets =
      Array.init n (fun i ->
          if i = 0 then 0 else Prelude.Rng.int_in rng ~lo:0 ~hi:eps)
    in
    let draw () =
      match Prelude.Rng.int rng 100 with
      | k when k < 50 -> L.sample_mutator rng
      | k when k < 90 -> L.sample_accessor rng
      | _ -> L.sample_other rng
    in
    let script =
      List.concat_map
        (fun pid ->
          Sim.Workload.seq pid 0 (List.init 16 (fun _ -> C.call (draw ()))))
        (List.init n Fun.id)
    in
    let out =
      E.run
        ~config:
          { C.params; recovery = None; fallback = None; sync = None;
            dedup_window_us = max_int }
        ~n ~offsets
        ~delay:(Sim.Delay.random rng_delay ~d ~u)
        script
    in
    let entries =
      List.filter_map
        (fun (r : (C.call, C.reply) Sim.Trace.op_record) ->
          match (r.result, r.response_real) with
          | Some { outcome = C.Done result; _ }, Some response ->
              Some
                { Lin.pid = r.pid; op = r.op.op; result;
                  invoke = r.invoke_real; response }
          | _ -> None)
        out.trace.ops
    in
    assert (List.length entries = 48);
    assert (Lin.is_linearizable (Lin.check entries))

  let test =
    Test.make ~name:"core-register-n3-48ops-sim" (Staged.stage run)
end

let runtime_tests =
  [ Core_sim_bench.test; Live_bench.run_test; Live_bench.hist_test ]

(* Wire-codec group: cost of putting Algorithm 1 entries on the wire.  The
   TCP transport encodes every broadcast entry once per peer and CRCs the
   whole frame, so encode+decode throughput bounds the message rate a
   replica can sustain before the codec — not the network — is the
   bottleneck. *)
module Codec_bench = struct
  module C = Net.Codec.Make (Net.Wire.Kv_codec)

  let entries =
    List.init 64 (fun i ->
        C.Entry
          {
            op = Spec.Kv_map.Put (i mod 16, i * 17);
            time = i * 997;
            pid = i mod 5;
            trace = i * 1_048_583;
            op_id = i + 1;
            shard = i mod 8;
          })

  let blob = String.concat "" (List.map C.encode entries)

  let encode_test =
    Test.make ~name:"codec-encode-64-entries"
      (Staged.stage (fun () -> List.iter (fun m -> ignore (C.encode m)) entries))

  let decode_test =
    Test.make ~name:"codec-decode-64-entries"
      (Staged.stage (fun () ->
           let rec go pos =
             if pos < String.length blob then
               match C.decode ~pos blob with
               | Net.Codec.Got (_, next) -> go next
               | Net.Codec.Need_more _ | Net.Codec.Corrupt _ ->
                   failwith "codec bench: blob must decode cleanly"
           in
           go 0))

  let crc_test =
    let payload = String.make 4096 '\x5a' in
    Test.make ~name:"crc32-4k"
      (Staged.stage (fun () ->
           ignore (Prelude.Crc32.string payload)))
end

let codec_tests = [ Codec_bench.encode_test; Codec_bench.decode_test; Codec_bench.crc_test ]

(* Fault group: what the chaos layer costs.  [Fault_plan.decide] sits on
   every send of a chaos-wrapped transport, so its throughput bounds the
   message rate a faulted cluster can sustain; the full chaos run prices a
   complete faulted experiment — cluster, injected drops/delays, post-hoc
   linearizability check and assumption-monitor correlation. *)
module Fault_bench = struct
  let plan =
    match
      Fault.Fault_plan.compile ~seed:41 ~spec:"drop(10);jitter(300us);dup(5)"
    with
    | Ok p -> p
    | Error e -> failwith e

  let decide_test =
    Test.make ~name:"fault-decide-10k"
      (Staged.stage (fun () ->
           for i = 1 to 10_000 do
             ignore
               (Fault.Fault_plan.decide plan ~now_us:(i * 50) ~src:(i mod 3)
                  ~dst:((i + 1) mod 3) ~index:i)
           done))

  let compile_test =
    Test.make ~name:"fault-compile-plan"
      (Staged.stage (fun () ->
           ignore
             (Fault.Fault_plan.compile ~seed:41
                ~spec:
                  "drop(30)/0>1@0.2s-0.6s;spike(3ms);crash(1)@0.4s;restart(1)@0.9s")))

  let chaos_run_test =
    Test.make ~name:"chaos-register-n3-48ops-vt"
      (Staged.stage (fun () ->
           ignore
             (Fault.Chaos_run.run ~workload:Runtime.Workloads.register ~n:3
                ~d:300 ~u:100 ~slack:2000 ~round:48 ~plan ~ops:48 ~seed:7 ())))
end

let fault_tests =
  [ Fault_bench.decide_test; Fault_bench.compile_test; Fault_bench.chaos_run_test ]

(* Obs group: what tracing costs.  [recorder-emit-10k] prices the hot path
   (one CAS + two stores per event) and the drain at [stop]; the encode/decode
   pair prices the binary trace format; and the traced/untraced live-run
   pair measures the end-to-end overhead of recording a full closed-loop
   run — the delta is the number EXPERIMENTS.md quotes. *)
module Obs_bench = struct
  module Gen = Runtime.Loadgen.Make (Runtime.Workloads.Register_live)

  let emit_test =
    Test.make ~name:"recorder-emit-10k"
      (Staged.stage (fun () ->
           let r = Obs.Recorder.start ~epoch_us:0 ~sink:(fun _ -> ()) () in
           Obs.Recorder.install r;
           for i = 1 to 10_000 do
             Obs.Recorder.emit ~pid:(i mod 3) ~kind:Obs.Event.Send ~trace:i
               ~a:(i mod 5) ()
           done;
           Obs.Recorder.uninstall ();
           Obs.Recorder.stop r))

  let events =
    List.init 1_000 (fun i ->
        {
          Obs.Event.t_us = i * 137;
          pid = i mod 3;
          kind = (if i mod 2 = 0 then Obs.Event.Send else Obs.Event.Deliver);
          trace = i * 524_309;
          a = i mod 7;
          b = i mod 11;
        })

  let blob =
    let b = Buffer.create 4096 in
    List.iter (Obs.Event.encode b) events;
    Buffer.contents b

  let encode_test =
    Test.make ~name:"event-encode-1k"
      (Staged.stage (fun () ->
           let b = Buffer.create 4096 in
           List.iter (Obs.Event.encode b) events))

  let decode_test =
    Test.make ~name:"event-decode-1k"
      (Staged.stage (fun () ->
           let rec go pos =
             match Obs.Event.decode blob ~pos with
             | Some (_, next) -> go next
             | None -> ()
           in
           go 0))

  let live_untraced =
    Test.make ~name:"live-untraced-48ops-vt"
      (Staged.stage (fun () ->
           ignore
             (Gen.run ~n:3 ~d:300 ~u:100 ~slack:2000 ~round:48 ~ops:48 ~seed:7
                ())))

  let live_traced =
    Test.make ~name:"live-traced-48ops-vt"
      (Staged.stage (fun () ->
           let sink, _ = Obs.Recorder.memory_sink () in
           let r =
             Obs.Recorder.start ~epoch_us:(Prelude.Mclock.now_us ()) ~sink ()
           in
           Obs.Recorder.install r;
           ignore
             (Gen.run ~n:3 ~d:300 ~u:100 ~slack:2000 ~round:48 ~ops:48 ~seed:7
                ());
           Obs.Recorder.uninstall ();
           Obs.Recorder.stop r))
end

let obs_tests =
  [
    Obs_bench.emit_test;
    Obs_bench.encode_test;
    Obs_bench.decode_test;
    Obs_bench.live_untraced;
    Obs_bench.live_traced;
  ]

(* Durable group: what crash recovery costs.  The append trio prices the
   fsync policy choice — [always] sits on every mutation's apply path, so
   its per-record cost is the headline durability tax EXPERIMENTS.md
   quotes; [interval]/[never] show what the bounded-loss settings buy
   back.  Replay and snapshot-write price the two halves of recovery
   time. *)
module Durable_bench = struct
  let records = List.init 256 (fun i -> Printf.sprintf "record-%d-%s" i (String.make (i mod 32) 'x'))

  let dir = Filename.get_temp_dir_name ()

  let append_test name fsync =
    Test.make ~name
      (Staged.stage (fun () ->
           let path =
             Filename.concat dir
               (Printf.sprintf "tb-bench-wal-%d.log" (Unix.getpid ()))
           in
           let w = Durable.Wal.create ~path ~fsync in
           List.iter (Durable.Wal.append w) records;
           Durable.Wal.close w;
           try Sys.remove path with Sys_error _ -> ()))

  let blob =
    let b = Buffer.create 8192 in
    List.iter (Durable.Wal.encode_record b) records;
    Buffer.contents b

  let replay_test =
    Test.make ~name:"wal-replay-256"
      (Staged.stage (fun () -> ignore (Durable.Wal.of_string blob)))

  let snapshot_test =
    Test.make ~name:"snapshot-write-8k"
      (Staged.stage
         (let payload = String.make 8192 '\x42' in
          fun () ->
            let path =
              Filename.concat dir
                (Printf.sprintf "tb-bench-snap-%d.snap" (Unix.getpid ()))
            in
            Durable.Snapshot.write ~path payload;
            try Sys.remove path with Sys_error _ -> ()))
end

let durable_tests =
  [
    Durable_bench.append_test "wal-append-256-fsync-always" Durable.Wal.Always;
    Durable_bench.append_test "wal-append-256-fsync-interval"
      (Durable.Wal.Interval 5_000);
    Durable_bench.append_test "wal-append-256-fsync-never" Durable.Wal.Never;
    Durable_bench.replay_test;
    Durable_bench.snapshot_test;
  ]

(* Shard group: the sharded namespace's hot paths.  [ring-route] and
   [directory-locate] sit on every client invocation of a sharded cluster
   (pure hashing + binary search — no directory service round-trip), and
   [zipf-sample] on every loadgen draw; their throughput bounds the op
   rate one client domain can source.  The aggregate/per-shard numbers a
   `timebounds shards` run reports come from a cluster of these plus the
   usual replica machinery. *)
module Shard_bench = struct
  let ring =
    Shard.Ring.make ~vnodes:64 ~seed:42 ~members:(List.init 64 Fun.id) ()

  let dir = Shard.Directory.make ~vnodes:64 ~seed:42 ~shards:64 ~n:5 ()
  let zipf = Runtime.Workloads.Zipf.make ~n:1_000_000 ~theta:0.99

  let route_test =
    Test.make ~name:"ring-route-10k"
      (Staged.stage (fun () ->
           for i = 1 to 10_000 do
             ignore (Shard.Ring.route ring (i * 2654435761))
           done))

  let locate_test =
    Test.make ~name:"directory-locate-10k"
      (Staged.stage (fun () ->
           for i = 1 to 10_000 do
             ignore (Shard.Directory.locate dir ~key:(i * 40503))
           done))

  let zipf_test =
    Test.make ~name:"zipf-sample-10k"
      (Staged.stage (fun () ->
           let rng = Prelude.Rng.make 7 in
           for _ = 1 to 10_000 do
             ignore (Runtime.Workloads.Zipf.sample zipf rng)
           done))

  let rebuild_test =
    Test.make ~name:"ring-add-member-64x64"
      (Staged.stage (fun () -> ignore (Shard.Ring.add ring 64)))
end

let shard_tests =
  [
    Shard_bench.route_test;
    Shard_bench.locate_test;
    Shard_bench.zipf_test;
    Shard_bench.rebuild_test;
  ]

(* Quorum group: what the adaptive fallback costs.  The failure detector
   and mode controller sit on every heartbeat, the ordered-commit log on
   every degraded-mode operation; the live pair prices the two regimes
   EXPERIMENTS.md quotes — the same closed-loop run with the fallback
   armed but nobody dead (fast path, response gate up) vs pinned in
   quorum mode by a permanent kill. *)
module Quorum_bench = struct
  let fd_test =
    Test.make ~name:"fd-heard-tick-10k"
      (Staged.stage (fun () ->
           let fd =
             Quorum.Failure_detector.make ~n:5 ~me:0 ~hb_us:1_000
               ~suspect_after:10 ~now_us:0
           in
           for i = 1 to 10_000 do
             ignore
               (Quorum.Failure_detector.heard fd ~peer:(1 + (i mod 4))
                  ~stamp:i ~now_us:(i * 10));
             ignore (Quorum.Failure_detector.tick fd ~now_us:(i * 10))
           done))

  let mc_test =
    Test.make ~name:"mode-era-cycle-10k"
      (Staged.stage (fun () ->
           let mc = Quorum.Mode_controller.make ~n:3 ~me:0 in
           for i = 1 to 10_000 do
             ignore (Quorum.Mode_controller.initiate_quorum mc);
             ignore (Quorum.Mode_controller.initiate_fast mc ~floor:i);
             ignore
               (Quorum.Mode_controller.observe mc
                  ~epoch:(Quorum.Mode_controller.epoch mc)
                  ~quorum:false ~seq:0 ~floor:i)
           done))

  let log_test =
    Test.make ~name:"log-commit-drain-1k"
      (Staged.stage (fun () ->
           let log = Quorum.Log.create ~n:3 ~epoch:1 in
           for i = 0 to 999 do
             let qseq = Quorum.Log.append log ~me:0 i in
             if Quorum.Log.ack log ~qseq ~from:1 then
               Quorum.Log.commit log ~qseq;
             ignore (Quorum.Log.applyable log)
           done))

  let fallback =
    { Quorum.Config.default with hb_us = 2_000; suspect_after = 15 }

  let inert =
    match Fault.Fault_plan.compile ~seed:11 ~spec:"drop(0)" with
    | Ok p -> p
    | Error e -> failwith e

  let kill =
    match Fault.Fault_plan.compile ~seed:11 ~spec:"crash(2)@1ms" with
    | Ok p -> p
    | Error e -> failwith e

  let live_fast =
    Test.make ~name:"fallback-fast-path-48ops-vt"
      (Staged.stage (fun () ->
           ignore
             (Fault.Chaos_run.run ~workload:Runtime.Workloads.register ~n:3
                ~d:300 ~u:100 ~slack:2000 ~round:48 ~fallback ~plan:inert
                ~ops:48 ~seed:7 ())))

  let live_quorum =
    Test.make ~name:"fallback-quorum-mode-48ops-vt"
      (Staged.stage (fun () ->
           ignore
             (Fault.Chaos_run.run ~workload:Runtime.Workloads.register ~n:3
                ~d:300 ~u:100 ~slack:2000 ~round:48 ~fallback ~plan:kill
                ~ops:48 ~seed:7 ())))
end

let quorum_tests =
  [
    Quorum_bench.fd_test;
    Quorum_bench.mc_test;
    Quorum_bench.log_test;
    Quorum_bench.live_fast;
    Quorum_bench.live_quorum;
  ]

(* Sync group: what earning ε over the wire costs.  The estimator sits on
   every heartbeat piggyback and probe echo, the slewed clock under every
   timestamp the replica draws, and the probe frames ride the same codec
   hot path as entries; [sync-live-3x10rounds-vt] prices a full in-process
   convergence on the virtual-time loop — three ±2 ms-skewed replicas, ten
   probe rounds. *)
module Sync_bench = struct
  module C = Net.Codec.Make (Net.Wire.Kv_codec)

  let probe_codec_test =
    let pong =
      C.Pong { seq = 7; t0 = 123_456; t_rx = 123_956; t_tx = 123_970; shard = 0 }
    in
    Test.make ~name:"sync-probe-roundtrip"
      (Staged.stage (fun () ->
           match C.decode (C.encode pong) with
           | Net.Codec.Got _ -> ()
           | Net.Codec.Need_more _ | Net.Codec.Corrupt _ ->
               failwith "sync bench: pong frame must roundtrip"))

  let estimator_test =
    Test.make ~name:"estimator-observe-round-1k"
      (Staged.stage (fun () ->
           let est = Sync.Estimator.create ~n:5 ~me:0 () in
           for i = 1 to 1_000 do
             let now = i * 100 in
             Sync.Estimator.observe_two_way est ~peer:(1 + (i mod 4)) ~now
               ~t0:(now - 400) ~t1:now ~t_rx:(now - 150) ~t_tx:(now - 140);
             ignore (Sync.Estimator.correction est);
             ignore (Sync.Estimator.achieved_eps est ~now)
           done))

  let clock_test =
    Test.make ~name:"clock-read-slew-10k"
      (Staged.stage (fun () ->
           let clk = Sync.Clock.create () in
           for i = 1 to 10_000 do
             if i mod 100 = 0 then
               Sync.Clock.adjust clk ~delta:((i mod 7) - 3);
             ignore (Sync.Clock.read clk ~now:(i * 13))
           done))

  let live_test =
    Test.make ~name:"sync-live-3x10rounds-vt"
      (Staged.stage (fun () ->
           let n = 3 in
           let params =
             Core.Params.make ~n ~d:2_000 ~u:500 ~eps:4_000 ~x:0 ()
           in
           let module V = Runtime.Vloop.Make (Spec.Register) in
           let v =
             V.create ~params
               ~policy:(Sim.Delay.random (Prelude.Rng.make 7) ~d:2_000 ~u:500)
               ~offsets:[| 2_000; 0; -2_000 |]
               ~sync:(Sync.Config.make ~interval_us:2_000 ~d:2_000 ~u:500 ())
               ()
           in
           V.run v ~until:(fun () ->
               Array.for_all
                 (fun h -> List.length h >= 10)
                 (V.sync_rounds v));
           ignore (V.stop v)))
end

let sync_tests =
  [
    Sync_bench.probe_codec_test;
    Sync_bench.estimator_test;
    Sync_bench.clock_test;
    Sync_bench.live_test;
  ]

let groups =
  [
    ("experiments", tests);
    ("throughput", throughput_tests);
    ("runtime", runtime_tests);
    ("codec", codec_tests);
    ("fault", fault_tests);
    ("obs", obs_tests);
    ("durable", durable_tests);
    ("shard", shard_tests);
    ("quorum", quorum_tests);
    ("sync", sync_tests);
  ]

let benchmark_group (name, group_tests) =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name group_tests)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Analyze.all ols Instance.monotonic_clock raw

(* Machine-readable results, one BENCH_<group>.json per group so CI can
   diff a single subsystem's numbers without parsing the whole log. *)
let rows_of_results results =
  Hashtbl.fold
    (fun name ols acc ->
      let est =
        match Analyze.OLS.estimates ols with Some [ e ] -> Some e | _ -> None
      in
      let r2 = Analyze.OLS.r_square ols in
      (name, est, r2) :: acc)
    results []
  |> List.sort compare

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_bench_json group results =
  let rows = rows_of_results results in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"group\": \"%s\", \"unit\": \"ns/run\", \"results\": ["
       (json_escape group));
  List.iteri
    (fun i (name, est, r2) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "{\"name\": \"%s\", \"ns_per_run\": %s, \"r2\": %s}"
           (json_escape name)
           (match est with
           | Some e when Float.is_finite e -> Printf.sprintf "%.1f" e
           | _ -> "null")
           (match r2 with
           | Some r when Float.is_finite r -> Printf.sprintf "%.4f" r
           | _ -> "null")))
    rows;
  Buffer.add_string b "]}";
  let json = Buffer.contents b in
  let path = Printf.sprintf "BENCH_%s.json" group in
  match Obs.Json.validate json with
  | Ok () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc json);
      Format.printf "  wrote %s@." path;
      true
  | Error e ->
      Format.eprintf "internal error: %s would not be valid JSON: %s@." path e;
      false

(* ---- regression gate (--check) ---- *)

(* The committed BENCH_<group>.json files are the baseline; [--check]
   re-runs the selected groups and fails on any test that got more than
   [--tolerance] percent slower (default 25%).  Faster is never a
   failure, and a test with no baseline entry (or a group with no
   baseline file) is reported as new, not failed — adding a bench must
   not require committing its numbers in the same change. *)

let find_sub s sub from =
  let ls = String.length sub and n = String.length s in
  let rec go i =
    if i + ls > n then None
    else if String.sub s i ls = sub then Some i
    else go (i + 1)
  in
  go from

(* Extract (name, ns_per_run) pairs from the fixed shape
   [write_bench_json] emits; entries whose estimate was null are
   skipped.  Bench names contain no JSON escapes, so a plain scan to the
   closing quote is exact. *)
let baseline_rows s =
  let n = String.length s in
  let rec go pos acc =
    match find_sub s "\"name\": \"" pos with
    | None -> List.rev acc
    | Some i -> (
        let start = i + 9 in
        match String.index_from_opt s start '"' with
        | None -> List.rev acc
        | Some stop -> (
            let name = String.sub s start (stop - start) in
            match find_sub s "\"ns_per_run\": " stop with
            | None -> List.rev acc
            | Some j ->
                let vstart = j + 14 in
                let vend = ref vstart in
                while
                  !vend < n
                  && (match s.[!vend] with
                     | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
                     | _ -> false)
                do
                  incr vend
                done;
                let acc =
                  if !vend = vstart then acc (* null estimate *)
                  else
                    match
                      float_of_string_opt
                        (String.sub s vstart (!vend - vstart))
                    with
                    | Some v -> (name, v) :: acc
                    | None -> acc
                in
                go (max (!vend) (stop + 1)) acc))
  in
  go 0 []

let check_group ~tolerance group results =
  let path = Printf.sprintf "BENCH_%s.json" group in
  if not (Sys.file_exists path) then begin
    Format.printf "  [%s] no baseline (%s missing) — group skipped@." group
      path;
    true
  end
  else begin
    let baseline =
      baseline_rows (In_channel.with_open_bin path In_channel.input_all)
    in
    let ok = ref true in
    List.iter
      (fun (name, est, _) ->
        match (est, List.assoc_opt name baseline) with
        | Some now, Some base when base > 0.0 ->
            let delta = ((now /. base) -. 1.0) *. 100.0 in
            let regressed = delta > tolerance in
            if regressed then ok := false;
            Format.printf "  %-9s %-36s %12.1f -> %12.1f ns/run (%+.1f%%)@."
              (if regressed then "REGRESSED" else "ok")
              name base now delta
        | Some _, Some _ | Some _, None ->
            Format.printf "  %-9s %-36s (no baseline entry)@." "new" name
        | None, _ ->
            Format.printf "  %-9s %-36s (no estimate)@." "?" name)
      (rows_of_results results);
    if not !ok then
      Format.printf "  [%s] REGRESSION past the %.0f%% tolerance@." group
        tolerance;
    !ok
  end

let usage () =
  Format.eprintf
    "usage: bench [--check] [--tolerance PCT] [group ...]@.groups: %s@."
    (String.concat ", " (List.map fst groups));
  exit 2

let () =
  (* With group names on the command line, run only those benchmark groups
     (and skip the paper-experiment sweep) — what CI uses to price a
     single subsystem without paying for the whole artifact run. *)
  let check_mode = ref false and tolerance = ref 25.0 in
  let rec parse_args args acc =
    match args with
    | [] -> List.rev acc
    | "--check" :: rest ->
        check_mode := true;
        parse_args rest acc
    | "--tolerance" :: v :: rest -> (
        match float_of_string_opt v with
        | Some t when t > 0.0 ->
            tolerance := t;
            parse_args rest acc
        | _ ->
            Format.eprintf "--tolerance wants a positive percentage, got %S@."
              v;
            usage ())
    | "--tolerance" :: [] -> usage ()
    | ("--help" | "-h") :: _ -> usage ()
    | w :: rest -> parse_args rest (w :: acc)
  in
  let wanted = parse_args (List.tl (Array.to_list Sys.argv)) [] in
  List.iter
    (fun w ->
      if not (List.mem_assoc w groups) then begin
        Format.eprintf "unknown bench group %S (have: %s)@." w
          (String.concat ", " (List.map fst groups));
        exit 2
      end)
    wanted;
  let selected =
    if wanted = [] then groups
    else List.filter (fun (g, _) -> List.mem g wanted) groups
  in
  if !check_mode then begin
    (* Regression gate: benchmark the selected groups and compare against
       the committed baselines; never rewrites them. *)
    Format.printf "=== Bench regression check (tolerance %.0f%%) ===@."
      !tolerance;
    let all_ok =
      List.fold_left
        (fun acc ((group, _) as g) ->
          let results = benchmark_group g in
          check_group ~tolerance:!tolerance group results && acc)
        true selected
    in
    if not all_ok then exit 1;
    Format.printf "=== No regressions past tolerance ===@.";
    exit 0
  end;
  let bad =
    if wanted <> [] then []
    else begin
      Format.printf "=== Paper artifacts (Tables I-IV, Figures 1-17) ===@.@.";
      let rs = reports () in
      List.iter (fun r -> Format.printf "%a@." Experiments.Report.pp r) rs;
      let bad = List.filter (fun (r : Experiments.Report.t) -> not r.ok) rs in
      Format.printf "=== Experiment verdicts: %d/%d OK%s ===@.@."
        (List.length rs - List.length bad)
        (List.length rs)
        (if bad = [] then ""
         else
           " (MISMATCH: "
           ^ String.concat ", "
               (List.map (fun (r : Experiments.Report.t) -> r.id) bad)
           ^ ")");
      bad
    end
  in
  Format.printf "=== Wall-clock cost per experiment (Bechamel OLS) ===@.";
  let json_ok = ref true in
  List.iter
    (fun ((group, _) as g) ->
      let results = benchmark_group g in
      List.iter
        (fun (name, est, r2) ->
          match est with
          | Some est ->
              Format.printf "  %-36s %10.3f ms/run (r²=%s)@." name (est /. 1e6)
                (match r2 with
                | Some r2 -> Printf.sprintf "%.3f" r2
                | None -> "n/a")
          | None -> Format.printf "  %-36s (no estimate)@." name)
        (rows_of_results results);
      if not (write_bench_json group results) then json_ok := false)
    selected;
  if bad <> [] || not !json_ok then exit 1
