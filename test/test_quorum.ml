(* The adaptive quorum fallback's own contract:

   - the failure detector grants boot grace, suspects only after
     [suspect_after] silent heartbeat intervals, and clears on any frame;
   - the mode controller's epoch discipline is "strictly higher wins":
     adoption is exactly once per era, floors are monotone, and the
     decision table matches DESIGN.md §13;
   - the release gate frees a response only on ack-or-horizon from every
     peer (acks count for pure mutators only), as a table and a qcheck
     property;
   - the ordered-commit log never drops or duplicates an acknowledged
     operation, however stores, acks and commits interleave (qcheck);
   - end to end, a healthy armed cluster frees writes on acks (MOP p50
     below d), and a permanent crash and a healed minority partition
     both leave the in-process cluster linearizable under [~fallback],
     with the mode switches the availability report expects. *)

let kv = Runtime.Workloads.kv_map

let plan_of spec ~seed =
  match Fault.Fault_plan.compile ~seed ~spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile %S: %s" spec e

(* ---- configuration ---- *)

(* A heartbeat period or a suspicion count below 1 is refused where the
   config is made: a zero period would re-arm the heartbeat at one clock
   value forever and divide by zero in the detector's tick. *)
let test_config_rejects_bad_timing () =
  let rejects what f =
    match f () with
    | (_ : Quorum.Config.t) -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "hb_us 0" (fun () -> Quorum.Config.make ~hb_us:0 ());
  rejects "hb_us -5" (fun () -> Quorum.Config.make ~hb_us:(-5) ());
  rejects "suspect_after 0" (fun () -> Quorum.Config.make ~suspect_after:0 ());
  let c = Quorum.Config.make ~hb_us:1 ~suspect_after:1 () in
  Alcotest.(check int) "1 × 1 µs accepted" 1 (Quorum.Config.timeout_us c);
  Alcotest.(check int) "the default's timeout" 100_000
    (Quorum.Config.timeout_us Quorum.Config.default)

(* ---- failure detector ---- *)

let test_fd_boot_grace_and_suspicion () =
  let module FD = Quorum.Failure_detector in
  let hb = 1_000 and after = 10 in
  let fd = FD.make ~n:3 ~me:0 ~hb_us:hb ~suspect_after:after ~now_us:0 in
  let timeout = hb * after in
  Alcotest.(check (list int)) "boot grace: no suspicion at one timeout" []
    (FD.tick fd ~now_us:timeout);
  Alcotest.(check bool) "all alive through the grace" true (FD.all_alive fd);
  (* peer 1 beats after the grace, peer 2 stays silent *)
  ignore (FD.heard fd ~peer:1 ~stamp:500 ~now_us:(timeout + hb));
  (match FD.tick fd ~now_us:(2 * timeout) with
  | [ 2 ] -> ()
  | l -> Alcotest.failf "expected [2] suspected, got %d pids" (List.length l));
  Alcotest.(check bool) "peer 2 suspected" true (FD.suspected fd 2);
  Alcotest.(check bool) "suspects_any" true (FD.suspects_any fd);
  Alcotest.(check int) "alive counts me and peer 1" 2 (FD.alive fd);
  Alcotest.(check int) "lowest alive is me" 0 (FD.lowest_alive fd);
  (* a frame clears the suspicion, exactly once *)
  Alcotest.(check bool) "heard clears" true
    (FD.heard fd ~peer:2 ~stamp:77 ~now_us:(2 * timeout));
  Alcotest.(check bool) "second frame is not a clear" false
    (FD.heard fd ~peer:2 ~stamp:78 ~now_us:(2 * timeout));
  Alcotest.(check bool) "no suspicion left" false (FD.suspects_any fd);
  (* frames from self are ignored *)
  Alcotest.(check bool) "self frames ignored" false
    (FD.heard fd ~peer:0 ~stamp:1 ~now_us:0)

let test_fd_knowledge_horizon () =
  let module FD = Quorum.Failure_detector in
  let fd = FD.make ~n:3 ~me:0 ~hb_us:1_000 ~suspect_after:5 ~now_us:0 in
  Alcotest.(check int) "no frames yet: horizon at min_int" min_int
    (FD.heard_stamp fd 2);
  ignore (FD.heard fd ~peer:1 ~stamp:300 ~now_us:10);
  ignore (FD.heard fd ~peer:2 ~stamp:120 ~now_us:10);
  Alcotest.(check (pair int int)) "one horizon per peer" (300, 120)
    (FD.heard_stamp fd 1, FD.heard_stamp fd 2);
  (* stamps are monotone per peer: an out-of-order frame cannot regress *)
  ignore (FD.heard fd ~peer:2 ~stamp:80 ~now_us:11);
  Alcotest.(check int) "horizon never regresses" 120 (FD.heard_stamp fd 2);
  ignore (FD.heard fd ~peer:2 ~stamp:400 ~now_us:12);
  Alcotest.(check int) "horizon follows the latest frame" 400
    (FD.heard_stamp fd 2);
  (* frames from self never move a horizon *)
  ignore (FD.heard fd ~peer:0 ~stamp:999 ~now_us:12);
  Alcotest.(check int) "self frames ignored" min_int (FD.heard_stamp fd 0)

(* ---- release gate ---- *)

(* The pure predicate, as a table.  Replica 0 holds a response stamped
   1_000 with threshold due = 1_000 + d + ε = 4_000; each row gives the
   peers' acks and heard stamps (index 0 is [me], never consulted). *)
let test_gate_table () =
  let stamp = 1_000 and due = 4_000 in
  let row ~mop ~acked ~heard =
    let n = Array.length heard in
    Quorum.Gate.passes ~n ~me:0 ~mop ~stamp ~due ~acked:(Array.get acked)
      ~heard:(Array.get heard)
  in
  let short = [| 0; 3_999; 2_000 |] and past = [| 0; 4_000; 9_000 |] in
  let none = [| 0; min_int; min_int |] in
  let cases =
    [
      ("MOP: every peer acked, horizon short", true,
        row ~mop:true ~acked:[| 0; stamp; stamp |] ~heard:short);
      ("MOP: one peer unacked, horizon short", false,
        row ~mop:true ~acked:[| 0; stamp; min_int |] ~heard:short);
      ("MOP: an ack for another entry does not count", false,
        row ~mop:true ~acked:[| 0; stamp; stamp + 1 |] ~heard:short);
      ("MOP: horizon alone (acks lost)", true,
        row ~mop:true ~acked:none ~heard:past);
      ("MOP: ack for one peer, horizon for the other", true,
        row ~mop:true ~acked:[| 0; min_int; stamp |] ~heard:[| 0; 4_000; 0 |]);
      ("AOP/OOP: acks ignored, horizon short", false,
        row ~mop:false ~acked:[| 0; stamp; stamp |] ~heard:short);
      ("AOP/OOP: horizon passed", true,
        row ~mop:false ~acked:none ~heard:past);
      ("AOP/OOP: one peer one short of due", false,
        row ~mop:false ~acked:none ~heard:[| 0; 4_000; 3_999 |]);
      ("n = 1: vacuous for MOP", true,
        row ~mop:true ~acked:[| min_int |] ~heard:[| min_int |]);
      ("n = 1: vacuous for AOP/OOP", true,
        row ~mop:false ~acked:[| min_int |] ~heard:[| min_int |]);
    ]
  in
  List.iter (fun (name, want, got) -> Alcotest.(check bool) name want got) cases

(* Safety, exhaustively over a small grid: a MOP is never released while
   some peer has neither acked its stamp nor passed the horizon, and an
   AOP/OOP never while some peer is short of the horizon. *)
let gate_never_releases_early =
  QCheck.Test.make ~count:1000 ~name:"gate needs ack-or-horizon from every peer"
    QCheck.(triple bool (int_range 1 5) int)
    (fun (mop, n, seed) ->
      let rng = Random.State.make [| seed |] in
      let stamp = 1_000 and due = 4_000 in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      let acked = Array.init n (fun _ -> pick [ min_int; stamp - 1; stamp; stamp + 1 ]) in
      let heard = Array.init n (fun _ -> pick [ min_int; due - 1; due; due + 1 ]) in
      let me = Random.State.int rng n in
      let covered p =
        p = me || heard.(p) >= due || (mop && acked.(p) = stamp)
      in
      Quorum.Gate.passes ~n ~me ~mop ~stamp ~due ~acked:(Array.get acked)
        ~heard:(Array.get heard)
      = List.for_all covered (List.init n Fun.id))

let test_gate_acks () =
  let g = Quorum.Gate.make ~n:3 ~me:1 in
  Quorum.Gate.ack g ~peer:0 ~stamp:500;
  Quorum.Gate.ack g ~peer:0 ~stamp:400;
  Quorum.Gate.ack g ~peer:1 ~stamp:900;
  Quorum.Gate.ack g ~peer:7 ~stamp:900;
  Alcotest.(check int) "acks never move backwards" 500 (Quorum.Gate.acked g 0);
  Alcotest.(check int) "own acks ignored" min_int (Quorum.Gate.acked g 1);
  Alcotest.(check int) "no ack yet" min_int (Quorum.Gate.acked g 2);
  let fd =
    Quorum.Failure_detector.make ~n:3 ~me:1 ~hb_us:1_000 ~suspect_after:5
      ~now_us:0
  in
  ignore (Quorum.Failure_detector.heard fd ~peer:2 ~stamp:3_000 ~now_us:0);
  Alcotest.(check bool) "MOP: peer 0 acked, peer 2's horizon passed" true
    (Quorum.Gate.ready g ~fd ~mop:true ~stamp:500 ~due:3_000);
  Alcotest.(check bool) "OOP: peer 0's horizon still short" false
    (Quorum.Gate.ready g ~fd ~mop:false ~stamp:500 ~due:3_000)

(* ---- mode controller ---- *)

let test_mc_epoch_discipline () =
  let module MC = Quorum.Mode_controller in
  let mc = MC.make ~n:3 ~me:1 in
  Alcotest.(check bool) "starts fast, epoch 0" true
    (MC.mode mc = MC.Fast && MC.epoch mc = 0);
  (* equal epochs are stale *)
  Alcotest.(check bool) "equal epoch ignored" true
    (MC.observe mc ~epoch:0 ~quorum:true ~seq:0 ~floor:min_int = MC.Ignored);
  (* strictly higher adopts: mode, sequencer and floor follow *)
  Alcotest.(check bool) "higher epoch adopted" true
    (MC.observe mc ~epoch:2 ~quorum:true ~seq:0 ~floor:41 = MC.Adopted);
  Alcotest.(check bool) "quorum mode, seq 0, floor 41" true
    (MC.mode mc = MC.Quorum && MC.seq_pid mc = 0 && MC.floor mc = 41);
  (* lower epochs are stale; floors only ever ratchet up *)
  Alcotest.(check bool) "lower epoch ignored" true
    (MC.observe mc ~epoch:1 ~quorum:false ~seq:2 ~floor:99 = MC.Ignored);
  Alcotest.(check bool) "floor kept" true (MC.floor mc = 41);
  Alcotest.(check bool) "back to fast on the next era" true
    (MC.observe mc ~epoch:3 ~quorum:false ~seq:0 ~floor:55 = MC.Adopted);
  Alcotest.(check bool) "fast again, floor 55" true
    (MC.mode mc = MC.Fast && MC.floor mc = 55);
  (* initiating always beats every epoch ever seen *)
  let e = MC.initiate_quorum mc in
  Alcotest.(check int) "initiate_quorum bumps past max seen" 4 e;
  Alcotest.(check bool) "sequencer is me" true (MC.is_sequencer mc);
  let e' = MC.initiate_fast mc ~floor:70 in
  Alcotest.(check int) "initiate_fast bumps again" 5 e';
  Alcotest.(check bool) "fast, floor 70" true
    (MC.mode mc = MC.Fast && MC.floor mc = 70);
  let epoch, q, seq, floor = MC.announcement mc in
  Alcotest.(check bool) "announcement mirrors state" true
    (epoch = 5 && (not q) && seq = 1 && floor = 70)

let test_mc_decisions () =
  let module MC = Quorum.Mode_controller in
  let mc = MC.make ~n:3 ~me:0 in
  let consider ?(alive = 3) ?(all = true) ?(susp = false) ?(lowest = 0) () =
    MC.consider mc ~alive ~all_alive:all ~suspects_any:susp ~lowest
  in
  Alcotest.(check bool) "healthy fast path: no decision" true
    (consider () = None);
  Alcotest.(check bool) "suspicion + lowest alive: initiate" true
    (consider ~alive:2 ~all:false ~susp:true () = Some MC.Initiate_quorum);
  Alcotest.(check bool) "suspicion but not lowest: wait for announcement"
    true
    (consider ~alive:2 ~all:false ~susp:true ~lowest:1 () = None);
  ignore (MC.initiate_quorum mc);
  Alcotest.(check bool) "quorum holds while a peer is out" true
    (consider ~alive:2 ~all:false ~susp:true () = None);
  Alcotest.(check bool) "all back + sequencer: end the era" true
    (consider () = Some MC.Initiate_fast);
  (* below majority: stall once, then hold *)
  Alcotest.(check bool) "minority stalls" true
    (consider ~alive:1 ~all:false ~susp:true () = Some MC.Stall);
  MC.stall mc;
  Alcotest.(check bool) "stall is edge-triggered" true
    (consider ~alive:1 ~all:false ~susp:true () = None);
  Alcotest.(check bool) "majority back in quorum mode: unstall" true
    (consider ~alive:2 ~all:false ~susp:true () = Some MC.Unstall);
  MC.unstall mc;
  (* resuming the *fast* path from a stall needs every replica back *)
  ignore (MC.observe mc ~epoch:99 ~quorum:false ~seq:1 ~floor:10);
  MC.stall mc;
  Alcotest.(check bool) "fast-path unstall waits for all replicas" true
    (consider ~alive:2 ~all:false () = None);
  Alcotest.(check bool) "fast-path unstall once every replica is back" true
    (consider ~alive:3 ~all:true () = Some MC.Unstall)

(* ---- ordered-commit log (qcheck) ---- *)

(* However stores and commits interleave (commit-before-store included),
   draining [applyable] after every event yields each sequence number
   exactly once, in order, never before its payload arrived. *)
let log_no_drop_no_dup =
  QCheck.Test.make ~count:500 ~name:"log yields each qseq once, in order"
    QCheck.(pair (int_range 1 15) int)
    (fun (k, seed) ->
      let log = Quorum.Log.create ~n:3 ~epoch:1 in
      let events =
        List.concat_map (fun q -> [ `Store q; `Commit q ]) (List.init k Fun.id)
      in
      let rng = Random.State.make [| seed |] in
      let shuffled =
        List.map (fun e -> (Random.State.bits rng, e)) events
        |> List.sort compare |> List.map snd
      in
      let collected = ref [] in
      let drain () =
        List.iter
          (fun (q, p) ->
            if q <> p then QCheck.Test.fail_report "payload/qseq mismatch";
            collected := q :: !collected)
          (Quorum.Log.applyable log)
      in
      List.iter
        (fun e ->
          (match e with
          | `Store q -> Quorum.Log.store log ~qseq:q q
          | `Commit q -> Quorum.Log.commit log ~qseq:q);
          drain ())
        shuffled;
      drain ();
      List.rev !collected = List.init k Fun.id
      && Quorum.Log.drained log
      && Quorum.Log.missing log = [])

(* The sequencer side: however (possibly duplicated) acks arrive, the
   majority threshold fires exactly once per slot — the commit broadcast
   is never repeated and never skipped. *)
let log_majority_fires_once =
  QCheck.Test.make ~count:500 ~name:"majority threshold fires exactly once"
    QCheck.(pair (int_range 1 10) int)
    (fun (k, seed) ->
      let log = Quorum.Log.create ~n:5 ~epoch:1 in
      for q = 0 to k - 1 do
        ignore (Quorum.Log.append log ~me:0 q)
      done;
      let rng = Random.State.make [| seed |] in
      let acks =
        List.concat_map
          (fun q -> List.map (fun p -> (q, p)) [ 1; 2; 3; 4; 1; 2 ])
          (List.init k Fun.id)
        |> List.map (fun e -> (Random.State.bits rng, e))
        |> List.sort compare |> List.map snd
      in
      let commits = Array.make k 0 in
      List.iter
        (fun (q, p) ->
          if Quorum.Log.ack log ~qseq:q ~from:p then begin
            Quorum.Log.commit log ~qseq:q;
            commits.(q) <- commits.(q) + 1
          end)
        acks;
      Array.for_all (fun c -> c = 1) commits
      && List.map snd (Quorum.Log.applyable log) = List.init k Fun.id)

(* ---- end to end: in-process chaos under the fallback ---- *)

let fallback_cfg =
  (* a tight detector so the tests spend milliseconds, not seconds, in
     the pre-switch outage *)
  { Quorum.Config.default with hb_us = 2_000; suspect_after = 25 }

let quorum_entries r =
  List.filter (fun (_, q, _) -> q)
    r.Fault.Chaos_run.run.Runtime.Loadgen.mode_switches

let test_permanent_kill_linearizable () =
  (* One replica of three dies for good mid-load.  Without the fallback
     this plan cannot finish (the kill is forever); with it the surviving
     majority must switch to quorum mode within the detector timeout and
     the full history must verify — LINEARIZABLE, not excused. *)
  let kill_at = 60_000 in
  let plan = plan_of "crash(2)@60ms" ~seed:2 in
  let r =
    Fault.Chaos_run.run ~workload:kv ~n:3 ~d:2000 ~u:500
      ~fallback:fallback_cfg ~plan ~ops:200 ~seed:3 ()
  in
  Alcotest.(check bool) "linearizable under a permanent kill" true
    (Runtime.Loadgen.is_linearizable r.Fault.Chaos_run.run);
  Alcotest.(check bool) "run passes" true (Fault.Chaos_run.ok r);
  match quorum_entries r with
  | (t, _, _) :: _ ->
      Alcotest.(check bool) "switched after the kill, not before" true
        (t >= kill_at)
  | [] -> Alcotest.fail "no switch into quorum mode recorded"

let test_healthy_gate_is_event_driven () =
  (* A healthy, armed register: no fault ever fires, so every fast-path
     response goes through the release gate.  The replicas assume
     d = 2 ms of network delay plus 5 ms of slack; a receipt ack comes
     back after two real hops (≤ 4 ms), while the heartbeat horizon only
     passes ts + d + ε after the peer's clock got there and one more hop.
     So the MOP median must sit below the assumed d: the gate no longer
     waits out d + ε. *)
  let r =
    Fault.Chaos_run.run ~workload:Runtime.Workloads.register ~n:3 ~d:2000
      ~u:500 ~mix:(80, 10, 10) ~fallback:fallback_cfg
      ~plan:(Fault.Fault_plan.empty ~seed:1) ~ops:120 ~seed:4 ()
  in
  let run = r.Fault.Chaos_run.run in
  Alcotest.(check bool) "linearizable" true (Runtime.Loadgen.is_linearizable run);
  Alcotest.(check bool) "no mode switch" true (run.Runtime.Loadgen.mode_switches = []);
  let d = run.Runtime.Loadgen.params.Core.Params.d in
  match
    List.find_opt (fun c -> c.Runtime.Loadgen.class_name = "MOP")
      run.Runtime.Loadgen.classes
  with
  | Some c ->
      let p50 = Runtime.Histogram.percentile c.Runtime.Loadgen.hist 50.0 in
      if p50 >= d then Alcotest.failf "MOP p50 %d us waits out d = %d us" p50 d
  | None -> Alcotest.fail "no MOP class in the report"

let test_minority_partition_heals_linearizable () =
  (* A minority partition isolates one replica for 200 ms.  The majority
     side degrades to quorum mode and keeps serving; once the partition
     heals, the sequencer drains the era and the cluster re-enters the
     fast path.  The whole history must verify. *)
  let plan = plan_of "partition(0,1|2)@60ms-260ms" ~seed:5 in
  let r =
    Fault.Chaos_run.run ~workload:kv ~n:3 ~d:2000 ~u:500
      ~fallback:fallback_cfg ~plan ~ops:250 ~seed:9 ()
  in
  Alcotest.(check bool) "linearizable across the partition" true
    (Runtime.Loadgen.is_linearizable r.Fault.Chaos_run.run);
  Alcotest.(check bool) "run passes" true (Fault.Chaos_run.ok r);
  Alcotest.(check bool) "entered quorum mode" true (quorum_entries r <> []);
  match
    List.rev r.Fault.Chaos_run.run.Runtime.Loadgen.mode_switches
  with
  | (_, q, _) :: _ ->
      Alcotest.(check bool) "fast path re-entered after the heal" false q
  | [] -> Alcotest.fail "no mode switches recorded"

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "quorum"
    [
      ( "config",
        [
          Alcotest.test_case "bad timing is rejected" `Quick
            test_config_rejects_bad_timing;
        ] );
      ( "failure-detector",
        [
          Alcotest.test_case "boot grace and suspicion" `Quick
            test_fd_boot_grace_and_suspicion;
          Alcotest.test_case "knowledge horizon" `Quick
            test_fd_knowledge_horizon;
        ] );
      ( "mode-controller",
        [
          Alcotest.test_case "epoch discipline" `Quick
            test_mc_epoch_discipline;
          Alcotest.test_case "decision table" `Quick test_mc_decisions;
        ] );
      ( "gate",
        [
          Alcotest.test_case "predicate table" `Quick test_gate_table;
          Alcotest.test_case "acks and detector horizon" `Quick test_gate_acks;
        ]
        @ qsuite [ gate_never_releases_early ] );
      ("log", qsuite [ log_no_drop_no_dup; log_majority_fires_once ]);
      ( "fallback",
        [
          Alcotest.test_case "healthy gate frees MOPs below d" `Quick
            test_healthy_gate_is_event_driven;
          Alcotest.test_case "permanent kill stays linearizable" `Quick
            test_permanent_kill_linearizable;
          Alcotest.test_case "minority partition heals" `Quick
            test_minority_partition_heals_linearizable;
        ] );
    ]
