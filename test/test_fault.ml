(* The chaos layer's own contract:

   - the plan parser is total and the compiled decision function is pure
     (same seed + coordinates ⇒ same fault), which is what makes seeded
     chaos runs reproducible bit-for-bit;
   - a no-fault [Chaos_transport] decides every send on time, so a run
     through it is identical to one without it;
   - injected assumption violations are *excused* by the monitor, never
     reported as genuine safety bugs — and a linearizable run under faults
     is reported as "safety held while assumptions held". *)

let plan_of spec ~seed =
  match Fault.Fault_plan.compile ~seed ~spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile %S: %s" spec e

(* ---- parsing ---- *)

let parse_total =
  QCheck.Test.make ~count:2000 ~name:"parse never raises"
    QCheck.(string_of_size Gen.(0 -- 80))
    (fun s ->
      match Fault.Fault_plan.parse s with Ok _ | Error _ -> true)

let test_parse_grammar () =
  let ok spec =
    match Fault.Fault_plan.parse spec with
    | Ok rules -> rules
    | Error e -> Alcotest.failf "parse %S: %s" spec e
  in
  let err spec =
    match Fault.Fault_plan.parse spec with
    | Ok _ -> Alcotest.failf "parse %S should fail" spec
    | Error _ -> ()
  in
  (match ok "drop(30)/0>1@0.2s-600ms; spike(3ms); crash(1)@50000" with
  | [ r0; r1; r2 ] ->
      Alcotest.(check bool)
        "drop kind" true
        (r0.Fault.Fault_plan.kind = Fault.Fault_plan.Drop 30);
      Alcotest.(check bool)
        "drop link" true
        (r0.Fault.Fault_plan.link
        = { Fault.Fault_plan.from_ = Some 0; to_ = Some 1 });
      Alcotest.(check int) "window from (s suffix)" 200_000
        r0.Fault.Fault_plan.from_us;
      Alcotest.(check int) "window until (ms suffix)" 600_000
        r0.Fault.Fault_plan.until_us;
      Alcotest.(check bool)
        "spike µs" true
        (r1.Fault.Fault_plan.kind = Fault.Fault_plan.Delay_spike 3_000);
      Alcotest.(check int) "whole-run window" 0 r1.Fault.Fault_plan.from_us;
      Alcotest.(check bool)
        "crash pid" true
        (r2.Fault.Fault_plan.kind = Fault.Fault_plan.Crash 1);
      Alcotest.(check int) "bare-µs time" 50_000 r2.Fault.Fault_plan.from_us
  | rules -> Alcotest.failf "expected 3 rules, got %d" (List.length rules));
  (match ok "partition(0|1,2)" with
  | [ r ] ->
      Alcotest.(check bool)
        "partition groups" true
        (r.Fault.Fault_plan.kind = Fault.Fault_plan.Partition ([ 0 ], [ 1; 2 ]))
  | _ -> Alcotest.fail "partition parse");
  Alcotest.(check bool) "empty spec is empty plan" true (ok "" = []);
  err "drop(130)" (* percent out of range *);
  err "explode(3)" (* unknown fault *);
  err "drop(10)@3s-1s" (* window ends before start *);
  err "partition(0,1|1,2)" (* overlapping groups *);
  err "drop(10)x" (* trailing junk *);
  err "skew(1)" (* missing offset *)

let test_crash_pairing () =
  let p = plan_of "crash(1)@0.4s;restart(1)@0.9s;crash(2)@0.1s" ~seed:1 in
  Alcotest.(check (list (triple int int int)))
    "crash schedule (sorted, open crash = max_int)"
    [ (2, 100_000, max_int); (1, 400_000, 900_000) ]
    (Fault.Fault_plan.crash_schedule p);
  (* the compiled crash rule is capped at its restart, so [decide] stops
     isolating pid 1 once it is back *)
  let d_at t =
    Fault.Fault_plan.decide p ~now_us:t ~src:0 ~dst:1 ~index:0
  in
  Alcotest.(check bool) "before crash: delivered" true
    ((d_at 100_000).Fault.Fault_plan.drop = None);
  Alcotest.(check bool) "during outage: isolated" true
    ((d_at 500_000).Fault.Fault_plan.drop <> None);
  Alcotest.(check bool) "after restart: delivered" true
    ((d_at 950_000).Fault.Fault_plan.drop = None)

let test_windows_and_skews () =
  let p = plan_of "spike(2ms)@0.1s-0.2s;skew(2,5ms);restart(0)@1s" ~seed:3 in
  (match Fault.Fault_plan.windows p with
  | [ (_, f, u); (_, sf, su) ] ->
      (* spike window stretched by the injected maximum *)
      Alcotest.(check int) "spike from" 100_000 f;
      Alcotest.(check int) "spike until + extra" 202_000 u;
      Alcotest.(check int) "skew whole-run from" 0 sf;
      Alcotest.(check bool) "skew open-ended" true (su = max_int)
  | w -> Alcotest.failf "expected 2 windows (restart has none), got %d"
           (List.length w));
  Alcotest.(check (array int))
    "skews vector" [| 0; 0; 5_000 |]
    (Fault.Fault_plan.skews p ~n:3)

(* ---- decision purity / reproducibility ---- *)

let decide_pure =
  QCheck.Test.make ~count:500
    ~name:"decide is a pure function of (seed, rule, link, index)"
    QCheck.(quad small_nat small_nat (int_bound 5) (int_bound 1000))
    (fun (seed, now, src, index) ->
      let spec = "drop(50);jitter(2ms);dup(30);spike(500us)@0-1s" in
      let p1 = plan_of spec ~seed in
      let p2 = plan_of spec ~seed in
      let d1 = Fault.Fault_plan.decide p1 ~now_us:now ~src ~dst:(src + 1) ~index in
      let d2 = Fault.Fault_plan.decide p2 ~now_us:now ~src ~dst:(src + 1) ~index in
      d1 = d2)

let decide_seed_sensitivity () =
  (* different seeds must give different fault sequences (sanity: the seed
     actually reaches the hash) *)
  let outcomes seed =
    let p = plan_of "drop(50)" ~seed in
    List.init 64 (fun i ->
        (Fault.Fault_plan.decide p ~now_us:0 ~src:0 ~dst:1 ~index:i)
          .Fault.Fault_plan.drop
        <> None)
  in
  Alcotest.(check bool)
    "seeds 1 and 2 disagree somewhere" true
    (outcomes 1 <> outcomes 2)

(* ---- chaos transport ---- *)

(* A plan that injects nothing must not change a run — for the empty plan
   and for a non-empty plan none of whose rules fire (the full decision
   path).  Runs are deterministic, so "unchanged" is equality of the
   whole report. *)
let no_fault_transparent =
  QCheck.Test.make ~count:60
    ~name:"no-fault chaos transport is observationally identical"
    QCheck.(pair (int_bound 1000) (int_range 1 40))
    (fun (seed, ops) ->
      let module G = Runtime.Loadgen.Make (Runtime.Workloads.Kv_map_live) in
      let run fault = G.run ~n:3 ~d:2000 ~u:500 ?fault ~ops ~seed () in
      let through plan =
        run
          (Some
             (Fault.Chaos_transport.decide (Fault.Chaos_transport.create plan)))
      in
      let bare = run None in
      bare = through (Fault.Fault_plan.empty ~seed)
      && bare = through (plan_of "drop(0);dup(0);spike(0us);jitter(0ms)" ~seed))

let test_chaos_transport_drops_and_logs () =
  let plan = plan_of "drop(100)/0>1" ~seed:9 in
  let chaos = Fault.Chaos_transport.create plan in
  let decide dst =
    Fault.Chaos_transport.decide chaos ~now_us:0 ~src:0 ~dst ~trace:0
  in
  let to_1 = List.init 5 (fun _ -> decide 1) in
  Alcotest.(check bool) "0>1 fully dropped" true
    (List.for_all (fun f -> f.Runtime.Transport_intf.copies = 0) to_1);
  Alcotest.(check bool) "0>2 untouched" true
    (decide 2 = Runtime.Transport_intf.on_time);
  let drops, dups, delays = Fault.Chaos_transport.injected chaos in
  Alcotest.(check (triple int int int)) "injection counters" (5, 0, 0)
    (drops, dups, delays);
  Alcotest.(check int) "log has one event per fault" 5
    (List.length (Fault.Chaos_transport.events chaos));
  (* On the virtual-time loop every fault drop is counted as sent and
     dropped: with every link cut, all traffic is fault drops, so the
     three counts agree exactly. *)
  let r =
    Fault.Chaos_run.run ~workload:Runtime.Workloads.kv_map ~n:3 ~d:2000 ~u:500
      ~plan:(plan_of "drop(100)" ~seed:9) ~ops:24 ~seed:9 ()
  in
  let drops, _, _ = r.Fault.Chaos_run.injected in
  let s = r.Fault.Chaos_run.run.Runtime.Loadgen.net in
  Alcotest.(check bool) "faults dropped messages" true (drops > 0);
  Alcotest.(check int) "drops visible in stats" drops
    s.Runtime.Transport_intf.dropped;
  Alcotest.(check int) "sent includes dropped" drops
    s.Runtime.Transport_intf.sent

(* ---- end-to-end chaos runs (in-process cluster) ---- *)

let kv = Runtime.Workloads.kv_map

let test_partition_heals_never_genuine () =
  (* A mid-run partition loses protocol messages for good (Algorithm 1 has
     no retransmission), so the verdict may be VIOLATION — but the monitor
     must file it as excused chaos fallout, never as a genuine bug. *)
  let plan = plan_of "partition(0|1,2)@10ms-250ms" ~seed:5 in
  let r =
    Fault.Chaos_run.run ~workload:kv ~n:3 ~d:2000 ~u:500 ~mix:(60, 30, 10)
      ~plan ~ops:200 ~seed:11 ()
  in
  let drops, _, _ = r.Fault.Chaos_run.injected in
  Alcotest.(check bool) "partition actually dropped messages" true (drops > 0);
  Alcotest.(check bool) "violations declared" true
    (r.Fault.Chaos_run.violations <> []);
  (match r.Fault.Chaos_run.assessment with
  | Fault.Assumption_monitor.Genuine _ ->
      Alcotest.fail "partition fallout misfiled as a genuine violation"
  | _ -> ());
  Alcotest.(check bool) "chaos harness passes the run" true
    (Fault.Chaos_run.ok r)

let test_crash_restart_in_process () =
  let plan = plan_of "crash(1)@60ms;restart(1)@200ms" ~seed:2 in
  let r =
    Fault.Chaos_run.run ~workload:kv ~n:3 ~d:2000 ~u:500 ~plan ~ops:200
      ~seed:3 ()
  in
  (* the crashed replica is isolated for the window, so messages died *)
  let drops, _, _ = r.Fault.Chaos_run.injected in
  Alcotest.(check bool) "outage dropped messages" true (drops > 0);
  (match r.Fault.Chaos_run.assessment with
  | Fault.Assumption_monitor.Genuine _ ->
      Alcotest.fail "crash fallout misfiled as genuine"
  | _ -> ());
  Alcotest.(check bool) "run passes" true (Fault.Chaos_run.ok r)

let test_fault_free_chaos_is_linearizable () =
  (* Under an inert plan the chaos harness must agree with a plain live
     run: linearizable, no violations, "assumptions held". *)
  let plan = plan_of "drop(0)" ~seed:1 in
  let r =
    Fault.Chaos_run.run ~workload:kv ~n:3 ~d:2000 ~u:500 ~plan ~ops:150
      ~seed:7 ()
  in
  Alcotest.(check bool) "linearizable" true
    (Runtime.Loadgen.is_linearizable r.Fault.Chaos_run.run);
  Alcotest.(check bool) "no violation windows" true
    (r.Fault.Chaos_run.violations = []);
  match r.Fault.Chaos_run.assessment with
  | Fault.Assumption_monitor.Safety_held { faulted = false } -> ()
  | a ->
      Alcotest.failf "expected clean Safety_held, got %s"
        (Format.asprintf "%a" Fault.Assumption_monitor.pp_assessment a)

let test_crash_recovery_linearizable () =
  (* Same plan as the isolation test, but with the durability machinery
     on: the crashed replica freezes instead of losing state, catches up
     from its peers at restart, and clients replay timed-out operations
     under their op ids.  The run must now end LINEARIZABLE — checked,
     not excused. *)
  let plan = plan_of "crash(1)@60ms;restart(1)@200ms" ~seed:2 in
  let r =
    Fault.Chaos_run.run ~workload:kv ~n:3 ~d:2000 ~u:500 ~plan ~recovery:true
      ~ops:200 ~seed:3 ()
  in
  Alcotest.(check bool) "linearizable with recovery enabled" true
    (Runtime.Loadgen.is_linearizable r.Fault.Chaos_run.run);
  (match r.Fault.Chaos_run.assessment with
  | Fault.Assumption_monitor.Safety_held _ -> ()
  | a ->
      Alcotest.failf "expected Safety_held, got %s"
        (Format.asprintf "%a" Fault.Assumption_monitor.pp_assessment a));
  Alcotest.(check bool) "run passes" true (Fault.Chaos_run.ok r)

let test_late_restart_is_awaited () =
  (* A restart more than the stall window after the crash: the clients
     stuck on the frozen replica are not a wedged run, because the plan
     still has a control to come.  The run waits for it and checks the
     whole history. *)
  let plan = plan_of "crash(1)@60ms;restart(1)@70s" ~seed:2 in
  let r =
    Fault.Chaos_run.run ~workload:kv ~n:3 ~d:2000 ~u:500 ~plan ~recovery:true
      ~ops:200 ~seed:3 ()
  in
  Alcotest.(check bool) "the load outlived the crash" true
    (r.Fault.Chaos_run.run.Runtime.Loadgen.wall_us > 70_000_000);
  Alcotest.(check bool) "linearizable, not unchecked" true
    (Runtime.Loadgen.is_linearizable r.Fault.Chaos_run.run)

let test_seeded_runs_reproduce () =
  (* The acceptance bar: same seed ⇒ the same injected-fault log, down to
     the per-link message indices. *)
  let go () =
    let plan = plan_of "drop(30);dup(20)" ~seed:21 in
    let r =
      Fault.Chaos_run.run ~workload:kv ~n:3 ~d:2000 ~u:500 ~workers:1
        ~mix:(100, 0, 0) ~plan ~ops:80 ~seed:13 ()
    in
    r.Fault.Chaos_run.canonical
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "faults were injected" true (a <> []);
  Alcotest.(check (list string)) "canonical fault logs identical" a b

(* Same seeds, same everything: the whole load report (histograms, cuts,
   counters, mode switches, verdict), the injected-fault log with its
   virtual send times, and the canonical log. *)
let same_seed_same_report ?recovery ?fallback spec () =
  let go () =
    Fault.Chaos_run.run ~workload:kv ~n:3 ~d:2000 ~u:500 ?recovery ?fallback
      ~plan:(plan_of spec ~seed:4) ~ops:200 ~seed:8 ()
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "identical load reports" true
    (a.Fault.Chaos_run.run = b.Fault.Chaos_run.run);
  Alcotest.(check bool) "identical fault events" true
    (a.Fault.Chaos_run.events = b.Fault.Chaos_run.events);
  Alcotest.(check (list string)) "identical canonical logs"
    a.Fault.Chaos_run.canonical b.Fault.Chaos_run.canonical;
  Alcotest.(check bool) "faults were injected" true
    (a.Fault.Chaos_run.canonical <> [])

let fallback_cfg =
  (* same tight detector as test_quorum: milliseconds, not seconds *)
  Quorum.Config.make ~hb_us:2_000 ~suspect_after:25 ()

(* ---- flood (overload) ---- *)

let test_flood_parse_and_decide () =
  (match Fault.Fault_plan.parse "flood(10)@0.2s-0.6s" with
  | Ok [ r ] ->
      Alcotest.(check bool)
        "flood kind" true
        (r.Fault.Fault_plan.kind = Fault.Fault_plan.Flood 10);
      Alcotest.(check int) "window from" 200_000 r.Fault.Fault_plan.from_us;
      Alcotest.(check int) "window until" 600_000 r.Fault.Fault_plan.until_us
  | Ok rules -> Alcotest.failf "expected 1 rule, got %d" (List.length rules)
  | Error e -> Alcotest.failf "parse flood: %s" e);
  let err spec =
    match Fault.Fault_plan.parse spec with
    | Ok _ -> Alcotest.failf "parse %S should fail" spec
    | Error _ -> ()
  in
  err "flood(0)" (* factor below 1 *);
  err "flood(x)" (* not a number *);
  err "flood()" (* missing factor *);
  (* decide: ×K copies inside the window, untouched outside — and
     deterministic (no per-message randomness to keep seeds relevant) *)
  let p = plan_of "flood(8)@0.1s-0.3s" ~seed:4 in
  let copies_at t =
    (Fault.Fault_plan.decide p ~now_us:t ~src:0 ~dst:1 ~index:0)
      .Fault.Fault_plan.copies
  in
  Alcotest.(check int) "before window: 1 copy" 1 (copies_at 50_000);
  Alcotest.(check int) "inside window: K copies" 8 (copies_at 200_000);
  Alcotest.(check int) "after window: 1 copy" 1 (copies_at 400_000);
  (* the monitor files the whole flood window as an assumption violation *)
  let params = Core.Params.make ~n:3 ~d:7000 ~u:6000 ~eps:400 ~x:0 () in
  let windows =
    Fault.Assumption_monitor.violations ~plan:p ~params ~net_d:2000
      ~offsets:[| 0; 0; 0 |] ()
  in
  Alcotest.(check int) "flood window is a violation window" 1
    (List.length windows)

let test_flood_no_false_suspicions () =
  (* ISSUE acceptance: a 3-replica cluster under ×8 message amplification
     with the failure detector armed must keep heartbeats flowing — zero
     false suspicions, zero mode switches — because control frames are
     never queued behind the data flood.  The in-process links have no
     lanes, but the detector cadence must still absorb the
     amplification.  Sheds (if any) are retried by the
     idempotent clients, so the run must stay linearizable or excused. *)
  let sink, contents = Obs.Recorder.memory_sink () in
  let rec_ = Obs.Recorder.start ~epoch_us:(Prelude.Mclock.now_us ()) ~sink () in
  Obs.Recorder.install rec_;
  let plan = plan_of "flood(8)@30ms-200ms" ~seed:6 in
  let r =
    Fault.Chaos_run.run ~workload:kv ~n:3 ~d:2000 ~u:500
      ~fallback:fallback_cfg ~plan ~ops:200 ~seed:17 ()
  in
  Obs.Recorder.uninstall ();
  Obs.Recorder.stop rec_;
  let _, dups, _ = r.Fault.Chaos_run.injected in
  Alcotest.(check bool) "flood actually amplified traffic" true (dups > 0);
  let false_suspicions =
    List.length
      (List.filter
         (fun (e : Obs.Event.t) -> e.kind = Obs.Event.Suspect && e.b = 1)
         (contents ()))
  in
  Alcotest.(check int) "zero false suspicions under flood" 0 false_suspicions;
  Alcotest.(check (list (triple int bool int)))
    "no mode switches (fast path held)" []
    r.Fault.Chaos_run.run.Runtime.Loadgen.mode_switches;
  (match r.Fault.Chaos_run.assessment with
  | Fault.Assumption_monitor.Genuine _ ->
      Alcotest.fail "flood fallout misfiled as genuine"
  | _ -> ());
  Alcotest.(check bool) "run passes" true (Fault.Chaos_run.ok r)

(* ---- assumption monitor ---- *)

let test_assess_correlation () =
  let w label f u =
    { Fault.Assumption_monitor.label; v_from_us = f; v_until_us = u }
  in
  let violations = [ w "spike#0" 100_000 200_000 ] in
  let cuts = [ 50_000; 150_000; 300_000 ] in
  let assess segment =
    Fault.Assumption_monitor.assess ~violations ~cuts
      ~verdict:(Runtime.Loadgen.Violation { segment; reason = "r" })
  in
  (* segment 0 ends at 50 ms, before the window opens: a real bug *)
  (match assess 0 with
  | Fault.Assumption_monitor.Genuine { segment = 0; _ } -> ()
  | a ->
      Alcotest.failf "segment 0 should be genuine, got %s"
        (Format.asprintf "%a" Fault.Assumption_monitor.pp_assessment a));
  (* segment 1 ends at 150 ms, inside the tainted suffix *)
  (match assess 1 with
  | Fault.Assumption_monitor.Excused _ -> ()
  | _ -> Alcotest.fail "segment 1 should be excused");
  (* segment 3 (past the last cut) is tainted too: no resynchronisation *)
  (match assess 3 with
  | Fault.Assumption_monitor.Excused _ -> ()
  | _ -> Alcotest.fail "trailing segment should be excused");
  (match
     Fault.Assumption_monitor.assess ~violations:[] ~cuts
       ~verdict:(Runtime.Loadgen.Violation { segment = 1; reason = "r" })
   with
  | Fault.Assumption_monitor.Genuine _ -> ()
  | _ -> Alcotest.fail "violation with no faults must be genuine");
  match
    Fault.Assumption_monitor.assess ~violations ~cuts
      ~verdict:(Runtime.Loadgen.Linearizable 4)
  with
  | Fault.Assumption_monitor.Safety_held { faulted = true } -> ()
  | _ -> Alcotest.fail "linearizable under faults = safety held while faulted"

let test_violation_windows_respect_slack () =
  (* a spike smaller than the slack keeps delays within the assumed d:
     no violation window; a larger one crosses it *)
  let params = Core.Params.make ~n:3 ~d:7000 ~u:6000 ~eps:400 ~x:0 () in
  let offsets = [| 0; 100; 300 |] in
  let windows spec =
    Fault.Assumption_monitor.violations ~plan:(plan_of spec ~seed:1) ~params
      ~net_d:2000 ~offsets ()
  in
  Alcotest.(check int) "3ms spike absorbed by slack" 0
    (List.length (windows "spike(3ms)"));
  Alcotest.(check int) "8ms spike violates" 1
    (List.length (windows "spike(8ms)"));
  (* skew beyond ε is detected from the effective offsets *)
  let skewed =
    Fault.Assumption_monitor.violations ~plan:(plan_of "skew(2,5ms)" ~seed:1)
      ~params ~net_d:2000
      ~offsets:[| 0; 100; 5300 |]
      ()
  in
  Alcotest.(check int) "offset spread past ε violates" 1 (List.length skewed)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        qsuite [ parse_total; decide_pure ]
        @ [
            Alcotest.test_case "grammar" `Quick test_parse_grammar;
            Alcotest.test_case "crash/restart pairing" `Quick
              test_crash_pairing;
            Alcotest.test_case "windows and skews" `Quick
              test_windows_and_skews;
            Alcotest.test_case "seed sensitivity" `Quick
              decide_seed_sensitivity;
          ] );
      ( "transport",
        qsuite [ no_fault_transparent ]
        @ [
            Alcotest.test_case "drops are injected and logged" `Quick
              test_chaos_transport_drops_and_logs;
          ] );
      ( "monitor",
        [
          Alcotest.test_case "verdict correlation" `Quick
            test_assess_correlation;
          Alcotest.test_case "violation windows respect slack" `Quick
            test_violation_windows_respect_slack;
        ] );
      ( "chaos-run",
        [
          Alcotest.test_case "fault-free plan stays linearizable" `Quick
            test_fault_free_chaos_is_linearizable;
          Alcotest.test_case "partition heals, never genuine" `Quick
            test_partition_heals_never_genuine;
          Alcotest.test_case "crash/restart isolation" `Quick
            test_crash_restart_in_process;
          Alcotest.test_case "crash/restart with recovery linearizes" `Quick
            test_crash_recovery_linearizable;
          Alcotest.test_case "a restart after the stall window is awaited"
            `Quick test_late_restart_is_awaited;
          Alcotest.test_case "seeded runs reproduce bit-for-bit" `Quick
            test_seeded_runs_reproduce;
          Alcotest.test_case "same seed, same report: crash/restart, recovery"
            `Quick
            (same_seed_same_report ~recovery:true
               "crash(1)@60ms;restart(1)@200ms");
          Alcotest.test_case "same seed, same report: fallback, kill" `Quick
            (same_seed_same_report ~fallback:fallback_cfg "crash(2)@40ms");
        ] );
      ( "flood",
        [
          Alcotest.test_case "parse, decide, violation window" `Quick
            test_flood_parse_and_decide;
          Alcotest.test_case "no false suspicions under x8 flood" `Quick
            test_flood_no_false_suspicions;
        ] );
    ]
