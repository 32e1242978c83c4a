(* The live clock-synchronization subsystem (DESIGN.md §14):

   - the two-way estimator recovers the exact peer offset under symmetric
     delays and errs by at most its self-priced uncertainty (half the
     measured RTT) under asymmetric ones;
   - a stored sample only yields to a candidate that beats its
     age-widened error bound, and a cut-off peer's contribution to the
     achieved ε widens with staleness — the partition rule;
   - the slewed clock never steps backward and never exceeds its slew
     rate, whatever correction/advance sequences it sees (qcheck);
   - end to end, three replicas on the virtual-time loop, skewed ±2 ms,
     converge to an achieved ε below the configured bound within a
     handful of rounds, zero faults;
   - the analyzer interpolates per-pid measured-ε timelines between sync
     rounds and substitutes them into the paper's bound formulas. *)

(* ---- two-way estimator ---- *)

let test_two_way_symmetric () =
  let est = Sync.Estimator.create ~n:2 ~me:0 () in
  (* peer clock runs 500 µs ahead; both legs take 200 µs *)
  Sync.Estimator.observe_two_way est ~peer:1 ~now:1400 ~t0:1000 ~t1:1400
    ~t_rx:1700 ~t_tx:1700;
  (match (Sync.Estimator.view est ~now:1400).(1) with
  | Some (offset, unc, _age) ->
      Alcotest.(check int) "symmetric delays recover the exact offset" 500
        offset;
      Alcotest.(check int) "uncertainty is half the measured RTT" 200 unc
  | None -> Alcotest.fail "no sample stored");
  Alcotest.(check int) "one peer sampled" 1 (Sync.Estimator.peers est);
  Alcotest.(check int) "achieved eps = |offset| + uncertainty" 700
    (Sync.Estimator.achieved_eps est ~now:1400)

let test_two_way_asymmetric () =
  let est = Sync.Estimator.create ~n:2 ~me:0 () in
  (* same 500 µs offset, but 300 µs out / 100 µs back: the midpoint errs
     by half the asymmetry (100), within the priced uncertainty (200) *)
  Sync.Estimator.observe_two_way est ~peer:1 ~now:1400 ~t0:1000 ~t1:1400
    ~t_rx:1800 ~t_tx:1800;
  match (Sync.Estimator.view est ~now:1400).(1) with
  | Some (offset, unc, _) ->
      Alcotest.(check int) "midpoint estimate" 600 offset;
      Alcotest.(check bool) "error bounded by the priced uncertainty" true
        (abs (offset - 500) <= unc)
  | None -> Alcotest.fail "no sample stored"

let test_one_way_midpoint () =
  let est = Sync.Estimator.create ~n:2 ~me:0 () in
  let d = 1000 and u = 400 and sent = 5000 and clock = 5600 in
  Sync.Estimator.observe_one_way est ~peer:1 ~now:0 ~d ~u ~sent ~clock;
  match (Sync.Estimator.view est ~now:0).(1) with
  | Some (offset, unc, _) ->
      Alcotest.(check int) "Lundelius-Lynch midpoint sample"
        (Clocksync.Lundelius_lynch.midpoint_estimate ~d ~u ~sent ~clock)
        offset;
      Alcotest.(check int) "uncertainty u/2" 200 unc
  | None -> Alcotest.fail "no sample stored"

(* ---- replacement under staleness: the partition-widening rule ---- *)

let test_staleness_widening () =
  let est = Sync.Estimator.create ~n:3 ~me:0 () in
  (* a tight two-way sample for peer 1: offset 0, uncertainty 50 *)
  Sync.Estimator.observe_two_way est ~peer:1 ~now:0 ~t0:0 ~t1:100 ~t_rx:50
    ~t_tx:50;
  Alcotest.(check int) "fresh bound" 50 (Sync.Estimator.achieved_eps est ~now:0);
  (* a coarser one-way sample (uncertainty 300) does not displace it *)
  Sync.Estimator.observe_one_way est ~peer:1 ~now:1000 ~d:600 ~u:600 ~sent:0
    ~clock:300;
  (match (Sync.Estimator.view est ~now:1000).(1) with
  | Some (_, unc, _) ->
      Alcotest.(check int) "tight sample survives a coarse candidate" 50 unc
  | None -> Alcotest.fail "sample lost");
  (* one second of silence — a cut-off peer under a partition — widens the
     stored bound by drift_ppm (250 µs/s), inflating the achieved ε *)
  Alcotest.(check int) "stale bound widens by drift" 300
    (Sync.Estimator.achieved_eps est ~now:1_000_000);
  (* ...at which point a 250 µs-uncertainty sample is an improvement *)
  Sync.Estimator.observe_one_way est ~peer:1 ~now:1_000_000 ~d:500 ~u:500
    ~sent:0 ~clock:250;
  match (Sync.Estimator.view est ~now:1_000_000).(1) with
  | Some (_, unc, age) ->
      Alcotest.(check int) "stale sample displaced" 250 unc;
      Alcotest.(check int) "fresh again" 0 age
  | None -> Alcotest.fail "sample lost"

let test_correction_and_shift () =
  let est = Sync.Estimator.create ~n:2 ~me:0 () in
  Sync.Estimator.observe_two_way est ~peer:1 ~now:1400 ~t0:1000 ~t1:1400
    ~t_rx:1700 ~t_tx:1700;
  (* n = 2, estimates {self = 0, peer = 500}: the Lundelius-Lynch average
     meets the peer halfway *)
  Alcotest.(check int) "correction is the LL average" 250
    (Sync.Estimator.correction est);
  Sync.Estimator.shift est ~by:250;
  Alcotest.(check int) "absorbed correction shifts the stored offsets" 125
    (Sync.Estimator.correction est)

(* ---- slewed clock (qcheck) ---- *)

let clock_monotone_rate_bounded =
  QCheck.Test.make ~count:300
    ~name:"slewed clock is monotone and rate-bounded"
    QCheck.(list (pair (int_range (-5_000) 5_000) (int_range 0 2_000)))
    (fun steps ->
      let clk = Sync.Clock.create () in
      let now = ref 0 in
      let last = ref (Sync.Clock.read clk ~now:0) in
      List.for_all
        (fun (delta, dt) ->
          Sync.Clock.adjust clk ~delta;
          now := !now + dt;
          let r = Sync.Clock.read clk ~now:!now in
          let budget = dt * Sync.Clock.slew_ppm / 1_000_000 in
          let ok = r >= !last && r - !last <= dt + budget + 1 in
          last := r;
          ok)
        steps)

let clock_absorbs_correction =
  (* any single correction is fully absorbed once enough raw time passes,
     and pending returns to 0 *)
  QCheck.Test.make ~count:300 ~name:"corrections are eventually absorbed"
    QCheck.(int_range (-10_000) 10_000)
    (fun delta ->
      let clk = Sync.Clock.create () in
      ignore (Sync.Clock.read clk ~now:0);
      Sync.Clock.adjust clk ~delta;
      (* 10% slew: |delta| µs absorb within 10|delta| µs of raw time (steps
         big enough that the per-read budget doesn't round down to 0) *)
      let t = ref 0 in
      for _ = 1 to 4 do
        t := !t + ((10 * abs delta) + 10);
        ignore (Sync.Clock.read clk ~now:!t)
      done;
      Sync.Clock.pending clk = 0 && Sync.Clock.applied clk = delta)

(* ---- end to end: three skewed replicas on the virtual-time loop ---- *)

let test_convergence_below_configured () =
  let n = 3 in
  let configured_eps = 4_000 in
  let params = Core.Params.make ~n ~d:2_000 ~u:500 ~eps:configured_eps ~x:0 () in
  let interval_us = 10_000 in
  let module V = Runtime.Vloop.Make (Spec.Register) in
  let v =
    V.create ~params
      ~policy:(Sim.Delay.random (Prelude.Rng.make 3) ~d:2_000 ~u:500)
      ~offsets:[| 2_000; 0; -2_000 |]
      ~sync:(Sync.Config.make ~interval_us ~d:2_000 ~u:500 ())
      ()
  in
  let rounds_done () =
    Array.fold_left (fun k h -> min k (List.length h)) max_int (V.sync_rounds v)
  in
  V.run v ~until:(fun () -> rounds_done () >= 8 || V.now v > 5_000_000);
  ignore (V.stop v);
  let history = Array.map (fun h -> List.rev_map fst h) (V.sync_rounds v) in
  Alcotest.(check bool) "every replica published at least 8 rounds" true
    (rounds_done () >= 8);
  Array.iteri
    (fun pid h ->
      match h with
      | final :: _ ->
          if final >= configured_eps then
            Alcotest.failf
              "replica %d: final achieved eps %dus not below configured %dus"
              pid final configured_eps
      | [] -> Alcotest.failf "replica %d published no rounds" pid)
    history

(* ---- analyzer: measured-eps timelines ---- *)

let ev ?(pid = 0) ?(a = 0) ?(b = 0) ~t_us kind =
  { Obs.Event.t_us; pid; kind; trace = 0; a; b }

let test_measured_eps_interpolation () =
  let events =
    [
      ev ~t_us:1_000 ~pid:1 ~a:400 ~b:2 Obs.Event.Sync_eps;
      ev ~t_us:3_000 ~pid:1 ~a:800 ~b:2 Obs.Event.Sync_eps;
      ev ~t_us:2_000 ~pid:0 ~a:0 Obs.Event.Invoke;
    ]
  in
  let tl = Obs.Analyze.sync_eps_timelines events in
  Alcotest.(check (option int)) "linear between rounds" (Some 600)
    (Obs.Analyze.measured_eps_at tl ~pid:1 ~t_us:2_000);
  Alcotest.(check (option int)) "clamped before the first round" (Some 400)
    (Obs.Analyze.measured_eps_at tl ~pid:1 ~t_us:0);
  Alcotest.(check (option int)) "clamped after the last round" (Some 800)
    (Obs.Analyze.measured_eps_at tl ~pid:1 ~t_us:99_000);
  Alcotest.(check (option int)) "pid without rounds falls back" None
    (Obs.Analyze.measured_eps_at tl ~pid:0 ~t_us:2_000)

let test_bound_with_measured_eps () =
  let p = Core.Params.make ~n:3 ~d:2_000 ~u:500 ~eps:400 ~x:100 () in
  List.iter
    (fun cls ->
      Alcotest.(check int)
        (Printf.sprintf "class %s: measured eps substitutes for configured"
           (Obs.Event.class_name cls))
        (Obs.Analyze.bound_us p cls - 400 + 250)
        (Obs.Analyze.bound_with_eps p cls 250))
    [ Obs.Event.class_mutator; Obs.Event.class_accessor; Obs.Event.class_other ]

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "sync"
    [
      ( "estimator",
        [
          Alcotest.test_case "two-way, symmetric delays" `Quick
            test_two_way_symmetric;
          Alcotest.test_case "two-way, asymmetric delays" `Quick
            test_two_way_asymmetric;
          Alcotest.test_case "one-way midpoint sample" `Quick
            test_one_way_midpoint;
          Alcotest.test_case "staleness widening (partition rule)" `Quick
            test_staleness_widening;
          Alcotest.test_case "correction and shift" `Quick
            test_correction_and_shift;
        ] );
      ( "clock",
        qsuite [ clock_monotone_rate_bounded; clock_absorbs_correction ] );
      ( "convergence",
        [
          Alcotest.test_case "skewed bus replicas beat the configured eps"
            `Quick test_convergence_below_configured;
        ] );
      ( "analyzer",
        [
          Alcotest.test_case "measured-eps interpolation" `Quick
            test_measured_eps_interpolation;
          Alcotest.test_case "bound substitution" `Quick
            test_bound_with_measured_eps;
        ] );
    ]
