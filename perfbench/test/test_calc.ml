(* Unit tests for the benchmark's measurement math: order statistics,
   the class bounds under the replicas' exact parameters, per-op overhead,
   the calm-window filter and the latency ledger. *)

let close ?(eps = 1e-9) name expected got =
  Alcotest.(check (float eps)) name expected got

let trio = { Calc.n = 3; d = 1000; u = 500; eps = 1000; x = 0; slack = 3000 }
let solo = { Calc.n = 1; d = 0; u = 0; eps = 0; x = 0; slack = 0 }

let test_percentile () =
  close "median of even count" 2.5 (Calc.median [| 4.; 1.; 3.; 2. |]);
  close "median of odd count" 3. (Calc.median [| 5.; 3.; 1. |]);
  close "p90 interpolates" 9.1
    (Calc.percentile (Array.init 10 (fun i -> float_of_int (i + 1))) 0.9);
  close "p0 is the min" 1. (Calc.percentile [| 3.; 1.; 2. |] 0.);
  close "p100 is the max" 3. (Calc.percentile [| 3.; 1.; 2. |] 1.);
  Alcotest.(check bool) "empty sample is nan" true (Float.is_nan (Calc.median [||]));
  close "mean" 2. (Calc.mean [| 1.; 2.; 3. |]);
  Alcotest.(check int) "strictly beyond" 2 (Calc.count_beyond [| 1.; 2.; 3.; 4. |] 2.)

let test_percentile_input_untouched () =
  let xs = [| 3.; 1.; 2. |] in
  ignore (Calc.median xs);
  Alcotest.(check (array (float 0.))) "input not sorted in place" [| 3.; 1.; 2. |] xs

let test_overhead () =
  close "latency beyond the hold" 200.5 (Calc.overhead ~bound_us:1000 1200.5);
  close "zero hold" 47. (Calc.overhead ~bound_us:0 47.)

let test_class_bounds () =
  Alcotest.(check (array int)) "trio: eps+X, d+eps-X, d+eps on d=4000 u=3500 eps=1000"
    [| 1000; 5000; 5000 |] (Calc.class_bounds (Calc.params trio));
  Alcotest.(check (array int)) "solo: every hold is 0" [| 0; 0; 0 |]
    (Calc.class_bounds (Calc.params solo));
  let p = Calc.params trio in
  let hists = Array.init 6 (fun _ -> Runtime.Histogram.create ()) in
  Alcotest.(check (list int)) "agrees with the load generator's targets"
    (Array.to_list (Calc.class_bounds p))
    (List.map
       (fun (c : Runtime.Loadgen.class_report) -> c.Runtime.Loadgen.target_us)
       (Runtime.Loadgen.classes_of ~params:p ~windowed:false hists))

let test_params_follow_argv () =
  let p = Calc.params trio in
  Alcotest.(check (list int)) "slack folded into d and u, eps as given"
    [ 4000; 3500; 1000 ] [ p.Core.Params.d; p.Core.Params.u; p.Core.Params.eps ];
  let argv = Calc.timing_argv trio in
  let rec value flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> value flag rest
    | [] -> None
  in
  Alcotest.(check (option string)) "eps is passed explicitly" (Some "1000") (value "--eps" argv);
  Alcotest.(check (option string)) "slack is passed" (Some "3000") (value "--slack" argv);
  (* serve's default eps, (1 - 1/n)u on the configured u, would differ *)
  Alcotest.(check bool) "default eps differs" true
    (Core.Params.optimal_eps ~n:3 ~u:trio.Calc.u <> trio.Calc.eps)

let test_armed_holds () =
  let p = Calc.params trio in
  let b = Calc.class_bounds p and a = Calc.armed_hold_us p in
  Alcotest.(check int) "AOP arms exactly its bound" b.(1) a.(1);
  Alcotest.(check int) "OOP arms exactly its bound" b.(2) a.(2);
  Alcotest.(check int) "MOP arms its bound plus its entry's d+eps" (b.(0) + 4000 + 1000) a.(0);
  Alcotest.(check (array int)) "solo arms nothing" [| 0; 0; 0 |]
    (Calc.armed_hold_us (Calc.params solo))

let test_calm_windows () =
  Alcotest.(check (array bool)) "no steal: every window" [| true; true; true |]
    (Calc.calm_windows [| 0; 0; 0 |]);
  Alcotest.(check (array bool)) "only the least stolen quarter and ties"
    [| true; true; false; false |] (Calc.calm_windows [| 0; 0; 5; 9 |]);
  Alcotest.(check (array bool)) "first quartile of 1..4 is 1.75"
    [| false; true; false; false |] (Calc.calm_windows [| 3; 1; 2; 4 |])

let sample cls lat send recv span = { Calc.cls; lat; send; recv; span }

let test_port () =
  close "port is the uncovered remainder" 31.
    (Calc.port (sample 0 50. 7. 3. 9.))

let test_ledger_closes () =
  (* identical ops: every part's median is that op's part, so the sum
     closes exactly *)
  let s = List.init 5 (fun _ -> sample 1 60. 7. 3. 12.) in
  close "identical ops close" 0. (Calc.ledger_gap_pct s);
  (* two samples: medians are means, which add *)
  close "two samples close" 0.
    (Calc.ledger_gap_pct [ sample 0 10. 1. 1. 2.; sample 0 20. 1. 1. 16. ]);
  close "no samples" 0. (Calc.ledger_gap_pct [])

let test_ledger_gap () =
  (* latencies 10/20/30, spans 2/16/5, send = recv = 1: ports 6/2/23.
     Median parts 1 + 1 + 6 + 5 = 13 against a median latency of 20. *)
  let s = [ sample 2 10. 1. 1. 2.; sample 2 20. 1. 1. 16.; sample 2 30. 1. 1. 5. ] in
  close "medians need not add" 35. (Calc.ledger_gap_pct s);
  (* a closing class of equal weight halves the percentage *)
  let closing = List.init 3 (fun _ -> sample 0 20. 1. 1. 5.) in
  close "count-weighted over classes" 17.5 (Calc.ledger_gap_pct (s @ closing))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_percentile;
          Alcotest.test_case "input untouched" `Quick test_percentile_input_untouched;
          Alcotest.test_case "overhead" `Quick test_overhead;
          Alcotest.test_case "calm windows" `Quick test_calm_windows;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "class bounds" `Quick test_class_bounds;
          Alcotest.test_case "params follow argv" `Quick test_params_follow_argv;
          Alcotest.test_case "armed holds" `Quick test_armed_holds;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "port" `Quick test_port;
          Alcotest.test_case "closes" `Quick test_ledger_closes;
          Alcotest.test_case "gap" `Quick test_ledger_gap;
        ] );
    ]
