(* Tests for the observability subsystem: the event binary codec
   (roundtrip + truncation), the lock-free recorder under concurrent
   multi-domain writers (nothing lost without accounting), the trace-file
   sink (byte-for-byte reparse, append-across-restart, corrupt magic),
   span assembly, bound attribution with excusal windows, the strict JSON
   validator behind the Chrome export, and an end-to-end traced live run. *)

let ev ?(t = 0) ?(pid = 0) ?(trace = 0) ?(a = 0) ?(b = 0) kind =
  { Obs.Event.t_us = t; pid; kind; trace; a; b }

let all_kinds =
  [
    Obs.Event.Invoke; Obs.Event.Hold_set; Obs.Event.Broadcast; Obs.Event.Send;
    Obs.Event.Recv; Obs.Event.Deliver; Obs.Event.Apply; Obs.Event.Respond;
    Obs.Event.Mbox_depth; Obs.Event.Fault; Obs.Event.Drops;
    Obs.Event.Shed; Obs.Event.Queue_depth;
  ]

(* ---- event binary codec ---- *)

let event_gen =
  QCheck.Gen.(
    let* kind = oneofl all_kinds in
    let* t_us = frequency [ (4, big_nat); (1, map (fun n -> -n) big_nat) ] in
    let* pid = int_range (-1) 64 in
    let* trace = frequency [ (1, return 0); (4, int_bound ((1 lsl 56) - 1)) ] in
    let* a = int_bound 1_000_000 in
    let* b = int_bound 1_000_000 in
    return { Obs.Event.t_us; pid; kind; trace; a; b })

let event_arb = QCheck.make ~print:(Format.asprintf "%a" Obs.Event.pp) event_gen

let event_roundtrip =
  QCheck.Test.make ~count:500 ~name:"event encode/decode roundtrip"
    (QCheck.list_of_size QCheck.Gen.(1 -- 40) event_arb)
    (fun events ->
      let buf = Buffer.create 256 in
      List.iter (Obs.Event.encode buf) events;
      let s = Buffer.contents buf in
      let rec decode_all pos acc =
        match Obs.Event.decode s ~pos with
        | Some (e, next) -> decode_all next (e :: acc)
        | None -> (List.rev acc, pos)
      in
      let decoded, final = decode_all 0 [] in
      final = String.length s
      && List.length decoded = List.length events
      && List.for_all2 Obs.Event.equal events decoded)

let event_truncation =
  QCheck.Test.make ~count:300 ~name:"truncated events decode to None"
    QCheck.(pair event_arb pos_int)
    (fun (e, cut) ->
      let buf = Buffer.create 32 in
      Obs.Event.encode buf e;
      let s = Buffer.contents buf in
      let keep = cut mod String.length s in
      match Obs.Event.decode (String.sub s 0 keep) ~pos:0 with
      | None -> true
      | Some _ -> false)

(* ---- recorder under concurrent writers ---- *)

let sum_drops evs =
  List.fold_left
    (fun acc (e : Obs.Event.t) ->
      if e.kind = Obs.Event.Drops then acc + e.a else acc)
    0 evs

(* Spawn [producers] domains running [push p] and be their one consumer:
   drain on this thread until every producer is done, then join them and
   return what each returned. *)
let drain_while_pushing r ~producers push =
  let running = Atomic.make producers in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            Fun.protect ~finally:(fun () -> Atomic.decr running) (fun () ->
                push p)))
  in
  while Atomic.get running > 0 do
    Obs.Recorder.drain r;
    Domain.cpu_relax ()
  done;
  List.map Domain.join doms

let test_recorder_multidomain () =
  let sink, contents = Obs.Recorder.memory_sink () in
  let r = Obs.Recorder.start ~capacity:1024 ~epoch_us:0 ~sink () in
  let producers = 4 and per = 5_000 in
  ignore
    (drain_while_pushing r ~producers (fun p ->
         for i = 1 to per do
           ignore
             (Obs.Recorder.push r
                (ev Obs.Event.Send ~t:i ~pid:p ~trace:((p * per) + i) ~a:p ~b:i))
         done));
  Obs.Recorder.stop r;
  let recorded, dropped = Obs.Recorder.stats r in
  let evs = contents () in
  let payload =
    List.filter (fun (e : Obs.Event.t) -> e.kind <> Obs.Event.Drops) evs
  in
  Alcotest.(check int)
    "every push is either recorded or counted dropped"
    (producers * per) (recorded + dropped);
  Alcotest.(check int) "sink saw exactly the recorded events" recorded
    (List.length payload);
  Alcotest.(check int) "Drops accounting events sum to the drop counter"
    dropped (sum_drops evs);
  (* No duplication, no invention: trace ids are unique and were pushed. *)
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (e : Obs.Event.t) ->
      if Hashtbl.mem seen e.trace then
        Alcotest.failf "trace %d drained twice" e.trace;
      if e.trace < 1 || e.trace > producers * per then
        Alcotest.failf "trace %d was never pushed" e.trace;
      Hashtbl.add seen e.trace ())
    payload

let test_recorder_overload_drops () =
  (* A tiny ring and a deliberately slow sink: producers must overrun it,
     and the overrun must be dropped-and-counted, never blocking. *)
  let drained = Atomic.make 0 in
  let sink _ =
    Atomic.incr drained;
    Thread.delay 0.0002
  in
  let r = Obs.Recorder.start ~capacity:4 ~epoch_us:0 ~sink () in
  let producers = 2 and per = 400 in
  let push_wall =
    List.fold_left max 0
      (drain_while_pushing r ~producers (fun p ->
           let t0 = Prelude.Mclock.now_us () in
           for i = 1 to per do
             ignore (Obs.Recorder.push r (ev Obs.Event.Send ~t:i ~pid:p))
           done;
           Prelude.Mclock.now_us () - t0))
  in
  Obs.Recorder.stop r;
  let recorded, dropped = Obs.Recorder.stats r in
  Alcotest.(check int) "accounting closed" (producers * per)
    (recorded + dropped);
  Alcotest.(check bool) "overload produced counted drops" true (dropped > 0);
  (* Draining 800 events through this sink takes ≥ 160 ms; if producers
     had blocked on the full ring they'd have taken that long too. *)
  Alcotest.(check bool) "producers never blocked on the slow sink" true
    (push_wall < 100_000);
  (* The sink sees the recorded events plus the Drops accounting records. *)
  Alcotest.(check bool) "slow sink saw every recorded event" true
    (Atomic.get drained >= recorded)

(* The recorder's consumer is whoever owns it, so starting one adds no
   thread to the process.  (A domain joined by an earlier test may still
   be leaving, so the count may fall; it must not rise.) *)
let test_recorder_starts_no_thread () =
  if not (Sys.file_exists "/proc/self/task") then Alcotest.skip ();
  let tasks () = Array.length (Sys.readdir "/proc/self/task") in
  let before = tasks () in
  let r = Obs.Recorder.start ~epoch_us:0 ~sink:ignore () in
  let during = tasks () in
  Obs.Recorder.stop r;
  Alcotest.(check bool)
    (Printf.sprintf "%d threads before start, %d after" before during)
    true (during <= before)

(* ---- trace-file sink ---- *)

let test_file_sink_roundtrip () =
  let path = Filename.temp_file "timebounds" ".trace" in
  let batch1 =
    List.init 100 (fun i ->
        ev Obs.Event.Deliver ~t:(i * 3) ~pid:1 ~trace:(i + 1) ~a:2 ~b:i)
  in
  let batch2 =
    List.init 50 (fun i -> ev Obs.Event.Respond ~t:(1000 + i) ~pid:1 ~a:0 ~b:i)
  in
  let sink, _flush, close = Obs.Recorder.file_sink path in
  List.iter sink batch1;
  close ();
  (* A restarted replica appends to the same file — one magic, two lives. *)
  let sink2, _flush2, close2 = Obs.Recorder.file_sink path in
  List.iter sink2 batch2;
  close2 ();
  let back = Obs.Recorder.read_file path in
  Alcotest.(check int) "all events reparsed"
    (List.length batch1 + List.length batch2)
    (List.length back);
  Alcotest.(check bool) "byte-for-byte identical events" true
    (List.for_all2 Obs.Event.equal (batch1 @ batch2) back);
  (* A truncated tail (replica killed mid-write) ends the list cleanly. *)
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  let cut = String.sub bytes 0 (String.length bytes - 1) in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc cut);
  let partial = Obs.Recorder.read_file path in
  Alcotest.(check int) "truncated tail drops exactly the last event"
    (List.length batch1 + List.length batch2 - 1)
    (List.length partial);
  Sys.remove path;
  (* Not a trace file at all: loud failure, not garbage events. *)
  let bogus = Filename.temp_file "timebounds" ".trace" in
  Out_channel.with_open_bin bogus (fun oc ->
      Out_channel.output_string oc "definitely not a trace");
  (match Obs.Recorder.read_file bogus with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "bad magic must raise");
  Sys.remove bogus

(* ---- span assembly ---- *)

let test_span_assembly () =
  let tr = 42 in
  let events =
    [
      ev Obs.Event.Invoke ~t:0 ~pid:0 ~trace:tr ~a:Obs.Event.class_mutator;
      ev Obs.Event.Hold_set ~t:5 ~pid:0 ~trace:tr ~a:500;
      ev Obs.Event.Broadcast ~t:10 ~pid:0 ~trace:tr ~a:2;
      ev Obs.Event.Send ~t:12 ~pid:0 ~trace:tr ~a:1;
      ev Obs.Event.Send ~t:14 ~pid:0 ~trace:tr ~a:2;
      ev Obs.Event.Recv ~t:300 ~pid:1 ~trace:tr ~a:0;
      ev Obs.Event.Deliver ~t:350 ~pid:1 ~trace:tr ~a:0 ~b:3;
      ev Obs.Event.Apply ~t:360 ~pid:1 ~trace:tr ~a:0;
      ev Obs.Event.Recv ~t:400 ~pid:2 ~trace:tr ~a:0;
      ev Obs.Event.Deliver ~t:420 ~pid:2 ~trace:tr ~a:0;
      ev Obs.Event.Respond ~t:600 ~pid:0 ~trace:tr ~a:Obs.Event.class_mutator
        ~b:600;
      (* noise: untraced ambient sample plus a foreign incomplete trace *)
      ev Obs.Event.Mbox_depth ~t:100 ~pid:1 ~a:7;
      ev Obs.Event.Send ~t:50 ~pid:2 ~trace:77 ~a:0;
    ]
  in
  match Obs.Span.assemble events with
  | [ s ] ->
      Alcotest.(check int) "trace" tr s.Obs.Span.trace;
      Alcotest.(check int) "origin" 0 s.Obs.Span.origin;
      Alcotest.(check int) "class" Obs.Event.class_mutator s.Obs.Span.cls;
      Alcotest.(check bool) "complete" true (Obs.Span.complete s);
      Alcotest.(check (option int)) "latency" (Some 600) s.Obs.Span.latency_us;
      Alcotest.(check int) "hold" 500 s.Obs.Span.hold_us;
      (match s.Obs.Span.legs with
      | [ l1; l2 ] ->
          Alcotest.(check int) "leg 1 dst" 1 l1.Obs.Span.dst;
          Alcotest.(check (option int)) "leg 1 wire" (Some 288)
            (Obs.Span.wire_us l1);
          Alcotest.(check (option int)) "leg 1 remote queue" (Some 50)
            (Obs.Span.remote_queue_us l1);
          Alcotest.(check (option int)) "leg 1 apply" (Some 360)
            l1.Obs.Span.apply_us;
          Alcotest.(check int) "leg 2 dst" 2 l2.Obs.Span.dst;
          Alcotest.(check (option int)) "leg 2 wire" (Some 386)
            (Obs.Span.wire_us l2)
      | legs -> Alcotest.failf "expected 2 legs, got %d" (List.length legs))
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* ---- bound attribution ---- *)

let attribution_params = Core.Params.make ~n:3 ~d:1000 ~u:300 ~eps:200 ~x:0 ()

let span_events ~trace ~t0 ~latency ~cls =
  [
    ev Obs.Event.Invoke ~t:t0 ~pid:0 ~trace ~a:cls;
    ev Obs.Event.Respond ~t:(t0 + latency) ~pid:0 ~trace ~a:cls ~b:latency;
  ]

let verdict_of report trace =
  match
    List.find_opt
      (fun (c : Obs.Analyze.checked) -> c.span.Obs.Span.trace = trace)
      report.Obs.Analyze.spans
  with
  | Some c -> c.Obs.Analyze.verdict
  | None -> Alcotest.failf "trace %d missing from report" trace

let test_bound_attribution () =
  (* MOP bound here is ε + X = 200 µs; AOP and OOP are d + ε = 1200 µs. *)
  let events =
    span_events ~trace:1 ~t0:0 ~latency:150 ~cls:Obs.Event.class_mutator
    @ span_events ~trace:2 ~t0:5_000 ~latency:500 ~cls:Obs.Event.class_mutator
    @ span_events ~trace:3 ~t0:20_000 ~latency:900
        ~cls:Obs.Event.class_accessor
    @ [ ev Obs.Event.Invoke ~t:30_000 ~pid:1 ~trace:4 ~a:Obs.Event.class_other ]
  in
  let report = Obs.Analyze.check ~params:attribution_params events in
  Alcotest.(check int) "four spans" 4 report.Obs.Analyze.total;
  (match verdict_of report 1 with
  | Obs.Analyze.Within -> ()
  | _ -> Alcotest.fail "150 µs mutator is within ε + X");
  (match verdict_of report 2 with
  | Obs.Analyze.Violated over -> Alcotest.(check int) "overshoot" 300 over
  | _ -> Alcotest.fail "500 µs mutator violates ε + X = 200");
  (match verdict_of report 3 with
  | Obs.Analyze.Within -> ()
  | _ -> Alcotest.fail "900 µs accessor is within d + ε − X");
  (match verdict_of report 4 with
  | Obs.Analyze.Incomplete -> ()
  | _ -> Alcotest.fail "no response means Incomplete");
  Alcotest.(check int) "one unexcused violation" 1
    report.Obs.Analyze.violations;
  Alcotest.(check int) "one incomplete" 1 report.Obs.Analyze.incomplete;
  (* Grace absorbs the overshoot... *)
  let lenient =
    Obs.Analyze.check ~params:attribution_params ~grace_us:300 events
  in
  Alcotest.(check int) "grace absorbs the overshoot" 0
    lenient.Obs.Analyze.violations;
  (* ...and an assumption-violation window overlapping the span excuses it
     instead of counting it. *)
  let excused =
    Obs.Analyze.check ~params:attribution_params
      ~windows:[ ("spike", 4_900, 5_200) ]
      events
  in
  (match verdict_of excused 2 with
  | Obs.Analyze.Excused w -> Alcotest.(check string) "window label" "spike" w
  | _ -> Alcotest.fail "overlapping window must excuse the violation");
  Alcotest.(check int) "excused, not violated" 0
    excused.Obs.Analyze.violations;
  Alcotest.(check int) "excused counted" 1 excused.Obs.Analyze.excused;
  (* A window that does not overlap excuses nothing. *)
  let disjoint =
    Obs.Analyze.check ~params:attribution_params
      ~windows:[ ("spike", 100_000, 200_000) ]
      events
  in
  Alcotest.(check int) "disjoint window excuses nothing" 1
    disjoint.Obs.Analyze.violations

(* ---- overload: shed excusal, counters, exports ---- *)

let test_shed_excusal_and_exports () =
  (* A span whose trace carries a [Shed] event completed only after a
     refusal round-trip plus client backoff, so the analyzer excuses it
     from the bound check — but counts every shed by reason and every
     lane high-water mark, so nothing disappears from the report. *)
  let events =
    span_events ~trace:1 ~t0:0 ~latency:150 ~cls:Obs.Event.class_mutator
    (* trace 2: shed at admission, replayed, finished way over ε + X *)
    @ [
        ev Obs.Event.Shed ~t:5_100 ~pid:1 ~trace:2
          ~a:Obs.Event.shed_admission;
      ]
    @ span_events ~trace:2 ~t0:5_000 ~latency:5_000
        ~cls:Obs.Event.class_mutator
    (* an untraced deadline shed still counts by reason *)
    @ [
        ev Obs.Event.Shed ~t:6_000 ~pid:2 ~a:Obs.Event.shed_deadline;
        ev Obs.Event.Queue_depth ~t:100 ~pid:0 ~a:Obs.Event.lane_data ~b:5;
        ev Obs.Event.Queue_depth ~t:200 ~pid:0 ~a:Obs.Event.lane_data ~b:9;
        ev Obs.Event.Queue_depth ~t:300 ~pid:1 ~a:Obs.Event.lane_ctrl ~b:2;
      ]
  in
  let report = Obs.Analyze.check ~params:attribution_params events in
  (match verdict_of report 1 with
  | Obs.Analyze.Within -> ()
  | _ -> Alcotest.fail "unshed trace is checked normally");
  (match verdict_of report 2 with
  | Obs.Analyze.Excused label ->
      Alcotest.(check string) "excused as shed" "shed" label
  | _ -> Alcotest.fail "shed trace must be excused, not violated");
  Alcotest.(check int) "no unexcused violations" 0
    report.Obs.Analyze.violations;
  Alcotest.(check int) "one shed span" 1 report.Obs.Analyze.shed_spans;
  Alcotest.(check (list (pair string int)))
    "sheds by reason"
    [ ("deadline", 1); ("admission", 1) ]
    report.Obs.Analyze.sheds;
  Alcotest.(check (list (pair string int)))
    "lane high-water marks"
    [ ("ctrl", 2); ("data", 9) ]
    report.Obs.Analyze.lane_hwm;
  (* both exports carry the new counters and stay well-formed *)
  let chrome = Obs.Export.chrome ~report ~events in
  (match Obs.Json.validate chrome with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chrome export invalid: %s" e);
  let contains_sub hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i =
      i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "chrome has shed instants" true
    (contains_sub chrome "shed:admission");
  Alcotest.(check bool) "chrome has lane counters" true
    (contains_sub chrome "lane:data");
  let prom = Obs.Export.prometheus ~report () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " exported") true
        (contains_sub prom needle))
    [
      "timebounds_shed_total{reason=\"deadline\"} 1";
      "timebounds_shed_total{reason=\"admission\"} 1";
      "timebounds_queue_depth{lane=\"ctrl\"} 2";
      "timebounds_queue_depth{lane=\"data\"} 9";
    ];
  (* a shed-free report still exports the counter, at zero *)
  let clean =
    Obs.Analyze.check ~params:attribution_params
      (span_events ~trace:9 ~t0:0 ~latency:100 ~cls:Obs.Event.class_mutator)
  in
  Alcotest.(check bool) "zero line when nothing shed" true
    (contains_sub (Obs.Export.prometheus ~report:clean ()) "timebounds_shed_total 0")

(* ---- JSON validator ---- *)

let test_json_validator () =
  let ok s =
    match Obs.Json.validate s with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%S should validate: %s" s e
  in
  let bad s =
    match Obs.Json.validate s with
    | Ok () -> Alcotest.failf "%S should be rejected" s
    | Error _ -> ()
  in
  ok {|{}|};
  ok {|[]|};
  ok {|{"a":[1,-2.5e-3,"xA\n",true,false,null],"b":{"c":[[]]}}|};
  ok {| [ 0 , 1.5 , "\"\\\/" ] |};
  bad {||};
  bad {|{"a":1,}|};
  bad {|[1 2]|};
  bad {|{a:1}|};
  bad {|"unterminated|};
  bad {|[NaN]|};
  bad {|01|};
  bad {|1.|};
  bad {|{} trailing|};
  bad "[\"ctrl\x01char\"]"

(* ---- end-to-end: a traced live run ---- *)

let test_traced_live_run () =
  let module Gen = Runtime.Loadgen.Make (Runtime.Workloads.Register_live) in
  let sink, contents = Obs.Recorder.memory_sink () in
  let r = Obs.Recorder.start ~epoch_us:(Prelude.Mclock.now_us ()) ~sink () in
  Obs.Recorder.install r;
  let ops = 24 in
  let run = Gen.run ~n:3 ~d:2000 ~u:500 ~ops ~seed:3 () in
  Obs.Recorder.uninstall ();
  Obs.Recorder.stop r;
  Alcotest.(check bool) "run linearizable" true
    (Runtime.Loadgen.is_linearizable run);
  let events = contents () in
  (* The run is in virtual time, so spans are exact up to one rule: a
     replica takes at most one step per µs.  Each client invokes in the µs
     its previous operation completed (the first in the µs its replica
     booted), so the replica steps the invocation one µs after the Invoke
     event's stamp and every span lasts exactly its bound + 1 µs. *)
  let report =
    Obs.Analyze.check ~params:run.Runtime.Loadgen.params ~grace_us:1 events
  in
  Alcotest.(check int) "every operation became a span" ops
    report.Obs.Analyze.total;
  Alcotest.(check int) "all spans complete" 0 report.Obs.Analyze.incomplete;
  Alcotest.(check int) "nothing violates at bound + 1 µs" 0
    report.Obs.Analyze.violations;
  Alcotest.(check bool) "some class stats" true
    (report.Obs.Analyze.classes <> []);
  (* Mutator spans fan out to both peers in a 3-replica cluster. *)
  let mutator_with_legs =
    List.exists
      (fun (c : Obs.Analyze.checked) ->
        c.span.Obs.Span.cls = Obs.Event.class_mutator
        && List.length c.span.Obs.Span.legs = 2)
      report.Obs.Analyze.spans
  in
  Alcotest.(check bool) "a mutator span has both wire legs" true
    mutator_with_legs;
  let chrome = Obs.Export.chrome ~report ~events in
  (match Obs.Json.validate chrome with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chrome export invalid: %s" e);
  let prom =
    Obs.Export.prometheus ~report ~recorder:(Obs.Recorder.stats r) ()
  in
  let contains_sub hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prometheus has ops counter" true
    (contains_sub prom "timebounds_ops_total");
  Alcotest.(check bool) "prometheus has bound gauge" true
    (contains_sub prom "timebounds_bound_us")

(* A long in-process traced run emits far more events than the ring
   holds, and nothing else drains it before [stop].  The virtual-time
   loop is the only producer, so a full ring is drained in place: nothing
   is lost, every span completes, and the run's timeline stays virtual. *)
let test_traced_long_run_loses_nothing () =
  let module Gen = Runtime.Loadgen.Make (Runtime.Workloads.Register_live) in
  let sink, contents = Obs.Recorder.memory_sink () in
  let r = Obs.Recorder.start ~epoch_us:(Prelude.Mclock.now_us ()) ~sink () in
  Obs.Recorder.install r;
  let ops = 20_000 in
  let run = Gen.run ~n:3 ~d:2000 ~u:500 ~ops ~seed:5 () in
  Obs.Recorder.uninstall ();
  Obs.Recorder.stop r;
  let recorded, dropped = Obs.Recorder.stats r in
  Alcotest.(check int) "no event dropped" 0 dropped;
  let events = contents () in
  Alcotest.(check int) "every recorded event drained" recorded
    (List.length events);
  Alcotest.(check bool) "stamps within the virtual run" true
    (List.for_all
       (fun (e : Obs.Event.t) ->
         e.Obs.Event.t_us >= 0 && e.Obs.Event.t_us <= run.Runtime.Loadgen.wall_us)
       events);
  let report =
    Obs.Analyze.check ~params:run.Runtime.Loadgen.params ~grace_us:1 events
  in
  Alcotest.(check int) "every operation became a span" ops
    report.Obs.Analyze.total;
  Alcotest.(check int) "all spans complete" 0 report.Obs.Analyze.incomplete

(* ---- trace ids ---- *)

let test_trace_ids () =
  let a = Obs.Trace_id.fresh ~origin:3 in
  let b = Obs.Trace_id.fresh ~origin:3 in
  let c = Obs.Trace_id.fresh ~origin:9 in
  Alcotest.(check bool) "fresh ids are distinct" true (a <> b && b <> c);
  Alcotest.(check int) "origin recovered" 3 (Obs.Trace_id.origin a);
  Alcotest.(check int) "origin recovered" 9 (Obs.Trace_id.origin c);
  Alcotest.(check bool) "never the null id" true
    (a <> Obs.Trace_id.none && b <> Obs.Trace_id.none)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "obs"
    [
      ("event-codec", qsuite [ event_roundtrip; event_truncation ]);
      ( "recorder",
        [
          Alcotest.test_case "multi-domain writers, full accounting" `Quick
            test_recorder_multidomain;
          Alcotest.test_case "overload drops are counted, never block" `Quick
            test_recorder_overload_drops;
          Alcotest.test_case "start adds no thread" `Quick
            test_recorder_starts_no_thread;
          Alcotest.test_case "file sink roundtrip + append + corruption"
            `Quick test_file_sink_roundtrip;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "span assembly" `Quick test_span_assembly;
          Alcotest.test_case "bound attribution + excusal" `Quick
            test_bound_attribution;
          Alcotest.test_case "shed excusal, counters, exports" `Quick
            test_shed_excusal_and_exports;
          Alcotest.test_case "trace ids" `Quick test_trace_ids;
        ] );
      ("json", [ Alcotest.test_case "validator" `Quick test_json_validator ]);
      ( "e2e",
        [
          Alcotest.test_case "traced live run" `Quick test_traced_live_run;
          Alcotest.test_case "long traced run loses no event" `Quick
            test_traced_long_run_loses_nothing;
        ] );
    ]
