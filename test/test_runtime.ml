(* Tests for the live runtime: histogram bucketing/percentile/merge math,
   workload sampler classification, the virtual-time loop's links and
   determinism, full in-process executions — the live replicas on the
   virtual-time loop for three sample data types, with the post-hoc
   segmented linearizability verdict — and the sans-I/O replica core
   stepped by hand and under [Sim.Engine]. *)

(* ---- histogram ---- *)

let test_hist_buckets () =
  (* exact unit buckets below 16 *)
  for v = 0 to 15 do
    Alcotest.(check (pair int int))
      (Printf.sprintf "bucket of %d is exact" v)
      (v, v)
      (Runtime.Histogram.bucket_bounds (Runtime.Histogram.bucket_of v))
  done;
  (* every value lies inside its bucket's bounds, and bounds tile without
     overlap: the next bucket starts right after this one ends *)
  List.iter
    (fun v ->
      let lo, hi = Runtime.Histogram.bucket_bounds (Runtime.Histogram.bucket_of v) in
      Alcotest.(check bool)
        (Printf.sprintf "%d in [%d, %d]" v lo hi)
        true
        (lo <= v && v <= hi);
      (* ~6 % relative width *)
      Alcotest.(check bool)
        (Printf.sprintf "bucket of %d is narrow" v)
        true
        (hi - lo <= max 1 (v / 8)))
    [ 16; 17; 31; 32; 100; 500; 511; 512; 1000; 123_456; 1_000_000; 987_654_321 ];
  let rec check_tiling idx =
    if idx < 200 then begin
      let _, hi = Runtime.Histogram.bucket_bounds idx in
      let lo', _ = Runtime.Histogram.bucket_bounds (idx + 1) in
      Alcotest.(check int) (Printf.sprintf "bucket %d tiles" idx) (hi + 1) lo';
      check_tiling (idx + 1)
    end
  in
  check_tiling 0

let test_hist_percentiles () =
  let h = Runtime.Histogram.create () in
  for v = 1 to 1000 do
    Runtime.Histogram.add h v
  done;
  Alcotest.(check int) "count" 1000 (Runtime.Histogram.count h);
  Alcotest.(check int) "max exact" 1000 (Runtime.Histogram.max_value h);
  let p50 = Runtime.Histogram.percentile h 50. in
  Alcotest.(check bool) "p50 within bucket width of 500" true
    (500 <= p50 && p50 <= 532);
  let p99 = Runtime.Histogram.percentile h 99. in
  Alcotest.(check bool) "p99 within bucket width of 990" true
    (990 <= p99 && p99 <= 1000);
  Alcotest.(check int) "p100 = max" 1000 (Runtime.Histogram.percentile h 100.);
  Alcotest.(check (float 1.)) "mean" 500.5 (Runtime.Histogram.mean h);
  (* empty histogram is all zeroes *)
  let e = Runtime.Histogram.create () in
  Alcotest.(check int) "empty p99" 0 (Runtime.Histogram.percentile e 99.)

let test_hist_merge () =
  let a = Runtime.Histogram.create () and b = Runtime.Histogram.create () in
  for v = 1 to 500 do
    Runtime.Histogram.add a v
  done;
  for v = 501 to 1000 do
    Runtime.Histogram.add b v
  done;
  let m = Runtime.Histogram.merge a b in
  let whole = Runtime.Histogram.create () in
  for v = 1 to 1000 do
    Runtime.Histogram.add whole v
  done;
  Alcotest.(check int) "merged count" 1000 (Runtime.Histogram.count m);
  Alcotest.(check int) "merged max" 1000 (Runtime.Histogram.max_value m);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "merge ≡ whole at p%.0f" p)
        (Runtime.Histogram.percentile whole p)
        (Runtime.Histogram.percentile m p))
    [ 10.; 50.; 90.; 99. ];
  (* inputs unchanged *)
  Alcotest.(check int) "a untouched" 500 (Runtime.Histogram.count a)

(* Merged quantiles must equal the quantiles of the concatenated samples,
   to within the histogram's bucket error — the property [Loadgen] and
   [Shard.Cluster] rely on when they accumulate per-worker histograms with
   [merge_into].  The rank convention matches [percentile]:
   rank = ⌈p/100·n⌉ (at least 1), and the reported value always lands in
   the same bucket as the exact rank-th sample. *)
let hist_merge_quantiles =
  let sample = QCheck.Gen.(frequency [ (3, int_bound 2000); (1, int_bound 5_000_000) ]) in
  QCheck.Test.make ~count:200
    ~name:"merged quantiles = concatenated-sample quantiles (bucket error)"
    QCheck.(
      pair
        (make Gen.(list_size (1 -- 200) sample))
        (make Gen.(list_size (1 -- 200) sample)))
    (fun (xs, ys) ->
      let h1 = Runtime.Histogram.create ()
      and h2 = Runtime.Histogram.create () in
      List.iter (Runtime.Histogram.add h1) xs;
      List.iter (Runtime.Histogram.add h2) ys;
      let merged = Runtime.Histogram.merge h1 h2 in
      let accum = Runtime.Histogram.create () in
      Runtime.Histogram.merge_into ~into:accum h1;
      Runtime.Histogram.merge_into ~into:accum h2;
      let all = List.sort compare (xs @ ys) in
      let n = List.length all in
      let exact p =
        let rank =
          Stdlib.min n
            (Stdlib.max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))))
        in
        List.nth all (rank - 1)
      in
      Runtime.Histogram.count merged = n
      && Runtime.Histogram.count accum = n
      && Runtime.Histogram.max_value merged = List.nth all (n - 1)
      && List.for_all
           (fun p ->
             let q = Runtime.Histogram.percentile merged p in
             (* merge and merge_into agree exactly... *)
             q = Runtime.Histogram.percentile accum p
             (* ...and land in the exact quantile's bucket *)
             && Runtime.Histogram.bucket_of q
                = Runtime.Histogram.bucket_of (exact p))
           [ 1.; 25.; 50.; 90.; 99.; 100. ])

(* ---- workload samplers agree with the data type's classification ---- *)

let test_samplers_classify () =
  List.iter
    (fun (module L : Runtime.Workloads.LIVE) ->
      let rng = Prelude.Rng.make 42 in
      for _ = 1 to 20 do
        Alcotest.(check bool)
          (L.label ^ " mutator sampler") true
          (L.D.classify (L.sample_mutator rng) = Spec.Data_type.Pure_mutator);
        Alcotest.(check bool)
          (L.label ^ " accessor sampler") true
          (L.D.classify (L.sample_accessor rng) = Spec.Data_type.Pure_accessor);
        Alcotest.(check bool)
          (L.label ^ " other sampler") true
          (L.D.classify (L.sample_other rng) = Spec.Data_type.Other)
      done)
    Runtime.Workloads.all

(* ---- live executions ---- *)

(* 36 ops keeps each run in one quiescent segment. *)
let live_run (module L : Runtime.Workloads.LIVE) =
  let module Gen = Runtime.Loadgen.Make (L) in
  Gen.run ~n:3 ~d:3000 ~u:1000 ~slack:25_000 ~round:36 ~ops:36
    ~mix:(40, 40, 20) ~seed:5 ()

(* [timebounds live --object queue --n 3 --ops 300 --seed 3]: in
   lockstep a client's next invocation shares the µs of another client's
   answer.  Ordered as the loop took them (answers first), the history
   decides in milliseconds; with the two counted as concurrent the queue's
   enqueue orders multiply until the checker's budget runs out. *)
let test_live_queue_same_us () =
  let module Gen = Runtime.Loadgen.Make (Runtime.Workloads.Fifo_queue_live) in
  let r =
    Gen.run ~n:3 ~d:2000 ~u:500 ~slack:5000 ~mix:(50, 40, 10) ~ops:300 ~seed:3
      ()
  in
  match r.Runtime.Loadgen.verdict with
  | Runtime.Loadgen.Linearizable segments ->
      Alcotest.(check int) "every segment verified" 7 segments
  | v -> Alcotest.failf "%a" Runtime.Loadgen.pp_verdict v

let test_live (module L : Runtime.Workloads.LIVE) () =
  let r = live_run (module L) in
  (match r.Runtime.Loadgen.verdict with
  | Runtime.Loadgen.Linearizable segments ->
      Alcotest.(check bool) "at least one segment" true (segments >= 1)
  | Runtime.Loadgen.Violation { reason; _ } ->
      Alcotest.failf "%s live run not linearizable: %s" L.label reason
  | Runtime.Loadgen.Unchecked reason ->
      Alcotest.failf "%s live run unchecked: %s" L.label reason);
  let total =
    List.fold_left
      (fun acc (c : Runtime.Loadgen.class_report) ->
        acc + Runtime.Histogram.count c.hist)
      0 r.Runtime.Loadgen.classes
  in
  Alcotest.(check int) "every op measured exactly once" 36 total;
  (* At X = 0 mutators respond in ε and accessors in d + slack + ε. *)
  let p50 name =
    let c =
      List.find
        (fun (c : Runtime.Loadgen.class_report) ->
          String.equal c.class_name name)
        r.Runtime.Loadgen.classes
    in
    Runtime.Histogram.percentile c.hist 50.
  in
  Alcotest.(check bool) "mutators far faster than accessors at X=0" true
    (p50 "MOP" < p50 "AOP")

let test_live_loss_is_detected () =
  (* Algorithm 1 responds on local timers, so even heavy loss must not hang
     the closed loop: the run completes and the drops are visible in the
     transport stats.  (The verdict is near-certainly a Violation — a lost
     mutator makes some accessor read stale state — but that is left to the
     CLI's --loss demonstration rather than asserted, to keep CI immune to
     the rare lucky schedule.) *)
  let module Gen = Runtime.Loadgen.Make (Runtime.Workloads.Register_live) in
  let r =
    Gen.run ~n:3 ~d:3000 ~u:1000 ~slack:25_000 ~round:36 ~ops:36
      ~mix:(60, 40, 0) ~loss:60 ~seed:3 ()
  in
  Alcotest.(check bool) "messages were dropped" true
    (r.Runtime.Loadgen.net.Runtime.Transport_intf.dropped > 0)

(* ---- the virtual-time loop ---- *)

(* Every link delivers in the order messages entered it, and with no
   fault every delivered message took a delay inside [d − u, d] — also
   when independent draws would overtake (writes 100 µs apart, delays
   1.5 ms apart) and when the policy loses messages.  Read off the [Send]
   and [Deliver] events, which the loop stamps with virtual time. *)
let vloop_links_fifo =
  QCheck.Test.make ~count:60
    ~name:"per-link FIFO, fault-free delays in [d − u, d]"
    QCheck.(pair small_nat (int_bound 2))
    (fun (seed, kind) ->
      let n = 3 and d = 2000 and u = 1500 in
      let rng = Prelude.Rng.make seed in
      let base = Sim.Delay.random rng ~d ~u in
      let policy =
        match kind with
        | 0 -> base
        | 1 -> Sim.Delay.lossy base ~rng ~percent:30
        | _ -> Sim.Delay.lossy_bounded base ~rng ~percent:50 ~max_consecutive:2
      in
      let params =
        Core.Params.make ~n ~d ~u ~eps:(Core.Params.optimal_eps ~n ~u) ()
      in
      let module V = Runtime.Vloop.Make (Spec.Register) in
      let sink, contents = Obs.Recorder.memory_sink () in
      let r = Obs.Recorder.start ~epoch_us:0 ~sink () in
      Obs.Recorder.install r;
      let v = V.create ~params ~policy () in
      for i = 0 to 29 do
        V.at v (i * 100) (fun () ->
            V.invoke v ~pid:(i mod n) ~trace:(i + 1) (Spec.Register.Write i)
              ignore)
      done;
      V.run v ~until:(fun () -> false);
      ignore (V.stop v);
      Obs.Recorder.uninstall ();
      Obs.Recorder.stop r;
      let on kind ~from ~to_ =
        List.filter_map
          (fun (e : Obs.Event.t) ->
            if e.kind = kind && e.pid = from && e.a = to_ then
              Some (e.trace, e.t_us)
            else None)
          (contents ())
      in
      List.for_all
        (fun (src, dst) ->
          let sent = on Obs.Event.Send ~from:src ~to_:dst in
          let delivered = on Obs.Event.Deliver ~from:dst ~to_:src in
          (* delivered traces, in delivery order, are a subsequence of the
             sent ones in send order *)
          let rec in_order sent delivered =
            match (sent, delivered) with
            | _, [] -> true
            | [], _ :: _ -> false
            | (s, _) :: sent, (t, _) :: rest ->
                in_order sent (if s = t then rest else delivered)
          in
          sent <> [] && in_order sent delivered
          && List.for_all
               (fun (trace, at) ->
                 let delay = at - List.assoc trace sent in
                 d - u <= delay && delay <= d)
               delivered)
        [ (0, 1); (0, 2); (1, 0); (1, 2); (2, 0); (2, 1) ])

(* Two replicas answer writes in the same µs (both ε + X holds fall due
   together); the first client's next invocation, issued from its answer,
   is taken only after the second client's answer is out. *)
let test_vloop_answers_before_invokes () =
  let module V = Runtime.Vloop.Make (Spec.Register) in
  let params = Core.Params.make ~n:2 ~d:1000 ~u:0 ~eps:0 ~x:100 () in
  let v =
    V.create ~params ~policy:(Sim.Delay.random (Prelude.Rng.make 1) ~d:1000 ~u:0) ()
  in
  let log = ref [] in
  let note what = log := (what, V.now v) :: !log in
  V.invoke v ~pid:0 (Spec.Register.Write 1) (fun _ ->
      note "answer A";
      V.invoke v ~pid:0 ~taken:(fun () -> note "take A2") Spec.Register.Read
        (fun _ -> ()));
  V.invoke v ~pid:1 (Spec.Register.Write 2) (fun _ -> note "answer B");
  V.run v ~until:(fun () -> List.length !log = 3);
  V.stop v;
  let events = List.rev !log in
  Alcotest.(check (list string)) "loop order" [ "answer A"; "answer B"; "take A2" ]
    (List.map fst events);
  Alcotest.(check int) "all in one µs" 1
    (List.length (List.sort_uniq compare (List.map snd events)))

(* A run is a pure function of its arguments: the same seed gives the
   same report — histograms, cuts, counters and verdict. *)
let test_vloop_same_seed_same_report () =
  let module Gen = Runtime.Loadgen.Make (Runtime.Workloads.Kv_map_live) in
  let run () =
    Gen.run ~n:3 ~d:2000 ~u:500 ~round:24 ~ops:120 ~mix:(40, 40, 20) ~loss:5
      ~seed:9 ()
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical reports" true (a = b);
  Alcotest.(check bool) "the run did something" true
    (a.Runtime.Loadgen.net.Runtime.Transport_intf.dropped > 0
    && List.length a.Runtime.Loadgen.cuts = 5)

(* What a replica keeps per operation served: one bare n = 1 driver with
   every hold 0, stepped in virtual time by a closed-loop client of kv
   puts and gets (each op invoked as its predecessor completes, timers
   fired when due), live heap words read after a full major GC while the
   driver is still live.  Counted words, not time.  Nothing grows with
   ops served: the object is bounded (64 keys), Algorithm 1 keeps no
   history, and with recovery armed the dedup window and tables hold only
   the entries stamped inside the window. *)
module Kv_rep = Runtime.Replica.Make (Spec.Kv_map)

let bare_driver ?recovery ?dedup_window_us () =
  let params = Core.Params.make ~n:1 ~d:0 ~u:0 ~eps:0 ~x:0 () in
  let d =
    Kv_rep.driver ~params ?recovery ?dedup_window_us ~offset:0 0
  in
  let now = ref 0 and issued = ref 0 and answered = ref 0 in
  let out = function Sim.Action.Respond _ -> incr answered | _ -> () in
  let run_to ops =
    while !answered < ops do
      if !issued = !answered then begin
        let i = !issued in
        let op =
          if i mod 2 = 0 then Spec.Kv_map.Put (i mod 64, i)
          else Spec.Kv_map.Get (i mod 64)
        in
        incr issued;
        Kv_rep.invoke_at d ~now:!now ~out ~trace:0 ~op_id:(i + 1) ~deadline:0
          ~ticket:i op
      end
      else begin
        let due = Kv_rep.next_due d in
        if due = max_int then Alcotest.fail "the driver stalled";
        now := max !now due;
        Kv_rep.fire_due d ~now:!now ~out
      end
    done
  in
  let live_words_at ops =
    run_to ops;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  (d, live_words_at)

let test_vloop_words_per_op () =
  let _, live_words_at = bare_driver () in
  let w10k = live_words_at 10_000 in
  let w40k = live_words_at 40_000 in
  let per_op = float_of_int (w40k - w10k) /. 30_000. in
  if per_op > 1. then
    Alcotest.failf "%.2f live words per op (bound 1)" per_op

let armed_recovery =
  {
    Kv_rep.catchup_wait_us = 0;
    on_apply = (fun _ _ _ -> ());
    on_transfer = (fun ~src:_ _ -> ());
    recovered = None;
  }

(* A million operations through one driver, recovery off and armed with
   a 20 ms dedup window (~10k ops at this rate): the live heap after them
   is within a fixed allowance of the heap after 10k — 40k words, against
   the ~7.5M a history of 7.5 words per op would add.  The armed case
   covers drivers with a finite window, as TCP hosts run them (the client
   deadline, ~4 s); in process, [Vloop]'s replicas keep every id, since
   their clients have no deadline. *)
let test_vloop_million_ops_bounded () =
  List.iter
    (fun (what, recovery) ->
      let _, live_words_at =
        bare_driver ?recovery ~dedup_window_us:20_000 ()
      in
      let w10k = live_words_at 10_000 in
      let w1m = live_words_at 1_000_000 in
      if w1m - w10k > 40_000 then
        Alcotest.failf "%s: %d live words after 1M ops, %d after 10k" what
          w1m w10k)
    [ ("recovery off", None); ("recovery armed", Some armed_recovery) ]

(* The host's caught-up pass on one driver.  A replica serves one
   operation at a time and takes one step per µs, so inputs stepped at one
   clock reading carry its steps past that reading: a zero hold such a
   step sets is due at a step already taken and fires in the pass, while
   a hold with a delay waits for the clock itself, not for the steps that
   ran ahead of it.  Puts (pure mutators) wait ε + X = 0, gets (pure
   accessors) d + ε − X = d. *)
let test_caught_up_fires_zero_holds_only () =
  let now = 100 in
  let burst ~d first =
    let params = Core.Params.make ~n:1 ~d ~u:0 ~eps:0 ~x:0 () in
    let d = Kv_rep.driver ~params ~offset:0 0 in
    let puts = ref 0 and gets = ref 0 in
    let out = function
      | Sim.Action.Respond r ->
          incr
            (match first with
            | Spec.Kv_map.Get _ when r.Kv_rep.ticket = 0 -> gets
            | _ -> puts)
      | _ -> ()
    in
    for i = 0 to 31 do
      let op = if i = 0 then first else Spec.Kv_map.Put (i, i) in
      Kv_rep.invoke_at d ~now ~out ~trace:0 ~op_id:(i + 1) ~deadline:0
        ~ticket:i op
    done;
    Kv_rep.fire_due d ~now ~out;
    (d, out, puts, gets)
  in
  (* the first put answers at the reading, at a step past the burst's,
     and the next put's zero hold is due at that step (its entry's own
     timers wait d = 1 ms) *)
  let d, out, puts, _ = burst ~d:1_000 (Spec.Kv_map.Put (0, 0)) in
  Alcotest.(check int) "one put at the reading" 1 !puts;
  Alcotest.(check bool) "the pass fired" true (Kv_rep.fire_caught_up d ~now ~out);
  Alcotest.(check int) "the next put in the pass" 2 !puts;
  Alcotest.(check bool) "the zero hold the pass set, in a later one" true
    (Kv_rep.fire_caught_up d ~now ~out);
  Alcotest.(check int) "one put per pass" 3 !puts;
  (* a get stepped at the reading is due d = 10 µs after it, inside the
     32 µs the burst's steps ran ahead *)
  let d, out, _, gets = burst ~d:10 (Spec.Kv_map.Get 0) in
  Alcotest.(check bool) "the pass fires nothing" false
    (Kv_rep.fire_caught_up d ~now ~out);
  Kv_rep.fire_due d ~now:(now + 9) ~out;
  Alcotest.(check int) "no get before its 10 µs" 0 !gets;
  Alcotest.(check bool) "the get at its due time" true
    (Kv_rep.fire_caught_up d ~now:(now + 10) ~out);
  Alcotest.(check int) "the get answered" 1 !gets

(* A checkpoint is the object, the high-water mark and the dedup window:
   its encoding after 100k ops is the size it was after 10k (varint
   widths aside), not ten times it. *)
let test_checkpoint_bytes_flat () =
  let module P = Net.Persist.Make (Net.Wire.Kv_codec) in
  let d, live_words_at =
    bare_driver ~recovery:armed_recovery ~dedup_window_us:5_000 ()
  in
  let bytes_at ops =
    ignore (live_words_at ops);
    let view = Kv_rep.driver_snapshot d in
    String.length
      (P.encode_snapshot
         {
           P.s_obj = view.Kv_rep.obj;
           s_hwm_time = view.hwm_time;
           s_hwm_pid = view.hwm_pid;
           s_applied =
             List.map
               (fun ((e : Kv_rep.Alg.entry), result, op_id) ->
                 {
                   P.op = e.op;
                   time = e.ts.Prelude.Stamp.time;
                   pid = e.ts.Prelude.Stamp.pid;
                   op_id;
                   result;
                 })
               view.window;
         })
  in
  let b10k = bytes_at 10_000 in
  let b100k = bytes_at 100_000 in
  if b10k = 0 || float_of_int (abs (b100k - b10k)) > 0.1 *. float_of_int b10k
  then Alcotest.failf "checkpoint %d bytes after 10k ops, %d after 100k" b10k b100k

(* The dedup window's floor is a stable frontier: with every delay in
   [d − u, d] and clocks within ε, no replica applies an entry stamped
   more than [min_window_us] below the highest stamp any replica has
   applied — so an entry that has left a window of that length (its
   stamp now counts as seen) is never still to be applied.  Closed-loop
   clients on all three replicas, recovery armed so every apply is seen;
   50 seeded runs on the raw clocks, 10 with sync armed over clocks 4 ms
   apart (stamps then come from the corrected clocks). *)
let test_frontier_holds () =
  let module V = Runtime.Vloop.Make (Spec.Register) in
  let run ~params ~offsets ?sync seed =
    let window =
      V.R.min_window_us
        { V.R.params; recovery = None; fallback = None; sync;
          dedup_window_us = max_int }
    in
    let top = ref min_int and worst = ref max_int and applies = ref 0 in
    let recovery =
      {
        V.R.catchup_wait_us = 0;
        on_apply =
          (fun (e : V.R.Alg.entry) _ _ ->
            let ts = e.ts.Prelude.Stamp.time in
            incr applies;
            top := max !top ts;
            worst := min !worst (ts - (!top - window)));
        on_transfer = (fun ~src:_ _ -> ());
        recovered = None;
      }
    in
    let d = params.Core.Params.d and u = params.Core.Params.u in
    let v =
      V.create ~params ~offsets ~recovery ?sync
        ~policy:(Sim.Delay.random (Prelude.Rng.make seed) ~d ~u)
        ()
    in
    let rng = Prelude.Rng.make (1000 + seed)
    and answered = ref 0
    and next_id = ref 0 in
    let rec client pid =
      let op =
        match Prelude.Rng.int rng 3 with
        | 0 -> Spec.Register.Write (Prelude.Rng.int rng 100)
        | 1 -> Spec.Register.Read
        | _ -> Spec.Register.Rmw (Prelude.Rng.int rng 100)
      in
      incr next_id;
      V.invoke v ~pid ~op_id:!next_id op (fun _ ->
          incr answered;
          client pid)
    in
    for pid = 0 to 2 do
      client pid;
      client pid
    done;
    V.run v ~until:(fun () -> !answered >= 3_000);
    V.stop v;
    if !applies < 1_000 then Alcotest.failf "seed %d: %d applies" seed !applies;
    if !worst < 0 then
      Alcotest.failf "seed %d: an entry applied %d µs below the frontier" seed
        (- !worst)
  in
  for seed = 1 to 50 do
    run seed ~offsets:[| 0; 200; 90 |]
      ~params:(Core.Params.make ~n:3 ~d:1000 ~u:300 ~eps:200 ~x:100 ())
  done;
  for seed = 1 to 10 do
    run seed ~offsets:[| 2_000; 0; -2_000 |]
      ~params:(Core.Params.make ~n:3 ~d:2_000 ~u:500 ~eps:4_000 ~x:100 ())
      ~sync:(Sync.Config.make ~interval_us:10_000 ~d:2_000 ~u:500 ())
  done

(* ---- the sans-I/O replica core, stepped by hand ---- *)

(* Every step names its exact local clock and every timer fires at exactly
   set-at + delay: no threads, no sleeps, no grace.  Timing: d = 1000,
   u = 300, ε = 200, X = 100 — MOP hold ε + X = 300, AOP hold
   d + ε − X = 1100, self-delivery d − u = 700, execute hold u + ε = 500. *)

module RC = Runtime.Replica_core.Make (Spec.Register)

let core_params ?(n = 3) () =
  Core.Params.make ~n ~d:1000 ~u:300 ~eps:200 ~x:100 ()

(* One core (as pid 0) plus the timers it set, kept as (due, seq, timer). *)
type harness = {
  cfg : RC.config;
  mutable st : RC.state;
  mutable timers : (int * int * RC.timer) list;
  mutable tseq : int;
  mutable on_step : (RC.reply, RC.wire, RC.timer) Sim.Action.t list -> unit;
}

let harness ?(n = 3) ?recovery ?fallback ?(dedup_window_us = max_int) () =
  let cfg =
    { RC.params = core_params ~n (); recovery; fallback; sync = None;
      dedup_window_us }
  in
  { cfg; st = RC.init cfg ~n ~pid:0; timers = []; tseq = 0; on_step = ignore }

let by_due (a, s, _) (b, t, _) = compare (a, s) (b, t)

let step h clock f =
  let st, outs = f h.cfg h.st ~clock in
  h.st <- st;
  List.iter
    (function
      | Sim.Action.Set_timer (delay, tm) ->
          h.timers <- List.merge by_due h.timers [ (clock + delay, h.tseq, tm) ];
          h.tseq <- h.tseq + 1
      | Sim.Action.Cancel_timer tm ->
          h.timers <-
            List.filter (fun (_, _, t) -> not (RC.equal_timer t tm)) h.timers
      | Sim.Action.Respond _ | Sim.Action.Send _ | Sim.Action.Broadcast _ -> ())
    outs;
  h.on_step outs;
  outs

let invoke h clock c =
  step h clock (fun cfg st ~clock -> RC.on_invoke cfg st ~clock c)

let deliver h clock ~src w =
  step h clock (fun cfg st ~clock -> RC.on_message cfg st ~clock ~src w)

let control h clock ctl =
  step h clock (fun cfg st ~clock -> RC.on_control cfg st ~clock ctl)

(* Fire every timer due at or before [clock], each in its own step at its
   exact due time; all their outputs, in order. *)
let rec run_until h clock =
  match h.timers with
  | (due, _, tm) :: rest when due <= clock ->
      h.timers <- rest;
      let outs = step h due (fun cfg st ~clock -> RC.on_timer cfg st ~clock tm) in
      outs @ run_until h clock
  | _ -> []

let replies outs =
  List.filter_map
    (function
      | Sim.Action.Respond (r : RC.reply) -> Some (r.ticket, r.outcome)
      | _ -> None)
    outs

let pp_outcome fmt = function
  | RC.Done r -> Format.fprintf fmt "Done %a" Spec.Register.pp_result r
  | RC.Cancelled -> Format.fprintf fmt "Cancelled"
  | RC.Rejected why -> Format.fprintf fmt "Rejected %S" why

let check_replies what expected outs =
  Alcotest.(check (list (pair int (testable pp_outcome ( = ))))) what expected
    (replies outs)

let entry time pid op = { RC.Alg.op; ts = Prelude.Stamp.make ~time ~pid }

(* A fast-mode, epoch-0 heartbeat as a peer sends it. *)
let hb ?(ack = 0) stamp =
  RC.Wire_quorum
    (RC.Hb
       { stamp; epoch = 0; qmode = false; seq = 0; floor = min_int; ack;
         want = 0 })

let noop_recovery =
  {
    RC.catchup_wait_us = 5000;
    on_apply = (fun _ _ _ -> ());
    on_transfer = (fun ~src:_ _ -> ());
    recovered = None;
  }

open Spec.Register

let test_core_gate_mop () =
  let h = harness ~fallback:Quorum.Config.default () in
  ignore (invoke h 10 (RC.call ~ticket:1 (Write 5)));
  check_replies "held past its ε + X hold: nobody acked" [] (run_until h 310);
  check_replies "one peer acked" [] (deliver h 400 ~src:1 (hb ~ack:10 400));
  check_replies "an ack of another stamp frees nothing" []
    (deliver h 410 ~src:2 (hb ~ack:9 410));
  check_replies "every peer acked its stamp" [ (1, RC.Done Ack) ]
    (deliver h 420 ~src:2 (hb ~ack:10 420));
  (* Acks that beat the hold never release early: the gate only delays. *)
  ignore (invoke h 1000 (RC.call ~ticket:2 (Write 6)));
  check_replies "early acks" []
    (deliver h 1050 ~src:1 (hb ~ack:1000 1050)
    @ deliver h 1060 ~src:2 (hb ~ack:1000 1060)
    @ run_until h 1299);
  check_replies "released at exactly ε + X" [ (2, RC.Done Ack) ] (run_until h 1300)

let test_core_gate_aop_oop () =
  let h = harness ~fallback:Quorum.Config.default () in
  let outs = invoke h 1000 (RC.call ~ticket:1 Read) in
  (* stamped 1000 − X = 900: each peer is asked for a heartbeat at
     900 + d + ε *)
  Alcotest.(check (list int)) "prompt carries ts + d + ε" [ 2100 ]
    (List.filter_map
       (function
         | Sim.Action.Broadcast (RC.Wire_quorum (RC.Hb { want; _ })) -> Some want
         | _ -> None)
       outs);
  check_replies "held past its d + ε − X hold" [] (run_until h 2100);
  check_replies "a heartbeat short of the mark" [] (deliver h 2150 ~src:1 (hb 2099));
  check_replies "one peer at the mark" [] (deliver h 2160 ~src:1 (hb 2100));
  check_replies "every peer at the mark" [ (1, RC.Done (Value 0)) ]
    (deliver h 2170 ~src:2 (hb 2100));
  (* An OOP stamped 3000 executes at 3000 + (d − u) + (u + ε) = 4200. *)
  ignore (invoke h 3000 (RC.call ~ticket:2 (Rmw 7)));
  check_replies "OOP held past its execution" [] (run_until h 4200);
  check_replies "one peer at 4200" [] (deliver h 4210 ~src:1 (hb 4200));
  check_replies "OOP freed by the last heartbeat" [ (2, RC.Done (Value 0)) ]
    (deliver h 4220 ~src:2 (hb 4200));
  (* n = 1: no peer to wait for, the reply leaves with its hold. *)
  let h1 = harness ~n:1 ~fallback:Quorum.Config.default () in
  ignore (invoke h1 1000 (RC.call ~ticket:3 Read));
  check_replies "n = 1 before the hold" [] (run_until h1 2099);
  check_replies "n = 1 at the hold" [ (3, RC.Done (Value 0)) ] (run_until h1 2100)

let test_core_apply_before_completion () =
  let applied = ref [] in
  let recovery =
    { noop_recovery with on_apply = (fun e _ _ -> applied := e :: !applied) }
  in
  let h = harness ~recovery () in
  let completions = ref [] in
  (* Checked inside every step that emits a completion: the mutation the
     core applied last (its high-water mark) already went through
     [on_apply], and [on_apply] sees mutations in the order applied. *)
  h.on_step <-
    (fun outs ->
      if replies outs <> [] then begin
        completions := replies outs @ !completions;
        Alcotest.(check int) "on_apply ran before the completion output"
          (RC.snapshot h.st).hwm_time
          (match !applied with
          | (e : RC.Alg.entry) :: _ -> e.ts.Prelude.Stamp.time
          | [] -> -1)
      end);
  ignore (deliver h 100 ~src:1 (RC.Wire_entry (entry 50 1 (Write 9), 0, 0)));
  ignore (invoke h 200 (RC.call ~ticket:1 (Rmw 3)));
  ignore (run_until h 1500);
  ignore (invoke h 1500 (RC.call ~ticket:2 (Write 4)));
  ignore (run_until h 1800);
  ignore (invoke h 1900 (RC.call ~ticket:3 (Rmw 1)));
  ignore (run_until h 4000);
  Alcotest.(check (list (pair int (testable pp_outcome ( = )))))
    "completions"
    [ (1, RC.Done (Value 9)); (2, RC.Done Ack); (3, RC.Done (Value 4)) ]
    (List.rev !completions);
  Alcotest.(check int) "four mutations, each logged once" 4 (List.length !applied)

let test_core_deadline_shed () =
  let h = harness () in
  check_replies "expired at arrival"
    [ (1, RC.Rejected "shed: deadline passed") ]
    (invoke h 100 (RC.call ~ticket:1 ~deadline:99 (Rmw 1)));
  check_replies "a deadline of now still starts" []
    (invoke h 100 (RC.call ~ticket:2 ~deadline:100 (Rmw 2)));
  check_replies "backlogged" []
    (invoke h 150 (RC.call ~ticket:3 ~deadline:1000 (Write 5)));
  check_replies "backlogged" [] (invoke h 160 (RC.call ~ticket:4 (Write 6)));
  (* Rmw 2 completes at 1300, past ticket 3's deadline: ticket 3 is shed as
     it surfaces and ticket 4 starts in its place. *)
  let outs = run_until h 1300 in
  check_replies "shed from the backlog"
    [ (2, RC.Done (Value 0)); (3, RC.Rejected "shed: deadline passed") ]
    outs;
  Alcotest.(check bool) "the next op started" true
    (List.exists
       (function
         | Sim.Action.Broadcast (RC.Wire_entry (e, _, _)) -> e.RC.Alg.op = Write 6
         | _ -> false)
       outs);
  check_replies "and completes" [ (4, RC.Done Ack) ] (run_until h 1600)

let test_core_dedup_replay () =
  let h = harness ~recovery:noop_recovery () in
  ignore (invoke h 100 (RC.call ~ticket:1 ~op_id:7 (Rmw 3)));
  check_replies "first attempt" [ (1, RC.Done (Value 0)) ] (run_until h 1300);
  check_replies "applied: the recorded result" [ (2, RC.Done (Value 0)) ]
    (invoke h 1400 (RC.call ~ticket:2 ~op_id:7 (Rmw 3)));
  Alcotest.(check int) "executed once" 1 (List.length (RC.snapshot h.st).window);
  ignore (invoke h 1500 (RC.call ~ticket:3 ~op_id:8 (Write 5)));
  check_replies "queued MOP: answered at once" [ (4, RC.Done Ack) ]
    (invoke h 1510 (RC.call ~ticket:4 ~op_id:8 (Write 5)));
  ignore (deliver h 1520 ~src:1 (RC.Wire_entry (entry 1515 1 (Rmw 4), 0, 9)));
  check_replies "queued OOP: retry"
    [ (5, RC.Rejected "in flight; retry") ]
    (invoke h 1530 (RC.call ~ticket:5 ~op_id:9 (Rmw 4)));
  check_replies "the first MOP attempt still completes" [ (3, RC.Done Ack) ]
    (run_until h 1800)

(* The dedup window (4000 µs here, above its 3400 µs floor for these
   params), measured below the high-water mark: a replay inside it is
   answered from the recorded result; once an entry stamped more than the
   window above an id's has been applied, the id has expired and a replay
   is a new operation. *)
let test_core_dedup_window () =
  let h = harness ~recovery:noop_recovery ~dedup_window_us:4000 () in
  ignore (invoke h 100 (RC.call ~ticket:1 ~op_id:7 (Rmw 3)));
  check_replies "first attempt" [ (1, RC.Done (Value 0)) ] (run_until h 1300);
  ignore (invoke h 1500 (RC.call ~ticket:2 ~op_id:8 (Write 5)));
  ignore (run_until h 3000);
  check_replies "a replay 3000 µs after the stamp: the recorded result"
    [ (3, RC.Done (Value 0)) ]
    (invoke h 3100 (RC.call ~ticket:3 ~op_id:7 (Rmw 3)));
  ignore (invoke h 6000 (RC.call ~ticket:4 ~op_id:9 (Write 6)));
  ignore (run_until h 7500);
  Alcotest.(check (list int)) "the window now holds only the last write" [ 9 ]
    (List.map (fun (_, _, id) -> id) (RC.snapshot h.st).window);
  let outs = invoke h 7600 (RC.call ~ticket:5 ~op_id:7 (Rmw 3)) in
  check_replies "an expired id is not answered" [] outs;
  Alcotest.(check bool) "it runs as a new operation" true
    (List.exists
       (function
         | Sim.Action.Broadcast (RC.Wire_entry (e, _, 7)) -> e.RC.Alg.op = Rmw 3
         | _ -> false)
       outs)

let sent_to dst outs =
  List.filter_map
    (function Sim.Action.Send (d, w) when d = dst -> Some w | _ -> None)
    outs

let reruns_as_new id outs =
  List.exists
    (function
      | Sim.Action.Broadcast (RC.Wire_entry (_, _, i)) -> i = id
      | _ -> false)
    outs

(* Catch-up without a log: an asker whose mark is below ours gets a state
   transfer — object, mark, dedup window, queued entries — and one at our
   mark the entries still queued above it.  A restarted asker adopts the
   transfer, reports it through [on_transfer], and answers replays from
   the window it carried. *)
let test_core_state_transfer () =
  let h = harness ~recovery:noop_recovery () in
  ignore (invoke h 100 (RC.call ~ticket:1 ~op_id:7 (Rmw 3)));
  ignore (deliver h 1500 ~src:1 (RC.Wire_entry (entry 1400 1 (Write 5), 0, 9)));
  ignore (run_until h 2500);
  ignore (invoke h 5000 (RC.call ~ticket:2 ~op_id:11 (Write 6)));
  ignore (run_until h 6500);
  let transfer =
    match
      sent_to 2 (deliver h 6600 ~src:2 (RC.Wire_catchup_req { time = 1400; cpid = 1 }))
    with
    | [ (RC.Wire_catchup_state { obj; time; cpid; window; entries } as w) ] ->
        Alcotest.(check int) "the object" 6 obj;
        Alcotest.(check (pair int int)) "its mark" (5000, 0) (time, cpid);
        Alcotest.(check (list int)) "the dedup window" [ 7; 9; 11 ]
          (List.map (fun (_, _, id) -> id) window);
        Alcotest.(check int) "nothing queued" 0 (List.length entries);
        w
    | _ -> Alcotest.fail "a mark below ours: expected one state transfer"
  in
  ignore (deliver h 6605 ~src:1 (RC.Wire_entry (entry 6500 1 (Write 8), 0, 13)));
  (match
     sent_to 2 (deliver h 6610 ~src:2 (RC.Wire_catchup_req { time = 5000; cpid = 0 }))
   with
  | [ RC.Wire_catchup_rep { entries = [ (e, 13) ]; time = 5000; cpid = 0 } ] ->
      Alcotest.(check int) "the queued entry" 6500 e.RC.Alg.ts.Prelude.Stamp.time
  | _ -> Alcotest.fail "a mark at ours: expected the queued entries");
  let transfers = ref [] in
  let h2 =
    harness
      ~recovery:
        { noop_recovery with
          on_transfer = (fun ~src v -> transfers := (src, v.RC.hwm_time) :: !transfers) }
      ()
  in
  ignore (control h2 10 RC.Crash);
  ignore (control h2 20 RC.Recover);
  ignore (deliver h2 30 ~src:1 transfer);
  ignore
    (deliver h2 40 ~src:2 (RC.Wire_catchup_rep { entries = []; time = -1; cpid = 0 }));
  Alcotest.(check (list (pair int int))) "adopted once, from replica 1"
    [ (1, 5000) ] !transfers;
  Alcotest.(check int) "the object came over" 6 (RC.snapshot h2.st).obj;
  check_replies "a replay answered from the carried window"
    [ (1, RC.Done (Value 0)) ]
    (invoke h2 50 (RC.call ~ticket:1 ~op_id:7 (Rmw 3)));
  check_replies "an entry at or below the mark is a duplicate" []
    (deliver h2 60 ~src:1 (RC.Wire_entry (entry 1400 1 (Write 5), 0, 9))
    @ run_until h2 2000)

(* A transfer whose mark passes an in-flight OOP the sender never applied
   (a fault: its window does not record the id): the client is told to
   retry, and the dropped entry's id is forgotten, so the retry runs
   afresh on the transferred object instead of meeting "in flight; retry"
   until its deadline.  The OOP's own copy is dropped whether it was
   already queued (the transfer at 1000 µs) or still waiting to be added
   (at 500 µs): either way it never applies on top of the new object. *)
let test_core_transfer_forgets_dropped_ids () =
  List.iter
    (fun at ->
      let h = harness ~recovery:noop_recovery () in
      ignore (invoke h 100 (RC.call ~ticket:1 ~op_id:7 (Rmw 3)));
      ignore (run_until h at);
      check_replies "the in-flight OOP goes back to the client"
        [ (1, RC.Rejected "retry: state transfer") ]
        (deliver h at ~src:1
           (RC.Wire_catchup_state
              { obj = 42; time = 150; cpid = 1; window = []; entries = [] }));
      let outs = invoke h (at + 100) (RC.call ~ticket:2 ~op_id:7 (Rmw 3)) in
      check_replies "the retry is not refused" [] outs;
      Alcotest.(check bool) "it runs as a new operation" true
        (reruns_as_new 7 outs);
      check_replies "on the transferred object" [ (2, RC.Done (Value 42)) ]
        (run_until h (at + 2000)))
    [ 1000; 500 ]

let is_execute_set = function
  | Sim.Action.Set_timer (_, RC.A (RC.Alg.Execute _, _)) -> true
  | _ -> false

let test_core_frozen_defers () =
  (* Add fires while frozen; Respond_mutator waits for the thaw. *)
  let h = harness ~recovery:noop_recovery () in
  ignore (invoke h 10 (RC.call ~ticket:1 (Write 5)));
  ignore (control h 20 RC.Crash);
  let outs = run_until h 800 in
  check_replies "no reply while down" [] outs;
  Alcotest.(check bool) "Add fired: the own entry's Execute is set" true
    (List.exists is_execute_set outs);
  let outs = control h 900 RC.Recover in
  Alcotest.(check bool) "catch-up request broadcast" true
    (List.exists
       (function Sim.Action.Broadcast (RC.Wire_catchup_req _) -> true | _ -> false)
       outs);
  let rep = RC.Wire_catchup_rep { entries = []; time = -1; cpid = 0 } in
  check_replies "still catching up" [] (deliver h 950 ~src:1 rep);
  check_replies "thawed: the deferred hold replays" [ (1, RC.Done Ack) ]
    (deliver h 960 ~src:2 rep);
  (* Deferred timers replay in the order they fell due: the peer's write
     (Execute due 1550) lands before the read's hold (due 2100), so the
     read sees it — replayed the other way round it would read 0. *)
  let h = harness ~recovery:noop_recovery () in
  ignore (invoke h 1000 (RC.call ~ticket:1 Read));
  ignore (deliver h 1050 ~src:2 (RC.Wire_entry (entry 950 2 (Write 9), 0, 0)));
  ignore (control h 1100 RC.Crash);
  check_replies "both deferred" [] (run_until h 2200);
  Alcotest.(check int) "nothing applied while down" (-1)
    (RC.snapshot h.st).hwm_time;
  ignore (control h 2300 RC.Recover);
  ignore (deliver h 2400 ~src:1 rep);
  check_replies "replayed in due order" [ (1, RC.Done (Value 9)) ]
    (deliver h 2410 ~src:2 rep)

(* ---- the core under Sim.Engine ---- *)

(* With recovery, fallback and sync off the core must be Algorithm 1, to
   the µs: same per-process (op, result, invoke, response) sequence on the
   same workload, offsets and delays. *)
module Core_vs_alg (D : Spec.Data_type.S) = struct
  module C = Runtime.Replica_core.Make (D)
  module CE = Sim.Engine.Make (C)
  module AE = Sim.Engine.Make (Core.Algorithm1.Make (D))

  let row pid op result (r : (_, _) Sim.Trace.op_record) =
    (pid, op, result, r.invoke_real, r.response_real)

  let agree ~seed ~mk_op =
    let rng = Prelude.Rng.make seed in
    let n = 3 in
    let params =
      Core.Params.make ~n ~d:1000 ~u:300 ~eps:200 ~x:(Prelude.Rng.int rng 901) ()
    in
    let offsets =
      Array.init n (fun i ->
          if i = 0 then 0 else Prelude.Rng.int_in rng ~lo:(-100) ~hi:100)
    in
    let script =
      List.concat_map
        (fun pid ->
          Sim.Workload.seq pid (Prelude.Rng.int rng 2000)
            (List.init 4 (fun i -> mk_op rng pid i)))
        (List.init n Fun.id)
    in
    let delay ~src ~dst ~send_time:_ ~index =
      1000 - (Prelude.Rng.hash [ seed; src; dst; index ] land max_int mod 301)
    in
    let a =
      AE.run ~config:params ~n ~offsets ~delay ~check_delays:(1000, 300) script
    in
    let c =
      CE.run
        ~config:
          { C.params; recovery = None; fallback = None; sync = None;
            dedup_window_us = max_int }
        ~n ~offsets ~delay ~check_delays:(1000, 300)
        (List.map
           (fun (i : _ Sim.Workload.invocation) -> { i with op = C.call i.op })
           script)
    in
    List.map
      (fun (r : _ Sim.Trace.op_record) -> row r.pid r.op r.result r)
      a.trace.ops
    = List.map
        (fun (r : (C.call, C.reply) Sim.Trace.op_record) ->
          row r.pid r.op.C.op
            (Option.map
               (fun (x : C.reply) ->
                 match x.outcome with C.Done v -> v | _ -> failwith "not Done")
               r.result)
            r)
        c.trace.ops
end

module Reg_equiv = Core_vs_alg (Spec.Register)
module Queue_equiv = Core_vs_alg (Spec.Fifo_queue)

let core_is_algorithm1_register =
  QCheck.Test.make ~name:"core = Algorithm 1 (register)" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      Reg_equiv.agree ~seed ~mk_op:(fun rng _ _ ->
          match Prelude.Rng.int rng 4 with
          | 0 -> Write (Prelude.Rng.int rng 10)
          | 1 -> Read
          | 2 -> Rmw (Prelude.Rng.int rng 10)
          | _ -> Add 1))

let core_is_algorithm1_queue =
  QCheck.Test.make ~name:"core = Algorithm 1 (queue)" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      Queue_equiv.agree ~seed ~mk_op:(fun rng pid i ->
          match Prelude.Rng.int rng 3 with
          | 0 -> Spec.Fifo_queue.Enqueue ((10 * pid) + i)
          | 1 -> Spec.Fifo_queue.Dequeue
          | _ -> Spec.Fifo_queue.Peek))

module RCE = Sim.Engine.Make (RC)
module Reg_lin = Linearize.Make (Spec.Register)

let test_core_engine_fallback () =
  let suspicions = ref 0 and switches = ref 0 in
  let fallback =
    {
      Quorum.Config.default with
      on_mode = (fun ~quorum:_ ~epoch:_ ~seq:_ -> incr switches);
      on_suspect = (fun ~peer:_ ~suspected -> if suspected then incr suspicions);
    }
  in
  let params = core_params () in
  let rng = Prelude.Rng.make 11 in
  let script =
    List.concat_map
      (fun pid ->
        Sim.Workload.seq pid (Prelude.Rng.int rng 500)
          (List.init 12 (fun _ ->
               RC.call
                 (match Prelude.Rng.int rng 4 with
                 | 0 -> Write (Prelude.Rng.int rng 10)
                 | 1 -> Read
                 | 2 -> Rmw (Prelude.Rng.int rng 10)
                 | _ -> Add 1))))
      [ 0; 1; 2 ]
  in
  let out =
    RCE.run
      ~config:
        { RC.params; recovery = None; fallback = Some fallback; sync = None;
          dedup_window_us = max_int }
      ~n:3 ~offsets:[| 0; 120; -60 |]
      ~delay:(Sim.Delay.random rng ~d:1000 ~u:300)
      ~check_delays:(1000, 300) ~stop_after:200_000 script
  in
  let entries =
    List.map
      (fun (r : (RC.call, RC.reply) Sim.Trace.op_record) ->
        match (r.result, r.response_real) with
        | Some { outcome = RC.Done result; _ }, Some response ->
            let hold =
              match classify r.op.op with
              | Spec.Data_type.Pure_mutator -> 200 + 100
              | Spec.Data_type.Pure_accessor -> 1000 + 200 - 100
              | Spec.Data_type.Other -> 0
            in
            if response - r.invoke_real < hold then
              Alcotest.failf "op %d answered in %dµs, under its %dµs hold"
                r.index (response - r.invoke_real) hold;
            { Reg_lin.pid = r.pid; op = r.op.op; result; invoke = r.invoke_real;
              response }
        | _ -> Alcotest.failf "op %d did not complete" r.index)
      out.trace.ops
  in
  Alcotest.(check int) "every op ran" 36 (List.length entries);
  Alcotest.(check bool) "LINEARIZABLE" true
    (Reg_lin.is_linearizable (Reg_lin.check entries));
  Alcotest.(check int) "no suspicion" 0 !suspicions;
  Alcotest.(check int) "no mode switch" 0 !switches

let () =
  Alcotest.run "runtime"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucketing" `Quick test_hist_buckets;
          Alcotest.test_case "percentiles" `Quick test_hist_percentiles;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          QCheck_alcotest.to_alcotest ~long:false hist_merge_quantiles;
        ] );
      ( "vloop",
        [
          QCheck_alcotest.to_alcotest ~long:false vloop_links_fifo;
          Alcotest.test_case "same seed, same report" `Quick
            test_vloop_same_seed_same_report;
          Alcotest.test_case "the caught-up pass fires zero holds only" `Quick
            test_caught_up_fires_zero_holds_only;
          Alcotest.test_case "driver words per op" `Quick
            test_vloop_words_per_op;
          Alcotest.test_case "same-µs answers precede invocations" `Quick
            test_vloop_answers_before_invokes;
          Alcotest.test_case "1M ops: live words stay flat" `Quick
            test_vloop_million_ops_bounded;
          Alcotest.test_case "checkpoint bytes flat in ops served" `Quick
            test_checkpoint_bytes_flat;
          Alcotest.test_case "no apply below the stable frontier" `Quick
            test_frontier_holds;
        ] );
      ( "workloads",
        [ Alcotest.test_case "samplers classify" `Quick test_samplers_classify ] );
      ( "live",
        [
          Alcotest.test_case "register linearizable" `Quick
            (test_live Runtime.Workloads.register);
          Alcotest.test_case "kv map linearizable" `Quick
            (test_live Runtime.Workloads.kv_map);
          Alcotest.test_case "fifo queue linearizable" `Quick
            (test_live Runtime.Workloads.fifo_queue);
          Alcotest.test_case "loss leaves a trace" `Quick
            test_live_loss_is_detected;
          Alcotest.test_case "queue seed 3: answers precede same-µs invokes"
            `Quick test_live_queue_same_us;
        ] );
      ( "core",
        [
          Alcotest.test_case "gate frees a MOP on every ack" `Quick
            test_core_gate_mop;
          Alcotest.test_case "gate frees AOP/OOP on prompted heartbeats" `Quick
            test_core_gate_aop_oop;
          Alcotest.test_case "on_apply precedes the completion" `Quick
            test_core_apply_before_completion;
          Alcotest.test_case "expired deadlines are shed" `Quick
            test_core_deadline_shed;
          Alcotest.test_case "dedup replays" `Quick test_core_dedup_replay;
          Alcotest.test_case "dedup window expires old ids" `Quick
            test_core_dedup_window;
          Alcotest.test_case "state transfer below the mark" `Quick
            test_core_state_transfer;
          Alcotest.test_case "a transfer forgets dropped ids" `Quick
            test_core_transfer_forgets_dropped_ids;
          Alcotest.test_case "frozen replica defers and replays" `Quick
            test_core_frozen_defers;
        ] );
      ( "core-sim",
        [
          QCheck_alcotest.to_alcotest ~long:false core_is_algorithm1_register;
          QCheck_alcotest.to_alcotest ~long:false core_is_algorithm1_queue;
          Alcotest.test_case "fallback-armed run holds its bounds" `Quick
            test_core_engine_fallback;
        ] );
    ]
