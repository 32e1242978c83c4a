(* Tests for the live runtime: histogram bucketing/percentile/merge math,
   the delivery-ordered mailbox, workload sampler classification, and full
   live executions — Algorithm 1 replicas on real domains for three sample
   data types, with the post-hoc segmented linearizability verdict.

   Live timing parameters are deliberately slack-heavy: on a loaded CI
   machine a domain can lose the CPU for milliseconds, and the assertions
   here must hold under any scheduling, not just a quiet one. *)

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

(* ---- mailbox ---- *)

let test_mailbox_order_and_deadline () =
  let box = Runtime.Mailbox.create () in
  let now = Prelude.Mclock.now_us () in
  (* two ripe items: surfaced in deliver_at order, not insertion order *)
  Runtime.Mailbox.put box ~deliver_at:(now - 10) "second";
  Runtime.Mailbox.put box ~deliver_at:(now - 20) "first";
  Alcotest.(check (option string))
    "earliest ripe first" (Some "first")
    (Runtime.Mailbox.take box ~deadline:None);
  Alcotest.(check (option string))
    "then the next" (Some "second")
    (Runtime.Mailbox.take box ~deadline:None);
  (* an unripe item is not surfaced before a deadline that precedes it *)
  let now = Prelude.Mclock.now_us () in
  Runtime.Mailbox.put box ~deliver_at:(now + 500_000) "late";
  Alcotest.(check (option string))
    "deadline fires before unripe item" None
    (Runtime.Mailbox.take box ~deadline:(Some (now + 2_000)));
  (* a ripe item with deliver_at after the deadline yields to the deadline *)
  let now = Prelude.Mclock.now_us () in
  Runtime.Mailbox.put box ~deliver_at:(now - 1) "after-deadline";
  Alcotest.(check (option string))
    "chronological merge with timers" None
    (Runtime.Mailbox.take box ~deadline:(Some (now - 100)));
  Alcotest.(check (option string))
    "…but surfaced once the deadline is later" (Some "after-deadline")
    (Runtime.Mailbox.take box ~deadline:None)

(* A [put] from another domain must wake a taker parked on a far
   deadline at once — the replica loop parks on its next hold timer, and
   an invoke or entry arriving meanwhile must not wait it out. *)
let test_mailbox_put_wakes_parked_take () =
  let box = Runtime.Mailbox.create () in
  let t0 = Prelude.Mclock.now_us () in
  let putter =
    Domain.spawn (fun () ->
        Prelude.Mclock.sleep_us 20_000;
        Runtime.Mailbox.put box ~deliver_at:(Prelude.Mclock.now_us ()) "hi")
  in
  let got = Runtime.Mailbox.take box ~deadline:(Some (t0 + 1_000_000)) in
  let waited = Prelude.Mclock.now_us () - t0 in
  Domain.join putter;
  Runtime.Mailbox.close box;
  Alcotest.(check (option string)) "the put item" (Some "hi") got;
  Alcotest.(check bool)
    (Printf.sprintf "woken long before the 1 s deadline (%d us)" waited)
    true (waited < 500_000)

(* Hold safety: a bounded take on an empty mailbox returns [None] only
   once its deadline has passed — a timer must never fire early. *)
let test_mailbox_deadline_never_early () =
  let box = Runtime.Mailbox.create () in
  let early = ref 0 in
  for i = 1 to 400 do
    let deadline = Prelude.Mclock.now_us () + (i mod 200) + 1 in
    (match Runtime.Mailbox.take box ~deadline:(Some deadline) with
    | Some _ -> Alcotest.fail "empty mailbox returned an item"
    | None -> ());
    if Prelude.Mclock.now_us () < deadline then incr early
  done;
  Runtime.Mailbox.close box;
  Alcotest.(check int) "takes that returned before their deadline" 0 !early

(* The wake-up pipe is released by [close]: 2 000 mailboxes created,
   parked on and closed leave the open-descriptor count unchanged.  (A
   leak would also trip [select]-style limits at 1024.) *)
let test_mailbox_close_releases_fds () =
  let fd_dir = "/proc/self/fd" in
  if Sys.file_exists fd_dir then begin
    let open_fds () = Array.length (Sys.readdir fd_dir) in
    let before = open_fds () in
    for _ = 1 to 2_000 do
      let box = Runtime.Mailbox.create () in
      ignore
        (Runtime.Mailbox.take box
           ~deadline:(Some (Prelude.Mclock.now_us () + 1)));
      Runtime.Mailbox.put box ~deliver_at:0 ();
      Runtime.Mailbox.close box
    done;
    Alcotest.(check int) "open descriptors" before (open_fds ())
  end

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

(* Slack-heavy timing so the verdict is stable under CI load; see the
   module comment.  36 ops keeps each run in one quiescent segment and the
   whole suite under a few seconds. *)
let live_run (module L : Runtime.Workloads.LIVE) =
  let module Gen = Runtime.Loadgen.Make (L) in
  Gen.run ~n:3 ~d:3000 ~u:1000 ~slack:25_000 ~round:36 ~ops:36
    ~mix:(40, 40, 20) ~seed:5 ()

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
  (* At X = 0 mutators respond in ≈ ε and accessors in ≈ d + slack + ε: a
     ~40× gap that no scheduling jitter plausibly closes. *)
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
    (r.Runtime.Loadgen.net.Runtime.Transport.dropped > 0)

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
      ( "mailbox",
        [
          Alcotest.test_case "ordering & deadlines" `Quick
            test_mailbox_order_and_deadline;
          Alcotest.test_case "put wakes a parked take" `Quick
            test_mailbox_put_wakes_parked_take;
          Alcotest.test_case "a deadline is never cut short" `Quick
            test_mailbox_deadline_never_early;
          Alcotest.test_case "close releases the wake-up pipe" `Quick
            test_mailbox_close_releases_fds;
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
        ] );
    ]
