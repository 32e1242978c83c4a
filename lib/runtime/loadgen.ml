(** See the interface for the run structure: closed-loop clients are
    continuations on one {!Vloop}, so a run is a pure function of its
    arguments. *)

type verdict =
  | Linearizable of int
  | Violation of { segment : int; reason : string }
  | Unchecked of string

type class_report = {
  class_name : string;
  target_us : int;
  hist : Histogram.t;
  faulty : Histogram.t option;
}

(* The one place the 6-histogram worker layout (3 classes × clean/faulty)
   is turned into named class reports with their paper targets — shared by
   the in-process generator, the TCP cluster orchestrator and the sharded
   cluster (which builds one list per shard). *)
let classes_of ~(params : Core.Params.t) ~windowed hists =
  let t = params.Core.Params.timing in
  let faulty i = if windowed then Some hists.(i + 3) else None in
  [
    {
      class_name = "MOP";
      target_us = t.Core.Params.mutator_wait;
      hist = hists.(0);
      faulty = faulty 0;
    };
    {
      class_name = "AOP";
      target_us = t.Core.Params.accessor_wait;
      hist = hists.(1);
      faulty = faulty 1;
    };
    {
      class_name = "OOP";
      target_us = params.Core.Params.d + params.Core.Params.eps;
      hist = hists.(2);
      faulty = faulty 2;
    };
  ]

type shard_report = {
  shard : int;
  shard_ops : int;  (** completed operations routed to this shard *)
  shard_classes : class_report list;
  shard_verdict : verdict;
      (** this shard's own segmented Wing–Gong check — linearizability
          composes, so the namespace verdict is the conjunction *)
}

type report = {
  label : string;
  params : Core.Params.t;
  net_d : int;
  net_u : int;
  slack : int;
  mix : int * int * int;
  workers : int;
  seed : int;
  loss : int;
  ops : int;
  wall_us : int;
  throughput : float;
  classes : class_report list;
  net : Transport_intf.stats;
  offsets : int array;
  cuts : int list;
  mode_switches : (int * bool * int) list;
      (** fallback availability log: [(µs since start, entered quorum?,
          epoch)] per replica-local mode transition, in time order; empty
          when no fallback was armed (or none switched) *)
  verdict : verdict;
}

let is_linearizable r = match r.verdict with Linearizable _ -> true | _ -> false

(* One line per shard: enough to eyeball zipfian skew (ops column) and
   per-shard bound health (p99 vs target per class) across 64 shards
   without drowning the aggregate report. *)
let pp_shard_report fmt s =
  let pp_class fmt (c : class_report) =
    if Histogram.count c.hist = 0 then
      Format.fprintf fmt "%s —" c.class_name
    else
      Format.fprintf fmt "%s p99=%d/%dµs" c.class_name
        (Histogram.percentile c.hist 99.)
        c.target_us
  in
  let verdict_tag =
    match s.shard_verdict with
    | Linearizable _ -> "LINEARIZABLE"
    | Violation { segment; _ } -> Printf.sprintf "VIOLATION(seg %d)" segment
    | Unchecked _ -> "UNCHECKED"
  in
  Format.fprintf fmt "shard %3d: %6d ops  %a  %s" s.shard s.shard_ops
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "  ")
       pp_class)
    s.shard_classes verdict_tag

let pp_verdict fmt = function
  | Linearizable segments ->
      Format.fprintf fmt "PASS (%d segment%s verified)" segments
        (if segments = 1 then "" else "s")
  | Violation { segment; reason } ->
      Format.fprintf fmt "VIOLATION in segment %d: %s" segment reason
  | Unchecked reason -> Format.fprintf fmt "UNCHECKED (%s)" reason

let pp_report fmt r =
  let m, a, o = r.mix in
  Format.fprintf fmt
    "@[<v>live %s: %a (net d=%d u=%d, slack=%d) mix=%d:%d:%d workers=%d \
     seed=%d%s@,\
     %d ops in %.3f s (%.0f ops/s); messages %a@,"
    r.label Core.Params.pp r.params r.net_d r.net_u r.slack m a o r.workers
    r.seed
    (if r.loss > 0 then Printf.sprintf " loss=%d%%" r.loss else "")
    r.ops
    (float_of_int r.wall_us /. 1e6)
    r.throughput Transport_intf.pp_stats r.net;
  List.iter
    (fun c ->
      Format.fprintf fmt "  %-3s %a  (target %s %dµs)@," c.class_name
        Histogram.pp c.hist
        (if String.equal c.class_name "OOP" then "≤" else "≈")
        c.target_us;
      match c.faulty with
      | None -> ()
      | Some h ->
          Format.fprintf fmt "      in fault windows: %a@," Histogram.pp h)
    r.classes;
  (match r.mode_switches with
  | [] -> ()
  | switches ->
      Format.fprintf fmt "  mode switches:";
      List.iter
        (fun (at, quorum, epoch) ->
          Format.fprintf fmt " %s(e%d) t=%dµs"
            (if quorum then "quorum" else "fast")
            epoch at)
        switches;
      Format.fprintf fmt "@,");
  Format.fprintf fmt "post-hoc linearizability: %a@]" pp_verdict r.verdict

module Make (L : Workloads.LIVE) = struct
  module V = Vloop.Make (L.D)
  module R = V.R
  module Lin = Linearize.Make (L.D)
  module Seq = Spec.Data_type.Run (L.D)

  let kind_of op = L.D.classify op

  (* Draw one operation according to the (mutator, accessor, other) weights. *)
  let draw rng (m, a, _o) total =
    let toss = Prelude.Rng.int rng total in
    if toss < m then L.sample_mutator rng
    else if toss < m + a then L.sample_accessor rng
    else L.sample_other rng

  (* ---- post-hoc check: segment the history at the quiescent cuts and run
     Wing–Gong on each segment, threading the witness state through. ---- *)

  let check_history ?initial entries cuts =
    let segment_of (e : Lin.entry) =
      let rec go i = function
        | [] -> i
        | c :: rest -> if e.Lin.invoke < c then i else go (i + 1) rest
      in
      go 0 cuts
    in
    let n_segments = List.length cuts + 1 in
    let segments = Array.make n_segments [] in
    List.iter
      (fun e -> segments.(segment_of e) <- e :: segments.(segment_of e))
      (List.rev entries);
    (* each [segments.(i)] is now in original (invocation) order *)
    let oversized = ref None in
    Array.iteri
      (fun i s ->
        if !oversized = None && List.length s > 62 then
          oversized := Some (i, List.length s))
      segments;
    match !oversized with
    | Some (i, len) ->
        Unchecked
          (Printf.sprintf "segment %d has %d ops (> 62, no quiescent cut)" i
             len)
    | None -> (
        match Lin.check_segmented ?initial ~budget:2_000_000 segments with
        | `Budget_exhausted ->
            Unchecked
              "checker budget exhausted (too much concurrent-mutator \
               ambiguity to decide)"
        | `Linearizable ->
            Linearizable
              (Array.fold_left
                 (fun k s -> if s = [] then k else k + 1)
                 0 segments)
        | `Not_linearizable ->
          (* Not linearizable.  For the report, re-run the greedy
             one-witness-per-segment scan: it follows a single path of the
             search the complete check just exhausted, so it must fail
             too, and it fails with a concrete segment and reason. *)
          let rec blame i state =
            if i >= n_segments then
              Violation
                { segment = 0; reason = "no linearization of any segment chain" }
            else
              match segments.(i) with
              | [] -> blame (i + 1) state
              | seg -> (
                  match Lin.check ~initial:state seg with
                  | Lin.Linearizable witness ->
                      let state' =
                        List.fold_left
                          (fun s (e : Lin.entry) -> fst (L.D.apply s e.Lin.op))
                          state witness
                      in
                      blame (i + 1) state'
                  | Lin.Not_linearizable reason ->
                      Violation { segment = i; reason })
          in
          blame 0 L.D.initial)

  (* ---- the closed loop, in virtual time ---- *)

  (* Six histograms: three op classes × (clean, fault-window).  An op
     lands in the fault-window half when its *invocation* fell inside any
     declared fault window — the chaos layer's latency split. *)
  let in_windows windows t =
    List.exists (fun (from_us, until_us) -> from_us <= t && t < until_us) windows

  let slot_of op =
    match kind_of op with
    | Spec.Data_type.Pure_mutator -> 0
    | Spec.Data_type.Pure_accessor -> 1
    | Spec.Data_type.Other -> 2

  (* A run with no completion for this long (virtual µs), and no crash or
     restart of the plan still to come, is wedged — a stalled minority, a
     replica frozen for good — and ends; its missing operations make the
     verdict UNCHECKED.  A control that fires counts as progress: the
     clients it unblocks get the full window to finish. *)
  let stall_us = 60_000_000

  let run ~n ~d ~u ?eps ?(x = 0) ?(slack = 5000) ?workers ?(round = 48)
      ?(mix = (50, 40, 10)) ?(loss = 0) ?skews ?fault ?(fault_windows = [])
      ?(recovery = false) ?(crashes = []) ?fallback ?sync ~ops ~seed () =
    if round < 1 || round > 62 then
      invalid_arg "Loadgen.run: round must be in [1, 62]";
    let m, a, o = mix in
    let total = m + a + o in
    if m < 0 || a < 0 || o < 0 || total = 0 then
      invalid_arg "Loadgen.run: mix weights must be non-negative, not all 0";
    let eps = match eps with Some e -> e | None -> Core.Params.optimal_eps ~n ~u in
    let workers = match workers with Some w -> w | None -> n in
    (* The replicas assume d+slack / u+slack while the injected delays stay
       in [d − u, d].  Note (d+slack) − (u+slack) = d − u: the
       self-delivery wait is unchanged; only the execute hold and the
       accessor wait stretch. *)
    let params = Core.Params.make ~n ~d:(d + slack) ~u:(u + slack) ~eps ~x () in
    let rng = Prelude.Rng.make seed in
    let rng_delay, rng = Prelude.Rng.split rng in
    let rng_offsets, rng_workers = Prelude.Rng.split rng in
    let offsets =
      Array.init n (fun i ->
          if i = 0 || eps = 0 then 0
          else Prelude.Rng.int_in rng_offsets ~lo:0 ~hi:eps)
    in
    (* [skews] are chaos-injected extra clock offsets, added on top of the
       seeded draw — how a plan pushes a replica's clock beyond the ε the
       cluster assumes.  The effective offsets are reported so the caller
       can judge the actual spread against ε. *)
    (match skews with
    | None -> ()
    | Some s ->
        if Array.length s <> n then
          invalid_arg "Loadgen.run: skews length must be n";
        Array.iteri (fun i k -> offsets.(i) <- offsets.(i) + k) s);
    let policy =
      let base = Sim.Delay.random rng_delay ~d ~u in
      if loss > 0 then Sim.Delay.lossy base ~rng:rng_delay ~percent:loss
      else base
    in
    let recovery_cfg =
      if not recovery then None
      else
        Some
          {
            R.catchup_wait_us =
              params.Core.Params.d + params.Core.Params.eps;
            on_apply = (fun _ _ _ -> ());
            recovered = None;
          }
    in
    (* The fallback's mode hook also feeds the availability log: every
       replica-local transition is timestamped on the run timeline
       (transitions only fire once the loop runs, after [loop] is set). *)
    let switches = ref [] and loop = ref None in
    let fallback =
      Option.map
        (fun (cfg : Quorum.Config.t) ->
          let outer = cfg.Quorum.Config.on_mode in
          {
            cfg with
            Quorum.Config.on_mode =
              (fun ~quorum ~epoch ~seq ->
                let at = Option.fold ~none:0 ~some:V.now !loop in
                switches := (at, quorum, epoch) :: !switches;
                outer ~quorum ~epoch ~seq);
          })
        fallback
    in
    let v =
      V.create ~params ~policy ~offsets ?fault ?recovery:recovery_cfg
        ?fallback ?sync ()
    in
    loop := Some v;
    (* The plan's crash/restart instants: freeze the replica at the crash
       (the in-process realisation of the process path's SIGKILL) and thaw
       it through peer catch-up at the restart.  A permanent kill only
       makes sense when the survivors can take over (quorum fallback
       armed): otherwise a replica that never recovers would wedge its
       clients. *)
    let controls = ref 0 and progress = ref 0 in
    let control at pid ctl =
      incr controls;
      V.at v at (fun () ->
          decr controls;
          progress := V.now v;
          V.control v ~pid ctl)
    in
    List.iter
      (fun (pid, crash_at, restart_at) ->
        if restart_at < max_int then begin
          control crash_at pid R.Crash;
          control restart_at pid R.Recover
        end
        else if fallback <> None then control crash_at pid R.Crash)
      crashes;
    let next_op_id = ref 1 in
    let mint () =
      if recovery || fallback <> None then begin
        let id = !next_op_id in
        incr next_op_id;
        id
      end
      else 0
    in
    let rotate = fallback <> None in
    let hists = Array.init 6 (fun _ -> Histogram.create ()) in
    let cuts = ref [] and remaining = ref ops and finished = ref false in
    let rng_workers = ref rng_workers in
    (* One closed-loop client: its share of the round, one operation at a
       time.  In recovery mode each attempt carries the same op id, so a
       replay the replica already holds is answered idempotently; a replay
       it cannot answer yet asks us to back off (capped exponential, with
       seeded jitter) and retry.  Under a quorum fallback a rejected replay
       also rotates to the next replica: the one it was talking to may be
       permanently dead (or a stalled minority), and the op id makes the
       hand-off idempotent. *)
    let rec client ~wid ~rng ~left ~finish =
      if left = 0 then finish ()
      else begin
        let op = draw rng mix total in
        let t0 = V.now v in
        let trace =
          if Obs.Recorder.active () then Obs.Trace_id.fresh ~origin:wid else 0
        in
        let op_id = mint () in
        let rec attempt backoff k =
          V.invoke v ~pid:((wid + k) mod n) ~trace ~op_id op (function
            | R.Done _ ->
                let faulty = in_windows fault_windows t0 in
                Histogram.add
                  hists.(slot_of op + if faulty then 3 else 0)
                  (V.now v - t0);
                progress := V.now v;
                client ~wid ~rng ~left:(left - 1) ~finish
            | R.Rejected _ ->
                let pause = backoff + Prelude.Rng.int rng (backoff + 1) in
                V.at v (V.now v + pause) (fun () ->
                    attempt (min (backoff * 2) 200_000)
                      (if rotate then k + 1 else k))
            | R.Cancelled -> ())
        in
        attempt 1_000 0
      end
    in
    (* Rounds of at most [round] operations.  Once every client of a round
       is done, the next µs is a quiescent cut: every invocation of the
       round was stepped before it, every one of the next round after. *)
    let rec start_round () =
      if !remaining = 0 then finished := true
      else begin
        let quota = min round !remaining in
        remaining := !remaining - quota;
        let busy = ref workers in
        let finish () =
          decr busy;
          if !busy = 0 then begin
            let cut = V.now v + 1 in
            cuts := cut :: !cuts;
            V.at v cut start_round
          end
        in
        for wid = 0 to workers - 1 do
          let mine, rest = Prelude.Rng.split !rng_workers in
          rng_workers := rest;
          (* spread the round's quota over the clients *)
          let share =
            (quota / workers) + if wid < quota mod workers then 1 else 0
          in
          client ~wid ~rng:mine ~left:share ~finish
        done
      end
    in
    start_round ();
    let stalled () = !controls = 0 && V.now v - !progress > stall_us in
    V.run v ~until:(fun () -> !finished || stalled ());
    let wall_us = V.now v in
    (* The plan's remaining restarts still happen, after the load. *)
    V.run v ~until:(fun () -> !controls = 0);
    let entries =
      List.map
        (fun (r : R.record) ->
          {
            Lin.pid = r.R.pid;
            op = r.R.op;
            result = r.R.result;
            invoke = r.R.invoke_us;
            response = r.R.response_us;
          })
        (V.stop v)
    in
    let cuts = List.rev !cuts in
    let verdict =
      if List.length entries <> ops then
        Unchecked
          (Printf.sprintf "expected %d completed ops, recorded %d" ops
             (List.length entries))
      else check_history entries cuts
    in
    {
      label = L.label;
      params;
      net_d = d;
      net_u = u;
      slack;
      mix;
      workers;
      seed;
      loss;
      ops;
      wall_us;
      throughput =
        (if wall_us = 0 then 0.
         else float_of_int ops /. (float_of_int wall_us /. 1e6));
      classes = classes_of ~params ~windowed:(fault_windows <> []) hists;
      net = V.stats v;
      offsets;
      cuts;
      mode_switches = List.sort compare (List.rev !switches);
      verdict;
    }
end
