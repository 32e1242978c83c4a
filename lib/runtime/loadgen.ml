(** See the interface for the run structure: the closed-loop client is
    continuations over a port, so it runs on {!Vloop} (where a run is a
    pure function of its arguments) as on a TCP poll loop. *)

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

let pp_classes fmt =
  List.iter (fun c ->
      Format.fprintf fmt "  %-3s %a  (target %s %dµs)@," c.class_name
        Histogram.pp c.hist
        (if String.equal c.class_name "OOP" then "≤" else "≈")
        c.target_us;
      match c.faulty with
      | None -> ()
      | Some h ->
          Format.fprintf fmt "      in fault windows: %a@," Histogram.pp h)

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
  pp_classes fmt r.classes;
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

type 'op source = {
  shards : int;
  mix : int * int * int;
  describe : string;
  draw : Prelude.Rng.t -> int * 'op;
  home : wid:int -> shard:int -> int;
}

type 'r outcome = Done of 'r | Retry of string | Failed of string

type ('op, 'r) port = {
  replicas : int;
  now : unit -> int;
  at : int -> (unit -> unit) -> unit;
  invoke :
    wid:int ->
    replica:int ->
    shard:int ->
    trace:int ->
    op_id:int ->
    deadline:int ->
    taken:(unit -> unit) ->
    'op ->
    ('r outcome -> unit) ->
    unit;
  backoff_us : int;
  backoff_cap_us : int;
  max_retries : int;
}

(* Overload refusals, from admission control or a replica's deadline
   check, say so first. *)
let shed why = String.starts_with ~prefix:"shed" why

let in_windows windows t =
  List.exists (fun (from_us, until_us) -> from_us <= t && t < until_us) windows

module Make (L : Workloads.LIVE) = struct
  module V = Vloop.Make (L.D)
  module R = V.R
  module Lin = Linearize.Make (L.D)

  (* The object's own mix on one shard; worker [wid] is homed on replica
     [wid mod n], so every replica serves clients. *)
  let object_source ~n ~mix =
    let m, a, o = mix in
    let total = m + a + o in
    let draw rng =
      let toss = Prelude.Rng.int rng total in
      let op =
        if toss < m then L.sample_mutator rng
        else if toss < m + a then L.sample_accessor rng
        else L.sample_other rng
      in
      (0, op)
    in
    let home ~wid ~shard:_ = wid mod n in
    { shards = 1; mix; describe = ""; draw; home }

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

  (* ---- the closed-loop client, on any port ---- *)

  type tally = {
    hists : (int, Histogram.t array) Hashtbl.t;
    mutable entries : (int * Lin.entry) list;
    mutable cuts : int list;
    mutable failed : int;
    mutable sheds : int;
    mutable first_error : string option;
    mutable progress : int;
    mutable finished : bool;
    mutable gave_up : bool;
  }

  (* A shard's six histograms: three op classes × (clean, fault-window).
     An op lands in the fault-window half when its {e invocation} fell
     inside a declared fault window — the chaos layer's latency split. *)
  let shard_hists t shard =
    match Hashtbl.find_opt t.hists shard with
    | Some hs -> hs
    | None ->
        let hs = Array.init 6 (fun _ -> Histogram.create ()) in
        Hashtbl.replace t.hists shard hs;
        hs

  let slot_of op ~faulty =
    (match L.D.classify op with
    | Spec.Data_type.Pure_mutator -> 0
    | Spec.Data_type.Pure_accessor -> 1
    | Spec.Data_type.Other -> 2)
    + if faulty then 3 else 0

  (* History times: a port's µs refined by the order of readings inside
     that µs.  A loop runs one thing at a time, so a reading taken later
     is later: a response the client reads before issuing its next op
     strictly precedes that op even when both fall in one µs. *)
  let stamps_per_us = 1000

  let drive port source ~workers ~round ~ops ~windows ~first_op_id
      ~deadline_us ~traced ~resilient ~rotate ~rng ~seed =
    let last_us = ref min_int and sub = ref 0 in
    let stamp us =
      if us <> !last_us then begin
        last_us := us;
        sub := 0
      end
      else if !sub < stamps_per_us - 1 then incr sub;
      (us * stamps_per_us) + !sub
    in
    let t =
      {
        hists = Hashtbl.create 16;
        entries = [];
        cuts = [];
        failed = 0;
        sheds = 0;
        first_error = None;
        progress = port.now ();
        finished = false;
        gave_up = false;
      }
    in
    let next_op_id = ref first_op_id in
    let mint () =
      let id = !next_op_id in
      if id <> 0 then incr next_op_id;
      id
    in
    (* One closed-loop worker: its share of the round, one op at a time. *)
    let rec client ~wid ~rng ~left ~finish =
      if left = 0 then finish ()
      else begin
        let shard, op = source.draw rng in
        let t0 = port.now () in
        (* The invocation's history time: when the port handed its first
           attempt on. *)
        let inv = ref min_int in
        let taken () = if !inv = min_int then inv := stamp (port.now ()) in
        (* The trace id's origin bits carry the shard, so per-shard bound
           attribution falls out of the merged trace files for free. *)
        let trace = if traced then Obs.Trace_id.fresh ~origin:shard else 0 in
        let op_id = mint () in
        (* The deadline belongs to the operation, not the attempt: every
           retry re-sends it unchanged, so an overloaded replica's
           admission check measures the client's real remaining
           patience. *)
        let deadline = if deadline_us > 0 then t0 + deadline_us else 0 in
        let next () = client ~wid ~rng ~left:(left - 1) ~finish in
        (* An op with an id is replayed under that id when it was refused
           or lost, after a capped exponential backoff; the replica dedups
           the replay, so the history records one operation from the first
           invocation to the answered one.  The jitter is hashed from the
           retry site, not drawn from [rng]: a retry must not shift the op
           draws. *)
        let rec attempt backoff tries =
          (* Under [rotate] each replay goes to the next replica: the one
             that refused may be dead, or a stalled minority. *)
          let hop = if rotate then tries else 0 in
          let replica = (source.home ~wid ~shard + hop) mod port.replicas in
          port.invoke ~wid ~replica ~shard ~trace ~op_id ~deadline ~taken op
            (function
            | Done result ->
                let t1 = port.now () in
                let resp = stamp t1 in
                let faulty = in_windows windows t0 in
                Histogram.add (shard_hists t shard).(slot_of op ~faulty)
                  (t1 - t0);
                t.entries <-
                  ( shard,
                    { Lin.pid = wid; op; result; invoke = !inv; response = resp }
                  )
                  :: t.entries;
                t.progress <- t1;
                next ()
            | Retry why
              when op_id <> 0 && tries < port.max_retries
                   && (* a shed past the op's own deadline is final: every
                         further attempt would be shed again *)
                   ((not (shed why)) || deadline = 0 || port.now () < deadline)
              ->
                if shed why then t.sheds <- t.sheds + 1;
                let jitter =
                  Prelude.Rng.hash [ seed; wid; op_id; tries ]
                  mod (1 + (backoff / 2))
                in
                port.at (port.now () + backoff + jitter) (fun () ->
                    attempt (min (2 * backoff) port.backoff_cap_us) (tries + 1))
            | Retry why | Failed why ->
                if shed why then t.sheds <- t.sheds + 1;
                t.failed <- t.failed + 1;
                if t.first_error = None then t.first_error <- Some why;
                if resilient then next () else t.gave_up <- true)
        in
        attempt port.backoff_us 0
      end
    in
    (* Rounds of at most [round] operations.  Once every worker of a round
       is done, the next µs is a quiescent cut: every invocation of the
       round came before it, every one of the next round after. *)
    let remaining = ref ops and rng = ref rng in
    let rec start_round () =
      if !remaining = 0 then t.finished <- true
      else begin
        let quota = min round !remaining in
        remaining := !remaining - quota;
        let busy = ref workers in
        let finish () =
          decr busy;
          if !busy = 0 then begin
            let cut = port.now () + 1 in
            t.cuts <- cut :: t.cuts;
            port.at cut start_round
          end
        in
        for wid = 0 to workers - 1 do
          let mine, rest = Prelude.Rng.split !rng in
          rng := rest;
          let share =
            (quota / workers) + if wid < quota mod workers then 1 else 0
          in
          client ~wid ~rng:mine ~left:share ~finish
        done
      end
    in
    start_round ();
    t

  (* The one place a history becomes a verdict, for every port: each
     shard's client-observed entries in invocation order, checked on their
     own (linearizability composes, so the namespace verdict is the
     conjunction), unless ops failed, the run was aborted or completions
     are missing. *)
  let judge ?initials ?aborted ~params ~windowed ~shards ~expected t =
    let by_shard = Array.make shards [] in
    List.iter
      (fun (s, e) ->
        if s >= 0 && s < shards then by_shard.(s) <- e :: by_shard.(s))
      t.entries;
    let checks =
      Array.mapi
        (fun k rev ->
          match rev with
          | [] -> None
          | _ ->
              let sorted =
                List.sort
                  (fun (a : Lin.entry) (b : Lin.entry) ->
                    compare (a.Lin.invoke, a.Lin.pid) (b.Lin.invoke, b.Lin.pid))
                  rev
              in
              let initial = Option.bind initials (fun a -> a.(k)) in
              Some
                (check_history ?initial sorted
                   (List.rev_map (fun c -> c * stamps_per_us) t.cuts)))
        by_shard
    in
    let completed = List.length t.entries in
    let verdict =
      match aborted with
      | _ when t.failed > 0 ->
          Unchecked
            (Printf.sprintf "%d invocation%s failed (%s)" t.failed
               (if t.failed = 1 then "" else "s")
               (Option.value t.first_error ~default:"unknown error"))
      | Some why -> Unchecked why
      | None when completed <> expected ->
          Unchecked
            (Printf.sprintf "expected %d completed ops, recorded %d" expected
               completed)
      | None ->
          let tag k why =
            if shards = 1 then why else Printf.sprintf "shard %d: %s" k why
          in
          let rec conj k total =
            if k = shards then Linearizable total
            else
              match checks.(k) with
              | None -> conj (k + 1) total
              | Some (Linearizable segs) -> conj (k + 1) (total + segs)
              | Some (Violation { segment; reason }) ->
                  Violation { segment; reason = tag k reason }
              | Some (Unchecked why) -> Unchecked (tag k why)
          in
          conj 0 0
    in
    let per_shard =
      List.init shards Fun.id
      |> List.filter_map (fun k ->
             Hashtbl.find_opt t.hists k
             |> Option.map (fun hs ->
                    {
                      shard = k;
                      shard_ops = List.length by_shard.(k);
                      shard_classes = classes_of ~params ~windowed hs;
                      shard_verdict =
                        Option.value checks.(k) ~default:(Linearizable 0);
                    }))
      |> List.sort (fun a b -> compare b.shard_ops a.shard_ops)
    in
    (verdict, per_shard)

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
            on_transfer = (fun ~src:_ _ -> ());
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
    (* A replica asks a replay it cannot answer yet to back off. *)
    let port =
      {
        replicas = n;
        now = (fun () -> V.now v);
        at = V.at v;
        invoke =
          (fun ~wid:_ ~replica ~shard:_ ~trace ~op_id ~deadline:_ ~taken op k ->
            V.invoke v ~pid:replica ~trace ~op_id ~taken op (function
              | R.Done r -> k (Done r)
              | R.Rejected why -> k (Retry why)
              | R.Cancelled -> ()));
        backoff_us = 1_000;
        backoff_cap_us = 200_000;
        max_retries = max_int;
      }
    in
    let tally =
      drive port (object_source ~n ~mix) ~workers ~round ~ops
        ~windows:fault_windows
        ~first_op_id:(if recovery || fallback <> None then 1 else 0)
        ~deadline_us:0 ~traced:(Obs.Recorder.active ()) ~resilient:true
        ~rotate:(fallback <> None) ~rng:rng_workers ~seed
    in
    let stalled () =
      !controls = 0 && V.now v - max !progress tally.progress > stall_us
    in
    V.run v ~until:(fun () -> tally.finished || stalled ());
    let wall_us = V.now v in
    (* The plan's remaining restarts still happen, after the load. *)
    V.run v ~until:(fun () -> !controls = 0);
    V.stop v;
    let windowed = fault_windows <> [] in
    let verdict, _ = judge ~params ~windowed ~shards:1 ~expected:ops tally in
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
      classes = classes_of ~params ~windowed (shard_hists tally 0);
      net = V.stats v;
      offsets;
      cuts = List.rev tally.cuts;
      mode_switches = List.sort compare (List.rev !switches);
      verdict;
    }
end
