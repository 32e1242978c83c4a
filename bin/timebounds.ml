(** [timebounds] — command-line front end for the reproduction.

    - [timebounds list] — every reproducible table/figure;
    - [timebounds experiment <id>...] — run experiments (default: all);
    - [timebounds tables] — print Tables I–IV with formulas evaluated;
    - [timebounds classify <object>] — Chapter II classification summary;
    - [timebounds derive <object>] — derive an object's bound table from
      its operation algebra;
    - [timebounds graph <object> [--dot]] — its commutativity graph;
    - [timebounds live --object <w>] — Algorithm 1's live replicas in one
      process, on the virtual-time loop: load generator, per-class latency
      histograms, post-hoc linearizability — the same seed gives the same
      report;
    - [timebounds sync] — clock-sync convergence demo on the same loop;
    - [timebounds serve --pid i --peers h:p,... [--shards k]] — one replica
      as an OS process over TCP, hosting [k] independent object instances
      (normally forked by [cluster] or [shards cluster]);
    - [timebounds cluster --n 3 --object kv --ops 500] — fork n local
      [serve] processes, drive them over loopback TCP, verify;
    - [timebounds chaos --plan "crash(1)@0.4s;restart(1)@0.9s"] — either of
      the above under a seeded fault-injection plan, with
      assumption-violation windows correlated against the verdict;
    - [timebounds trace [--processes] [--chrome t.json] [--prom m.prom]] —
      record a traced run (in-process in virtual time, or a real
      cluster), assemble
      per-operation causal spans, decompose latency (hold / wire / remote
      queueing) and attribute each operation to its paper bound.

    All flags accept [--name v], [--name=v] and [-name v] (see {!Cli}). *)

let args cmd = (Printf.sprintf "timebounds %s" cmd, List.tl (List.tl (Array.to_list Sys.argv)))

(* ---- list ---- *)

let list_cmd () =
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      Format.printf "%-10s %s@." e.id e.title)
    (Experiments.Registry.all ())

(* ---- experiment ---- *)

let experiment_cmd () =
  let prog, argv = args "experiment [ID...]" in
  let c = Cli.parse ~prog ~specs:[] argv in
  let entries =
    match Cli.positionals c with
    | [] -> Experiments.Registry.all ()
    | ids ->
        List.filter_map
          (fun id ->
            match Experiments.Registry.find id with
            | Some e -> Some e
            | None ->
                Format.eprintf "unknown experiment %s (try `timebounds list`)@."
                  id;
                None)
          ids
  in
  let reports =
    List.map (fun (e : Experiments.Registry.entry) -> e.run ()) entries
  in
  List.iter (fun r -> Format.printf "%a@." Experiments.Report.pp r) reports;
  let failed =
    List.filter (fun (r : Experiments.Report.t) -> not r.ok) reports
  in
  if failed <> [] then begin
    Format.printf "MISMATCHES: %s@."
      (String.concat ", "
         (List.map (fun (r : Experiments.Report.t) -> r.id) failed));
    exit 1
  end

(* ---- tables ---- *)

let tables_cmd () =
  let prog, argv = args "tables" in
  let specs =
    [
      Cli.value "n" "number of processes (default 5)";
      Cli.value "d" "delay upper bound (default 1200)";
      Cli.value "u" "delay uncertainty (default 400)";
    ]
  in
  let c = Cli.parse ~prog ~specs argv in
  let n = Cli.int c "n" ~default:5 in
  let d = Cli.int c "d" ~default:1200 in
  let u = Cli.int c "u" ~default:400 in
  let eps = Core.Params.optimal_eps ~n ~u in
  let params = Core.Params.make ~n ~d ~u ~eps ~x:0 () in
  List.iter
    (fun t -> Format.printf "%a@." (Bounds.Formulas.pp_table params) t)
    Bounds.Formulas.all_tables

(* ---- classify / derive / graph: object dispatch ---- *)

let object_arg c = function
  | [ obj ] -> obj
  | [] -> Cli.fail c "missing OBJECT argument"
  | _ -> Cli.fail c "expected exactly one OBJECT argument"

let classify_cmd () =
  let prog, argv =
    args "classify <register|queue|stack|stack-obs|set|tree|bst|array|log|kv|pqueue>"
  in
  let c = Cli.parse ~prog ~specs:[] argv in
  let obj = object_arg c (Cli.positionals c) in
  let summarize (type s o r)
      (module D : Spec.Data_type.SAMPLED
        with type state = s and type op = o and type result = r) =
    let module C = Classify.Checkers.Make (D) in
    Format.printf "%s:@." D.name;
    List.iter
      (fun ty -> Format.printf "  %a@." C.pp_summary (C.summarize ty))
      D.op_types
  in
  match obj with
  | "register" -> summarize (module Spec.Register)
  | "queue" -> summarize (module Spec.Fifo_queue)
  | "stack" -> summarize (module Spec.Lifo_stack)
  | "stack-obs" -> summarize (module Spec.Lifo_stack_obs)
  | "set" -> summarize (module Spec.Int_set)
  | "tree" -> summarize (module Spec.Rooted_tree)
  | "bst" -> summarize (module Spec.Bst)
  | "array" -> summarize (module Spec.Update_array)
  | "log" -> summarize (module Spec.Append_log)
  | "kv" -> summarize (module Spec.Kv_map)
  | "pqueue" -> summarize (module Spec.Priority_queue)
  | other ->
      Format.eprintf "unknown object %s@." other;
      exit 1

let derive_cmd () =
  let prog, argv =
    args "derive <register|queue|stack|stack-obs|set|tree|bst|array|log|kv>"
  in
  let c = Cli.parse ~prog ~specs:[] argv in
  let obj = object_arg c (Cli.positionals c) in
  let params = Core.Params.make ~n:5 ~d:1200 ~u:400 ~eps:320 ~x:0 () in
  let show (type s o r)
      (module D : Spec.Data_type.SAMPLED
        with type state = s and type op = o and type result = r) =
    let module Dv = Bounds.Derive.Make (D) in
    Format.printf "%s (derived at n=5 d=1200 u=400 ε=320 X=0):@." D.name;
    List.iter
      (fun row -> Format.printf "  %a@." (Bounds.Derive.pp_row params) row)
      (Dv.derive ())
  in
  match obj with
  | "register" -> show (module Spec.Register)
  | "queue" -> show (module Spec.Fifo_queue)
  | "stack" -> show (module Spec.Lifo_stack)
  | "stack-obs" -> show (module Spec.Lifo_stack_obs)
  | "set" -> show (module Spec.Int_set)
  | "tree" -> show (module Spec.Rooted_tree)
  | "bst" -> show (module Spec.Bst)
  | "array" -> show (module Spec.Update_array)
  | "log" -> show (module Spec.Append_log)
  | "kv" -> show (module Spec.Kv_map)
  | other ->
      Format.eprintf "unknown object %s@." other;
      exit 1

let graph_cmd () =
  let prog, argv = args "graph <object> [--dot]" in
  let specs = [ Cli.flag "dot" "emit Graphviz DOT" ] in
  let c = Cli.parse ~prog ~specs argv in
  let obj = object_arg c (Cli.positionals c) in
  let dot = Cli.given c "dot" in
  let show (type s o r)
      (module D : Spec.Data_type.SAMPLED
        with type state = s and type op = o and type result = r) =
    let module B = Classify.Commutativity_graph.Build (D) in
    let g = B.build () in
    if dot then print_string (Classify.Commutativity_graph.to_dot g)
    else Format.printf "%a" Classify.Commutativity_graph.pp g
  in
  match obj with
  | "register" -> show (module Spec.Register)
  | "queue" -> show (module Spec.Fifo_queue)
  | "stack" -> show (module Spec.Lifo_stack)
  | "set" -> show (module Spec.Int_set)
  | "tree" -> show (module Spec.Rooted_tree)
  | "bst" -> show (module Spec.Bst)
  | "array" -> show (module Spec.Update_array)
  | "log" -> show (module Spec.Append_log)
  | "kv" -> show (module Spec.Kv_map)
  | "pqueue" -> show (module Spec.Priority_queue)
  | other ->
      Format.eprintf "unknown object %s@." other;
      exit 1

(* ---- flag groups, each declared once with one parse function ---- *)

let timing_specs =
  [
    Cli.value "d" "delay upper bound, µs (default 2000)";
    Cli.value "u" "delay uncertainty, µs (default 500)";
    Cli.value "eps" "clock-skew bound, µs; default (1 - 1/n)u";
    Cli.value "x" "trade-off knob X, µs (default 0)";
    Cli.value "slack" "scheduling-jitter headroom, µs (default 5000)";
  ]

let timing_args c =
  ( Cli.int c "d" ~default:2000,
    Cli.int c "u" ~default:500,
    Cli.int_opt c "eps",
    Cli.int c "x" ~default:0,
    Cli.int c "slack" ~default:5000 )

(* The run's shape: who drives how much load where.  [load_specs] is the
   part every load-driving command takes; [net_specs] adds what a TCP
   cluster needs.  One parse function reads both — a flag a command did
   not declare can never be given, so it reads as its default. *)
type shape = {
  n : int;
  ops : int;
  mix : int * int * int;
  workers : int option;
  seed : int;
  round : int;
  host : string;
  base_port : int;
}

let load_specs ~ops =
  [
    Cli.value "n" "number of replicas (default 3)";
    Cli.value "ops" (Printf.sprintf "total operations (default %d)" ops);
    Cli.value "mix" "mutator:accessor:other weights (default 50:40:10)";
    Cli.value "workers" "closed-loop clients; default n";
    Cli.value "seed" "RNG seed (default 1)";
  ]

let net_specs ~round ~base_port =
  [
    Cli.value "round"
      (Printf.sprintf "operations per quiescent round (default %d)" round);
    Cli.value "host" "bind/connect host (default 127.0.0.1)";
    Cli.value "base-port"
      (Printf.sprintf "first replica port (default %d)" base_port);
  ]

let shape_args c ~ops ?(round = 24) ?(base_port = 7600) () =
  {
    n = Cli.int c "n" ~default:3;
    ops = Cli.int c "ops" ~default:ops;
    mix = Cli.mix c "mix" ~default:(50, 40, 10);
    workers = Cli.int_opt c "workers";
    seed = Cli.int c "seed" ~default:1;
    round = Cli.int c "round" ~default:round;
    host = Cli.str c "host" ~default:"127.0.0.1";
    base_port = Cli.int c "base-port" ~default:base_port;
  }

let object_spec ~default =
  Cli.value "object"
    (Printf.sprintf "wire object (%s; default %s)"
       (String.concat "|" Net.Wire.names)
       default)

let wire_object c ~default =
  let obj = Cli.str c "object" ~default in
  match Net.Wire.find obj with
  | Some w -> w
  | None ->
      Format.eprintf "unknown wire object %s (have: %s)@." obj
        (String.concat ", " Net.Wire.names);
      exit 1

type durable = {
  dir : string option;
  fsync : string;  (** the policy as given, forwarded to children *)
  policy : Durable.Wal.fsync;
  snapshot_every : int;
}

let durable_specs =
  [
    Cli.value "durable"
      "durable state directory (WAL + snapshots; one subdirectory per \
       replica in a cluster, per shard in a multi-shard host): a restarted \
       replica recovers from it and catches up from peers, and cluster \
       clients switch to idempotent retries";
    Cli.value "fsync"
      "WAL fsync policy: always | interval[:N] | never (default interval)";
    Cli.value "snapshot-every"
      "checkpoint after this many WAL records (default 1024; 0 = never)";
  ]

let durable_args c =
  let fsync = Cli.str c "fsync" ~default:"interval" in
  match Durable.Wal.fsync_of_string fsync with
  | Error e -> Cli.fail c ("bad --fsync: " ^ e)
  | Ok policy ->
      {
        dir = Cli.str_opt c "durable";
        fsync;
        policy;
        snapshot_every = Cli.int c "snapshot-every" ~default:1024;
      }

(* The fault plan rides [--chaos] everywhere but the [chaos] and [trace]
   commands, where it is [--plan]. *)
let chaos_specs ?(flag = "chaos") ?default () =
  [
    Cli.value flag
      (Printf.sprintf
         "fault plan: rules name(args)[/src>dst][%%shard][@from[-until]] \
          joined by ';'. Names: drop(P) dup(P) spike(E) jitter(M) \
          partition(a,b|c,d) crash(P) restart(P) skew(P,OFF) flood(K). \
          Times take us/ms/s suffixes; %%K scopes a rule to shard K%s"
         (match default with
         | Some d -> Printf.sprintf ". Default '%s'" d
         | None -> ""));
    Cli.value "chaos-seed"
      "seed for the plan's coin flips (default: --seed, or 0 without one)";
  ]

let chaos_args ?(flag = "chaos") ?default c ~seed =
  match (Cli.str_opt c flag, default) with
  | None, None -> None
  | Some spec, _ | None, Some spec -> (
      let cseed = Cli.int c "chaos-seed" ~default:seed in
      match Fault.Fault_plan.compile ~seed:cseed ~spec with
      | Error e -> Cli.fail c (Printf.sprintf "bad --%s: %s" flag e)
      | Ok p -> Some p)

let fallback_specs =
  [
    Cli.value "fallback"
      "degraded-mode policy: quorum (adaptive ABD fallback) or none \
       (default none)";
    Cli.value "hb-us" "fallback heartbeat interval, µs (default 2500)";
    Cli.value "suspect-after"
      "missed heartbeat intervals before suspecting a peer (default 40)";
  ]

let fallback_args c =
  match Cli.str c "fallback" ~default:"none" with
  | "none" -> None
  | "quorum" ->
      (* In-process runs have no host to log their mode switches and
         suspicions, so verbose logging is attached here (hosts log their
         own). *)
      let verbose = Cli.given c "verbose" in
      Some
        {
          Quorum.Config.hb_us = Cli.int c "hb-us" ~default:2_500;
          suspect_after = Cli.int c "suspect-after" ~default:40;
          on_mode =
            (fun ~quorum ~epoch ~seq ->
              if verbose then
                Printf.eprintf "[fallback] mode: %s(epoch=%d seq=%d)\n%!"
                  (if quorum then "quorum" else "fast")
                  epoch seq);
          on_suspect =
            (fun ~peer ~suspected ->
              if verbose then
                Printf.eprintf "[fallback] %s peer %d\n%!"
                  (if suspected then "suspecting" else "cleared")
                  peer);
        }
  | other -> Cli.fail c (Printf.sprintf "bad --fallback %s (quorum|none)" other)

let sync_specs =
  [
    Cli.value "sync"
      "live clock synchronization: on (measure ε over the wire and slew \
       each replica's clock toward the Lundelius-Lynch midpoint) or off \
       (default off)";
    Cli.value "sync-interval-us"
      "clock-sync probe round interval, µs (default 50000)";
    Cli.value "sync-u"
      "one-way uncertainty bound for piggybacked heartbeat samples, µs \
       (default: the effective u)";
  ]

(* [d]/[u] are the *effective* bounds (slack folded in) — the sync
   estimator prices its one-way samples off them, exactly the bounds the
   replicas time with. *)
let sync_args c ~d ~u =
  match Cli.str c "sync" ~default:"off" with
  | "off" -> None
  | "on" ->
      let interval_us =
        Cli.int c "sync-interval-us" ~default:Sync.Config.default_interval_us
      in
      let su = Cli.int c "sync-u" ~default:u in
      (* In-process runs have no host to log achieved ε, so verbose logging
         is attached here (hosts log their own). *)
      let verbose = Cli.given c "verbose" in
      let on_eps ~eps_us ~peers =
        if verbose then
          Printf.eprintf "[sync] eps=%dus peers=%d\n%!" eps_us peers
      in
      Some (Sync.Config.make ~interval_us ~d ~u:su ~on_eps ())
  | other -> Cli.fail c (Printf.sprintf "bad --sync %s (on|off)" other)

(* Trace analysis and exports, for the commands that record traces. *)
let trace_specs =
  [
    Cli.value "trace-dir"
      "directory for a process cluster's per-replica trace files, kept \
       after the run (trace --processes: default a fresh dir under the \
       system temp dir; shards cluster: traces only when given)";
    Cli.value "grace"
      "scheduling allowance over each bound, µs (default: slack)";
    Cli.value "chrome" "export Chrome trace-event JSON to FILE";
    Cli.value "prom" "export Prometheus text metrics to FILE";
  ]

(* Merge a process cluster's per-replica trace files onto one timeline. *)
let read_traces ~dir ~n =
  let events =
    List.concat_map
      (fun i ->
        match Shard.Cluster.trace_path (Some dir) i with
        | Some path when Sys.file_exists path -> Obs.Recorder.read_file path
        | _ -> [])
      (List.init n Fun.id)
  in
  Format.printf "merged %d events from %s@." (List.length events) dir;
  events

(* Analyse + export.  With [per_shard], the load generator's trace ids
   carry the target shard in their origin bits, so partitioning the event
   stream by [Trace_id.origin] attributes every latency to its shard.
   False on an unexcused bound violation or an export that fails
   validation. *)
let analyze c ?recorder ?(per_shard = false) ~params ~slack ~windows events =
  let grace = Cli.int c "grace" ~default:slack in
  let events =
    List.stable_sort
      (fun (a : Obs.Event.t) (b : Obs.Event.t) ->
        compare a.Obs.Event.t_us b.Obs.Event.t_us)
      events
  in
  let report = Obs.Analyze.check ~params ~grace_us:grace ~windows events in
  Format.printf "%a@." Obs.Analyze.pp_report report;
  if Cli.given c "show-spans" then
    List.iter
      (fun ck -> Format.printf "  %a@." Obs.Analyze.pp_checked ck)
      report.Obs.Analyze.spans;
  if per_shard then begin
    let by_shard : (int, Obs.Event.t list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (e : Obs.Event.t) ->
        if e.Obs.Event.trace <> 0 then begin
          let k = Obs.Trace_id.origin e.Obs.Event.trace in
          Hashtbl.replace by_shard k
            (e :: Option.value ~default:[] (Hashtbl.find_opt by_shard k))
        end)
      events;
    Hashtbl.fold (fun k evs acc -> (k, List.rev evs) :: acc) by_shard []
    |> List.sort compare
    |> List.iter (fun (k, evs) ->
           let r = Obs.Analyze.check ~params ~grace_us:grace ~windows evs in
           Format.printf
             "  shard %3d: %3d spans  %d within, %d violated, %d excused, %d \
              incomplete@."
             k r.Obs.Analyze.total
             (r.Obs.Analyze.total - r.Obs.Analyze.violations
            - r.Obs.Analyze.excused - r.Obs.Analyze.incomplete)
             r.Obs.Analyze.violations r.Obs.Analyze.excused
             r.Obs.Analyze.incomplete)
  end;
  let export_ok = ref true in
  (match Cli.str_opt c "chrome" with
  | None -> ()
  | Some path -> (
      let json = Obs.Export.chrome ~report ~events in
      match Obs.Json.validate json with
      | Ok () ->
          Out_channel.with_open_bin path (fun oc -> output_string oc json);
          Format.printf "chrome trace: %s (%d bytes)@." path
            (String.length json)
      | Error e ->
          Format.eprintf "internal error: chrome export is not valid JSON: %s@."
            e;
          export_ok := false));
  (match Cli.str_opt c "prom" with
  | None -> ()
  | Some path ->
      let text = Obs.Export.prometheus ~report ?recorder () in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Format.printf "metrics: %s@." path);
  report.Obs.Analyze.violations = 0 && !export_ok

(* The plan's assumption-violation windows, as the analyzer's excuses. *)
let excuse_windows ~plan ~params ~net_d ~offsets =
  match plan with
  | None -> []
  | Some p ->
      Fault.Assumption_monitor.violations ~plan:p ~params ~net_d ~offsets ()
      |> List.map (fun (v : Fault.Assumption_monitor.violation) ->
             ( v.Fault.Assumption_monitor.label,
               v.Fault.Assumption_monitor.v_from_us,
               v.Fault.Assumption_monitor.v_until_us ))

(* Log to stderr under [tag] when --verbose was given.  A SIGINT raises
   [abort], which cuts a cluster run short and falls through to teardown. *)
let verbose_log c ~tag =
  if Cli.given c "verbose" then fun s -> Printf.eprintf "[%s] %s\n%!" tag s
  else fun _ -> ()

let sigint_abort () =
  let abort = Atomic.make false in
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle (fun _ -> Atomic.set abort true));
  abort

(* ---- live ---- *)

let live_cmd () =
  let prog, argv = args "live" in
  let specs =
    [
      Cli.value "object"
        (Printf.sprintf "workload (%s; default register)"
           (String.concat "|" Runtime.Workloads.names));
    ]
    @ load_specs ~ops:1000 @ timing_specs
    @ [ Cli.value "loss" "percentage of messages dropped (default 0)" ]
  in
  let c = Cli.parse ~prog ~specs argv in
  let obj = Cli.str c "object" ~default:"register" in
  match Runtime.Workloads.find obj with
  | None ->
      Format.eprintf "unknown workload %s (have: %s)@." obj
        (String.concat ", " Runtime.Workloads.names);
      exit 1
  | Some (module L : Runtime.Workloads.LIVE) ->
      let s = shape_args c ~ops:1000 () in
      let d, u, eps, x, slack = timing_args c in
      let loss = Cli.int c "loss" ~default:0 in
      let module Gen = Runtime.Loadgen.Make (L) in
      let report =
        Gen.run ~n:s.n ~d ~u ?eps ~x ~slack ?workers:s.workers ~mix:s.mix
          ~loss ~ops:s.ops ~seed:s.seed ()
      in
      Format.printf "%a@." Runtime.Loadgen.pp_report report;
      if not (Runtime.Loadgen.is_linearizable report) then exit 1

(* ---- sync ---- *)

(* In-process convergence demo for DESIGN.md §14: n replicas on the
   virtual-time loop, raw clocks skewed evenly across ±--skew, probing every
   --sync-interval-us over links whose delays lie in [d − u, d].  The loop
   files each replica's achieved-ε rounds under its pid. *)
let sync_cmd () =
  let prog, argv = args "sync" in
  let specs =
    [
      Cli.value "n" "number of replicas (default 3)";
      Cli.value "skew"
        "initial clock offsets span ±SKEW µs across the replicas (default \
         2000)";
      Cli.value "rounds" "sync rounds to observe before judging (default 10)";
    ]
    @ timing_specs
    @ [
        Cli.value "sync-interval-us"
          (Printf.sprintf "probe-round interval, µs (default %d)"
             Sync.Config.default_interval_us);
      ]
  in
  let c = Cli.parse ~prog ~specs argv in
  let n = Cli.int c "n" ~default:3 in
  if n < 2 then Cli.fail c "--n must be at least 2";
  let skew = Cli.int c "skew" ~default:2000 in
  if skew < 0 then Cli.fail c "--skew must be >= 0";
  let rounds = Cli.int c "rounds" ~default:10 in
  if rounds < 1 then Cli.fail c "--rounds must be >= 1";
  let d, u, eps, x, slack = timing_args c in
  (* Default the admissible bound to the injected spread: the demo starts
     at the edge of admissibility and must earn its way below it. *)
  let eps =
    match eps with
    | Some e -> e
    | None -> max (2 * skew) (Core.Params.optimal_eps ~n ~u)
  in
  let params = Core.Params.make ~n ~d:(d + slack) ~u:(u + slack) ~eps ~x () in
  let interval_us =
    Cli.int c "sync-interval-us" ~default:Sync.Config.default_interval_us
  in
  (* Evenly-spaced offsets over [+skew, −skew]: pid 0 fastest, n−1 slowest. *)
  let offsets = Array.init n (fun i -> skew - (2 * skew * i / (n - 1))) in
  let module V = Runtime.Vloop.Make (Spec.Register) in
  let v =
    V.create ~params
      ~policy:(Sim.Delay.random (Prelude.Rng.make 1) ~d ~u)
      ~offsets
      ~sync:
        (Sync.Config.make ~interval_us ~d:params.Core.Params.d
           ~u:params.Core.Params.u ())
      ()
  in
  let horizon = ((rounds + 5) * interval_us) + 2_000_000 in
  V.run v ~until:(fun () ->
      V.now v > horizon
      || Array.for_all (fun h -> List.length h >= rounds) (V.sync_rounds v));
  let per_pid = Array.map Array.of_list (V.sync_rounds v) in
  Format.printf
    "clock sync: n=%d offsets ±%dus interval=%dus configured eps=%dus@." n
    skew interval_us eps;
  let shown =
    Array.fold_left (fun k (h : _ array) -> max k (Array.length h)) 0 per_pid
  in
  Format.printf "%6s" "round";
  for pid = 0 to n - 1 do
    Format.printf "%10s" (Printf.sprintf "r%d" pid)
  done;
  Format.printf "%10s@." "max";
  let first_below = ref 0 in
  for r = 0 to shown - 1 do
    Format.printf "%6d" (r + 1);
    let mx = ref 0 and complete = ref true in
    for pid = 0 to n - 1 do
      if r < Array.length per_pid.(pid) then begin
        let e, _ = per_pid.(pid).(r) in
        mx := max !mx e;
        Format.printf "%10s" (Printf.sprintf "%dus" e)
      end
      else begin
        complete := false;
        Format.printf "%10s" "-"
      end
    done;
    Format.printf "%10s@." (Printf.sprintf "%dus" !mx);
    if !first_below = 0 && !complete && !mx < eps then first_below := r + 1
  done;
  let final =
    Array.fold_left
      (fun acc (h : _ array) ->
        if Array.length h = 0 then max_int
        else
          let e, _ = h.(Array.length h - 1) in
          max acc e)
      0 per_pid
  in
  if final = max_int then begin
    Format.printf "no sync rounds observed — is the interval too long?@.";
    exit 1
  end
  else if final < eps then
    Format.printf
      "converged: achieved eps %dus < configured %dus (first below at round \
       %d of %d)@."
      final eps !first_below shown
  else begin
    Format.printf "NOT CONVERGED: achieved eps %dus >= configured %dus@." final
      eps;
    exit 1
  end

(* ---- serve ---- *)

let serve_cmd () =
  let prog, argv = args "serve" in
  let specs =
    [
      Cli.value "pid" "this replica's id, 0-based (required)";
      Cli.value "peers"
        "every replica's address as host:port,host:port,... (required; \
         index = pid)";
      Cli.value "shards" "independent object instances to host (default 1)";
      object_spec ~default:"register";
    ]
    @ timing_specs
    @ [
        Cli.value "offset" "this replica's clock offset, µs (default 0)";
        Cli.value "epoch"
          "run origin for trace times and fault windows, µs on the wall \
           clock (default: now); replica clocks do not depend on it";
        Cli.value "watch-parent" "exit when this OS pid disappears";
        Cli.value "trace"
          "write this replica's observability events to FILE (binary; read \
           with `timebounds trace`)";
      ]
    @ chaos_specs () @ durable_specs @ fallback_specs @ sync_specs
    @ [ Cli.flag "quiet" "suppress per-replica logging" ]
  in
  let c = Cli.parse ~prog ~specs argv in
  let pid =
    match Cli.int_opt c "pid" with
    | Some p -> p
    | None -> Cli.fail c "--pid is required"
  in
  let addrs =
    match Cli.str_opt c "peers" with
    | Some v -> Cli.peers c "peers" v
    | None -> Cli.fail c "--peers is required"
  in
  let n = Array.length addrs in
  if pid < 0 || pid >= n then
    Cli.fail c (Printf.sprintf "--pid %d out of range for %d peers" pid n);
  let shards = Cli.int c "shards" ~default:1 in
  if shards < 1 then Cli.fail c "--shards must be >= 1";
  let (module W : Net.Wire.WIRED) = wire_object c ~default:"register" in
  let d, u, eps, x, slack = timing_args c in
  let eps =
    match eps with Some e -> e | None -> Core.Params.optimal_eps ~n ~u
  in
  let params = Core.Params.make ~n ~d:(d + slack) ~u:(u + slack) ~eps ~x () in
  let durable = durable_args c in
  let module H = Shard.Host.Make (W) in
  H.run_until_signalled
    ?watch_parent:(Cli.int_opt c "watch-parent")
    {
      Shard.Host.pid;
      shards;
      addrs;
      params;
      offset = Cli.int c "offset" ~default:0;
      start_us = Cli.int_opt c "epoch";
      trace = Cli.str_opt c "trace";
      durable = durable.dir;
      fsync = durable.policy;
      snapshot_every = durable.snapshot_every;
      chaos = chaos_args c ~seed:0;
      fallback = fallback_args c;
      sync = sync_args c ~d:params.Core.Params.d ~u:params.Core.Params.u;
      log =
        (if Cli.given c "quiet" then fun _ -> ()
         else fun s -> Printf.eprintf "[serve] %s\n%!" s);
    }

(* ---- cluster ---- *)

let cluster_cmd () =
  let prog, argv = args "cluster" in
  let specs =
    [ object_spec ~default:"register" ]
    @ load_specs ~ops:500 @ timing_specs
    @ net_specs ~round:48 ~base_port:7600
    @ durable_specs @ fallback_specs @ sync_specs
    @ [ Cli.flag "verbose" "log child lifecycle to stderr" ]
  in
  let c = Cli.parse ~prog ~specs argv in
  let (module W : Net.Wire.WIRED) = wire_object c ~default:"register" in
  let s = shape_args c ~ops:500 ~round:48 ~base_port:7600 () in
  let d, u, eps, x, slack = timing_args c in
  let durable = durable_args c in
  let module Cl = Shard.Cluster.Make (W) in
  let report =
    Cl.run ~n:s.n ~source:(Cl.object_source ~n:s.n ~mix:s.mix) ~d ~u ?eps ~x
      ~slack ?workers:s.workers ~round:s.round ~host:s.host
      ~base_port:s.base_port ~log:(verbose_log c ~tag:"cluster")
      ~abort:(sigint_abort ()) ?durable_dir:durable.dir ~fsync:durable.fsync
      ~snapshot_every:durable.snapshot_every ?fallback:(fallback_args c)
      ?sync:(sync_args c ~d:(d + slack) ~u:(u + slack))
      ~ops:s.ops ~seed:s.seed ()
  in
  Format.printf "%a@." Shard.Cluster.pp_report report;
  if not (Shard.Cluster.ok report) then exit 1

(* ---- chaos ---- *)

let chaos_cmd () =
  let prog, argv = args "chaos" in
  let specs =
    [ object_spec ~default:"register" ]
    @ load_specs ~ops:600 @ timing_specs
    @ chaos_specs ~flag:"plan" ~default:"spike(3ms)@0.2s-0.6s" ()
    @ net_specs ~round:24 ~base_port:7650
    @ [
        Cli.flag "processes"
          "run as a real multi-process TCP cluster (crashes become SIGKILL \
           + supervised restart) instead of the in-process virtual-time \
           loop";
        Cli.flag "recovery"
          "enable durable crash recovery: crashed replicas freeze (or die) \
           with state on disk, recover, catch up from peers; clients retry \
           idempotently — crash/restart runs can then be checked for \
           linearizability instead of excused (--processes: --durable \
           defaults to a fresh dir under the system temp dir)";
      ]
    @ durable_specs @ fallback_specs @ sync_specs
    @ [
        Cli.flag "show-log" "print the canonical injected-fault log";
        Cli.flag "verbose" "log fault injection and child lifecycle";
      ]
  in
  let c = Cli.parse ~prog ~specs argv in
  let (module W : Net.Wire.WIRED) = wire_object c ~default:"register" in
  let s = shape_args c ~ops:600 ~base_port:7650 () in
  let d, u, eps, x, slack = timing_args c in
  let plan =
    Option.get
      (chaos_args ~flag:"plan" ~default:"spike(3ms)@0.2s-0.6s" c ~seed:s.seed)
  in
  let recovery = Cli.given c "recovery" in
  let fallback = fallback_args c in
  let sync = sync_args c ~d:(d + slack) ~u:(u + slack) in
  if Cli.given c "processes" then begin
    let durable = durable_args c in
    let durable_dir =
      match durable.dir with
      | Some dir -> Some dir
      | None when recovery ->
          Some
            (Filename.concat
               (Filename.get_temp_dir_name ())
               (Printf.sprintf "timebounds-durable-%d" (Unix.getpid ())))
      | None -> None
    in
    let module Cl = Shard.Cluster.Make (W) in
    let report =
      Cl.run ~n:s.n ~source:(Cl.object_source ~n:s.n ~mix:s.mix) ~d ~u ?eps ~x
        ~slack ?workers:s.workers ~round:s.round ~host:s.host
        ~base_port:s.base_port ~log:(verbose_log c ~tag:"chaos")
        ~abort:(sigint_abort ()) ~plan ?durable_dir ~fsync:durable.fsync
        ~snapshot_every:durable.snapshot_every ?fallback ?sync ~ops:s.ops
        ~seed:s.seed ()
    in
    Format.printf "%a@." Shard.Cluster.pp_report report;
    let violations =
      Fault.Assumption_monitor.violations ~recovery:(durable_dir <> None) ~plan
        ~params:report.Shard.Cluster.params ~net_d:d
        ~offsets:report.Shard.Cluster.offsets ()
    in
    let assessment =
      Fault.Assumption_monitor.assess ~violations
        ~cuts:report.Shard.Cluster.cuts ~verdict:report.Shard.Cluster.verdict
    in
    Format.printf "chaos verdict: %a@." Fault.Assumption_monitor.pp_assessment
      assessment;
    match assessment with
    | Fault.Assumption_monitor.Genuine _ -> exit 1
    | _ -> ()
  end
  else begin
    let report =
      Fault.Chaos_run.run
        ~workload:(module W.L)
        ~n:s.n ~d ~u ?eps ~x ~slack ?workers:s.workers ~round:s.round
        ~mix:s.mix ~plan ~recovery ?fallback ?sync ~ops:s.ops ~seed:s.seed ()
    in
    Format.printf "%a@." Fault.Chaos_run.pp_report report;
    if Cli.given c "show-log" then
      List.iter print_endline report.Fault.Chaos_run.canonical;
    if Cli.given c "verbose" then
      List.iter
        (fun ev ->
          Format.eprintf "[chaos] %a@." Fault.Chaos_transport.pp_event ev)
        report.Fault.Chaos_run.events;
    if not (Fault.Chaos_run.ok report) then exit 1
  end

(* ---- recover ---- *)

(* Offline inspection of a replica's durable directory: what a restart
   would reconstruct, without touching the files. *)
let recover_cmd () =
  let prog, argv = args "recover <dir>" in
  let specs = [ object_spec ~default:"register" ] in
  let c = Cli.parse ~prog ~specs argv in
  let dir =
    match Cli.positionals c with
    | [ d ] -> d
    | [] -> Cli.fail c "missing DIR argument"
    | _ -> Cli.fail c "expected exactly one DIR argument"
  in
  let (module W : Net.Wire.WIRED) = wire_object c ~default:"register" in
  match Durable.Store.inspect ~dir with
  | Error e ->
      Format.eprintf "%s@." e;
      exit 1
  | Ok (meta, view) ->
      let module P = Net.Persist.Make (W.C) in
      let snap, folded, skipped = P.recover view in
      let decoded =
        List.length
          (List.filter_map P.decode_record view.Durable.Store.r_records)
      in
      Format.printf "%s@." dir;
      Format.printf "  META:        %s@." meta;
      Format.printf "  generation:  %d@." view.Durable.Store.r_generation;
      Format.printf "  snapshot:    %s@."
        (match view.Durable.Store.r_snapshot with
        | None -> "none"
        | Some p -> Printf.sprintf "%d bytes" (String.length p));
      Format.printf "  wal records: %d (%d decodable)@."
        (List.length view.Durable.Store.r_records)
        decoded;
      Format.printf "  replays:     %d folded, %d skipped below the \
                     high-water mark@."
        folded skipped;
      Format.printf "  recovers:    the object at high-water mark \
                     (time=%d, pid=%d), %d op ids to dedup@."
        snap.P.s_hwm_time snap.P.s_hwm_pid
        (List.length
           (List.filter (fun (a : P.applied) -> a.P.op_id <> 0) snap.P.s_applied))

(* ---- trace ---- *)

let trace_cmd () =
  let prog, argv = args "trace" in
  let specs =
    [ object_spec ~default:"register" ]
    @ load_specs ~ops:300 @ timing_specs
    @ chaos_specs ~flag:"plan" ()
    @ net_specs ~round:24 ~base_port:7700
    @ [
        Cli.flag "processes"
          "trace a real multi-process TCP cluster (per-replica trace files, \
           merged afterwards; required by --plan) instead of the in-process \
           virtual-time loop";
      ]
    @ trace_specs
    @ [
        Cli.flag "show-spans" "print every checked span";
        Cli.flag "verbose" "log child lifecycle to stderr";
      ]
    @ sync_specs
  in
  let c = Cli.parse ~prog ~specs argv in
  let (module W : Net.Wire.WIRED) = wire_object c ~default:"register" in
  let s = shape_args c ~ops:300 ~base_port:7700 () in
  let d, u, eps, x, slack = timing_args c in
  let sync = sync_args c ~d:(d + slack) ~u:(u + slack) in
  if Cli.given c "plan" && not (Cli.given c "processes") then
    Cli.fail c
      "--plan requires --processes (chaos tracing runs the real cluster)";
  let plan = chaos_args ~flag:"plan" c ~seed:s.seed in
  if Cli.given c "processes" then begin
    let trace_dir =
      match Cli.str_opt c "trace-dir" with
      | Some dir -> dir
      | None ->
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "timebounds-trace-%d" (Unix.getpid ()))
    in
    let module Cl = Shard.Cluster.Make (W) in
    let report =
      Cl.run ~n:s.n ~source:(Cl.object_source ~n:s.n ~mix:s.mix) ~d ~u ?eps ~x
        ~slack ?workers:s.workers ~round:s.round ~host:s.host
        ~base_port:s.base_port ~log:(verbose_log c ~tag:"trace")
        ~abort:(sigint_abort ()) ?plan ?sync ~trace_dir ~ops:s.ops
        ~seed:s.seed ()
    in
    Format.printf "%a@.@." Shard.Cluster.pp_report report;
    let events = read_traces ~dir:trace_dir ~n:s.n in
    if plan = None && not (Shard.Cluster.ok report) then exit 1;
    let params = report.Shard.Cluster.params in
    if
      not
        (analyze c ~params ~slack
           ~windows:
             (excuse_windows ~plan ~params ~net_d:d
                ~offsets:report.Shard.Cluster.offsets)
           events)
    then exit 1
  end
  else begin
    (* In-process: one recorder sees every replica, stamped in virtual
       time; the memory sink keeps the events for analysis. *)
    let module Gen = Runtime.Loadgen.Make (W.L) in
    let sink, contents = Obs.Recorder.memory_sink () in
    let r = Obs.Recorder.start ~epoch_us:(Prelude.Mclock.now_us ()) ~sink () in
    Obs.Recorder.install r;
    let run =
      Gen.run ~n:s.n ~d ~u ?eps ~x ~slack ?workers:s.workers ~round:s.round
        ~mix:s.mix ?sync ~ops:s.ops ~seed:s.seed ()
    in
    Obs.Recorder.uninstall ();
    Obs.Recorder.stop r;
    Format.printf "%a@.@." Runtime.Loadgen.pp_report run;
    if not (Runtime.Loadgen.is_linearizable run) then exit 1;
    if
      not
        (analyze c
           ~recorder:(Obs.Recorder.stats r)
           ~params:run.Runtime.Loadgen.params ~slack ~windows:[] (contents ()))
    then exit 1
  end

(* ---- shards ---- *)

(* [timebounds shards cluster] forks [--n] hosts each running [--shards]
   KV instances behind a consistent-hash ring and drives them with a
   zipfian load; [shards loadgen] drives hand-started [serve --shards]
   hosts without spawning. *)
let shards_load ~drive_only argv =
  let prog =
    if drive_only then "timebounds shards loadgen"
    else "timebounds shards cluster"
  in
  let specs =
    [
      Cli.value "shards" "independent object instances (default 8)";
      Cli.value "keys" "key-space size for the zipfian draw (default 100000)";
      Cli.value "theta"
        "zipfian skew in [0,1); 0 = uniform (default 0.99, YCSB-style)";
      Cli.value "vnodes" "virtual nodes per ring member (default 64)";
      Cli.value "ring-seed" "consistent-hash ring seed (default 42)";
    ]
    @ load_specs ~ops:2000 @ timing_specs
    @ net_specs ~round:24 ~base_port:7800
    @ (if drive_only then []
       else
         chaos_specs () @ trace_specs @ durable_specs @ fallback_specs
         @ sync_specs)
    @ [ Cli.flag "verbose" "log child lifecycle to stderr" ]
  in
  let c = Cli.parse ~prog ~specs argv in
  let s = shape_args c ~ops:2000 ~base_port:7800 () in
  let shards = Cli.int c "shards" ~default:8 in
  if shards < 1 then Cli.fail c "--shards must be >= 1";
  let keys = Cli.int c "keys" ~default:100_000 in
  if keys < 1 then Cli.fail c "--keys must be >= 1";
  let theta =
    match float_of_string_opt (Cli.str c "theta" ~default:"0.99") with
    | Some t when t >= 0. && t < 1. -> t
    | _ -> Cli.fail c "--theta must be a float in [0, 1)"
  in
  let d, u, eps, x, slack = timing_args c in
  let plan = chaos_args c ~seed:s.seed in
  let trace_dir = Cli.str_opt c "trace-dir" in
  let durable = durable_args c in
  let source =
    Shard.Cluster.zipf_source ~n:s.n ~shards ~keys ~theta
      ~vnodes:(Cli.int c "vnodes" ~default:64)
      ~ring_seed:(Cli.int c "ring-seed" ~default:42)
      ~mix:s.mix
  in
  let report =
    Shard.Cluster.Kv.run ~spawn:(not drive_only) ~n:s.n ~source ~d ~u ?eps ~x
      ~slack ?workers:s.workers ~round:s.round ~host:s.host
      ~base_port:s.base_port ~log:(verbose_log c ~tag:"shards")
      ~abort:(sigint_abort ()) ?plan ?trace_dir ?durable_dir:durable.dir
      ~fsync:durable.fsync ~snapshot_every:durable.snapshot_every
      ?fallback:(fallback_args c)
      ?sync:(sync_args c ~d:(d + slack) ~u:(u + slack))
      ~ops:s.ops ~seed:s.seed ()
  in
  Format.printf "%a@." Shard.Cluster.pp_report report;
  let analysis_ok =
    match trace_dir with
    | None -> true
    | Some dir ->
        Format.printf "@.";
        let events = read_traces ~dir ~n:s.n in
        let params = report.Shard.Cluster.params in
        analyze c ~per_shard:true ~params ~slack
          ~windows:
            (excuse_windows ~plan ~params ~net_d:d
               ~offsets:report.Shard.Cluster.offsets)
          events
  in
  if not (Shard.Cluster.ok report && analysis_ok) then exit 1

let shards_cmd () =
  match Array.to_list Sys.argv with
  | _ :: _ :: "cluster" :: rest -> shards_load ~drive_only:false rest
  | _ :: _ :: "loadgen" :: rest -> shards_load ~drive_only:true rest
  | _ :: _ :: mode :: _ when String.length mode > 0 && mode.[0] <> '-' ->
      Format.eprintf "unknown shards mode %s (expected cluster or loadgen)@."
        mode;
      exit 2
  | _ :: _ :: rest ->
      (* bare `timebounds shards [flags]` defaults to cluster mode *)
      shards_load ~drive_only:false rest
  | _ -> shards_load ~drive_only:false []

(* ---- dispatch ---- *)

let usage ?(status = 2) () =
  prerr_string
    "usage: timebounds <command> [options]\n\
     commands:\n\
    \  list        list every reproducible table and figure\n\
    \  experiment  run experiments by id (all when no id given)\n\
    \  tables      print Tables I-IV with bound formulas evaluated\n\
    \  classify    classify an object's operations (Chapter II)\n\
    \  derive      derive an object's bound table from its op algebra\n\
    \  graph       print an object's commutativity graph\n\
    \  live        Algorithm 1's replicas in one process, in virtual time\n\
    \  sync        clock-sync convergence demo: skewed replicas earn their\n\
    \              achieved ε over the wire (DESIGN.md par.14)\n\
    \  serve       one replica as an OS process over TCP (--shards k hosts\n\
    \              k independent object instances)\n\
    \  cluster     fork n local serve processes and drive them over TCP\n\
    \  chaos       run live/cluster under a seeded fault-injection plan\n\
    \  recover     inspect a replica's durable directory (WAL + snapshots)\n\
    \  trace       record a traced run, decompose latency, attribute bounds\n\
    \  shards      sharded namespace: many instances behind a consistent-hash\n\
    \              ring (modes: cluster | loadgen; zipfian load,\n\
    \              per-shard latency, verdicts and bound attribution)\n\
     run `timebounds <command> --help` for the command's options\n";
  exit status

let () =
  if Array.length Sys.argv < 2 then usage ();
  match Sys.argv.(1) with
  | "list" -> list_cmd ()
  | "experiment" -> experiment_cmd ()
  | "tables" -> tables_cmd ()
  | "classify" -> classify_cmd ()
  | "derive" -> derive_cmd ()
  | "graph" -> graph_cmd ()
  | "live" -> live_cmd ()
  | "sync" -> sync_cmd ()
  | "serve" -> serve_cmd ()
  | "cluster" -> cluster_cmd ()
  | "chaos" -> chaos_cmd ()
  | "recover" -> recover_cmd ()
  | "trace" -> trace_cmd ()
  | "shards" -> shards_cmd ()
  | "--help" | "-h" | "help" -> usage ~status:0 ()
  | other ->
      Format.eprintf "unknown command %s@." other;
      usage ()
