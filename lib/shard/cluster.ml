(** Multi-process cluster supervisor and closed-loop TCP load driver — the
    body of [timebounds cluster], [chaos --processes], [trace --processes],
    [shards cluster] (fork [n] [timebounds serve] hosts on loopback, drive,
    verify, tear down) and [shards loadgen] (drive an already-running
    cluster).  One module for every shard count: an unsharded cluster is a
    cluster of one-shard hosts.

    Load: an op {!source} draws [(shard, op)] pairs and names each shard's
    home replica.  {!Make.object_source} samples the object's own mix on
    shard 0, each worker homed on one replica; {!zipf_source} draws hot
    keys from a zipfian rank sampler ({!Runtime.Workloads.Zipf}) over the
    sharded KV map and resolves them through the {!Directory}.  Workers
    keep one lazy connection per replica, so an operation for a shard homed
    elsewhere reuses the existing socket rather than paying a connect.

    Timeline: all client-observed invoke/response times are stamped on the
    {e parent's} monotonic clock, so the history is on one timeline even
    though the replicas are separate processes.  History entries use the
    {e worker} id as the linearizability pid — two workers sharing a
    replica have overlapping intervals, and labelling them with the
    replica's pid would impose false same-process precedence constraints.
    The client-observed intervals are a superset of the replica-side ones
    ([invoke ≤ execute ≤ response]), so a history linearizable on the
    wider intervals is sound evidence (a violation is always real).

    Measurement and verification are keyed by {e shard}: a zipfian mix
    makes some shards much hotter than others, and an aggregate histogram
    would average exactly the skew sharding exists to expose.  Each
    shard's history is checked independently with the segmented Wing–Gong
    checker, sharing the global quiescent cuts (quiescent for every shard
    at once); linearizability composes, so the namespace verdict is the
    conjunction of the per-shard ones.

    Failure handling: a monitor thread owns all [waitpid] reaping; an
    unexpected child exit (e.g. a replica killed mid-run) raises the abort
    flag, workers cut their rounds short, and the run reports a clean
    failure instead of hanging.  A chaos plan's unscoped crash/restart
    rules become real SIGKILLs and supervised respawns at every shard
    count; [%k]-scoped rules stay inside the hosts. *)

type child = {
  child_pid : int;  (** replica pid (0..n-1) *)
  mutable os_pid : int;  (** updated in place on supervised restart *)
  port : int;
}

type report = {
  label : string;
  describe : string;  (** the op source's shape ("" for the object mix) *)
  params : Core.Params.t;  (** effective (slack included in [d], [u]) *)
  cfg_d : int;
  cfg_u : int;
  slack : int;
  mix : int * int * int;
  workers : int;
  seed : int;
  ops : int;
  completed : int;
  failed : int;  (** invocations that errored (connection lost, …) *)
  sheds : int;
      (** overload refusals observed by clients (then retried under the
          same op id and deadline) — the visible cost of protection *)
  wall_us : int;
  throughput : float;
  classes : Runtime.Loadgen.class_report list;  (** aggregate over shards *)
  per_shard : Runtime.Loadgen.shard_report list;
      (** one per shard that saw traffic, hottest first *)
  replica_stats : (int * Runtime.Transport_intf.stats) list;
      (** per replica pid; missing replicas (died) are absent *)
  offsets : int array;
      (** effective per-replica clock offsets (seeded draw + injected skew) *)
  cuts : int list;  (** quiescent cut times, µs since the cluster epoch *)
  restarts : (int * int) list;
      (** supervised restarts as [(replica pid, µs since epoch)] *)
  aborted : string option;  (** why the run was cut short, if it was *)
  verdict : Runtime.Loadgen.verdict;
      (** namespace verdict: conjunction of the per-shard checks *)
}

let ok r =
  r.failed = 0 && r.aborted = None
  && match r.verdict with Runtime.Loadgen.Linearizable _ -> true | _ -> false

let pp_report fmt r =
  let m, a, o = r.mix in
  Format.fprintf fmt
    "@[<v>cluster %s: %a (net d=%d u=%d, slack=%d) mix=%d:%d:%d workers=%d \
     seed=%d@,"
    r.label Core.Params.pp r.params r.cfg_d r.cfg_u r.slack m a o r.workers
    r.seed;
  if r.describe <> "" then Format.fprintf fmt "%s@," r.describe;
  Format.fprintf fmt "%d/%d ops in %.3f s (%.0f ops/s)%s@," r.completed r.ops
    (float_of_int r.wall_us /. 1e6)
    r.throughput
    (if r.failed > 0 then Printf.sprintf "; %d FAILED" r.failed else "");
  if r.sheds > 0 then
    Format.fprintf fmt "overload: %d shed repl%s observed by clients@,"
      r.sheds
      (if r.sheds = 1 then "y" else "ies");
  (match r.aborted with
  | Some why -> Format.fprintf fmt "aborted: %s@," why
  | None -> ());
  List.iter
    (fun (c : Runtime.Loadgen.class_report) ->
      Format.fprintf fmt "  %-3s %a  (target %s %dµs)@,"
        c.Runtime.Loadgen.class_name Runtime.Histogram.pp
        c.Runtime.Loadgen.hist
        (if String.equal c.Runtime.Loadgen.class_name "OOP" then "≤" else "≈")
        c.Runtime.Loadgen.target_us;
      match c.Runtime.Loadgen.faulty with
      | None -> ()
      | Some h ->
          Format.fprintf fmt "      in fault windows: %a@," Runtime.Histogram.pp
            h)
    r.classes;
  List.iter
    (fun s -> Format.fprintf fmt "  %a@," Runtime.Loadgen.pp_shard_report s)
    r.per_shard;
  List.iter
    (fun (pid, stats) ->
      Format.fprintf fmt "  replica %d: %a@," pid
        Runtime.Transport_intf.pp_stats stats)
    r.replica_stats;
  List.iter
    (fun (pid, at) ->
      Format.fprintf fmt "  replica %d restarted at t=%dµs@," pid at)
    r.restarts;
  Format.fprintf fmt
    "post-hoc linearizability: %a@,namespace linearizability: %a@]"
    Runtime.Loadgen.pp_verdict r.verdict Runtime.Loadgen.pp_verdict r.verdict

(* ---- supervision: paths, monitor, teardown ---- *)

let peers_of ~host ~ports =
  String.concat ","
    (Array.to_list (Array.map (fun p -> Printf.sprintf "%s:%d" host p) ports))

(* Each replica writes trace_dir/replica-<i>.trace, appended across
   supervised restarts, so one file covers a replica's whole life. *)
let trace_path trace_dir i =
  Option.map
    (fun dir -> Filename.concat dir (Printf.sprintf "replica-%d.trace" i))
    trace_dir

(* Each replica owns durable_dir/replica-<i> (its shards' stores laid out
   by {!Host.store_dir}).  A supervised restart goes through the same argv,
   so the respawned process is handed the same directory — that is the
   recovery path; the store's META check makes a mixed-up handoff fail
   loudly. *)
let durable_path durable_dir i =
  Option.map
    (fun dir -> Filename.concat dir (Printf.sprintf "replica-%d" i))
    durable_dir

(* OCaml signal numbers are internal (Sys.sigkill = -7); name the usual
   suspects rather than leak them. *)
let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else Printf.sprintf "signal %d" s

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %s" (signal_name s)

(* The monitor thread is the sole reaper: everyone else consults the
   table.  [expected] is flipped before teardown so deliberate
   terminations don't raise the abort flag; individual planned kills (the
   chaos crash schedule) are announced via [plan_kill] instead, and a
   supervised respawn re-registers the new process with [adopt]. *)
type monitor = {
  mutable reaped : (int * Unix.process_status) list;
  mutable left : int;  (** live (unreaped) children *)
  mutable planned : int list;  (** os pids whose death is scheduled chaos *)
  lock : Mutex.t;
  expected : bool Atomic.t;
  abort : bool Atomic.t;
  mutable abort_why : string option;
  mutable thread : Thread.t option;
}

let plan_kill mon os_pid =
  Mutex.lock mon.lock;
  mon.planned <- os_pid :: mon.planned;
  Mutex.unlock mon.lock

let adopt mon =
  Mutex.lock mon.lock;
  mon.left <- mon.left + 1;
  Mutex.unlock mon.lock

let start_monitor children ~abort ~log =
  let mon =
    {
      reaped = [];
      left = Array.length children;
      planned = [];
      lock = Mutex.create ();
      expected = Atomic.make false;
      abort;
      abort_why = None;
      thread = None;
    }
  in
  let live () =
    Mutex.lock mon.lock;
    let l = mon.left in
    Mutex.unlock mon.lock;
    l
  in
  let thread =
    Thread.create
      (fun () ->
        while live () > 0 do
          match Unix.waitpid [] (-1) with
          | os_pid, status ->
              Mutex.lock mon.lock;
              mon.left <- mon.left - 1;
              mon.reaped <- (os_pid, status) :: mon.reaped;
              let was_planned = List.mem os_pid mon.planned in
              if was_planned then
                mon.planned <- List.filter (fun p -> p <> os_pid) mon.planned;
              Mutex.unlock mon.lock;
              let who =
                match Array.find_opt (fun c -> c.os_pid = os_pid) children with
                | Some c -> Printf.sprintf "replica %d" c.child_pid
                | None -> Printf.sprintf "child %d" os_pid
              in
              if was_planned then
                log
                  (Printf.sprintf "cluster: %s %s (scheduled chaos)" who
                     (status_string status))
              else if not (Atomic.get mon.expected) then begin
                let why =
                  Printf.sprintf "%s %s mid-run" who (status_string status)
                in
                log ("cluster: " ^ why);
                if mon.abort_why = None then mon.abort_why <- Some why;
                Atomic.set mon.abort true
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
              (* No children right now.  Mid-run that can only mean every
                 replica is inside a crash window awaiting respawn, so keep
                 watching; during teardown it means we are done. *)
              if Atomic.get mon.expected then begin
                Mutex.lock mon.lock;
                mon.left <- 0;
                Mutex.unlock mon.lock
              end
              else Prelude.Mclock.sleep_us 20_000
        done)
      ()
  in
  mon.thread <- Some thread;
  mon

let reaped mon os_pid =
  Mutex.lock mon.lock;
  let r = List.mem_assoc os_pid mon.reaped in
  Mutex.unlock mon.lock;
  r

let teardown mon children ~log =
  Atomic.set mon.expected true;
  Array.iter
    (fun c ->
      if not (reaped mon c.os_pid) then
        try Unix.kill c.os_pid Sys.sigterm with Unix.Unix_error _ -> ())
    children;
  (* Give children 5 s to exit cleanly, then SIGKILL stragglers. *)
  let deadline = Prelude.Mclock.now_us () + 5_000_000 in
  let all_reaped () = Array.for_all (fun c -> reaped mon c.os_pid) children in
  while (not (all_reaped ())) && Prelude.Mclock.now_us () < deadline do
    Prelude.Mclock.sleep_us 20_000
  done;
  Array.iter
    (fun c ->
      if not (reaped mon c.os_pid) then begin
        log
          (Printf.sprintf "cluster: replica %d unresponsive, SIGKILL"
             c.child_pid);
        try Unix.kill c.os_pid Sys.sigkill with Unix.Unix_error _ -> ()
      end)
    children;
  match mon.thread with Some t -> Thread.join t | None -> ()

(* The crash rules the parent carries out as real SIGKILLs: unscoped ones.
   A [%k]-scoped crash is one shard's affair, realised inside its host by
   the per-shard chaos transport. *)
let process_crashes plan =
  List.filter_map
    (fun (r : Fault.Fault_plan.rule) ->
      match (r.Fault.Fault_plan.kind, r.Fault.Fault_plan.shard) with
      | Fault.Fault_plan.Crash pid, None ->
          Some (pid, r.Fault.Fault_plan.from_us, r.Fault.Fault_plan.until_us)
      | _ -> None)
    (Fault.Fault_plan.rules plan)

let slot_of_class = function
  | Spec.Data_type.Pure_mutator -> 0
  | Spec.Data_type.Pure_accessor -> 1
  | Spec.Data_type.Other -> 2

let shed e = String.length e >= 4 && String.sub e 0 4 = "shed"

(* A shard's 6 latency histograms: 3 classes × clean/fault-window. *)
let hists_for tbl shard =
  match Hashtbl.find_opt tbl shard with
  | Some hs -> hs
  | None ->
      let hs = Array.init 6 (fun _ -> Runtime.Histogram.create ()) in
      Hashtbl.replace tbl shard hs;
      hs

module Make (W : Net.Wire.WIRED) = struct
  module Cl = Net.Client.Make (W)
  module Gen = Runtime.Loadgen.Make (W.L)
  module P = Net.Persist.Make (W.C)

  type source = {
    shards : int;  (** shard instances per host *)
    mix : int * int * int;  (** mutator:accessor:other weights *)
    describe : string;  (** report line naming the source's shape *)
    draw : Prelude.Rng.t -> int * W.L.D.op;  (** next (shard, op) *)
    home : wid:int -> shard:int -> int;
        (** the replica worker [wid] sends a [shard] op to first *)
  }

  (* The object's own sampler on one shard: each worker is homed on one
     replica, so every replica serves clients. *)
  let object_source ~n ~mix =
    let m, a, o = mix in
    let total = m + a + o in
    let draw rng =
      let toss = Prelude.Rng.int rng total in
      let op =
        if toss < m then W.L.sample_mutator rng
        else if toss < m + a then W.L.sample_accessor rng
        else W.L.sample_other rng
      in
      (0, op)
    in
    {
      shards = 1;
      mix;
      describe = "";
      draw;
      home = (fun ~wid ~shard:_ -> wid mod n);
    }

  (* Argv contract with [timebounds serve] (bin/cli.ml parses both
     [--flag v] and [-flag v]).  The children never see the ring: key →
     shard → replica resolution is the {e clients'} pure computation, so a
     host only needs to know how many shard instances to run.  [chaos]
     forwards the fault plan so each host wraps its own links with the same
     seeded plan. *)
  let serve_argv ~exe ~peers ~pid ~shards ~d ~u ~eps ~x ~slack ~offset ~epoch
      ~chaos ~trace ~durable ~fsync ~snapshot_every ~fallback ~sync =
    let base =
      [
        exe; "serve";
        "--pid"; string_of_int pid;
        "--peers"; peers;
        "--shards"; string_of_int shards;
        "--object"; W.L.label;
        "--d"; string_of_int d;
        "--u"; string_of_int u;
        "--eps"; string_of_int eps;
        "--x"; string_of_int x;
        "--slack"; string_of_int slack;
        "--offset"; string_of_int offset;
        "--epoch"; string_of_int epoch;
        "--watch-parent"; string_of_int (Unix.getpid ());
      ]
    in
    let extra =
      (match chaos with
      | None -> []
      | Some (spec, cseed) ->
          [ "--chaos"; spec; "--chaos-seed"; string_of_int cseed ])
      @ (match trace with None -> [] | Some path -> [ "--trace"; path ])
      @ (match fallback with
        | None -> []
        | Some (cfg : Quorum.Config.t) ->
            [
              "--fallback"; "quorum";
              "--hb-us"; string_of_int cfg.Quorum.Config.hb_us;
              "--suspect-after"; string_of_int cfg.Quorum.Config.suspect_after;
            ])
      @ (match sync with
        | None -> []
        | Some (cfg : Sync.Config.t) ->
            [
              "--sync"; "on";
              "--sync-interval-us"; string_of_int cfg.Sync.Config.interval_us;
              "--sync-u"; string_of_int cfg.Sync.Config.u;
            ])
      @
      match durable with
      | None -> []
      | Some dir ->
          [
            "--durable"; dir;
            "--fsync"; fsync;
            "--snapshot-every"; string_of_int snapshot_every;
          ]
    in
    Array.of_list (base @ extra)

  (* ---- one worker's share of a round ---- *)

  type worker_out = {
    w_entries : (int * Gen.Lin.entry) list;
        (** (shard, entry), reverse invocation order *)
    w_hists : (int, Runtime.Histogram.t array) Hashtbl.t;
        (** shard → 6 histograms (3 classes × clean/faulty) *)
    w_failed : int;
    w_sheds : int;  (** shed replies seen (each followed by a retry) *)
    w_error : string option;
  }

  (* In [resilient] mode (chaos runs) an invocation error costs the op but
     not the round: the worker drops the connection, re-establishes it with
     the client's capped retries, and carries on — the path a crashed
     replica's clients take through its supervised restart.  Only a failed
     reconnect (replica still gone after ~2 s of retries) aborts.

     In [rotate] mode (quorum fallback armed) the worker additionally fails
     over: a replica that refuses a retryable op (permanently dead, or a
     stalled minority asking clients to go elsewhere) rotates the worker to
     the next replica, and only exhausting every replica gives up. *)
  let worker_round ~host ~ports ~source ~origin_us ~abort ~resilient ~rotate
      ~traced ~windows ~mint ~timeout_us ~deadline_budget_us rng ~seed ~quota
      ~wid =
    let hists = Hashtbl.create 16 in
    let n = Array.length ports in
    let conns = Array.make n None in
    let shift = ref 0 in
    (* Rotation keeps per-port retries short: failing over to a live
       replica beats waiting ~2 s for a dead one to answer. *)
    let attempts = if rotate then 10 else if resilient then 40 else 3 in
    let drop_conn pid =
      (match conns.(pid) with Some c -> Cl.close c | None -> ());
      conns.(pid) <- None
    in
    (* The connection for an op homed on [home]: one lazy socket per
       replica, reused across every shard homed there. *)
    let connect home =
      let rec go k =
        let pid = (home + !shift) mod n in
        match conns.(pid) with
        | Some c -> Ok (pid, c)
        | None -> (
            match
              Cl.connect ~host ~port:ports.(pid) ~attempts
                ~retry_delay_us:50_000 ()
            with
            | Ok c ->
                conns.(pid) <- Some c;
                Ok (pid, c)
            | Error e ->
                if rotate && k + 1 < n then begin
                  incr shift;
                  go (k + 1)
                end
                else Error e)
      in
      go 0
    in
    let in_windows t = List.exists (fun (f, u) -> f <= t && t < u) windows in
    let entries = ref [] in
    let failed = ref 0 in
    let shed_count = ref 0 in
    let error = ref None in
    let note_error e =
      match !error with None -> error := Some e | Some _ -> ()
    in
    let gave_up = ref false in
    let i = ref 0 in
    while !i < quota && (not !gave_up) && not (Atomic.get abort) do
      incr i;
      let shard, op = source.draw rng in
      let home = source.home ~wid ~shard in
      (* The trace id's origin bits carry the shard, so per-shard bound
         attribution falls out of the merged trace files for free. *)
      let trace = if traced then Obs.Trace_id.fresh ~origin:shard else 0 in
      let op_id = match mint with None -> 0 | Some m -> m () in
      let t0 = Prelude.Mclock.now_us () in
      (* The deadline belongs to the operation, not the attempt: minted
         once, at first invocation, as the client's total willingness to
         wait — every retry re-sends it unchanged, so an overloaded
         replica's admission check measures real remaining patience, not a
         sliding window. *)
      let deadline =
        if deadline_budget_us > 0 then t0 + deadline_budget_us else 0
      in
      (* Idempotent path (durable, fallback or chaos clusters): a timed-out,
         refused or dropped invocation is replayed with the {e same} op id
         on a fresh connection, with capped exponential backoff + jitter.
         The replica dedups the replay, so the history records one
         operation spanning invoke at first attempt to response at the
         successful one — exactly the interval the client observed.  The
         jitter is hashed from the run seed and the retry site ([wid],
         [op_id], attempt), not drawn from the worker's generator: a retry
         must not perturb the op-draw sequence, so chaos runs replay
         bit-for-bit. *)
      let rec attempt backoff tries =
        match connect home with
        | Error e -> `Unreachable e
        | Ok (pid, c) -> (
            match Cl.invoke ~trace ~op_id ~shard ~deadline ?timeout_us c op with
            | Ok r -> `Done r
            | Error e
              when op_id <> 0 && Cl.retryable e && tries < 25
                   && (* a shed past the op's own deadline is final: every
                         further attempt would be shed again *)
                   ((not (shed e))
                   || deadline = 0
                   || Prelude.Mclock.now_us () < deadline)
                   && not (Atomic.get abort) ->
                if shed e then incr shed_count;
                drop_conn pid;
                let jitter =
                  Prelude.Rng.hash [ seed; wid; op_id; tries ]
                  mod (1 + (backoff / 2))
                in
                Prelude.Mclock.sleep_us (backoff + jitter);
                (* The refusing replica may be dead or a stalled minority —
                   under the fallback, fail over. *)
                if rotate then incr shift;
                attempt (min (2 * backoff) 400_000) (tries + 1)
            | Error e ->
                if shed e then incr shed_count;
                `Failed (pid, e))
      in
      match attempt 20_000 0 with
      | `Done result ->
          let t1 = Prelude.Mclock.now_us () in
          let slot = slot_of_class (W.L.D.classify op) in
          let slot = if in_windows (t0 - origin_us) then slot + 3 else slot in
          Runtime.Histogram.add (hists_for hists shard).(slot) (t1 - t0);
          entries :=
            ( shard,
              {
                Gen.Lin.pid = wid;
                op;
                result;
                invoke = t0 - origin_us;
                response = t1 - origin_us;
              } )
            :: !entries
      | `Failed (pid, e) ->
          incr failed;
          note_error e;
          if resilient then drop_conn pid
          else begin
            gave_up := true;
            Atomic.set abort true
          end
      | `Unreachable e ->
          (* Every replica this op may go to stayed unreachable through the
             client's retries: the rest of the quota cannot run either. *)
          note_error e;
          failed := !failed + (quota - !i + 1);
          gave_up := true;
          Atomic.set abort true
    done;
    Array.iteri (fun pid _ -> drop_conn pid) conns;
    {
      w_entries = !entries;
      w_hists = hists;
      w_failed = !failed;
      w_sheds = !shed_count;
      w_error = !error;
    }

  (* A restart over existing durable directories serves each shard's
     persisted history, so shard k's checker must start Wing–Gong from
     shard k's recovered state, not the fresh object: the replicas' applied
     lists for that shard, merged by ⟨time, pid⟩ stamp (every replica
     applies in stamp order, so the union replayed in stamp order is the
     cluster state).  Read before the children reopen the stores. *)
  let durable_initials durable_dir ~n ~shards =
    Array.init shards (fun k ->
        let tbl = Hashtbl.create 64 in
        for i = 0 to n - 1 do
          match durable_path durable_dir i with
          | None -> ()
          | Some replica_dir -> (
              match
                Durable.Store.inspect
                  ~dir:(Host.store_dir ~shards replica_dir k)
              with
              | Error _ -> ()
              | Ok (_meta, view) ->
                  List.iter
                    (fun (a : P.applied) ->
                      Hashtbl.replace tbl (a.P.time, a.P.pid) a.P.op)
                    (P.recovered_of view).P.s_applied)
        done;
        if Hashtbl.length tbl = 0 then None
        else
          Hashtbl.fold (fun key op acc -> (key, op) :: acc) tbl []
          |> List.sort compare
          |> List.fold_left
               (fun st (_, op) -> fst (W.L.D.apply st op))
               W.L.D.initial
          |> Option.some)

  (* Per-shard checks and histograms, and their namespace conjunction. *)
  let verdict_and_shards ~shards ~initials ~params ~windowed ~matrix ~cuts
      ~entries ~expected ~failed ~first_error ~aborted =
    let by_shard = Array.make shards [] in
    List.iter
      (fun (s, e) ->
        if s >= 0 && s < shards then by_shard.(s) <- e :: by_shard.(s))
      entries;
    let shard_checks =
      Array.mapi
        (fun k rev ->
          match rev with
          | [] -> None
          | _ ->
              let sorted =
                List.sort
                  (fun (a : Gen.Lin.entry) (b : Gen.Lin.entry) ->
                    compare (a.Gen.Lin.invoke, a.Gen.Lin.pid)
                      (b.Gen.Lin.invoke, b.Gen.Lin.pid))
                  rev
              in
              Some (Gen.check_history ?initial:initials.(k) sorted cuts))
        by_shard
    in
    let completed = List.length entries in
    let namespace =
      if failed > 0 then
        Runtime.Loadgen.Unchecked
          (Printf.sprintf "%d invocation%s failed (%s)" failed
             (if failed = 1 then "" else "s")
             (Option.value first_error ~default:"unknown error"))
      else if aborted <> None then
        Runtime.Loadgen.Unchecked (Option.value aborted ~default:"run aborted")
      else if completed <> expected then
        Runtime.Loadgen.Unchecked
          (Printf.sprintf "expected %d completed ops, recorded %d" expected
             completed)
      else
        (* Linearizability composes across independent objects: the
           namespace passes iff every shard's own history does. *)
        Array.to_seq shard_checks
        |> Seq.fold_lefti
             (fun acc k check ->
               match (acc, check) with
               | (Runtime.Loadgen.Violation _ | Runtime.Loadgen.Unchecked _), _
                 ->
                   acc
               | _, None -> acc
               | Runtime.Loadgen.Linearizable total, Some v -> (
                   match v with
                   | Runtime.Loadgen.Linearizable segs ->
                       Runtime.Loadgen.Linearizable (total + segs)
                   | Runtime.Loadgen.Violation { segment; reason } ->
                       Runtime.Loadgen.Violation
                         {
                           segment;
                           reason =
                             (if shards = 1 then reason
                              else Printf.sprintf "shard %d: %s" k reason);
                         }
                   | Runtime.Loadgen.Unchecked why ->
                       Runtime.Loadgen.Unchecked
                         (if shards = 1 then why
                          else Printf.sprintf "shard %d: %s" k why)))
             (Runtime.Loadgen.Linearizable 0)
    in
    let per_shard =
      List.init shards Fun.id
      |> List.filter_map (fun k ->
             match Hashtbl.find_opt matrix k with
             | None -> None
             | Some hs ->
                 Some
                   {
                     Runtime.Loadgen.shard = k;
                     shard_ops = List.length by_shard.(k);
                     shard_classes =
                       Runtime.Loadgen.classes_of ~params ~windowed hs;
                     shard_verdict =
                       (match shard_checks.(k) with
                       | Some v -> v
                       | None -> Runtime.Loadgen.Linearizable 0);
                   })
      |> List.sort (fun a b ->
             compare b.Runtime.Loadgen.shard_ops a.Runtime.Loadgen.shard_ops)
    in
    let aggregate =
      let merged = Array.init 6 (fun _ -> Runtime.Histogram.create ()) in
      Hashtbl.iter
        (fun _ hs ->
          Array.iteri
            (fun i h -> Runtime.Histogram.merge_into ~into:merged.(i) h)
            hs)
        matrix;
      Runtime.Loadgen.classes_of ~params ~windowed merged
    in
    (namespace, per_shard, aggregate)

  (* Default round of 24 (not the in-process generator's 48): shorter
     segments cut concurrent-mutator ambiguity windows sooner, which keeps
     the cross-segment backtracking in [Linearize.check_segmented] cheap —
     order-sensitive objects (queue) go from minutes to milliseconds.

     [spawn = false] drives an already-running cluster (whose hosts were
     started by hand on [base_port + i]) instead of forking one. *)
  let run ?(spawn = true) ~n ~source ~d ~u ?eps ?(x = 0) ?(slack = 5000)
      ?workers ?(round = 24) ?(host = "127.0.0.1") ?(base_port = 7600)
      ?(exe = Sys.executable_name) ?(log = fun _ -> ()) ?abort ?plan
      ?trace_dir ?durable_dir ?(fsync = "interval") ?(snapshot_every = 1024)
      ?fallback ?sync ~ops ~seed () =
    if n < 1 then invalid_arg "Cluster.run: n must be >= 1";
    if source.shards < 1 then invalid_arg "Cluster.run: shards must be >= 1";
    if round < 1 || round > 62 then
      invalid_arg "Cluster.run: round must be in [1, 62]";
    let m, a, o = source.mix in
    if m < 0 || a < 0 || o < 0 || m + a + o = 0 then
      invalid_arg "Cluster.run: mix weights must be non-negative, not all 0";
    let shards = source.shards in
    let eps =
      match eps with Some e -> e | None -> Core.Params.optimal_eps ~n ~u
    in
    let workers = match workers with Some w -> w | None -> n in
    let params = Core.Params.make ~n ~d:(d + slack) ~u:(u + slack) ~eps ~x () in
    let rng = Prelude.Rng.make seed in
    let rng_offsets, rng_workers = Prelude.Rng.split rng in
    let offsets =
      Array.init n (fun i ->
          if i = 0 || eps = 0 then 0
          else Prelude.Rng.int_in rng_offsets ~lo:0 ~hi:eps)
    in
    (* Chaos mode: every host applies the same seeded plan to its links;
       the parent realises unscoped crash/restart rules as real SIGKILLs
       plus supervised respawns, and splits latency histograms at the
       plan's fault windows. *)
    let plan =
      match plan with
      | Some p when not (Fault.Fault_plan.is_empty p) -> Some p
      | _ -> None
    in
    let chaos =
      Option.map
        (fun p -> (Fault.Fault_plan.spec_text p, Fault.Fault_plan.seed p))
        plan
    in
    let fault_windows =
      match plan with
      | None -> []
      | Some p -> List.map (fun (_, f, u) -> (f, u)) (Fault.Fault_plan.windows p)
    in
    (match plan with
    | None -> ()
    | Some p ->
        Array.iteri
          (fun i k -> offsets.(i) <- offsets.(i) + k)
          (Fault.Fault_plan.skews p ~n));
    let resilient = plan <> None in
    let ports = Array.init n (fun i -> base_port + i) in
    (* A dead parent must not leave orphan replicas: each child also
       watches our pid (see [serve_argv]). *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* [?abort] lets the CLI share the flag with a SIGINT handler: raising
       it cuts the round loop short and falls through to teardown. *)
    let abort = match abort with Some a -> a | None -> Atomic.make false in
    (* One clock epoch for the whole cluster: replica clocks must differ
       only by the drawn offsets (≤ ε), not by process spawn deltas.  The
       epoch is also the run-time origin — history entries, quiescent cuts,
       fault windows and the crash schedule all measure from it. *)
    let epoch = Prelude.Mclock.now_us () in
    (match trace_dir with
    | Some dir -> (
        try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    | None -> ());
    let traced = trace_dir <> None in
    (* Durable, fallback and chaos clusters run idempotent clients: every
       invocation carries a cluster-unique op id and a reply deadline, so an
       op lost to a crash, refused by a degrading replica or shed under a
       [flood] is replayed (same id, same deadline, possibly against another
       replica) rather than failed.  The id's high bits are the cluster
       epoch, not a constant: a replica's dedup table survives restarts, so
       a later run over the same durable directory minting from 1 again
       would have its fresh operations answered with the *previous* run's
       recorded results.  38 epoch bits (µs, wraps every ~76 h) over a
       24-bit counter keep ids unique across every run that can share a
       directory, and never 0 (the "no id" sentinel). *)
    let idempotent = durable_dir <> None || fallback <> None || plan <> None in
    let mint =
      if idempotent then begin
        let op_ids =
          Atomic.make (((epoch land ((1 lsl 38) - 1)) lsl 24) lor 1)
        in
        Some (fun () -> Atomic.fetch_and_add op_ids 1)
      end
      else None
    in
    let timeout_us =
      if idempotent then Some ((2 * (d + slack + eps)) + 2_000_000) else None
    in
    (* The op deadline covers the whole retry horizon (per-attempt timeout
       plus the capped-backoff budget), so admission only sheds ops that
       genuinely cannot make it — not every op that needed one retry. *)
    let deadline_budget_us =
      if idempotent then (2 * (d + slack + eps)) + 4_000_000 else 0
    in
    let initials = durable_initials durable_dir ~n ~shards in
    let spawn_one i =
      let argv =
        serve_argv ~exe ~peers:(peers_of ~host ~ports) ~pid:i ~shards ~d ~u
          ~eps ~x ~slack ~offset:offsets.(i) ~epoch ~chaos
          ~trace:(trace_path trace_dir i)
          ~durable:(durable_path durable_dir i) ~fsync ~snapshot_every
          ~fallback ~sync
      in
      let os_pid =
        Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
      in
      log
        (Printf.sprintf "cluster: spawned replica %d (os pid %d, port %d)" i
           os_pid ports.(i));
      { child_pid = i; os_pid; port = ports.(i) }
    in
    let children = if spawn then Array.init n spawn_one else [||] in
    let mon = start_monitor children ~abort ~log in
    (* The crash scheduler: one supervisor thread per crash rule.  It
       SIGKILLs at the planned time (announced to the monitor first, so the
       death does not abort the run) and, when the rule has a restart,
       respawns the replica — same pid, port, offset and epoch — with
       capped-backoff retries, then re-registers it with the reaper.
       SO_REUSEADDR lets the respawn rebind immediately. *)
    let finished = Atomic.make false in
    let restarts = ref [] in
    let restarts_lock = Mutex.create () in
    let sleep_until t =
      while
        Prelude.Mclock.now_us () < t
        && (not (Atomic.get abort))
        && not (Atomic.get finished)
      do
        Prelude.Mclock.sleep_us
          (min 20_000 (max 1 (t - Prelude.Mclock.now_us ())))
      done;
      (not (Atomic.get abort)) && not (Atomic.get finished)
    in
    let supervise (pid, crash_at, restart_at) =
      if
        pid >= 0
        && pid < Array.length children
        && sleep_until (epoch + crash_at)
      then begin
        let c = children.(pid) in
        plan_kill mon c.os_pid;
        (try Unix.kill c.os_pid Sys.sigkill with Unix.Unix_error _ -> ());
        log
          (Printf.sprintf "cluster: chaos killed replica %d at t=%dµs" pid
             (Prelude.Mclock.now_us () - epoch));
        if restart_at < max_int && sleep_until (epoch + restart_at) then begin
          let rec respawn backoff attempt =
            match spawn_one pid with
            | fresh -> Some fresh
            | exception (Unix.Unix_error _ | Sys_error _) ->
                if attempt >= 5 then None
                else begin
                  Prelude.Mclock.sleep_us backoff;
                  respawn (min (2 * backoff) 1_000_000) (attempt + 1)
                end
          in
          match respawn 50_000 0 with
          | Some fresh ->
              adopt mon;
              c.os_pid <- fresh.os_pid;
              let at = Prelude.Mclock.now_us () - epoch in
              Mutex.lock restarts_lock;
              restarts := (pid, at) :: !restarts;
              Mutex.unlock restarts_lock;
              log
                (Printf.sprintf "cluster: supervised restart of replica %d at \
                                 t=%dµs"
                   pid at)
          | None ->
              log (Printf.sprintf "cluster: could not respawn replica %d" pid);
              Atomic.set abort true
        end
      end
    in
    let supervisors =
      match plan with
      | None -> []
      | Some p -> List.map (Thread.create supervise) (process_crashes p)
    in
    (* Readiness: one admin connection per replica, retried while the
       children bind their ports; kept open for the final Stats_req. *)
    let admin =
      Array.map
        (fun port ->
          match Cl.connect ~host ~port ~attempts:100 () with
          | Ok conn -> Some conn
          | Error e ->
              log
                (Printf.sprintf "cluster: replica %d not reachable: %s"
                   (port - base_port) e);
              Atomic.set abort true;
              None)
        ports
    in
    let start_us = Prelude.Mclock.now_us () in
    let matrix = Hashtbl.create 64 in
    let entries = ref [] in
    let cuts = ref [] in
    let failed = ref 0 in
    let sheds = ref 0 in
    let first_error = ref None in
    let rng_workers = ref rng_workers in
    let remaining = ref ops in
    while !remaining > 0 && not (Atomic.get abort) do
      let quota = min round !remaining in
      remaining := !remaining - quota;
      let spawned =
        List.init workers (fun wid ->
            let mine, rest = Prelude.Rng.split !rng_workers in
            rng_workers := rest;
            let share =
              (quota / workers) + if wid < quota mod workers then 1 else 0
            in
            Domain.spawn (fun () ->
                worker_round ~host ~ports ~source ~origin_us:epoch ~abort
                  ~resilient ~rotate:(fallback <> None) ~traced
                  ~windows:fault_windows ~mint ~timeout_us ~deadline_budget_us
                  mine ~seed ~quota:share ~wid))
      in
      List.iter
        (fun dom ->
          let out = Domain.join dom in
          entries := List.rev_append out.w_entries !entries;
          failed := !failed + out.w_failed;
          sheds := !sheds + out.w_sheds;
          (match (out.w_error, !first_error) with
          | Some e, None -> first_error := Some e
          | _ -> ());
          Hashtbl.iter
            (fun shard hs ->
              let into = hists_for matrix shard in
              Array.iteri
                (fun i h -> Runtime.Histogram.merge_into ~into:into.(i) h)
                hs)
            out.w_hists)
        spawned;
      (* Every in-flight operation has responded: one cut, quiescent for
         every shard at once — each per-shard checker segments at it. *)
      cuts := Prelude.Mclock.now_us () - epoch :: !cuts
    done;
    let wall_us = Prelude.Mclock.now_us () - start_us in
    Atomic.set finished true;
    List.iter Thread.join supervisors;
    let replica_stats =
      Array.to_list admin
      |> List.mapi (fun i conn ->
             match conn with
             | None -> None
             | Some conn ->
                 let s = Cl.stats conn in
                 Cl.close conn;
                 Result.to_option s |> Option.map (fun s -> (i, s)))
      |> List.filter_map Fun.id
    in
    teardown mon children ~log;
    let aborted =
      match (mon.abort_why, !first_error) with
      | Some why, _ -> Some why
      | None, Some e when Atomic.get abort -> Some e
      | None, _ -> if Atomic.get abort then Some "aborted" else None
    in
    let cuts = List.sort compare !cuts in
    let verdict, per_shard, classes =
      verdict_and_shards ~shards ~initials ~params
        ~windowed:(fault_windows <> []) ~matrix ~cuts ~entries:!entries
        ~expected:ops ~failed:!failed ~first_error:!first_error ~aborted
    in
    let completed = List.length !entries in
    {
      label = W.L.label;
      describe = source.describe;
      params;
      cfg_d = d;
      cfg_u = u;
      slack;
      mix = source.mix;
      workers;
      seed;
      ops;
      completed;
      failed = !failed;
      sheds = !sheds;
      wall_us;
      throughput =
        (if wall_us = 0 then 0.
         else float_of_int completed /. (float_of_int wall_us /. 1e6));
      classes;
      per_shard;
      replica_stats;
      offsets;
      cuts;
      restarts = List.sort compare !restarts;
      aborted;
      verdict;
    }
end

(* ---- the sharded KV namespace's op source ---- *)

module Kv = Make (Net.Wire.Kv_wired)

(* The key's popularity rank IS the key: Zipf hands back rank r with
   probability ∝ 1/(r+1)^θ, and the ring hashes ranks uniformly, so hot
   ranks pile onto whichever shards their hashes pick — real, measurable
   hot-shard skew from a one-line sampler.  Each op goes to its shard's
   home replica first. *)
let zipf_source ~n ~shards ~keys ~theta ~vnodes ~ring_seed ~mix =
  if keys < 1 then invalid_arg "Cluster.zipf_source: keys must be >= 1";
  let dir = Directory.make ~vnodes ~seed:ring_seed ~shards ~n () in
  let zipf = Runtime.Workloads.Zipf.make ~n:keys ~theta in
  let m, a, o = mix in
  let total = m + a + o in
  let draw rng =
    let key = Runtime.Workloads.Zipf.sample zipf rng in
    let op =
      let toss = Prelude.Rng.int rng total in
      if toss < m then
        if Prelude.Rng.int rng 10 < 8 then
          Spec.Kv_map.Put (key, Prelude.Rng.int rng 1000)
        else Spec.Kv_map.Del key
      else if toss < m + a then Spec.Kv_map.Get key
      else Spec.Kv_map.Swap (key, Prelude.Rng.int rng 1000)
    in
    (Directory.shard_of dir ~key, op)
  in
  {
    Kv.shards;
    mix;
    describe =
      Printf.sprintf "shards=%d keys=%d theta=%.2f vnodes=%d ring-seed=%d"
        shards keys theta vnodes ring_seed;
    draw;
    home = (fun ~wid:_ ~shard -> Directory.home_of dir ~shard);
  }
