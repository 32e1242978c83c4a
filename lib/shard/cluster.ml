(** Multi-process cluster supervisor and TCP load driver — the body of
    [timebounds cluster], [chaos --processes], [trace --processes],
    [shards cluster] (fork [n] [timebounds serve] hosts on loopback, drive,
    verify, tear down) and [shards loadgen] (drive an already-running
    cluster).  One module for every shard count: an unsharded cluster is a
    cluster of one-shard hosts.

    Load: {!Runtime.Loadgen}'s closed-loop client, on the parent's one
    loop — a heap of timers and one poll over the client sockets and a
    SIGCHLD self-pipe, on the main thread.  Its op {!Runtime.Loadgen.source}
    is the object's own mix ({!Make.object_source}) or {!zipf_source}'s
    hot keys over the sharded KV map, resolved through the {!Directory}.
    Each worker keeps one lazy connection per replica, so an op for a
    shard homed elsewhere reuses the existing socket.

    Timeline: all client-observed invoke/response times are stamped on the
    {e parent's} monotonic clock, so the history is on one timeline even
    though the replicas are separate processes.  History entries use the
    {e worker} id as the linearizability pid — two workers sharing a
    replica have overlapping intervals, and labelling them with the
    replica's pid would impose false same-process precedence constraints.
    The client-observed history is the one linearizability is defined
    on; {!Runtime.Loadgen.Make.judge} turns it into the verdict, as for
    an in-process run.

    Measurement and verification are keyed by {e shard}: a zipfian mix
    makes some shards much hotter than others, and an aggregate histogram
    would average exactly the skew sharding exists to expose.  Each
    shard's history is checked independently with the segmented Wing–Gong
    checker, sharing the global quiescent cuts (quiescent for every shard
    at once); linearizability composes, so the namespace verdict is the
    conjunction of the per-shard ones.

    Failure handling: the loop reaps children with [waitpid WNOHANG] when
    the self-pipe wakes it; an unexpected child exit (e.g. a replica
    killed mid-run) raises the abort flag, which ends the loop, and the
    run reports a clean failure instead of hanging.  A chaos plan's
    unscoped crash/restart rules become loop timers that SIGKILL and
    respawn a host at every shard count; [%k]-scoped rules stay inside
    the hosts. *)

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
  Runtime.Loadgen.pp_classes fmt r.classes;
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

(* ---- the parent's one loop ---- *)

(* Everything the parent waits for is a timer on the run timeline or a
   readable fd: a reply on a client socket, or a byte on the SIGCHLD
   self-pipe.  One [Prelude.Os.poll] waits for the earliest. *)
type timer = { due : int; seq : int; fire : unit -> unit }

module Timers = Prelude.Heap.Make (struct
  type t = timer

  let compare a b =
    if a.due <> b.due then Int.compare a.due b.due else Int.compare a.seq b.seq
end)

type loop = {
  epoch : int;
  mutable timers : Timers.t;
  mutable seq : int;
  readers : (Unix.file_descr, unit -> unit) Hashtbl.t;
}

let now l = Prelude.Mclock.now_us () - l.epoch

let at l due fire =
  l.timers <- Timers.insert { due; seq = l.seq; fire } l.timers;
  l.seq <- l.seq + 1

(* One cycle: fire the earliest timer if it is due, else wait for a
   reader or that timer.  The readers are collected before the wait, as
   their handlers add and remove readers. *)
let cycle l =
  match Timers.delete_min l.timers with
  | Some (tm, rest) when tm.due <= now l ->
      l.timers <- rest;
      tm.fire ()
  | next ->
      let readers =
        Array.of_seq (Hashtbl.to_seq l.readers) and timeout_ns =
        match next with
        | None -> -1
        | Some (tm, _) -> 1000 * max 0 (tm.due - now l)
      in
      let count = Array.length readers in
      let revents = Array.make count 0 in
      if
        Prelude.Os.poll (Array.map fst readers)
          ~events:(Array.make count Prelude.Os.pollin) ~revents ~count
          ~timeout_ns
        > 0
      then Array.iteri (fun j (_, f) -> if revents.(j) <> 0 then f ()) readers

let run_until l until = while not (until ()) do cycle l done

module Make (W : Net.Wire.WIRED) = struct
  module Cl = Net.Client.Make (W)
  module Gen = Runtime.Loadgen.Make (W.L)
  module P = Net.Persist.Make (W.C)

  let object_source = Gen.object_source

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

  (* A restart over existing durable directories serves each shard's
     persisted state, so shard k's checker must start Wing–Gong from
     shard k's recovered object, not the fresh one: each replica's
     snapshot fast-forwarded by its WAL tail, taking the one with the
     highest high-water mark (every replica applies in stamp order, so the
     furthest prefix contains every other).  Read before the children
     reopen the stores. *)
  let durable_initials durable_dir ~n ~shards =
    Array.init shards (fun k ->
        let best = ref None in
        for i = 0 to n - 1 do
          match durable_path durable_dir i with
          | None -> ()
          | Some replica_dir -> (
              match
                Durable.Store.inspect
                  ~dir:(Host.store_dir ~shards replica_dir k)
              with
              | Error _ -> ()
              | Ok (_meta, view) -> (
                  let s = P.recovered_of view in
                  let mark = (s.P.s_hwm_time, s.P.s_hwm_pid) in
                  match !best with
                  | Some (m, _) when compare m mark >= 0 -> ()
                  | _ -> if s.P.s_hwm_time >= 0 then best := Some (mark, s.P.s_obj)))
        done;
        Option.map snd !best)

  (* The aggregate class report: every shard's histograms merged. *)
  let aggregate_classes ~params ~windowed matrix =
    let merged = Array.init 6 (fun _ -> Runtime.Histogram.create ()) in
    Hashtbl.iter
      (fun _ hs ->
        Array.iteri
          (fun i h -> Runtime.Histogram.merge_into ~into:merged.(i) h)
          hs)
      matrix;
    Runtime.Loadgen.classes_of ~params ~windowed merged

  (* Default round of 24 (not the in-process generator's 48): shorter
     segments cut concurrent-mutator ambiguity windows sooner, which keeps
     the cross-segment backtracking in [Linearize.check_segmented] cheap —
     order-sensitive objects (queue) go from minutes to milliseconds.

     [spawn = false] drives an already-running cluster (whose hosts were
     started by hand on [base_port + i]) instead of forking one. *)
  let run ?(spawn = true) ~n ~(source : W.L.D.op Runtime.Loadgen.source) ~d
      ~u ?eps ?(x = 0) ?(slack = 5000) ?workers ?(round = 24)
      ?(host = "127.0.0.1") ?(base_port = 7600) ?(exe = Sys.executable_name)
      ?(log = fun _ -> ()) ?abort ?plan ?trace_dir ?durable_dir
      ?(fsync = "interval") ?(snapshot_every = 1024) ?fallback ?sync ~ops
      ~seed () =
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
    let ports = Array.init n (fun i -> base_port + i) in
    (* A dead parent must not leave orphan replicas: each child also
       watches our pid (see [serve_argv]). *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* [?abort] lets the CLI share the flag with a SIGINT handler: raising
       it ends the loop and falls through to teardown. *)
    let abort = match abort with Some a -> a | None -> Atomic.make false in
    (* The run's origin: history entries, quiescent cuts, fault windows,
       trace times and the crash schedule all measure from it.  Replica
       clocks do not: they read the shared clock plus the drawn offsets,
       so they differ by at most ε however the processes were spawned. *)
    let epoch = Prelude.Mclock.now_us () in
    (match trace_dir with
    | Some dir -> (
        try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    | None -> ());
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
    let first_op_id =
      if idempotent then ((epoch land ((1 lsl 38) - 1)) lsl 24) lor 1 else 0
    in
    (* An unanswered invocation is given up (and replayed) after this. *)
    let timeout_us =
      if idempotent then (2 * (d + slack + eps)) + 2_000_000 else 0
    in
    (* The op deadline covers the whole retry horizon (per-attempt timeout
       plus the capped-backoff budget), so admission only sheds ops that
       genuinely cannot make it — not every op that needed one retry. *)
    let deadline_us =
      if idempotent then Host.op_deadline_us params else 0
    in
    let initials = durable_initials durable_dir ~n ~shards in
    let l =
      {
        epoch;
        timers = Timers.empty;
        seq = 0;
        readers = Hashtbl.create 16;
      }
    in
    (* Child exits: the SIGCHLD handler writes a byte to a self-pipe the
       loop polls, and the loop reaps with [WNOHANG].  [live] is every
       spawned, unreaped child in spawn order, as (os pid, replica);
       [planned] the os pids the crash schedule killed; [expected] is set
       before teardown, so only other exits abort the run. *)
    let wake_r, wake_w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock wake_w;
    let live = ref [] and planned = ref [] and expected = ref false in
    let abort_why = ref None in
    let reap () =
      live :=
        List.filter
          (fun (os_pid, i) ->
            match Unix.waitpid [ Unix.WNOHANG ] os_pid with
            | 0, _ -> true
            | _, status ->
                if List.mem os_pid !planned then
                  log
                    (Printf.sprintf "cluster: replica %d %s (scheduled chaos)"
                       i (status_string status))
                else if not !expected then begin
                  let why =
                    Printf.sprintf "replica %d %s mid-run" i
                      (status_string status)
                  in
                  log ("cluster: " ^ why);
                  if !abort_why = None then abort_why := Some why;
                  Atomic.set abort true
                end;
                false
            | exception Unix.Unix_error _ -> false)
          !live
    in
    let drain = Bytes.create 64 in
    Hashtbl.replace l.readers wake_r (fun () ->
        (try ignore (Unix.read wake_r drain 0 64) with Unix.Unix_error _ -> ());
        reap ());
    let previous_sigchld =
      Sys.signal Sys.sigchld
        (Sys.Signal_handle
           (fun _ ->
             try ignore (Unix.single_write_substring wake_w "c" 0 1)
             with Unix.Unix_error _ -> ()))
    in
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigchld previous_sigchld;
        Unix.close wake_r;
        Unix.close wake_w)
    @@ fun () ->
    (* Each replica's current os pid: a respawn replaces it. *)
    let os_pids = Array.make n 0 in
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
      os_pids.(i) <- os_pid;
      live := !live @ [ (os_pid, i) ];
      log
        (Printf.sprintf "cluster: spawned replica %d (os pid %d, port %d)" i
           os_pid ports.(i))
    in
    if spawn then Array.iteri (fun i _ -> spawn_one i) os_pids;
    (* The crash schedule: SIGKILL at the planned time (announced first,
       so the death does not abort the run) and, when the rule has a
       restart, a respawn — same pid, port, offset and epoch — retried
       with capped backoff.  SO_REUSEADDR lets it rebind at once. *)
    let restarts = ref [] in
    let rec respawn i backoff tries =
      match spawn_one i with
      | () ->
          let t = now l in
          restarts := (i, t) :: !restarts;
          log
            (Printf.sprintf "cluster: supervised restart of replica %d at \
                             t=%dµs"
               i t)
      | exception (Unix.Unix_error _ | Sys_error _) ->
          if tries >= 5 then begin
            log (Printf.sprintf "cluster: could not respawn replica %d" i);
            Atomic.set abort true
          end
          else
            at l (now l + backoff) (fun () ->
                respawn i (min (2 * backoff) 1_000_000) (tries + 1))
    in
    Option.iter
      (fun p ->
        List.iter
          (fun (i, crash_at, restart_at) ->
            if spawn && i >= 0 && i < n then
              at l crash_at (fun () ->
                  planned := os_pids.(i) :: !planned;
                  (try Unix.kill os_pids.(i) Sys.sigkill
                   with Unix.Unix_error _ -> ());
                  log
                    (Printf.sprintf "cluster: chaos killed replica %d at t=%dµs"
                       i (now l));
                  if restart_at < max_int then
                    at l restart_at (fun () -> respawn i 50_000 0)))
          (process_crashes p))
      plan;
    (* Readiness: one admin connection per replica, retried every 100 ms
       while the children bind their ports; kept open for the final
       Stats_req. *)
    let admin = Array.make n None in
    let rec ready i tries () =
      if not (Atomic.get abort) then
        match Cl.connect ~host ~port:ports.(i) ~attempts:1 () with
        | Ok conn -> admin.(i) <- Some conn
        | Error _ when tries < 100 ->
            at l (now l + 100_000) (ready i (tries + 1))
        | Error e ->
            log (Printf.sprintf "cluster: replica %d not reachable: %s" i e);
            Atomic.set abort true
    in
    Array.iteri (fun i _ -> ready i 1 ()) ports;
    run_until l (fun () ->
        Atomic.get abort || Array.for_all Option.is_some admin);
    (* The load: the shared closed-loop client on this loop, through one
       lazy connection per (worker, replica) — an op for a shard homed
       elsewhere reuses the worker's socket there.  Any error closes the
       connection (a timed-out one may still carry the late reply), and
       only a connect failure or a retryable error is worth a replay. *)
    let conns = Array.make_matrix workers n None in
    let drop wid replica =
      match conns.(wid).(replica) with
      | None -> ()
      | Some c ->
          Hashtbl.remove l.readers c.Cl.fd;
          Cl.close c;
          conns.(wid).(replica) <- None
    in
    let invoke ~wid ~replica ~shard ~trace ~op_id ~deadline ~taken op k =
      let answered = ref false in
      let answer reply =
        if not !answered then begin
          answered := true;
          match Cl.result_of ~shard reply with
          | Ok result -> k (Runtime.Loadgen.Done result)
          | Error e ->
              drop wid replica;
              k
                (if Cl.retryable e then Runtime.Loadgen.Retry e
                 else Runtime.Loadgen.Failed e)
        end
      in
      match
        match conns.(wid).(replica) with
        | Some c -> Ok c
        | None -> Cl.connect ~host ~port:ports.(replica) ~attempts:1 ()
      with
      | Error e ->
          (* Never sent, so always safe to replay. *)
          at l (now l) (fun () -> k (Runtime.Loadgen.Retry e))
      | Ok c -> (
          conns.(wid).(replica) <- Some c;
          (* Replicas read deadlines on the shared clock, not the run's. *)
          let deadline = if deadline = 0 then 0 else l.epoch + deadline in
          let msg = Cl.C.Invoke { op; trace; op_id; shard; deadline } in
          taken ();
          match Cl.send c msg with
          | Error e -> at l (now l) (fun () -> answer (Error e))
          | Ok () ->
              Hashtbl.replace l.readers c.Cl.fd (fun () ->
                  if not !answered then
                    match Cl.recv_ready c with
                    | None -> ()
                    | Some reply ->
                        Hashtbl.remove l.readers c.Cl.fd;
                        answer reply);
              if timeout_us > 0 then
                at l (now l + timeout_us) (fun () ->
                    answer (Error "timeout waiting for reply")))
    in
    let port =
      {
        Runtime.Loadgen.replicas = n;
        now = (fun () -> now l);
        at = at l;
        invoke;
        backoff_us = 20_000;
        backoff_cap_us = 400_000;
        max_retries = 25;
      }
    in
    let start_us = Prelude.Mclock.now_us () in
    (* A run aborted before the load draws no op. *)
    let tally =
      Gen.drive port source ~workers ~round
        ~ops:(if Atomic.get abort then 0 else ops)
        ~windows:fault_windows ~first_op_id ~deadline_us
        ~traced:(trace_dir <> None) ~resilient:(plan <> None)
        ~rotate:(fallback <> None) ~rng:rng_workers ~seed
    in
    run_until l (fun () ->
        tally.Gen.finished || tally.Gen.gave_up || Atomic.get abort);
    if tally.Gen.gave_up then Atomic.set abort true;
    let wall_us = Prelude.Mclock.now_us () - start_us in
    (* The load is over: its pending timers (replays, timeouts, the rest of
       the crash schedule) go with it. *)
    l.timers <- Timers.empty;
    Array.iteri (fun wid row -> Array.iteri (fun i _ -> drop wid i) row) conns;
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
    (* Teardown: SIGTERM, then 5 s for the children to exit cleanly, then
       SIGKILL the stragglers. *)
    expected := true;
    List.iter
      (fun (os_pid, _) ->
        try Unix.kill os_pid Sys.sigterm with Unix.Unix_error _ -> ())
      !live;
    let grace = now l + 5_000_000 in
    at l grace ignore;
    run_until l (fun () -> !live = [] || now l >= grace);
    List.iter
      (fun (os_pid, i) ->
        log (Printf.sprintf "cluster: replica %d unresponsive, SIGKILL" i);
        try
          Unix.kill os_pid Sys.sigkill;
          ignore (Unix.waitpid [] os_pid)
        with Unix.Unix_error _ -> ())
      !live;
    let { Gen.entries; failed; sheds; first_error; _ } = tally in
    let aborted =
      match (!abort_why, first_error) with
      | Some why, _ -> Some why
      | None, Some e when Atomic.get abort -> Some e
      | None, _ -> if Atomic.get abort then Some "aborted" else None
    in
    let windowed = fault_windows <> [] in
    let verdict, per_shard =
      Gen.judge ~initials ?aborted ~params ~windowed ~shards ~expected:ops
        tally
    in
    let completed = List.length entries in
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
      failed;
      sheds;
      wall_us;
      throughput =
        (if wall_us = 0 then 0.
         else float_of_int completed /. (float_of_int wall_us /. 1e6));
      classes = aggregate_classes ~params ~windowed tally.Gen.hists;
      per_shard;
      replica_stats;
      offsets;
      cuts = List.rev tally.Gen.cuts;
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
    Runtime.Loadgen.shards;
    mix;
    describe =
      Printf.sprintf "shards=%d keys=%d theta=%.2f vnodes=%d ring-seed=%d"
        shards keys theta vnodes ring_seed;
    draw;
    home = (fun ~wid:_ ~shard -> Directory.home_of dir ~shard);
  }
