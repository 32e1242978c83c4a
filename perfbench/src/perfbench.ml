(** Live-stack benchmark: Algorithm 1 replicas as separate [timebounds
    serve] processes on loopback TCP, driven by this single-threaded
    process over at most two closed-loop client connections multiplexed
    with [select].

    Usage (normally through [run.sh], which builds both binaries first):
    {v
    perfbench.exe --exe PATH/timebounds.exe --run-dir DIR
                  --workload NAME --seed N --seconds S --trace 0|1
    v}

    [--trace 0] prints the end-to-end metrics of one untraced run;
    [--trace 1] runs the workload once untraced and once with every
    replica's [--trace] recorder on, and prints the per-layer metrics.
    Every run is checked: the client-observed history must verdict
    LINEARIZABLE with no failed or shed operation, and with the quorum
    fallback armed no replica may suspect a peer or switch mode.  The last
    line of standard output is the JSON result; progress goes to standard
    error.  See README.md for the workloads and the metric table. *)

module W = (val Option.get (Net.Wire.find "kv") : Net.Wire.WIRED)
module Cl = Net.Client.Make (W)
module C = Cl.C
module Gen = Runtime.Loadgen.Make (W.L)
module P = Net.Persist.Make (W.C)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let us_of_ns ns = float_of_int ns /. 1e3
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("[perfbench] " ^ s)) fmt

(* ---- workloads ---- *)

type workload = {
  name : string;
  timing : Calc.timing;
  mix : int * int * int;  (** mutator : accessor : other weights *)
  conns : int;  (** closed-loop client connections; connection c → replica c mod n *)
  durable : bool;  (** [--durable] WAL, [--fsync never], snapshot every 1024 *)
  fallback : bool;  (** [--fallback quorum]: heartbeats, FD, release gate *)
  warmup_ops : int;
      (** untimed ops before the timed phase, checked like the others,
          so lazy set-up in the driver and the replicas (heap growth,
          first use of each path) is over before timing starts *)
  rss_at_ops : int;
      (** replicas keep every completed record, so their peak RSS grows
          with ops served: it is read once this many ops completed,
          warm-up included (within the first half of a 20 s run), so it
          measures memory, not throughput *)
}

(* 10.5 ms of scheduling slack (assumed d = 11.5 ms).  On a shared VM a
   vCPU can be preempted for milliseconds, and a peer frame held up
   beyond the assumed d breaks the model: at 1 ms of slack a trio-mixed
   run verdicted VIOLATION during a burst of hypervisor steal, and at
   3 ms one did so again under 20–40 % steal.  The value is 3 ms plus
   three 2.5 ms heartbeat ticks, so ts + d + ε keeps the 2.3 ms margin to
   the next tick that 3 ms had and the release gate on trio-writes-gated
   waits the same number of ticks in every run; at 5 ms of slack the
   margin was 0.3 ms and the gated class p50s flipped between ticks from
   run to run. *)
let trio = { Calc.n = 3; d = 1000; u = 500; eps = 1000; x = 0; slack = 10_500 }

let workloads =
  [
    {
      name = "solo-rpc";
      timing = { Calc.n = 1; d = 0; u = 0; eps = 0; x = 0; slack = 0 };
      mix = (50, 40, 10);
      conns = 1;
      durable = false;
      fallback = false;
      warmup_ops = 40_000;
      rss_at_ops = 60_000;
    };
    {
      name = "trio-mixed";
      timing = trio;
      mix = (50, 40, 10);
      conns = 2;
      durable = false;
      fallback = false;
      warmup_ops = 480;
      rss_at_ops = 3_000;
    };
    {
      name = "trio-writes-gated";
      timing = trio;
      mix = (85, 10, 5);
      conns = 2;
      durable = true;
      fallback = true;
      warmup_ops = 240;
      rss_at_ops = 2_000;
    };
  ]

(* Quiescent cut cadence: the Wing–Gong checker takes ≤ 62 ops a segment. *)
let cut_every = 48

(* Set-ups per untraced run; the median is reported as [setup_s]. *)
let setups = 15

(* ---- small utilities ---- *)

(** Growable int buffer (the per-op records of a run). *)
module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 4096 0; len = 0 }

  let push t v =
    if t.len = Array.length t.a then begin
      let a = Array.make (2 * t.len) 0 in
      Array.blit t.a 0 a 0 t.len;
      t.a <- a
    end;
    t.a.(t.len) <- v;
    t.len <- t.len + 1

  let get t i = t.a.(i)
end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Read to EOF: /proc files report a length of 0. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let lines_of path =
  match read_file path with
  | s -> String.split_on_char '\n' s
  | exception Sys_error _ -> []

let contains ~sub s =
  let ls = String.length sub and n = String.length s in
  let rec go i = i + ls <= n && (String.sub s i ls = sub || go (i + 1)) in
  go 0

(* ---- /proc readings of the replica processes ---- *)

(* VmHWM (peak resident set) in kB. *)
let vm_hwm_kb os_pid =
  lines_of (Printf.sprintf "/proc/%d/status" os_pid)
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> kb)
         | _ -> None)
  |> Option.value ~default:0

(* utime + stime in µs, at the kernel's USER_HZ of 100 ticks/s.  The
   fields after the parenthesised command name (which may hold spaces)
   run from state (3) to stime (15). *)
let cpu_us os_pid =
  match read_file (Printf.sprintf "/proc/%d/stat" os_pid) with
  | exception Sys_error _ -> 0
  | s ->
      let from = String.rindex s ')' + 1 in
      Scanf.sscanf_opt
        (String.sub s from (String.length s - from))
        " %_s %_d %_d %_d %_d %_d %_d %_d %_d %_d %_d %d %d"
        (fun utime stime -> (utime + stime) * 10_000)
      |> Option.value ~default:0

let self_cpu_us () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e6)

(* ---- the replica processes ---- *)

type replica = { pid : int; os_pid : int; port : int; log_path : string; dir : string }

type cluster = {
  wl : workload;
  replicas : replica array;
  traced : bool;
  epoch : int;  (** µs on [Prelude.Mclock]; the replicas' trace timestamps count from it *)
  mutable reaped : bool;
}

(* Ephemeral loopback ports, all held at once so they are distinct; the
   replicas bind them with SO_REUSEADDR right after. *)
let free_ports k =
  let socks =
    List.init k (fun _ ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        s)
  in
  let ports =
    List.map
      (fun s ->
        match Unix.getsockname s with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false)
      socks
  in
  List.iter Unix.close socks;
  Array.of_list ports

let serve_argv ~exe ~wl ~peers ~epoch ~traced ~dir i =
  [ exe; "serve"; "--pid"; string_of_int i; "--peers"; peers; "--object"; W.L.label ]
  @ Calc.timing_argv wl.timing
  @ [ "--offset"; "0"; "--epoch"; string_of_int epoch;
      "--watch-parent"; string_of_int (Unix.getpid ()) ]
  @ (if wl.durable then
       [ "--durable"; Filename.concat dir "wal"; "--fsync"; "never";
         "--snapshot-every"; "1024" ]
     else [])
  @ (if wl.fallback then [ "--fallback"; "quorum" ] else [])
  @ if traced then [ "--trace"; Filename.concat dir "replica.trace" ] else []

let spawn ~exe ~run_dir ~wl ~traced ~tag =
  let n = wl.timing.Calc.n in
  let ports = free_ports n in
  let peers =
    String.concat ","
      (Array.to_list (Array.map (Printf.sprintf "127.0.0.1:%d") ports))
  in
  let epoch = Prelude.Mclock.now_us () in
  let replicas =
    Array.init n (fun i ->
        let dir = Filename.concat run_dir (Printf.sprintf "%s-r%d" tag i) in
        mkdir_p dir;
        let log_path = Filename.concat dir "serve.log" in
        let fd =
          Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
        in
        let argv = Array.of_list (serve_argv ~exe ~wl ~peers ~epoch ~traced ~dir i) in
        let os_pid = Unix.create_process exe argv Unix.stdin fd fd in
        Unix.close fd;
        { pid = i; os_pid; port = ports.(i); log_path; dir })
  in
  { wl; replicas; traced; epoch; reaped = false }

(* SIGTERM, then SIGKILL whatever has not exited after 5 s; every child is
   reaped before this returns.  A replica notices SIGTERM on its next
   100 ms poll, so replicas stop up to that far apart, and with the quorum
   fallback armed a replica still running may suspect one already gone:
   what the replicas log or trace after [teardown] began is not the run's. *)
let teardown cl =
  if not cl.reaped then begin
    cl.reaped <- true;
    let live = ref (Array.to_list (Array.map (fun r -> r.os_pid) cl.replicas)) in
    List.iter (fun p -> try Unix.kill p Sys.sigterm with Unix.Unix_error _ -> ()) !live;
    let give_up = now_ns () + 5_000_000_000 in
    let reap ~block =
      live :=
        List.filter
          (fun p ->
            match Unix.waitpid (if block then [] else [ Unix.WNOHANG ]) p with
            | 0, _ -> true
            | _ -> false
            | exception Unix.Unix_error _ -> false)
          !live
    in
    while !live <> [] && now_ns () < give_up do
      reap ~block:false;
      if !live <> [] then Unix.sleepf 0.005
    done;
    List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) !live;
    reap ~block:true
  end

(* ---- client connections ---- *)

type pending = { op : W.L.D.op; cls : int; trace : int; t0 : int; send_ns : int }

type conn = {
  cid : int;  (** history pid *)
  rep : int;  (** replica it talks to *)
  cl : Cl.t;
  mutable busy : pending option;
}

exception Run_failed of string

(* Readiness is polled every 100 µs — the program's start-up cost, not a
   retry sleep, is what [setup_s] should see. *)
let connect (r : replica) cid =
  match Cl.connect ~host:"127.0.0.1" ~port:r.port ~attempts:50_000 ~retry_delay_us:100 () with
  | Ok cl -> { cid; rep = r.pid; cl; busy = None }
  | Error e -> raise (Run_failed (Printf.sprintf "replica %d: %s" r.pid e))

(* ---- one run: the shared state of the driver loop ---- *)

type run = {
  cluster : cluster;
  conns : conn array;  (** workload connections *)
  ctl : conn array;  (** per replica: the connection stats are asked on *)
  origin : int;  (** ns; history timeline origin *)
  rng : Prelude.Rng.t;
  total : int;  (** sum of the mix weights *)
  mutable next_op_id : int;
  mutable entries : Gen.Lin.entry list;
  mutable cuts : int list;
  reply_bytes : int array;  (** per replica: bytes of every reply it sent us *)
  (* per completed timed op *)
  r_cls : Ibuf.t;
  r_lat : Ibuf.t;  (** ns *)
  r_send : Ibuf.t;  (** ns inside [Cl.send] *)
  r_recv : Ibuf.t;  (** ns inside [Cl.recv] *)
  r_trace : Ibuf.t;
  r_t1 : Ibuf.t;
  mutable failed : int;
  mutable sheds : int;
  mutable attempted : int;
  mutable first_error : string option;
}

let draw run =
  let m, a, _ = run.cluster.wl.mix in
  let toss = Prelude.Rng.int run.rng run.total in
  if toss < m then W.L.sample_mutator run.rng
  else if toss < m + a then W.L.sample_accessor run.rng
  else W.L.sample_other run.rng

let issue run c op ~trace =
  let op_id = run.next_op_id in
  run.next_op_id <- op_id + 1;
  let cls = Obs.Event.class_code (W.L.D.classify op) in
  let t0 = now_ns () in
  match Cl.send c.cl (C.Invoke { op; trace; op_id; shard = 0; deadline = 0 }) with
  | Ok () -> c.busy <- Some { op; cls; trace; t0; send_ns = now_ns () - t0 }
  | Error e -> raise (Run_failed (Printf.sprintf "replica %d: send: %s" c.rep e))

(* Complete [c]'s in-flight op; [timed] ops are recorded as samples. *)
let complete run c ~timed =
  let p = Option.get c.busy in
  c.busy <- None;
  let r0 = now_ns () in
  let reply = Cl.recv c.cl in
  let t1 = now_ns () in
  let fail why =
    run.failed <- run.failed + 1;
    if run.first_error = None then run.first_error <- Some why
  in
  match reply with
  | Error e -> raise (Run_failed (Printf.sprintf "replica %d: %s" c.rep e))
  | Ok msg -> (
      run.reply_bytes.(c.rep) <- run.reply_bytes.(c.rep) + String.length (C.encode msg);
      match msg with
      | C.Result { result; _ } ->
          run.entries <-
            { Gen.Lin.pid = c.cid; op = p.op; result;
              invoke = p.t0 - run.origin; response = t1 - run.origin }
            :: run.entries;
          if timed then begin
            Ibuf.push run.r_cls p.cls;
            Ibuf.push run.r_lat (t1 - p.t0);
            Ibuf.push run.r_send p.send_ns;
            Ibuf.push run.r_recv (t1 - r0);
            Ibuf.push run.r_trace p.trace;
            Ibuf.push run.r_t1 t1
          end
      | C.Shed { reason; _ } ->
          run.sheds <- run.sheds + 1;
          fail reason
      | C.Error_msg e -> fail e
      | m -> fail (Format.asprintf "unexpected reply %a" C.pp_msg m))

(* Wait for every busy connection to answer (at most 10 s of silence). *)
let drain run conns ~timed =
  let rec go () =
    let busy = List.filter (fun c -> c.busy <> None) conns in
    if busy <> [] then begin
      let ready, _, _ =
        Unix.select (List.map (fun c -> c.cl.Cl.fd) busy) [] [] 10.0
      in
      if ready = [] then raise (Run_failed "no reply for 10 s");
      List.iter
        (fun c -> if List.mem c.cl.Cl.fd ready then complete run c ~timed)
        busy;
      go ()
    end
  in
  go ()

let cut run = run.cuts <- (now_ns () - run.origin) :: run.cuts

(* Transport stats of [c]'s replica.  The replica counts the reply in its
   [bytes_out] only after sending it, so the next probe sees it. *)
let probe run c =
  match Cl.stats c.cl with
  | Ok s ->
      run.reply_bytes.(c.rep) <- run.reply_bytes.(c.rep) + String.length (C.encode (C.Stats s));
      s
  | Error e -> raise (Run_failed (Printf.sprintf "replica %d: stats: %s" c.rep e))

let link_of (s : Runtime.Transport_intf.stats) =
  Option.value ~default:Runtime.Transport_intf.no_links s.Runtime.Transport_intf.link

(* ---- set-up ---- *)

(* Until every replica has written its Hello and at least one minimal
   Entry frame to each peer: the lazily opened peer links are up and have
   carried the replica's first broadcast.  Peer bytes are the replica's
   [bytes_out] less the replies it wrote to us (which it counts too). *)
let await_peer_links run =
  let n = Array.length run.cluster.replicas in
  let t = run.cluster.wl.timing in
  let p = Calc.params t in
  let hello =
    String.length
      (C.encode
         (C.Hello
            { Net.Codec.pid = 0; n; d = p.Core.Params.d; u = p.Core.Params.u;
              eps = p.Core.Params.eps; x = p.Core.Params.x;
              obj_tag = W.C.obj_tag; shards = 0 }))
  in
  let entry_min op =
    String.length
      (C.encode (C.Entry { op; time = 0; pid = 0; trace = 0; op_id = 0; shard = 0 }))
  in
  (* the set-up ops are the only entries so far, all mutators *)
  let entry =
    List.fold_left
      (fun acc (e : Gen.Lin.entry) -> min acc (entry_min e.Gen.Lin.op))
      max_int run.entries
  in
  let need = (n - 1) * (hello + entry) in
  let give_up = now_ns () + 10_000_000_000 in
  Array.iter
    (fun c ->
      let rec poll () =
        let ours = run.reply_bytes.(c.rep) in
        if (link_of (probe run c)).Runtime.Transport_intf.bytes_out - ours < need then begin
          if now_ns () > give_up then
            raise (Run_failed (Printf.sprintf "replica %d: peer links never opened" c.rep));
          Prelude.Mclock.sleep_us 100;
          poll ()
        end
      in
      poll ())
    run.ctl

(* Spawn the replicas and wait until every client connection has had one
   operation answered (and, for n > 1, every replica's first broadcast
   went out on every peer link).  Returns the run and its set-up seconds. *)
let setup ~exe ~run_dir ~wl ~traced ~seed ~tag =
  let t0 = now_ns () in
  let cluster = spawn ~exe ~run_dir ~wl ~traced ~tag in
  let n = wl.timing.Calc.n in
  match
    let conns =
      Array.init wl.conns (fun c -> connect cluster.replicas.(c mod n) c)
    in
    let ctl =
      Array.init n (fun j ->
          if j < wl.conns then conns.(j) else connect cluster.replicas.(j) (wl.conns + j))
    in
    let m, a, o = wl.mix in
    let setup_rng, rng = Prelude.Rng.split (Prelude.Rng.make seed) in
    let run =
      {
        cluster; conns; ctl; origin = t0; rng; total = m + a + o;
        next_op_id = 1; entries = []; cuts = [];
        reply_bytes = Array.make n 0;
        r_cls = Ibuf.create (); r_lat = Ibuf.create (); r_send = Ibuf.create ();
        r_recv = Ibuf.create (); r_trace = Ibuf.create (); r_t1 = Ibuf.create ();
        failed = 0; sheds = 0; attempted = 0; first_error = None;
      }
    in
    (* One mutator on every connection at once: each replica broadcasts. *)
    let all = Array.to_list conns @ List.filter (fun c -> c.cid >= wl.conns) (Array.to_list ctl) in
    List.iter (fun c -> issue run c (W.L.sample_mutator setup_rng) ~trace:0) all;
    drain run all ~timed:false;
    if n > 1 then await_peer_links run;
    cut run;
    run
  with
  | run -> (run, float_of_int (now_ns () - t0) /. 1e9)
  | exception e ->
      teardown cluster;
      raise e

(* ---- the timed phase ---- *)

type phase = {
  ops : int;
  wall_ns : int;
  client_cpu_us : int;
  replica_cpu_us : int;
  rss_kb : int;  (** summed VmHWM once [rss_at_ops] ops were served *)
  start_ns : int;
  end_us : int;  (** [Prelude.Mclock] µs once the phase was over, before teardown *)
  calm : bool array;
      (** per whole window: is it one of the run's calm windows
          ({!Calc.calm_windows}) *)
  window_steal : int array;  (** per whole window: CPU ticks stolen *)
  steal_pct : float;  (** share of the VM's CPU time the hypervisor stole *)
  stats_delta : Runtime.Transport_intf.stats array;  (** per replica, over the phase *)
  client_reply_bytes : int;  (** replies we received during the phase *)
}


let delta (a : Runtime.Transport_intf.stats) (b : Runtime.Transport_intf.stats) =
  let la = link_of a and lb = link_of b in
  {
    Runtime.Transport_intf.sent = b.sent - a.sent;
    dropped = b.dropped - a.dropped;
    link =
      Some
        {
          Runtime.Transport_intf.reconnects = lb.reconnects - la.reconnects;
          bytes_out = lb.bytes_out - la.bytes_out;
          bytes_in = lb.bytes_in - la.bytes_in;
          disconnected_us = lb.disconnected_us - la.disconnected_us;
          queue_hwm = lb.queue_hwm;
          ctrl_hwm = lb.ctrl_hwm;
          lane_shed = lb.lane_shed - la.lane_shed;
        };
  }

let window_ns = 250_000_000

(* The machine-wide "cpu" line of /proc/stat: (steal, all) ticks.  Time
   the hypervisor gave this VM's CPUs to someone else is steal. *)
let cpu_ticks () =
  match
    List.find_opt
      (fun l -> String.length l > 4 && String.sub l 0 4 = "cpu ")
      (lines_of "/proc/stat")
  with
  | None -> (0, 0)
  | Some l ->
      let xs =
        String.split_on_char ' ' l |> List.tl
        |> List.filter_map int_of_string_opt
      in
      ((match List.nth_opt xs 7 with Some s -> s | None -> 0), List.fold_left ( + ) 0 xs)

let rss_now run =
  Array.fold_left (fun acc r -> acc + vm_hwm_kb r.os_pid) 0 run.cluster.replicas

(* [ops] untimed ops, one on every connection at a time, cut quiescently
   every [cut_every] ops. *)
let warm_up run ops =
  let conns = Array.to_list run.conns in
  let k = List.length conns in
  for i = 1 to ops / k do
    List.iter
      (fun c ->
        run.attempted <- run.attempted + 1;
        issue run c (draw run) ~trace:0)
      conns;
    drain run conns ~timed:false;
    if i * k mod cut_every = 0 then cut run
  done;
  cut run

(* Closed loop for [seconds], after the workload's warm-up: every idle
   connection gets the next drawn op; after [cut_every] ops no new op is
   issued until all are answered, which gives the checker its quiescent
   cut. *)
let timed_phase run ~seconds =
  warm_up run run.cluster.wl.warmup_ops;
  let conns = Array.to_list run.conns in
  let fds = List.map (fun c -> (c.cl.Cl.fd, c)) conns in
  (* Our replies' bytes from here on include the reply to this first
     stats probe, which the replica counts only after sending it. *)
  let bytes0 = Array.fold_left ( + ) 0 run.reply_bytes in
  let s0 = Array.map (probe run) run.ctl in
  let rcpu0 = Array.map (fun r -> cpu_us r.os_pid) run.cluster.replicas in
  let ccpu0 = self_cpu_us () in
  let start = now_ns () in
  let stop_at = start + (seconds * 1_000_000_000) in
  let in_segment = ref 0 in
  let traced = run.cluster.traced in
  let finished = ref false in
  let rss_kb = ref None in
  let n_windows = seconds * 1_000_000_000 / window_ns in
  let steal = Array.make n_windows 0 in
  let next_window = ref (start + window_ns) and window = ref 0 in
  let ticks0 = cpu_ticks () in
  let last_steal = ref (fst ticks0) in
  while not !finished do
    let now = now_ns () in
    if now >= !next_window && !window < n_windows then begin
      let st, _ = cpu_ticks () in
      steal.(!window) <- st - !last_steal;
      last_steal := st;
      incr window;
      next_window := !next_window + window_ns
    end;
    if now < stop_at && run.failed = 0 then
      List.iter
        (fun c ->
          if c.busy = None && !in_segment < cut_every then begin
            incr in_segment;
            run.attempted <- run.attempted + 1;
            let trace = if traced then Obs.Trace_id.fresh ~origin:c.cid else 0 in
            issue run c (draw run) ~trace
          end)
        conns;
    let busy = List.filter (fun (_, c) -> c.busy <> None) fds in
    if busy = [] then begin
      cut run;
      in_segment := 0;
      if now >= stop_at || run.failed > 0 then finished := true
    end
    else begin
      let ready, _, _ = Unix.select (List.map fst busy) [] [] 10.0 in
      if ready = [] then raise (Run_failed "no reply for 10 s");
      List.iter (fun fd -> complete run (List.assq fd fds) ~timed:true) ready;
      if !rss_kb = None
         && run.r_lat.Ibuf.len + run.cluster.wl.warmup_ops >= run.cluster.wl.rss_at_ops
      then
        rss_kb := Some (rss_now run)
    end
  done;
  let wall_ns = now_ns () - start in
  let ticks1 = cpu_ticks () in
  let client_cpu_us = self_cpu_us () - ccpu0 in
  let replica_cpu_us =
    Array.fold_left ( + ) 0
      (Array.mapi (fun i r -> cpu_us r.os_pid - rcpu0.(i)) run.cluster.replicas)
  in
  let rss_kb = match !rss_kb with Some kb -> kb | None -> rss_now run in
  let client_reply_bytes = Array.fold_left ( + ) 0 run.reply_bytes - bytes0 in
  let s1 = Array.map (probe run) run.ctl in
  {
    ops = run.r_lat.Ibuf.len;
    wall_ns;
    client_cpu_us;
    replica_cpu_us;
    rss_kb;
    start_ns = start;
    end_us = Prelude.Mclock.now_us ();
    calm = Calc.calm_windows (Array.sub steal 0 !window);
    window_steal = Array.sub steal 0 !window;
    steal_pct =
      (let s = fst ticks1 - fst ticks0 and t = snd ticks1 - snd ticks0 in
       if t > 0 then 100. *. float_of_int s /. float_of_int t else 0.);
    stats_delta = Array.map2 delta s0 s1;
    client_reply_bytes;
  }

(* ---- after the run: correctness and the replicas' own records ---- *)

type checked = {
  verdict : Runtime.Loadgen.verdict;
  check_ns : int;
  suspicions : int;  (** "suspecting peer" lines in the replica logs *)
  mode_switches : int;  (** "mode:" lines in the replica logs *)
}

(* Suspicions and mode switches the replicas have logged so far; read
   before [teardown] (see there). *)
let quorum_lines run =
  let count sub =
    Array.fold_left
      (fun k r -> k + List.length (List.filter (contains ~sub) (lines_of r.log_path)))
      0 run.cluster.replicas
  in
  (count "suspecting peer", count ": mode: ")

let check run (suspicions, mode_switches) =
  let entries =
    List.sort (fun (a : Gen.Lin.entry) b -> compare a.Gen.Lin.invoke b.Gen.Lin.invoke) run.entries
  in
  let cuts = List.sort compare run.cuts in
  let t0 = now_ns () in
  let verdict = Gen.check_history entries cuts in
  let check_ns = now_ns () - t0 in
  { verdict; check_ns; suspicions; mode_switches }

let verdict_ok (ck : checked) run =
  match ck.verdict with
  | Runtime.Loadgen.Linearizable _ ->
      if run.failed > 0 then
        Error (Printf.sprintf "%d failed ops (%s)" run.failed (Option.value ~default:"" run.first_error))
      else if ck.suspicions > 0 || ck.mode_switches > 0 then
        Error (Printf.sprintf "%d suspicions, %d mode switches" ck.suspicions ck.mode_switches)
      else Ok ()
  | v -> Error (Format.asprintf "%a" Runtime.Loadgen.pp_verdict v)

(* WAL records, their encoded bytes and snapshots, summed over replicas,
   read back with the public store reader once the replicas are gone. *)
type wal = { records : int; bytes : int; snapshots : int; sample : string list }

let inspect_wal run =
  Array.fold_left
    (fun acc r ->
      match Durable.Store.inspect ~dir:(Filename.concat r.dir "wal") with
      | Error e -> raise (Run_failed ("wal: " ^ e))
      | Ok (_, rc) ->
          let snap = P.recovered_of rc in
          let recs =
            List.map
              (fun (a : P.applied) -> P.encode_record a)
              snap.P.s_applied
          in
          let framed =
            List.fold_left
              (fun k s ->
                let b = Buffer.create 64 in
                Durable.Wal.encode_record b s;
                k + Buffer.length b)
              0 recs
          in
          {
            records = acc.records + List.length recs;
            bytes = acc.bytes + framed;
            snapshots = acc.snapshots + rc.Durable.Store.r_generation;
            sample = (if acc.sample = [] then recs else acc.sample);
          })
    { records = 0; bytes = 0; snapshots = 0; sample = [] }
    run.cluster.replicas

(* Re-append one replica's records to a scratch WAL under the same fsync
   policy ([never]), 32 records per timing, and take the median µs per
   append. *)
let wal_append_us ~run_dir records =
  let w =
    Durable.Wal.create ~path:(Filename.concat run_dir "append-probe.log")
      ~fsync:Durable.Wal.Never
  in
  let recs = Array.of_list records in
  let per =
    Array.init
      ((Array.length recs + 31) / 32)
      (fun b ->
        let batch = Array.sub recs (32 * b) (min 32 (Array.length recs - (32 * b))) in
        let t0 = now_ns () in
        Array.iter (Durable.Wal.append w) batch;
        us_of_ns (now_ns () - t0) /. float_of_int (Array.length batch))
  in
  Durable.Wal.close w;
  Calc.median per

(* ---- results ---- *)

type metric = { name : string; value : float; unit : string }

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.15g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
             (Obs.Json.escape m.name) (num m.value) (Obs.Json.escape m.unit))
         metrics)
  in
  let line =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      correct attempted failed body
  in
  (match Obs.Json.validate line with
  | Ok () -> ()
  | Error e -> failwith ("result is not JSON: " ^ e));
  List.iter (fun m -> Printf.printf "%-28s %14s %s\n" m.name (num m.value) m.unit) metrics;
  print_endline line

(* Timing metrics come from the ops that completed in the calm whole
   windows of the phase (all ops when it had fewer than three windows). *)
let windowed ph = Array.length ph.calm >= 3

let window_of ph t1 =
  let k = (t1 - ph.start_ns) / window_ns in
  if k < Array.length ph.calm then k else -1

let kept run ph i =
  (not (windowed ph))
  ||
  let k = window_of ph (Ibuf.get run.r_t1 i) in
  k >= 0 && ph.calm.(k)

(* Overheads of the kept timed ops, µs: all of them and per class. *)
let overheads run ph =
  let bounds = Calc.class_bounds (Calc.params run.cluster.wl.timing) in
  let all = ref [] and per = Array.make 3 [] in
  for i = run.r_lat.Ibuf.len - 1 downto 0 do
    if kept run ph i then begin
      let cls = Ibuf.get run.r_cls i in
      let o = Calc.overhead ~bound_us:bounds.(cls) (us_of_ns (Ibuf.get run.r_lat i)) in
      all := o :: !all;
      per.(cls) <- o :: per.(cls)
    end
  done;
  (Array.of_list !all, Array.map Array.of_list per)

(* Completion rate in each whole window: ops completed after the
   window's first completion over the time to its last one, so the rate
   is not quantised to whole ops per window. *)
let window_rates run ph =
  let nw = Array.length ph.calm in
  let count = Array.make nw 0 and first = Array.make nw 0 and last = Array.make nw 0 in
  for i = 0 to run.r_t1.Ibuf.len - 1 do
    let t = Ibuf.get run.r_t1 i in
    let k = window_of ph t in
    if k >= 0 then begin
      if count.(k) = 0 then first.(k) <- t;
      last.(k) <- t;
      count.(k) <- count.(k) + 1
    end
  done;
  Array.init nw (fun k ->
      if count.(k) < 2 || last.(k) = first.(k) then 0.
      else float_of_int (count.(k) - 1) /. (float_of_int (last.(k) - first.(k)) /. 1e9))

(* The median calm window's rate; the whole-phase mean when too short. *)
let ops_per_s run ph =
  if windowed ph then
    Calc.median
      (Array.of_list
         (List.filteri (fun k _ -> ph.calm.(k)) (Array.to_list (window_rates run ph))))
  else float_of_int ph.ops /. (float_of_int ph.wall_ns /. 1e9)

(* ---- one complete run ---- *)

(* [ctl] reuses the workload connection where a replica has one. *)
let close_conns run =
  Array.iter (fun c -> Cl.close c.cl) run.conns;
  Array.iter (fun c -> if c.cid >= Array.length run.conns then Cl.close c.cl) run.ctl

type outcome = {
  run : run;
  phase : phase;
  ck : checked;
  setup_s : float list;
}

let one_run ~exe ~run_dir ~wl ~seed ~seconds ~traced ~setups =
  (* Throw-away set-ups first (their median is [setup_s]); the last one
     serves the timed phase. *)
  let setup_s = ref [] in
  for k = 1 to setups - 1 do
    let run, s = setup ~exe ~run_dir ~wl ~traced:false ~seed ~tag:(Printf.sprintf "setup%d" k) in
    setup_s := s :: !setup_s;
    close_conns run;
    teardown run.cluster
  done;
  let tag = if traced then "traced" else "run" in
  let run, s = setup ~exe ~run_dir ~wl ~traced ~seed ~tag in
  setup_s := s :: !setup_s;
  let phase, quorum =
    Fun.protect
      ~finally:(fun () -> teardown run.cluster)
      (fun () ->
        let p = timed_phase run ~seconds in
        close_conns run;
        (p, quorum_lines run))
  in
  let ck = check run quorum in
  log "%s%s: %d ops in %.2f s, %s" wl.name (if traced then " (traced)" else "")
    phase.ops (float_of_int phase.wall_ns /. 1e9)
    (Format.asprintf "%a" Runtime.Loadgen.pp_verdict ck.verdict);
  log "windows (ops/s, stolen ticks, * = calm): %s"
    (String.concat " "
       (List.mapi
          (fun k r ->
            Printf.sprintf "%.0f/%d%s" r phase.window_steal.(k)
              (if phase.calm.(k) then "*" else ""))
          (Array.to_list (window_rates run phase))));
  { run; phase; ck; setup_s = !setup_s }

let end_to_end o =
  let all, per = overheads o.run o.phase in
  let m name value unit = { name; value; unit } in
  [
    m "setup_s" (Calc.median (Array.of_list o.setup_s)) "s";
    m "ops_per_s" (ops_per_s o.run o.phase) "1/s";
    m "mop_overhead_p50_us" (Calc.median per.(0)) "us";
    m "aop_overhead_p50_us" (Calc.median per.(1)) "us";
    m "oop_overhead_p50_us" (Calc.median per.(2)) "us";
    m "overhead_p90_us" (Calc.percentile all 0.9) "us";
    m "replica_rss_mb" (float_of_int o.phase.rss_kb /. 1024.) "MB";
  ]

(* The traced run's layer decomposition.  [base] is the untraced run of
   the same workload, for the tracing overhead. *)
let per_layer ~run_dir ~base o =
  let run = o.run and ph = o.phase in
  let wl = run.cluster.wl in
  let params = Calc.params wl.timing in
  let bounds = Calc.class_bounds params in
  let events =
    List.concat_map
      (fun r -> Obs.Recorder.read_file (Filename.concat r.dir "replica.trace"))
      (Array.to_list run.cluster.replicas)
  in
  let report = Obs.Analyze.check ~params ~grace_us:1_000_000 events in
  let before_teardown kind =
    List.length
      (List.filter
         (fun (e : Obs.Event.t) ->
           e.Obs.Event.kind = kind && e.Obs.Event.t_us <= ph.end_us - run.cluster.epoch)
         events)
  in
  let spans = Hashtbl.create 4096 in
  List.iter
    (fun (c : Obs.Analyze.checked) -> Hashtbl.replace spans c.Obs.Analyze.span.Obs.Span.trace c.Obs.Analyze.span)
    report.Obs.Analyze.spans;
  let ops = ph.ops in
  let fops = float_of_int (max 1 ops) in
  let samples = ref [] and holds = Array.make 3 [] and overshoot = Array.make 3 [] in
  let wires = ref [] and rqueues = ref [] in
  for i = 0 to ops - 1 do
    match Hashtbl.find_opt spans (Ibuf.get run.r_trace i) with
    | Some ({ Obs.Span.latency_us = Some span; _ } as sp) ->
        let cls = Ibuf.get run.r_cls i in
        samples :=
          { Calc.cls; lat = us_of_ns (Ibuf.get run.r_lat i);
            send = us_of_ns (Ibuf.get run.r_send i);
            recv = us_of_ns (Ibuf.get run.r_recv i);
            span = float_of_int span }
          :: !samples;
        holds.(cls) <- float_of_int sp.Obs.Span.hold_us :: holds.(cls);
        overshoot.(cls) <- float_of_int (span - bounds.(cls)) :: overshoot.(cls);
        List.iter
          (fun leg ->
            Option.iter (fun w -> wires := float_of_int w :: !wires) (Obs.Span.wire_us leg);
            Option.iter (fun q -> rqueues := float_of_int q :: !rqueues) (Obs.Span.remote_queue_us leg))
          sp.Obs.Span.legs
    | _ -> ()
  done;
  let joined = List.length !samples in
  if joined < ops then
    raise (Run_failed (Printf.sprintf "only %d of %d ops joined a replica span" joined ops));
  (* The bounds are computed from the parameters the replicas were
     given, not read back; the timers they armed must agree. *)
  let armed = Calc.armed_hold_us params in
  Array.iteri
    (fun cls hs ->
      if hs <> [] then begin
        let h = Calc.median (Array.of_list hs) in
        if h <> float_of_int armed.(cls) then
          raise
            (Run_failed
               (Printf.sprintf "%s: median traced hold %.0f µs, computed %d µs"
                  Calc.class_names.(cls) h armed.(cls)))
      end)
    holds;
  let arr l = Array.of_list l in
  let p50 l = if l = [] then 0. else Calc.median (arr l) in
  let avg l = if l = [] then 0. else Calc.mean (arr l) in
  let samples = !samples in
  let sum f = Array.fold_left (fun k s -> k + f s) 0 ph.stats_delta in
  let maxi f = Array.fold_left (fun k s -> max k (f s)) 0 ph.stats_delta in
  let lk f s = f (link_of s) in
  let wal =
    if wl.durable then Some (inspect_wal run) else None
  in
  let all, _ = overheads run ph in
  let p99 = Calc.percentile all 0.99 in
  let m name value unit = { name; value; unit } in
  let f = float_of_int in
  let all_ops = max 1 (List.length run.entries) in
  [
    m "client.send_us_p50" (p50 (List.map (fun s -> s.Calc.send) samples)) "us";
    m "client.recv_us_p50" (p50 (List.map (fun s -> s.Calc.recv) samples)) "us";
    m "client.cpu_us_per_op" (f ph.client_cpu_us /. fops) "us";
    m "serve.port_us_p50" (p50 (List.map Calc.port samples)) "us";
    m "admission.sheds" (f run.sheds) "count";
    m "replica.mop_overshoot_us_p50" (p50 overshoot.(0)) "us";
    m "replica.aop_overshoot_us_p50" (p50 overshoot.(1)) "us";
    m "replica.oop_overshoot_us_p50" (p50 overshoot.(2)) "us";
    m "replica.rqueue_us_mean" (avg !rqueues) "us";
    m "replica.cpu_us_per_op" (f ph.replica_cpu_us /. fops) "us";
    m "tcp.frames_per_op" (f (sum (fun s -> s.Runtime.Transport_intf.sent)) /. fops) "count";
    m "tcp.bytes_per_op"
      (f (sum (lk (fun l -> l.Runtime.Transport_intf.bytes_out)) - ph.client_reply_bytes) /. fops)
      "bytes";
    m "tcp.reconnects" (f (sum (lk (fun l -> l.Runtime.Transport_intf.reconnects)))) "count";
    m "tcp.wire_us_mean" (avg !wires) "us";
    m "lanes.data_hwm" (f (maxi (lk (fun l -> l.Runtime.Transport_intf.queue_hwm)))) "count";
    m "lanes.ctrl_hwm" (f (maxi (lk (fun l -> l.Runtime.Transport_intf.ctrl_hwm)))) "count";
    m "lanes.shed" (f (sum (lk (fun l -> l.Runtime.Transport_intf.lane_shed)))) "count";
    m "quorum.gate_wait_us_p50" (if wl.fallback then p50 overshoot.(0) else 0.) "us";
    m "quorum.suspicions" (f (before_teardown Obs.Event.Suspect)) "count";
    m "quorum.mode_switches" (f (before_teardown Obs.Event.Mode_switch)) "count";
    (* the WAL holds every op of the run, set-up and warm-up included *)
    m "wal.records_per_op" (match wal with Some w -> f w.records /. f all_ops | None -> 0.) "count";
    m "wal.bytes_per_op" (match wal with Some w -> f w.bytes /. f all_ops | None -> 0.) "bytes";
    m "wal.append_us_p50"
      (match wal with Some w -> wal_append_us ~run_dir w.sample | None -> 0.)
      "us";
    m "snapshot.count" (match wal with Some w -> f w.snapshots | None -> 0.) "count";
    m "check.us_per_op" (us_of_ns o.ck.check_ns /. f all_ops) "us";
    m "check.segments"
      (match o.ck.verdict with Runtime.Loadgen.Linearizable k -> f k | _ -> 0.)
      "count";
    m "obs.trace_overhead_pct"
      (let b = ops_per_s base.run base.phase in 100. *. (b -. ops_per_s run ph) /. b) "%";
    m "host.steal_pct" ph.steal_pct "%";
    m "obs.ring_drops" (f report.Obs.Analyze.ring_drops) "count";
    m "obs.ledger_gap_pct" (Calc.ledger_gap_pct samples) "%";
    m "tail.overhead_p99_us" p99 "us";
    m "tail.samples_beyond_p99" (f (Calc.count_beyond all p99)) "count";
  ]

(* ---- entry point ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let exe = ref "" and run_dir = ref ".perfbench-run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME solo-rpc | trio-mixed | trio-writes-gated");
      ("--seed", Arg.Set_int seed, "N op-draw seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--exe", Arg.Set_string exe, "PATH the timebounds binary serving the replicas");
      ("--run-dir", Arg.Set_string run_dir, "DIR scratch directory for logs, WALs and traces");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --exe PATH --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  if not (Sys.file_exists !exe) then begin
    prerr_endline ("no replica binary at " ^ !exe);
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let root = !run_dir in
  let run_dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  rm_rf run_dir;
  mkdir_p run_dir;
  let clean () =
    rm_rf run_dir;
    try Unix.rmdir root with Unix.Unix_error _ -> ()
  in
  let fail ?run why =
    clean ();
    log "run failed: %s" why;
    let attempted, failed =
      match run with Some r -> (max 1 r.attempted, max 1 r.failed) | None -> (1, 1)
    in
    print_result ~correct:false ~attempted ~failed [];
    exit 1
  in
  let checked ~traced ~setups =
    let o = one_run ~exe:!exe ~run_dir ~wl ~seed:!seed ~seconds:!seconds ~traced ~setups in
    match verdict_ok o.ck o.run with Ok () -> o | Error why -> fail ~run:o.run why
  in
  match
    if !trace = 0 then
      let o = checked ~traced:false ~setups in
      (o, end_to_end o)
    else
      let base = checked ~traced:false ~setups:1 in
      let o = checked ~traced:true ~setups:1 in
      (o, per_layer ~run_dir ~base o)
  with
  | o, metrics ->
      clean ();
      print_result ~correct:true ~attempted:o.run.attempted ~failed:o.run.failed metrics
  | exception Run_failed why -> fail why
