(** One replica as an OS process: [shards] independent Algorithm 1
    instances multiplexed over the {e same} per-peer TCP links, plus a
    client port — the body of [timebounds serve].  An unsharded replica is
    simply a host with one shard: linearizability composes, so a namespace
    of independently linearizable instances is linearizable, and nothing
    about a single instance changes when it is the only one.

    The multiplexing is the whole trick.  A host opens one outgoing
    connection per peer, and every codec-v4 frame carries its shard id, so
    a peer frame decodes to a [(shard, wire)] pair and a shard's sends are
    tagged on the way out: the shard neither knows nor cares that it
    shares its sockets with 63 siblings.

    One loop, one thread.  A host is a single poll loop that owns every
    socket ({!Net.Tcp_transport}'s thread-free socket set) and every
    shard's {!Runtime.Replica.driver}.  Each cycle it waits in
    {!Net.Tcp_transport.poll} on the listener, the accepted connections
    and the outgoing peer links until the earliest due timer across
    shards (one sleeping [ppoll], then zero-timeout ones inside the lead
    the socket set learned, so the timer fires on time); reads
    the clock once; fires every timer due at that reading, in due order;
    steps each decoded frame in arrival order per connection; flushes
    each link's lanes and each client's replies, one write per socket;
    and reads the clock again to fire what is due by then, the zero
    holds those steps set past the first reading included, flushing
    again if anything fired (see {!run}).  A
    client [Invoke] is admitted and stepped into the addressed shard's
    core on the spot, its ticket remembered with the connection, the shard
    and the admission time, so the [Respond] output encodes the
    [Result]/[Shed]/[Error_msg] frame straight into that connection's
    reply buffer.  A client that stops reading is cut off once its unsent
    replies pass {!Net.Tcp_transport.reply_cap} instead of stalling the
    loop.  Checkpoints and the parent watch are loop timers.

    Nothing enters the loop from another thread: {!stop} sets the stop
    flag and wakes the poll through {!Net.Tcp_transport.wake}, as SIGINT
    does.  [timebounds serve] runs the loop on its main thread
    ({!run_until_signalled}, where SIGINT/SIGTERM interrupt the poll);
    {!start} runs it on one thread per host for in-process callers.

    Per-shard isolation elsewhere:
    - durable state: a one-shard host keeps its store at the durable
      directory itself; with more shards each lives under
      [root/shard-<k>/] with a META naming the shard, so a mixed-up
      directory handoff fails loudly;
    - a chaos plan is projected per shard ({!Fault.Fault_plan.for_shard}):
      shard [k]'s sends consult its own {!Fault.Chaos_transport.decide}
      only when the projection is non-empty, so a [%k]-scoped fault never
      touches a sibling; a delayed frame waits on a loop timer before it
      enters its link;
    - each shard has its own admission controller, failure detector, mode
      controller and clock-sync estimator.

    A {!handle} is separable from the CLI so an in-process caller (the
    [tcp_cluster] example, the tests) can run several hosts in one process
    on ephemeral ports. *)

module T = Runtime.Transport_intf

type config = {
  pid : int;
  shards : int;  (** independent object instances hosted (≥ 1) *)
  addrs : (string * int) array;  (** every replica's address, index = pid *)
  params : Core.Params.t;  (** effective (slack already folded into d, u) *)
  offset : int;  (** this replica's clock offset, µs *)
  start_us : int option;
      (** the run's origin (µs on {!Prelude.Mclock}'s timeline, which is
          wall-clock based and hence comparable across local processes)
          for trace times and fault windows only.  Replica clocks read
          [now + offset] whatever it is, so a missing or mismatched origin
          cannot skew them.  [None] means "now" (single-replica or
          in-process use). *)
  trace : string option;
      (** when set, install an [Obs.Recorder] writing this process's trace
          file, timestamped from [start_us] — the same origin in every
          replica makes the per-process files merge onto one timeline. *)
  durable : string option;
      (** durable directory ({!Durable.Store}, see {!store_dir}): WAL every
          applied mutation, checkpoint periodically, and on start recover
          the prefix and catch up from peers.  [None] = memory-only. *)
  fsync : Durable.Wal.fsync;  (** WAL durability policy (when [durable]) *)
  snapshot_every : int;
      (** checkpoint after this many WAL records (≤ 0 = never snapshot) *)
  chaos : Fault.Fault_plan.t option;
      (** fault plan applied to the peer links, projected per shard; its
          windows are measured from [start_us] *)
  fallback : Quorum.Config.t option;
      (** arm the adaptive quorum fallback on every shard: the replica
          heartbeats its peers, runs the fast path behind the response
          release gate while timing holds, and degrades to the
          sequencer/majority mode when a peer is suspected dead.  Shards
          degrade (and recover) independently.  The configured
          [on_mode]/[on_suspect] hooks are composed with this host's own
          logging (the "mode: quorum(...)" and "suspecting peer" lines CI
          greps). *)
  sync : Sync.Config.t option;
      (** arm live clock synchronization on every shard: the replica
          exchanges timestamped ping/pong probes with its peers, slews a
          corrected clock toward the Lundelius–Lynch midpoint average, and
          publishes its achieved ε each round.  The configured [on_eps]
          hook is composed with this host's own logging (the
          "sync eps=..." lines the CI sync smokes grep). *)
  log : string -> unit;
}

(* How long a restarted replica waits for peer catch-up replies before
   giving up on the missing ones: the algorithm's own propagation bound
   plus a generous allowance for TCP reconnection — peers may themselves
   be mid-restart.  The freeze ends as soon as every peer answers, so the
   constant only caps the unresponsive-peer case. *)
let catchup_grace_us = 1_500_000

(* The deadline a cluster client ([Shard.Cluster]'s port) gives each
   operation from its first invocation: the per-attempt reply timeout
   plus the capped-backoff retry budget, over the effective [params]
   (slack folded into d). *)
let op_deadline_us (p : Core.Params.t) =
  (2 * (p.Core.Params.d + p.Core.Params.eps)) + 4_000_000

(* How long a replica remembers an applied op id: a client replays an op
   under its id only until the op's deadline (a later replay is shed
   before any dedup check, whatever retries are left), and the client's
   timeline and the stamp differ by at most ε on each side. *)
let dedup_window_us (p : Core.Params.t) =
  op_deadline_us p + (2 * p.Core.Params.eps)

(* A one-shard host keeps its store at [root] itself — the layout
   [timebounds recover DIR] and the benchmark's WAL inspection read. *)
let store_dir ~shards root k =
  if shards = 1 then root
  else Filename.concat root (Printf.sprintf "shard-%d" k)

(* Log-line subject: an unsharded replica speaks as "replica N". *)
let who cfg k =
  if cfg.shards = 1 then Printf.sprintf "replica %d" cfg.pid
  else Printf.sprintf "replica %d shard %d" cfg.pid k

let epoch_of cfg =
  match cfg.start_us with Some s -> s | None -> Prelude.Mclock.now_us ()

module Make (W : Net.Wire.WIRED) = struct
  module C = Net.Codec.Make (W.C)
  module R = Runtime.Replica.Make (W.L.D)
  module P = Net.Persist.Make (W.C)

  let hello_of cfg =
    {
      Net.Codec.pid = cfg.pid;
      n = cfg.params.Core.Params.n;
      d = cfg.params.Core.Params.d;
      u = cfg.params.Core.Params.u;
      eps = cfg.params.Core.Params.eps;
      x = cfg.params.Core.Params.x;
      obj_tag = W.C.obj_tag;
      shards = cfg.shards;
    }

  (* Accept a peer iff it runs the same protocol instances: same object,
     same (n, d, u, ε, X), same shard count.  A mismatched peer would
     silently break the admissibility assumptions or route frames to the
     wrong instances, so it is rejected loudly instead. *)
  let classify_hello cfg frame =
    match C.decode_payload frame with
    | Ok (C.Hello h) ->
        let mine = hello_of cfg in
        if h.Net.Codec.obj_tag <> mine.Net.Codec.obj_tag then
          Net.Tcp_transport.Reject
            (Printf.sprintf "object mismatch (peer %d, ours %d)"
               h.Net.Codec.obj_tag mine.Net.Codec.obj_tag)
        else if
          h.Net.Codec.n <> mine.Net.Codec.n
          || h.Net.Codec.d <> mine.Net.Codec.d
          || h.Net.Codec.u <> mine.Net.Codec.u
          || h.Net.Codec.eps <> mine.Net.Codec.eps
          || h.Net.Codec.x <> mine.Net.Codec.x
        then
          Net.Tcp_transport.Reject
            (Printf.sprintf
               "parameter mismatch: peer %d has (n=%d d=%d u=%d eps=%d x=%d)"
               h.Net.Codec.pid h.Net.Codec.n h.Net.Codec.d h.Net.Codec.u
               h.Net.Codec.eps h.Net.Codec.x)
        else if h.Net.Codec.shards <> mine.Net.Codec.shards then
          Net.Tcp_transport.Reject
            (Printf.sprintf "shard topology mismatch (peer %d, ours %d)"
               h.Net.Codec.shards mine.Net.Codec.shards)
        else if h.Net.Codec.pid < 0 || h.Net.Codec.pid >= mine.Net.Codec.n then
          Net.Tcp_transport.Reject
            (Printf.sprintf "bad peer pid %d" h.Net.Codec.pid)
        else Net.Tcp_transport.Peer h.Net.Codec.pid
    | Ok _ -> Net.Tcp_transport.Client
    | Error e -> Net.Tcp_transport.Reject ("bad handshake: " ^ e)

  let entry_of ~op ~time ~pid =
    { R.Alg.op; ts = Prelude.Stamp.make ~time ~pid }

  (* Frames decode to (shard, wire).  This range check is the only guard
     before the shard's driver is indexed: the handshake guarantees
     matching topologies, so an out-of-range shard id is a corrupt or
     foreign frame and is skipped like any other undecodable one. *)
  let decode_peer ~shards ~me ~src frame =
    let ok shard = shard >= 0 && shard < shards in
    match C.decode_payload frame with
    | Ok (C.Entry { op; time; pid; trace; op_id; shard }) when ok shard ->
        Obs.Recorder.emit ~pid:me ~kind:Obs.Event.Recv ~trace ~a:src ();
        Some
          ( shard,
            R.Wire_entry (entry_of ~op ~time ~pid, trace, op_id) )
    | Ok (C.Catchup_req { time; cpid; shard }) when ok shard ->
        Some (shard, R.Wire_catchup_req { time; cpid })
    | Ok (C.Catchup_rep { entries; time; cpid; shard }) when ok shard ->
        let entries =
          List.map
            (fun (op, time, pid, op_id) -> (entry_of ~op ~time ~pid, op_id))
            entries
        in
        Some (shard, R.Wire_catchup_rep { entries; time; cpid })
    | Ok (C.Catchup_state { obj; time; cpid; window; entries; shard })
      when ok shard ->
        let window =
          List.map
            (fun (op, time, pid, op_id, result) ->
              (entry_of ~op ~time ~pid, result, op_id))
            window
        in
        let entries =
          List.map
            (fun (op, time, pid, op_id) -> (entry_of ~op ~time ~pid, op_id))
            entries
        in
        Some (shard, R.Wire_catchup_state { obj; time; cpid; window; entries })
    | Ok (C.Hb { stamp; epoch; qmode; seq; floor; ack; want; shard })
      when ok shard ->
        Some
          ( shard,
            R.Wire_quorum
                 (R.Hb { stamp; epoch; qmode; seq; floor; ack; want }) )
    | Ok (C.Forward { qid; origin; op; op_id; trace; shard }) when ok shard ->
        Some
          ( shard,
            R.Wire_quorum (R.Forward { qid; origin; op; op_id; trace }) )
    | Ok (C.Propose { epoch; qseq; time; origin; qid; op; op_id; trace; shard })
      when ok shard ->
        Some
          ( shard,
            R.Wire_quorum
                 (R.Propose
                    {
                      epoch;
                      qseq;
                      p =
                        {
                          R.q_time = time;
                          q_op = op;
                          q_origin = origin;
                          q_qid = qid;
                          q_op_id = op_id;
                          q_trace = trace;
                        };
                    }) )
    | Ok (C.Qack { epoch; qseq; shard }) when ok shard ->
        Some (shard, R.Wire_quorum (R.Qack { epoch; qseq }))
    | Ok (C.Qcommit { epoch; qseq; shard }) when ok shard ->
        Some (shard, R.Wire_quorum (R.Qcommit { epoch; qseq }))
    | Ok (C.Fnack { qid; shard }) when ok shard ->
        Some (shard, R.Wire_quorum (R.Fnack { qid }))
    | Ok (C.Qfill { epoch; from_seq; shard }) when ok shard ->
        Some (shard, R.Wire_quorum (R.Qfill { epoch; from_seq }))
    | Ok (C.Ping { seq; t0; shard }) when ok shard ->
        Some (shard, R.Wire_sync (R.Sping { seq; t0 }))
    | Ok (C.Pong { seq; t0; t_rx; t_tx; shard }) when ok shard ->
        Some (shard, R.Wire_sync (R.Spong { seq; t0; t_rx; t_tx }))
    | Ok _ | Error _ -> None

  let encode_peer (shard, ev) =
    match ev with
    | R.Wire_entry ((e : R.Alg.entry), trace, op_id) ->
        C.encode
          (C.Entry
             {
               op = e.R.Alg.op;
               time = e.R.Alg.ts.Prelude.Stamp.time;
               pid = e.R.Alg.ts.Prelude.Stamp.pid;
               trace;
               op_id;
               shard;
             })
    | R.Wire_catchup_req { time; cpid } ->
        C.encode (C.Catchup_req { time; cpid; shard })
    | R.Wire_catchup_rep { entries; time; cpid } ->
        let entries =
          List.map
            (fun ((e : R.Alg.entry), op_id) ->
              ( e.R.Alg.op,
                e.R.Alg.ts.Prelude.Stamp.time,
                e.R.Alg.ts.Prelude.Stamp.pid,
                op_id ))
            entries
        in
        C.encode (C.Catchup_rep { entries; time; cpid; shard })
    | R.Wire_catchup_state { obj; time; cpid; window; entries } ->
        let stamp (e : R.Alg.entry) =
          (e.R.Alg.ts.Prelude.Stamp.time, e.R.Alg.ts.Prelude.Stamp.pid)
        in
        let window =
          List.map
            (fun (e, result, op_id) ->
              let time, pid = stamp e in
              (e.R.Alg.op, time, pid, op_id, result))
            window
        in
        let entries =
          List.map
            (fun (e, op_id) ->
              let time, pid = stamp e in
              (e.R.Alg.op, time, pid, op_id))
            entries
        in
        C.encode (C.Catchup_state { obj; time; cpid; window; entries; shard })
    | R.Wire_quorum q ->
        C.encode
          (match q with
          | R.Hb { stamp; epoch; qmode; seq; floor; ack; want } ->
              C.Hb { stamp; epoch; qmode; seq; floor; ack; want; shard }
          | R.Forward { qid; origin; op; op_id; trace } ->
              C.Forward { qid; origin; op; op_id; trace; shard }
          | R.Propose { epoch; qseq; p } ->
              C.Propose
                {
                  epoch;
                  qseq;
                  time = p.R.q_time;
                  origin = p.R.q_origin;
                  qid = p.R.q_qid;
                  op = p.R.q_op;
                  op_id = p.R.q_op_id;
                  trace = p.R.q_trace;
                  shard;
                }
          | R.Qack { epoch; qseq } -> C.Qack { epoch; qseq; shard }
          | R.Qcommit { epoch; qseq } -> C.Qcommit { epoch; qseq; shard }
          | R.Fnack { qid } -> C.Fnack { qid; shard }
          | R.Qfill { epoch; from_seq } -> C.Qfill { epoch; from_seq; shard })
    | R.Wire_sync s ->
        C.encode
          (match s with
          | R.Sping { seq; t0 } -> C.Ping { seq; t0; shard }
          | R.Spong { seq; t0; t_rx; t_tx } ->
              C.Pong { seq; t0; t_rx; t_tx; shard })

  (* Wire-lane classification: heartbeats (doubling as mode announcements),
     sync probes, and catch-up frames ride the control lane so every
     shard's failure detector and ε estimator stay live when data load —
     possibly one hot shard's — saturates the shared links; everything else
     (entries, quorum ordering traffic) is data and may be shed under
     overload. *)
  let lane_of (_shard, w) =
    match w with
    | R.Wire_quorum (R.Hb _)
    | R.Wire_sync _ | R.Wire_catchup_req _ | R.Wire_catchup_rep _
    | R.Wire_catchup_state _ ->
        Net.Lanes.Ctrl
    | _ -> Net.Lanes.Data

  (* Compose the caller's fallback and sync hooks with this host's own
     logging — the "mode: quorum(...)", "suspecting peer" and
     "sync eps=..." lines are what the CI smokes and the benchmark grep. *)
  let fallback_for cfg k =
    Option.map
      (fun (q : Quorum.Config.t) ->
        {
          q with
          Quorum.Config.on_mode =
            (fun ~quorum ~epoch ~seq ->
              cfg.log
                (Printf.sprintf "%s: mode: %s(epoch=%d seq=%d)" (who cfg k)
                   (if quorum then "quorum" else "fast")
                   epoch seq);
              q.Quorum.Config.on_mode ~quorum ~epoch ~seq);
          on_suspect =
            (fun ~peer ~suspected ->
              cfg.log
                (Printf.sprintf "%s: %s peer %d" (who cfg k)
                   (if suspected then "suspecting" else "cleared")
                   peer);
              q.Quorum.Config.on_suspect ~peer ~suspected);
        })
      cfg.fallback

  let sync_for cfg k =
    Option.map
      (fun (s : Sync.Config.t) ->
        {
          s with
          Sync.Config.on_eps =
            (fun ~eps_us ~peers ->
              cfg.log
                (Printf.sprintf "%s: sync eps=%dus peers=%d" (who cfg k) eps_us
                   peers);
              s.Sync.Config.on_eps ~eps_us ~peers);
        })
      cfg.sync

  (* Checkpoint [view] (taken between steps, or by a state transfer inside
     one: the loop is the only thread that appends, so either cut is
     consistent): the object, its high-water mark and the dedup window. *)
  let checkpoint cfg store (view : R.durable) =
    let folded = Durable.Store.records_since_snapshot store in
    Durable.Store.snapshot store
      (P.encode_snapshot
         {
           P.s_obj = view.R.obj;
           s_hwm_time = view.R.hwm_time;
           s_hwm_pid = view.R.hwm_pid;
           s_applied =
             List.map
               (fun ((e : R.Alg.entry), result, op_id) ->
                 {
                   P.op = e.R.Alg.op;
                   time = e.R.Alg.ts.Prelude.Stamp.time;
                   pid = e.R.Alg.ts.Prelude.Stamp.pid;
                   op_id;
                   result;
                 })
               view.R.window;
         });
    Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Checkpoint ~a:folded
      ~b:(Durable.Store.generation store)
      ()

  (* Open shard [k]'s store and turn what it recovered into the node's
     recovery config.  Returns the store, the recovery, whether the store
     was fresh (genesis), the replayed WAL record count and the time
     taken. *)
  let open_store cfg root k =
    let t0 = Prelude.Mclock.now_us () in
    let dir = store_dir ~shards:cfg.shards root k in
    let meta =
      if cfg.shards = 1 then
        Printf.sprintf "timebounds replica=%d obj=%d n=%d" cfg.pid W.C.obj_tag
          cfg.params.Core.Params.n
      else
        Printf.sprintf "timebounds replica=%d shard=%d obj=%d n=%d shards=%d"
          cfg.pid k W.C.obj_tag cfg.params.Core.Params.n cfg.shards
    in
    match Durable.Store.open_ ~dir ~meta ~fsync:cfg.fsync with
    | Error e ->
        cfg.log (Printf.sprintf "%s: %s" (who cfg k) e);
        failwith e
    | Ok (store, recovered) ->
        let snap, folded, skipped = P.recover recovered in
        let rs =
          {
            R.obj = snap.P.s_obj;
            hwm_time = snap.P.s_hwm_time;
            hwm_pid = snap.P.s_hwm_pid;
            window =
              List.map
                (fun (a : P.applied) ->
                  ( entry_of ~op:a.P.op ~time:a.P.time ~pid:a.P.pid,
                    a.P.result,
                    a.P.op_id ))
                snap.P.s_applied;
          }
        in
        let on_apply (e : R.Alg.entry) result op_id =
          Durable.Store.append_with store (fun b ->
              P.write_record b ~op:e.R.Alg.op
                ~time:e.R.Alg.ts.Prelude.Stamp.time
                ~pid:e.R.Alg.ts.Prelude.Stamp.pid ~op_id ~result)
        in
        (* The WAL does not cover an object a peer transferred: checkpoint
           it before the next append. *)
        let on_transfer ~src (view : R.durable) =
          cfg.log
            (Printf.sprintf
               "%s: recovered by state transfer from replica %d at hwm \
                <%d,%d> (%d ids in the dedup window)"
               (who cfg k) src view.R.hwm_time view.R.hwm_pid
               (List.length view.R.window));
          checkpoint cfg store view
        in
        let recovery =
          {
            R.catchup_wait_us =
              cfg.params.Core.Params.d + cfg.params.Core.Params.eps
              + catchup_grace_us;
            on_apply;
            on_transfer;
            recovered = Some rs;
          }
        in
        ( store,
          recovery,
          recovered.Durable.Store.r_fresh,
          (folded, skipped),
          Prelude.Mclock.now_us () - t0 )

  (* ---- the loop ---- *)

  type shard = {
    drv : R.driver;
    chaos : Fault.Chaos_transport.t option;
        (** the shard's fault controller, when its projected plan is
            non-empty *)
    store : Durable.Store.t option;
    admission : Net.Admission.t;
        (** shards have independent service rates (their own cores,
            stores, quorum modes), so one saturated shard sheds without
            starving its siblings' budgets *)
  }

  (* An admitted invocation: where its reply goes, and when it was let in
     (the admission controller learns from the elapsed time). *)
  type pending = {
    conn : Net.Tcp_transport.client_conn;
    pshard : int;
    admitted_us : int;
  }

  (* A frame a fault parked: it enters its link at [due]; [pseq] keeps
     frames parked until the same µs in the order they were sent. *)
  type parked = {
    due : int;
    pseq : int;
    pk : int;
    pdst : int;
    ptrace : int;
    pw : R.wire;
  }

  module Parked = Prelude.Heap.Make (struct
    type t = parked

    let compare a b = compare (a.due, a.pseq) (b.due, b.pseq)
  end)

  type loop = {
    cfg : config;
    epoch : int;  (** [Mclock] µs the fault windows are measured from *)
    tcp : (int * R.wire) Net.Tcp_transport.t;
    peers : int list;  (** every pid but this one: a broadcast's targets *)
    shards : shard array;
    mutable outs : (R.output -> unit) array;
        (** per shard: performs its outputs *)
    tickets : (int, pending) Hashtbl.t;
    mutable next_ticket : int;
    conn_inflight : (int, int) Hashtbl.t;
        (** admitted, unanswered invocations per client connection *)
    mutable now : int;  (** this cycle's clock reading *)
    stop_flag : bool Atomic.t;
    recovering : bool array;  (** shards that step [Recover] after [Start] *)
    mutable parked : Parked.t;
    mutable parked_seq : int;  (** frames parked so far *)
    mutable chaos_dropped : int;  (** frames a fault lost, all shards *)
    recorder : (Obs.Recorder.t * (unit -> unit)) option;
        (** installed recorder and its trace-file closer; the loop drains
            it *)
    watch_parent : int option;
    mutable next_checkpoint : int;  (** [Mclock] µs; [max_int] = never *)
    mutable next_watch : int;
    answered : int array;  (** per shard: [Done] completions *)
    reply_buf : Buffer.t;  (** the reply being encoded *)
  }

  (* A pipelining client stops being read while this many of its
     invocations are unanswered, so one connection cannot fill a shard's
     admission budget ahead of everyone else's. *)
  let max_conn_inflight = 16

  let conn_admitted lp conn =
    let id = Net.Tcp_transport.conn_id conn in
    let k = 1 + Option.value ~default:0 (Hashtbl.find_opt lp.conn_inflight id) in
    Hashtbl.replace lp.conn_inflight id k;
    if k = max_conn_inflight then Net.Tcp_transport.conn_pause conn

  let conn_answered lp conn =
    let id = Net.Tcp_transport.conn_id conn in
    match Hashtbl.find_opt lp.conn_inflight id with
    | Some k ->
        if k = max_conn_inflight then Net.Tcp_transport.conn_resume conn;
        if k <= 1 then Hashtbl.remove lp.conn_inflight id
        else Hashtbl.replace lp.conn_inflight id (k - 1)
    | None -> ()

  let checkpoint_every_us = 200_000
  let watch_every_us = 100_000

  let reply_of shard = function
    | R.Done r -> C.Result { result = r; shard }
    | R.Cancelled -> C.Error_msg "replica stopped"
    | R.Rejected why ->
        (* The client must back off and retry with the same op id;
           [Client.retryable] recognises both answers.  A "shed: ..."
           refusal (replica-side deadline check) travels as the dedicated
           frame — the replica already emitted its own [Shed] event. *)
        if String.length why >= 4 && String.sub why 0 4 = "shed" then
          C.Shed { reason = why; shard }
        else C.Error_msg ("retry: " ^ why)

  (* A fault's losses count as sent and dropped, so loss stays visible. *)
  let stats lp =
    let s = Net.Tcp_transport.stats lp.tcp and lost = lp.chaos_dropped in
    { s with T.sent = s.T.sent + lost; dropped = s.T.dropped + lost }

  (* Shard [k]'s send to [dsts]: straight onto the shared links with the
     shard tag, encoded once, unless its fault plan drops, copies or
     parks the frame — decided per destination. *)
  let send lp k ~dsts ~trace w =
    let dsts =
      match lp.shards.(k).chaos with
      | None -> dsts
      | Some chaos ->
          List.concat_map
            (fun dst ->
              let entered = ref [] in
              T.apply
                (Fault.Chaos_transport.decide chaos ~now_us:(lp.now - lp.epoch)
                   ~src:lp.cfg.pid ~dst ~trace)
                ~lost:(fun () -> lp.chaos_dropped <- lp.chaos_dropped + 1)
                ~enter:(fun () -> entered := dst :: !entered)
                ~park:(fun extra_us ->
                  let p =
                    {
                      due = lp.now + extra_us;
                      pseq = lp.parked_seq;
                      pk = k;
                      pdst = dst;
                      ptrace = trace;
                      pw = w;
                    }
                  in
                  lp.parked_seq <- lp.parked_seq + 1;
                  lp.parked <- Parked.insert p lp.parked);
              !entered)
            dsts
    in
    Net.Tcp_transport.send_all lp.tcp ~dsts ~trace (k, w)

  (* Parked frames whose time came (all of them at [~all]) enter their
     links. *)
  let release_parked ?(all = false) lp =
    let due, rest =
      Parked.pop_while (fun p -> all || p.due <= lp.now) lp.parked
    in
    lp.parked <- rest;
    List.iter
      (fun p ->
        Net.Tcp_transport.send lp.tcp ~dst:p.pdst ~trace:p.ptrace (p.pk, p.pw))
      due

  (* A reply frame, encoded straight into the connection's reply
     buffer. *)
  let reply lp conn msg =
    Buffer.clear lp.reply_buf;
    let kind = C.write_payload lp.reply_buf msg in
    ignore (Net.Tcp_transport.conn_write_frame conn ~kind lp.reply_buf)

  (* What a shard's step outputs become: sends go through {!send}; a
     completion appends its reply frame straight to the invoking
     connection. *)
  let perform lp k = function
    | Sim.Action.Respond (r : R.reply) -> (
        (match r.R.outcome with
        | R.Done _ -> lp.answered.(k) <- lp.answered.(k) + 1
        | R.Cancelled | R.Rejected _ -> ());
        match Hashtbl.find_opt lp.tickets r.R.ticket with
        | Some p ->
            Hashtbl.remove lp.tickets r.R.ticket;
            conn_answered lp p.conn;
            Net.Admission.finish lp.shards.(p.pshard).admission
              ~elapsed_us:(lp.now - p.admitted_us);
            reply lp p.conn (reply_of p.pshard r.R.outcome)
        | None -> ())
    | Sim.Action.Send (dst, w) -> send lp k ~dsts:[ dst ] ~trace:(R.trace_of w) w
    | Sim.Action.Broadcast w -> send lp k ~dsts:lp.peers ~trace:(R.trace_of w) w
    | Sim.Action.Set_timer _ | Sim.Action.Cancel_timer _ -> ()

  let on_client lp conn frame =
    let cfg = lp.cfg in
    let reply = reply lp conn in
    match C.decode_payload frame with
    | Ok (C.Invoke { op; trace; op_id; shard; deadline }) -> (
        if shard < 0 || shard >= cfg.shards then
          reply
            (C.Error_msg
               (Printf.sprintf "no shard %d here (host has %d)" shard cfg.shards))
        else if deadline > 0 && lp.now > deadline then begin
          (* Already late at the door: executing it would be dead work the
             client stopped waiting for. *)
          Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Shed ~trace
            ~a:Obs.Event.shed_deadline ~b:shard ();
          reply (C.Shed { reason = "shed: deadline passed"; shard })
        end
        else
          let sh = lp.shards.(shard) in
          match
            Net.Admission.try_admit sh.admission ~now_us:lp.now
              ~deadline_us:deadline
          with
          | Net.Admission.Shed reason ->
              Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Shed ~trace
                ~a:Obs.Event.shed_admission ~b:shard ();
              reply (C.Shed { reason; shard })
          | Net.Admission.Admitted ->
              let ticket = lp.next_ticket in
              lp.next_ticket <- ticket + 1;
              Hashtbl.replace lp.tickets ticket
                { conn; pshard = shard; admitted_us = lp.now };
              conn_admitted lp conn;
              R.invoke_at sh.drv ~now:lp.now ~out:lp.outs.(shard) ~trace ~op_id
                ~deadline ~ticket op)
    | Ok C.Stats_req -> reply (C.Stats (stats lp))
    | Ok m ->
        reply (C.Error_msg (Format.asprintf "unexpected frame %a" C.pp_msg m));
        Net.Tcp_transport.conn_close conn
    | Error e ->
        reply (C.Error_msg ("bad frame: " ^ e));
        Net.Tcp_transport.conn_close conn

  (* Loop timers: the checkpoint sweep (one cadence for every shard's WAL
     bounds checkpoint lag without a timer per shard) and the parent
     watch. *)
  let loop_timers lp now =
    if now >= lp.next_checkpoint then begin
      lp.next_checkpoint <- now + checkpoint_every_us;
      Array.iter
        (fun sh ->
          match sh.store with
          | Some store
            when Durable.Store.records_since_snapshot store
                 >= lp.cfg.snapshot_every ->
              checkpoint lp.cfg store (R.driver_snapshot sh.drv)
          | _ -> ())
        lp.shards
    end;
    match lp.watch_parent with
    | Some ppid when now >= lp.next_watch ->
        lp.next_watch <- now + watch_every_us;
        if match Unix.kill ppid 0 with () -> false | exception _ -> true then begin
          lp.cfg.log
            (Printf.sprintf "replica %d: parent gone, exiting" lp.cfg.pid);
          Atomic.set lp.stop_flag true
        end
    | _ -> ()

  let fire_due lp =
    Array.iteri
      (fun k sh -> R.fire_due sh.drv ~now:lp.now ~out:lp.outs.(k))
      lp.shards

  let rec step_inputs lp =
    match Net.Tcp_transport.next_input lp.tcp with
    | None -> ()
    | Some (Net.Tcp_transport.From_peer (src, (k, w))) ->
        R.deliver_at lp.shards.(k).drv ~now:lp.now ~out:lp.outs.(k) ~src
          ~depth:(Net.Tcp_transport.queued_inputs lp.tcp)
          w;
        step_inputs lp
    | Some (Net.Tcp_transport.From_client (conn, frame)) ->
        on_client lp conn frame;
        step_inputs lp

  (* The caught-up pass, after the write: a second clock reading, and
     each shard's timers due by it or set with no delay by a step the
     one-step-per-µs rule carried past the first ({!R.fire_caught_up}) —
     a zero hold answers in the cycle that stepped it, and no hold with a
     delay fires before the clock reaches it.  True if any fired. *)
  let fire_caught_up lp =
    lp.now <- Prelude.Mclock.now_us ();
    let fired = ref false in
    Array.iteri
      (fun k sh ->
        if R.fire_caught_up sh.drv ~now:lp.now ~out:lp.outs.(k) then
          fired := true)
      lp.shards;
    !fired

  (* One cycle per iteration: poll until the earliest deadline, read the
     clock once, fire the due timers and release the due parked frames,
     step the inputs in arrival order, fire the timers those steps made
     due, write; then the caught-up pass and, if it fired anything,
     another write.  The pass comes after the first write so a reply
     already made does not wait behind the steps it runs (a MOP's or
     AOP's entry reaching Add and Execute), and a zero hold a bumped step
     set still answers in the cycle that stepped it.  On stop, the
     shards answer their waiting clients ("replica stopped") and every
     parked frame enters its link before the last write: a fault delays a
     frame, it never loses one it decided to deliver.  A traced host is
     its recorder's consumer: the cycle ends by draining the ring into the
     trace file, after the writes, so no reply waits on it.  Returns the
     per-shard [Done] counts and the transport stats. *)
  let run lp =
    Prelude.Os.set_timer_slack_ns 1;
    lp.now <- Prelude.Mclock.now_us ();
    Array.iteri
      (fun k sh ->
        R.control_at sh.drv ~now:lp.now ~out:lp.outs.(k) R.Start;
        if lp.recovering.(k) then
          R.control_at sh.drv ~now:lp.now ~out:lp.outs.(k) R.Recover)
      lp.shards;
    Net.Tcp_transport.flush lp.tcp ~now_us:lp.now;
    while not (Atomic.get lp.stop_flag) do
      let deadline =
        Array.fold_left
          (fun acc sh -> min acc (R.next_due sh.drv))
          (match Parked.find_min lp.parked with
          | Some p -> min p.due (min lp.next_checkpoint lp.next_watch)
          | None -> min lp.next_checkpoint lp.next_watch)
          lp.shards
      in
      Net.Tcp_transport.poll lp.tcp
        ~deadline_us:(min deadline (Net.Tcp_transport.next_wake_us lp.tcp));
      lp.now <- Prelude.Mclock.now_us ();
      fire_due lp;
      release_parked lp;
      step_inputs lp;
      fire_due lp;
      loop_timers lp lp.now;
      Net.Tcp_transport.flush lp.tcp ~now_us:lp.now;
      if fire_caught_up lp then Net.Tcp_transport.flush lp.tcp ~now_us:lp.now;
      Option.iter (fun (r, _) -> Obs.Recorder.drain r) lp.recorder
    done;
    lp.now <- Prelude.Mclock.now_us ();
    Array.iteri
      (fun k sh -> R.control_at sh.drv ~now:lp.now ~out:lp.outs.(k) R.Stop)
      lp.shards;
    release_parked ~all:true lp;
    let stats = stats lp in
    Net.Tcp_transport.flush lp.tcp ~now_us:(Prelude.Mclock.now_us ());
    (lp.answered, stats)

  (* Everything before the first cycle: the recorder (so connection races
     at startup are already traced — it is process-global, one traced host
     per process), the socket set, and each shard's durable state,
     recovered before its driver exists. *)
  let make ?(listener : Net.Tcp_transport.listener option) ?watch_parent
      ~stop_flag (cfg : config) =
    if cfg.shards < 1 then invalid_arg "Host.start: shards must be >= 1";
    let host, port = cfg.addrs.(cfg.pid) in
    let listener =
      match listener with
      | Some l -> l
      | None -> Net.Tcp_transport.listen ~host ~port
    in
    let epoch = epoch_of cfg in
    let recorder =
      match cfg.trace with
      | None -> None
      | Some path ->
          let sink, flush, close = Obs.Recorder.file_sink path in
          let r = Obs.Recorder.start ~epoch_us:epoch ~sink ~flush () in
          Obs.Recorder.install r;
          Some (r, close)
    in
    let tcp =
      Net.Tcp_transport.create ~me:cfg.pid ~addrs:cfg.addrs ~listener
        ~hello:(C.encode (C.Hello (hello_of cfg)))
        ~classify_hello:(classify_hello cfg)
        ~decode_peer:(decode_peer ~shards:cfg.shards ~me:cfg.pid)
        ~encode_peer ~lane_of ~log:cfg.log ()
    in
    let durable =
      Array.init cfg.shards (fun k ->
          Option.map (fun root -> open_store cfg root k) cfg.durable)
    in
    let shards =
      Array.init cfg.shards (fun k ->
          let recovery = Option.map (fun (_, r, _, _, _) -> r) durable.(k) in
          let chaos =
            Option.bind cfg.chaos (fun plan ->
                let scoped = Fault.Fault_plan.for_shard plan k in
                if Fault.Fault_plan.is_empty scoped then None
                else Some (Fault.Chaos_transport.create scoped))
          in
          {
            drv =
              R.driver ~params:cfg.params ?recovery
                ?fallback:(fallback_for cfg k) ?sync:(sync_for cfg k)
                ~dedup_window_us:(dedup_window_us cfg.params)
                ~offset:cfg.offset cfg.pid;
            chaos;
            store = Option.map (fun (store, _, _, _, _) -> store) durable.(k);
            admission = Net.Admission.create ();
          })
    in
    (* Restart, not genesis: announce the disk prefix; the first cycle
       steps [Recover], which asks the peers for whatever landed while we
       were down — catch-up traffic is shard-tagged like any other frame. *)
    let recovering =
      Array.mapi
        (fun k entry ->
          match entry with
          | Some (_, _, false, (folded, skipped), took) ->
              cfg.log
                (Printf.sprintf
                   "%s: recovered %d mutations from %s in %dµs; catching up%s"
                   (who cfg k) folded
                   (store_dir ~shards:cfg.shards (Option.get cfg.durable) k)
                   took
                   (if skipped = 0 then ""
                    else
                      Printf.sprintf "; skipped %d below the high-water mark"
                        skipped));
              Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Recover
                ~a:folded ~b:took ();
              true
          | Some _ | None -> false)
        durable
    in
    let now = Prelude.Mclock.now_us () in
    let lp =
      {
        cfg;
        epoch;
        tcp;
        peers =
          List.filter (( <> ) cfg.pid)
            (List.init (Array.length cfg.addrs) Fun.id);
        shards;
        outs = [||];
        tickets = Hashtbl.create 64;
        next_ticket = 0;
        conn_inflight = Hashtbl.create 8;
        now;
        stop_flag;
        recovering;
        parked = Parked.empty;
        parked_seq = 0;
        chaos_dropped = 0;
        recorder;
        watch_parent;
        next_checkpoint =
          (if cfg.snapshot_every > 0 && Array.exists (fun sh -> sh.store <> None) shards
           then now + checkpoint_every_us
           else max_int);
        next_watch =
          (if watch_parent = None then max_int else now + watch_every_us);
        answered = Array.make cfg.shards 0;
        reply_buf = Buffer.create 64;
      }
    in
    lp.outs <- Array.init cfg.shards (fun k o -> perform lp k o);
    lp

  (* After the loop: close the sockets (here, not on the loop, so a late
     {!Net.Tcp_transport.wake} from {!stop} never meets a closed pipe); no
     more [on_apply] appends, so sync what the fsync policy may still be
     buffering and close the stores; the recorder goes last, after every
     emitter is gone. *)
  let finish lp =
    Net.Tcp_transport.close lp.tcp;
    Array.iter
      (fun sh ->
        Option.iter
          (fun store ->
            Durable.Store.sync store;
            Durable.Store.close store)
          sh.store)
      lp.shards;
    match lp.recorder with
    | None -> ()
    | Some (r, close) ->
        Obs.Recorder.uninstall ();
        Obs.Recorder.stop r;
        close ()

  (* ---- in-process hosts: one loop thread each ---- *)

  type handle = {
    lp : loop;
    thread : Thread.t;
    result : (int array * T.stats, exn) result option ref;
    mutable stopped_with : (int array * T.stats) option;
  }

  let start ?listener cfg =
    let lp = make ?listener ~stop_flag:(Atomic.make false) cfg in
    let result = ref None in
    let thread =
      Thread.create
        (fun () -> result := Some (try Ok (run lp) with e -> Error e))
        ()
    in
    { lp; thread; result; stopped_with = None }

  (* Stop the loop as SIGINT does — set the flag, wake the poll — and join
     it: the shards answer every client still waiting ("replica stopped")
     before the sockets close.  Returns {!run}'s per-shard [Done] counts
     and stats (the same again on a repeated call). *)
  let stop h =
    match h.stopped_with with
    | Some r -> r
    | None -> (
        Atomic.set h.lp.stop_flag true;
        Net.Tcp_transport.wake h.lp.tcp;
        Thread.join h.thread;
        finish h.lp;
        match !(h.result) with
        | Some (Ok r) ->
            h.stopped_with <- Some r;
            r
        | Some (Error e) -> raise e
        | None -> failwith "Host.stop: the loop thread vanished")

  (* The loop's counters (cycles, [ppoll]s, reads, writes); read them
     after {!stop}. *)
  let counters h = Net.Tcp_transport.poll_counters h.lp.tcp

  (* ---- the [timebounds serve] process body ---- *)

  let run_until_signalled ?watch_parent (cfg : config) =
    let stop_flag = Atomic.make false and wake = ref ignore in
    (* The handler runs on this thread: a signal that lands during the
       poll ends it (EINTR), one that lands just before is answered by
       the wake byte. *)
    let request_stop _ =
      Atomic.set stop_flag true;
      !wake ()
    in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    (* Ignore SIGPIPE: a dead peer must surface as EPIPE on the write, not
       kill the process. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let lp = make ?watch_parent ~stop_flag cfg in
    wake := (fun () -> Net.Tcp_transport.wake lp.tcp);
    let host, port = cfg.addrs.(cfg.pid) in
    cfg.log
      (Printf.sprintf "replica %d: listening on %s:%d (%s, n=%d%s)" cfg.pid host
         port W.L.label cfg.params.Core.Params.n
         (if cfg.shards = 1 then ""
          else Printf.sprintf ", %d shards" cfg.shards));
    let answered, stats = run lp in
    finish lp;
    let total = Array.fold_left ( + ) 0 answered in
    cfg.log
      (Printf.sprintf "replica %d: stopped after %d ops; %s" cfg.pid total
         (Format.asprintf "%a" T.pp_stats stats));
    let c = Net.Tcp_transport.poll_counters lp.tcp in
    cfg.log
      (Printf.sprintf
         "replica %d: loop: %d sleeping ppolls, %d zero-timeout ppolls, %d \
          pre-sleep spins (%d caught input), %d reads, %d writes, %d cycles"
         cfg.pid c.sleeps c.zero_polls c.spins c.spins_caught c.reads c.writes
         c.cycles)
end
