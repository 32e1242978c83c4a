(** One replica as an OS process: [shards] independent Algorithm 1
    instances multiplexed over the {e same} per-peer TCP links, plus a
    client port — the body of [timebounds serve].  An unsharded replica is
    simply a host with one shard: linearizability composes, so a namespace
    of independently linearizable instances is linearizable, and nothing
    about a single instance changes when it is the only one.

    The multiplexing is the whole trick.  A host opens one outgoing
    connection per peer, and every codec-v4 frame carries its shard id.
    The TCP transport's reader threads decode each peer frame into a
    [(shard, event)] pair and put it straight into the owning shard's own
    {!Runtime.Mailbox}; self-sends take the same path.  Each shard then runs
    behind a {e facade} transport — send tags outgoing frames with the
    shard id, recv/post/depth operate on the shard's mailbox — so
    [Runtime.Replica] hosts it unchanged: the shard neither knows nor cares
    that it shares its sockets with 63 siblings.

    Client connections (first frame [Invoke] rather than [Hello]) are
    served on their accepting thread: each [Invoke] becomes a synchronous
    invocation on the addressed shard, each [Stats_req] a transport-stats
    snapshot, so invocations block the connection — not the replica loop.

    Execution vehicle: a one-shard host runs its replica on its own domain.
    With more shards the replicas run on systhreads
    ([R.node ~threaded:true]): an idle event loop blocks in [Mailbox.take]
    releasing the runtime lock, so a host carries far more shards than the
    OCaml domain ceiling would allow, at the cost of serialising CPU
    bursts.

    Per-shard isolation elsewhere:
    - durable state: a one-shard host keeps its store at the durable
      directory itself; with more shards each lives under
      [root/shard-<k>/] with a META naming the shard, so a mixed-up
      directory handoff fails loudly;
    - a chaos plan is projected per shard ({!Fault.Fault_plan.for_shard}):
      shard [k]'s facade is wrapped only when the projection is non-empty,
      so a [%k]-scoped fault never touches a sibling;
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
      (** shared clock epoch (µs on {!Prelude.Mclock}'s timeline, which is
          wall-clock based and hence comparable across local processes).
          Every replica of a cluster must use the same epoch: replica
          clocks read [now − start_us + offset], so per-process epochs
          would skew them by the process spawn deltas — far beyond the ε
          the algorithm assumes.  [None] means "now" (single-replica or
          in-process use). *)
  trace : string option;
      (** when set, install an [Obs.Recorder] writing this process's trace
          file, timestamped from [start_us] — the same epoch in every
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

  type handle = {
    transport : (int * R.event) Net.Tcp_transport.t;
    facades : R.event T.t array;  (** per-shard views, index = shard *)
    nodes : R.node array;
    recorder : (Obs.Recorder.t * (unit -> unit)) option;
        (** installed recorder and its trace-file closer *)
    stores : Durable.Store.t option array;
    snap_stop : bool Atomic.t;
    snap_thread : Thread.t option;  (** checkpoint cadence *)
    mutable handle_stopped : bool;
  }

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

  (* Frames decode to (shard, event).  This range check is the only guard
     before the shard's mailbox is indexed: the handshake guarantees
     matching topologies, so an out-of-range shard id is a corrupt or
     foreign frame and is skipped like any other undecodable one. *)
  let decode_peer ~shards ~me ~src frame =
    let ok shard = shard >= 0 && shard < shards in
    match C.decode_payload frame with
    | Ok (C.Entry { op; time; pid; trace; op_id; shard }) when ok shard ->
        Obs.Recorder.emit ~pid:me ~kind:Obs.Event.Recv ~trace ~a:src ();
        Some
          ( shard,
            R.of_wire (R.Wire_entry (entry_of ~op ~time ~pid, trace, op_id)) )
    | Ok (C.Catchup_req { time; cpid; shard }) when ok shard ->
        Some (shard, R.of_wire (R.Wire_catchup_req { time; cpid }))
    | Ok (C.Catchup_rep { entries; time; cpid; shard }) when ok shard ->
        let entries =
          List.map
            (fun (op, time, pid, op_id) -> (entry_of ~op ~time ~pid, op_id))
            entries
        in
        Some (shard, R.of_wire (R.Wire_catchup_rep { entries; time; cpid }))
    | Ok (C.Hb { stamp; epoch; qmode; seq; floor; ack; want; shard })
      when ok shard ->
        Some
          ( shard,
            R.of_wire
              (R.Wire_quorum
                 (R.Hb { stamp; epoch; qmode; seq; floor; ack; want })) )
    | Ok (C.Forward { qid; origin; op; op_id; trace; shard }) when ok shard ->
        Some
          ( shard,
            R.of_wire
              (R.Wire_quorum (R.Forward { qid; origin; op; op_id; trace })) )
    | Ok (C.Propose { epoch; qseq; time; origin; qid; op; op_id; trace; shard })
      when ok shard ->
        Some
          ( shard,
            R.of_wire
              (R.Wire_quorum
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
                    })) )
    | Ok (C.Qack { epoch; qseq; shard }) when ok shard ->
        Some (shard, R.of_wire (R.Wire_quorum (R.Qack { epoch; qseq })))
    | Ok (C.Qcommit { epoch; qseq; shard }) when ok shard ->
        Some (shard, R.of_wire (R.Wire_quorum (R.Qcommit { epoch; qseq })))
    | Ok (C.Fnack { qid; shard }) when ok shard ->
        Some (shard, R.of_wire (R.Wire_quorum (R.Fnack { qid })))
    | Ok (C.Qfill { epoch; from_seq; shard }) when ok shard ->
        Some (shard, R.of_wire (R.Wire_quorum (R.Qfill { epoch; from_seq })))
    | Ok (C.Ping { seq; t0; shard }) when ok shard ->
        Some (shard, R.of_wire (R.Wire_sync (R.Sping { seq; t0 })))
    | Ok (C.Pong { seq; t0; t_rx; t_tx; shard }) when ok shard ->
        Some (shard, R.of_wire (R.Wire_sync (R.Spong { seq; t0; t_rx; t_tx })))
    | Ok _ | Error _ -> None

  let encode_peer (shard, ev) =
    match R.wire_view ev with
    | Some (R.Wire_entry ((e : R.Alg.entry), trace, op_id)) ->
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
    | Some (R.Wire_catchup_req { time; cpid }) ->
        C.encode (C.Catchup_req { time; cpid; shard })
    | Some (R.Wire_catchup_rep { entries; time; cpid }) ->
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
    | Some (R.Wire_quorum q) ->
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
    | Some (R.Wire_sync s) ->
        C.encode
          (match s with
          | R.Sping { seq; t0 } -> C.Ping { seq; t0; shard }
          | R.Spong { seq; t0; t_rx; t_tx } ->
              C.Pong { seq; t0; t_rx; t_tx; shard })
    | None ->
        (* Invoke/Stop/… are local-only events; the replica never sends
           them, so reaching here is a wiring bug. *)
        invalid_arg "Host.encode_peer: local event on the wire"

  (* Wire-lane classification: heartbeats (doubling as mode announcements),
     sync probes, and catch-up frames ride the control lane so every
     shard's failure detector and ε estimator stay live when data load —
     possibly one hot shard's — saturates the shared links; everything else
     (entries, quorum ordering traffic) is data and may be shed under
     overload. *)
  let lane_of (_shard, ev) =
    match R.wire_view ev with
    | Some (R.Wire_quorum (R.Hb _))
    | Some (R.Wire_sync _)
    | Some (R.Wire_catchup_req _)
    | Some (R.Wire_catchup_rep _) ->
        Net.Lanes.Ctrl
    | Some _ | None -> Net.Lanes.Data

  (* Shard [k]'s view of the shared transport.  [send] rides the real
     links with the shard tag; [post]/[recv]/[depth] are the shard's own
     mailbox (the transport's readers feed it); [close] is a no-op — the
     host owns the one real close. *)
  let facade_of ~n ~tcp ~mbox ~shard =
    {
      T.n;
      send =
        (fun ~src:_ ~dst ~trace ev ->
          Net.Tcp_transport.send tcp ~dst ~trace (shard, ev));
      post =
        (fun ~src ~dst:_ ev ->
          Runtime.Mailbox.put mbox ~deliver_at:(Prelude.Mclock.now_us ())
            (src, ev));
      recv = (fun ~me:_ ~deadline -> Runtime.Mailbox.take mbox ~deadline);
      depth = (fun ~me:_ -> Runtime.Mailbox.length mbox);
      stats = (fun () -> Net.Tcp_transport.stats tcp);
      close = (fun () -> ());
    }

  let wrap_chaos cfg shard facade =
    match cfg.chaos with
    | None -> facade
    | Some plan ->
        let scoped = Fault.Fault_plan.for_shard plan shard in
        if Fault.Fault_plan.is_empty scoped then facade
        else
          let w =
            Fault.Chaos_transport.wrapper (Fault.Chaos_transport.create scoped)
          in
          w.T.wrap ~start_us:(epoch_of cfg) facade

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

  (* Open shard [k]'s store and turn what it recovered into the node's
     recovery config.  Returns the store, the recovery, whether the store
     was fresh (genesis), the replayed mutation count and the time taken. *)
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
        let snap = P.recovered_of recovered in
        let rs =
          {
            R.r_obj = snap.P.s_obj;
            r_applied =
              List.map
                (fun (a : P.applied) ->
                  ( entry_of ~op:a.P.op ~time:a.P.time ~pid:a.P.pid,
                    a.P.result,
                    a.P.op_id ))
                snap.P.s_applied;
          }
        in
        let on_apply (e : R.Alg.entry) result op_id =
          Durable.Store.append store
            (P.encode_record
               {
                 P.op = e.R.Alg.op;
                 time = e.R.Alg.ts.Prelude.Stamp.time;
                 pid = e.R.Alg.ts.Prelude.Stamp.pid;
                 op_id;
                 result;
               })
        in
        let recovery =
          {
            R.catchup_wait_us =
              cfg.params.Core.Params.d + cfg.params.Core.Params.eps
              + catchup_grace_us;
            on_apply;
            recovered = Some rs;
          }
        in
        ( store,
          recovery,
          recovered.Durable.Store.r_fresh,
          List.length snap.P.s_applied,
          Prelude.Mclock.now_us () - t0 )

  (* Checkpoint: capture a consistent cut inside the replica loop (the
     same thread as the [on_apply] appends, so capture and rotation cannot
     race an append) and fold the WAL into a snapshot. *)
  let checkpoint cfg facade store =
    R.request_snapshot facade ~pid:cfg.pid (fun view ->
        let folded = Durable.Store.records_since_snapshot store in
        Durable.Store.snapshot store
          (P.encode_snapshot
             {
               P.s_obj = view.R.v_obj;
               s_hwm_time = view.R.v_hwm_time;
               s_hwm_pid = view.R.v_hwm_pid;
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
                   view.R.v_applied;
             });
        Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Checkpoint ~a:folded
          ~b:(Durable.Store.generation store)
          ())

  let start ?(listener : Net.Tcp_transport.listener option) (cfg : config) =
    if cfg.shards < 1 then invalid_arg "Host.start: shards must be >= 1";
    let host, port = cfg.addrs.(cfg.pid) in
    let listener =
      match listener with
      | Some l -> l
      | None -> Net.Tcp_transport.listen ~host ~port
    in
    (* The nodes are created after the transport, so client connections
       that race startup briefly spin on [facades_ref]. *)
    let facades_ref = ref None in
    let rec the_facades () =
      match !facades_ref with
      | Some f -> f
      | None ->
          Prelude.Mclock.sleep_us 1_000;
          the_facades ()
    in
    (* One admission controller per shard: shards have independent service
       rates (their own nodes, stores, quorum modes), so one saturated
       shard sheds without starving its siblings' budgets. *)
    let admissions =
      Array.init cfg.shards (fun _ -> Net.Admission.create ())
    in
    let on_client ~first conn =
      let reply msg = Net.Tcp_transport.conn_write conn (C.encode msg) in
      let handle_frame frame =
        match C.decode_payload frame with
        | Ok (C.Invoke { op; trace; op_id; shard; deadline }) -> (
            if shard < 0 || shard >= cfg.shards then
              reply
                (C.Error_msg
                   (Printf.sprintf "no shard %d here (host has %d)" shard
                      cfg.shards))
            else
              let now = Prelude.Mclock.now_us () in
              if deadline > 0 && now > deadline then begin
                (* Already late at the door: executing it would be dead
                   work the client stopped waiting for. *)
                Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Shed ~trace
                  ~a:Obs.Event.shed_deadline ~b:shard ();
                reply (C.Shed { reason = "shed: deadline passed"; shard })
              end
              else
                match
                  Net.Admission.try_admit admissions.(shard) ~now_us:now
                    ~deadline_us:deadline
                with
                | Net.Admission.Shed reason ->
                    Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Shed ~trace
                      ~a:Obs.Event.shed_admission ~b:shard ();
                    reply (C.Shed { reason; shard })
                | Net.Admission.Admitted -> (
                    let facades = the_facades () in
                    let finish () =
                      Net.Admission.finish admissions.(shard)
                        ~elapsed_us:(Prelude.Mclock.now_us () - now)
                    in
                    match
                      R.invoke_on ~trace ~op_id ~deadline facades.(shard)
                        ~pid:cfg.pid op
                    with
                    | r ->
                        finish ();
                        reply (C.Result { result = r; shard })
                    | exception R.Stopped ->
                        finish ();
                        reply (C.Error_msg "replica stopped")
                    | exception R.Retry_later why ->
                        finish ();
                        (* The client must back off and retry with the same
                           op id; [Client.retryable] recognises both
                           answers.  A "shed: ..." refusal (replica-side
                           deadline check) travels as the dedicated frame —
                           the replica already emitted its own [Shed]
                           event. *)
                        if
                          String.length why >= 4
                          && String.sub why 0 4 = "shed"
                        then reply (C.Shed { reason = why; shard })
                        else reply (C.Error_msg ("retry: " ^ why))))
        | Ok C.Stats_req ->
            let stats =
              match !facades_ref with
              | Some facades -> T.stats facades.(0)
              | None -> { T.sent = 0; dropped = 0; link = Some T.no_links }
            in
            reply (C.Stats stats)
        | Ok m ->
            ignore
              (reply
                 (C.Error_msg (Format.asprintf "unexpected frame %a" C.pp_msg m)));
            false
        | Error e ->
            ignore (reply (C.Error_msg ("bad frame: " ^ e)));
            false
      in
      let rec loop frame =
        if handle_frame frame then
          match Net.Tcp_transport.conn_read_frame conn with
          | Some next -> loop next
          | None -> ()
      in
      loop first
    in
    (* The recorder goes in before the transport so connection races at
       startup are already traced.  It is process-global: one traced host
       per process (the in-process test harness passes [trace = None]). *)
    let recorder =
      match cfg.trace with
      | None -> None
      | Some path ->
          let sink, flush, close = Obs.Recorder.file_sink path in
          let r = Obs.Recorder.start ~epoch_us:(epoch_of cfg) ~sink ~flush () in
          Obs.Recorder.install r;
          Some (r, close)
    in
    let mboxes = Array.init cfg.shards (fun _ -> Runtime.Mailbox.create ()) in
    let deliver ~src (shard, ev) =
      Runtime.Mailbox.put mboxes.(shard) ~deliver_at:(Prelude.Mclock.now_us ())
        (src, ev)
    in
    let transport =
      Net.Tcp_transport.create ~me:cfg.pid ~addrs:cfg.addrs ~listener
        ~hello:(C.encode (C.Hello (hello_of cfg)))
        ~classify_hello:(classify_hello cfg)
        ~decode_peer:(decode_peer ~shards:cfg.shards ~me:cfg.pid)
        ~encode_peer ~deliver ~on_client ~lane_of ~log:cfg.log ()
    in
    let n = Array.length cfg.addrs in
    let facades =
      Array.init cfg.shards (fun k ->
          wrap_chaos cfg k
            (facade_of ~n ~tcp:transport ~mbox:mboxes.(k) ~shard:k))
    in
    (* Durable state per shard, recovered before its node exists: the node
       seeds its object, dedup tables and high-water mark from the
       recovered prefix, then (on a restart rather than genesis) catches up
       from peers through its own facade — catch-up traffic is shard-tagged
       like any other frame. *)
    let durable =
      Array.init cfg.shards (fun k ->
          Option.map (fun root -> open_store cfg root k) cfg.durable)
    in
    let nodes =
      Array.init cfg.shards (fun k ->
          let recovery = Option.map (fun (_, r, _, _, _) -> r) durable.(k) in
          R.node ~params:cfg.params ~transport:facades.(k) ~pid:cfg.pid
            ~offset:cfg.offset ?start_us:cfg.start_us
            ~threaded:(cfg.shards > 1) ?recovery ?fallback:(fallback_for cfg k)
            ?sync:(sync_for cfg k) ())
    in
    facades_ref := Some facades;
    let stores =
      Array.mapi
        (fun k entry ->
          match entry with
          | None -> None
          | Some (store, _, fresh, replayed, took) ->
              if not fresh then begin
                (* Restart, not genesis: announce the disk prefix and ask
                   the peers for whatever landed while we were down. *)
                R.post_recover facades.(k) ~pid:cfg.pid;
                cfg.log
                  (Printf.sprintf
                     "%s: recovered %d mutations from %s in %dµs; catching up"
                     (who cfg k) replayed
                     (store_dir ~shards:cfg.shards (Option.get cfg.durable) k)
                     took);
                Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Recover
                  ~a:replayed ~b:took ()
              end;
              Some store)
        durable
    in
    let snap_stop = Atomic.make false in
    let snap_thread =
      if cfg.snapshot_every > 0 && Array.exists Option.is_some stores then
        (* One cadence thread polls every shard's WAL length — 200 ms per
           sweep bounds checkpoint lag without a thread per shard. *)
        Some
          (Thread.create
             (fun () ->
               while not (Atomic.get snap_stop) do
                 Prelude.Mclock.sleep_us 200_000;
                 if not (Atomic.get snap_stop) then
                   Array.iteri
                     (fun k store ->
                       match store with
                       | Some store
                         when Durable.Store.records_since_snapshot store
                              >= cfg.snapshot_every ->
                           checkpoint cfg facades.(k) store
                       | _ -> ())
                     stores
               done)
             ())
      else None
    in
    {
      transport;
      facades;
      nodes;
      recorder;
      stores;
      snap_stop;
      snap_thread;
      handle_stopped = false;
    }

  (* Stop order matters: cancelling the nodes first wakes client-handler
     threads blocked on invocation cells, so closing the transport (which
     joins its threads) cannot hang behind them.  The recorder is torn
     down last, after every emitting thread is gone.  Returns per-shard
     completed-operation records. *)
  let stop handle =
    if not handle.handle_stopped then begin
      handle.handle_stopped <- true;
      Atomic.set handle.snap_stop true;
      let records = Array.map R.node_stop handle.nodes in
      Option.iter Thread.join handle.snap_thread;
      let stats = T.stats handle.facades.(0) in
      Net.Tcp_transport.close handle.transport;
      (* The nodes are joined, so no more [on_apply] appends: sync what the
         fsync policy may still be buffering, then close. *)
      Array.iter
        (Option.iter (fun store ->
             Durable.Store.sync store;
             Durable.Store.close store))
        handle.stores;
      (match handle.recorder with
      | None -> ()
      | Some (r, close) ->
          Obs.Recorder.uninstall ();
          Obs.Recorder.stop r;
          close ());
      (records, stats)
    end
    else ([||], T.stats handle.facades.(0))

  (* ---- the [timebounds serve] process body ---- *)

  let run_until_signalled ?watch_parent (cfg : config) =
    let stop_requested = Atomic.make false in
    let request_stop _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    (* Ignore SIGPIPE: a dead peer must surface as EPIPE on the write, not
       kill the process. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let handle = start cfg in
    let host, port = cfg.addrs.(cfg.pid) in
    cfg.log
      (Printf.sprintf "replica %d: listening on %s:%d (%s, n=%d%s)" cfg.pid host
         port W.L.label cfg.params.Core.Params.n
         (if cfg.shards = 1 then ""
          else Printf.sprintf ", %d shards" cfg.shards));
    let parent_alive () =
      match watch_parent with
      | None -> true
      | Some pid -> (
          match Unix.kill pid 0 with () -> true | exception _ -> false)
    in
    let rec wait () =
      if Atomic.get stop_requested then ()
      else if not (parent_alive ()) then
        cfg.log (Printf.sprintf "replica %d: parent gone, exiting" cfg.pid)
      else begin
        Prelude.Mclock.sleep_us 100_000;
        wait ()
      end
    in
    wait ();
    let records, stats = stop handle in
    let total = Array.fold_left (fun k rs -> k + List.length rs) 0 records in
    cfg.log
      (Printf.sprintf "replica %d: stopped after %d ops; %s" cfg.pid total
         (Format.asprintf "%a" T.pp_stats stats))
end
