(** One replica of a {e sharded} namespace as an OS process: [shards]
    independent Algorithm 1 instances multiplexed over the {e same}
    per-peer TCP links — the body of [timebounds shards serve].

    The multiplexing is the whole trick.  A host opens exactly the link
    topology an unsharded [Net.Serve] stack does (one outgoing connection
    per peer), and every codec-v4 frame carries its shard id; a dispatcher
    thread drains the TCP transport's mailbox and routes each decoded
    message into the owning shard's own {!Runtime.Mailbox}.  Each shard
    then runs behind a {e facade} transport — send tags outgoing frames
    with the shard id, recv/post/depth operate on the shard's mailbox —
    so [Runtime.Replica] hosts it unchanged: the shard neither knows nor
    cares that it shares its sockets with 63 siblings.

    Shard replicas run on systhreads ([R.node ~threaded:true]), not
    domains: an idle event loop blocks in [Mailbox.take] releasing the
    runtime lock, so a host carries far more shards than the OCaml domain
    ceiling would allow, at the cost of serialising CPU bursts.

    Per-shard isolation elsewhere:
    - durable state lives under [root/shard-<k>/], each its own
      {!Durable.Store} whose META names the shard — a mixed-up directory
      handoff fails loudly;
    - a chaos plan is projected per shard ({!Fault.Fault_plan.for_shard}):
      shard [k]'s facade is wrapped only when the projection is non-empty,
      so a [%k]-scoped fault never touches a sibling;
    - correctness is per shard by construction: linearizability is
      compositional, so [shards] independently linearizable instances are
      a linearizable namespace (checked shard-by-shard post hoc). *)

module T = Runtime.Transport_intf

type config = {
  pid : int;
  shards : int;
  addrs : (string * int) array;  (** every replica's address, index = pid *)
  params : Core.Params.t;  (** effective (slack already folded into d, u) *)
  offset : int;  (** this replica's clock offset, µs *)
  start_us : int option;  (** shared cluster epoch (see [Net.Serve]) *)
  trace : string option;  (** observability trace file for this process *)
  durable : string option;  (** durable {e root}; shards get subdirs *)
  fsync : Durable.Wal.fsync;
  snapshot_every : int;
  chaos : Fault.Fault_plan.t option;  (** projected per shard *)
  fallback : Quorum.Config.t option;
      (** arm the adaptive quorum fallback on every shard: each Algorithm 1
          instance runs its own failure detector and mode controller, so
          shards degrade (and recover) independently *)
  log : string -> unit;
}

let catchup_grace_us = 1_500_000

module Make (W : Net.Wire.WIRED) = struct
  module C = Net.Codec.Make (W.C)
  module R = Runtime.Replica.Make (W.L.D)
  module P = Net.Persist.Make (W.C)

  type handle = {
    config : config;
    transport : (int * R.event) T.t;  (** the shared TCP transport *)
    facades : R.event T.t array;  (** per-shard views, index = shard *)
    nodes : R.node array;
    dispatcher : Thread.t;
    dispatcher_on : bool Atomic.t;
    recorder : (Obs.Recorder.t * (unit -> unit)) option;
    stores : Durable.Store.t option array;
    snap_stop : bool Atomic.t;
    snap_thread : Thread.t option;
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

  (* Same peer admission as [Net.Serve] plus the shard-topology check: two
     hosts disagreeing on the shard count would route frames to the wrong
     instances, so the handshake rejects the pairing outright. *)
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

  (* Frames decode to (shard, event); the handshake guarantees matching
     topologies, so an out-of-range shard id is a corrupt/foreign frame
     and is skipped like any other undecodable one. *)
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
    | None -> invalid_arg "Host.encode_peer: local event on the wire"

  (* Same lane policy as [Net.Serve], applied to the multiplexed (shard,
     event) frames: control traffic (heartbeats, sync probes, catch-up)
     preempts data so every shard's failure detector stays live when one
     shard's load saturates the shared links. *)
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
     mailbox (the dispatcher feeds it); [close] is a no-op — the host owns
     the one real close. *)
  let facade_of ~real ~mbox ~shard =
    {
      T.n = real.T.n;
      send = (fun ~src ~dst ~trace ev -> real.T.send ~src ~dst ~trace (shard, ev));
      post =
        (fun ~src ~dst:_ ev ->
          Runtime.Mailbox.put mbox ~deliver_at:(Prelude.Mclock.now_us ())
            (src, ev));
      recv = (fun ~me:_ ~deadline -> Runtime.Mailbox.take mbox ~deadline);
      depth = (fun ~me:_ -> Runtime.Mailbox.length mbox);
      stats = real.T.stats;
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
          let start_us =
            match cfg.start_us with
            | Some s -> s
            | None -> Prelude.Mclock.now_us ()
          in
          w.T.wrap ~start_us facade

  let shard_dir root k = Filename.concat root (Printf.sprintf "shard-%d" k)

  let start ?(listener : Net.Tcp_transport.listener option) (cfg : config) =
    if cfg.shards < 1 then invalid_arg "Host.start: shards must be >= 1";
    let host, port = cfg.addrs.(cfg.pid) in
    let listener =
      match listener with
      | Some l -> l
      | None -> Net.Tcp_transport.listen ~host ~port
    in
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
                        if
                          String.length why >= 4
                          && String.sub why 0 4 = "shed"
                        then reply (C.Shed { reason = why; shard })
                        else reply (C.Error_msg ("retry: " ^ why))))
        | Ok C.Stats_req ->
            let stats =
              match !facades_ref with
              | Some facades when Array.length facades > 0 ->
                  T.stats facades.(0)
              | _ -> { T.sent = 0; dropped = 0; link = Some T.no_links }
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
    let recorder =
      match cfg.trace with
      | None -> None
      | Some path ->
          let epoch_us =
            match cfg.start_us with
            | Some s -> s
            | None -> Prelude.Mclock.now_us ()
          in
          let sink, flush, close = Obs.Recorder.file_sink path in
          let r = Obs.Recorder.start ~epoch_us ~sink ~flush () in
          Obs.Recorder.install r;
          Some (r, close)
    in
    let transport =
      Net.Tcp_transport.create ~me:cfg.pid ~addrs:cfg.addrs ~listener
        ~hello:(C.encode (C.Hello (hello_of cfg)))
        ~classify_hello:(classify_hello cfg)
        ~decode_peer:(decode_peer ~shards:cfg.shards ~me:cfg.pid)
        ~encode_peer ~on_client ~lane_of ~log:cfg.log ()
    in
    let mboxes = Array.init cfg.shards (fun _ -> Runtime.Mailbox.create ()) in
    (* The dispatcher is the only consumer of the shared transport's
       mailbox: it fans decoded (shard, event) messages out to the owning
       shard.  Bounded-deadline recv keeps it responsive to shutdown. *)
    let dispatcher_on = Atomic.make true in
    let dispatcher =
      Thread.create
        (fun () ->
          while Atomic.get dispatcher_on do
            let deadline = Some (Prelude.Mclock.now_us () + 50_000) in
            match T.recv transport ~me:cfg.pid ~deadline with
            | Some (src, (shard, ev)) when shard >= 0 && shard < cfg.shards ->
                Runtime.Mailbox.put mboxes.(shard)
                  ~deliver_at:(Prelude.Mclock.now_us ())
                  (src, ev)
            | _ -> ()
          done)
        ()
    in
    let facades =
      Array.init cfg.shards (fun k ->
          wrap_chaos cfg k (facade_of ~real:transport ~mbox:mboxes.(k) ~shard:k))
    in
    (* Durable state per shard, recovered before its node exists.  The
       whole-host restart then announces each non-fresh shard to the peers
       through its own facade — catch-up traffic is shard-tagged like any
       other frame. *)
    let durable =
      Array.init cfg.shards (fun k ->
          match cfg.durable with
          | None -> None
          | Some root ->
              let dir = shard_dir root k in
              let meta =
                Printf.sprintf
                  "timebounds replica=%d shard=%d obj=%d n=%d shards=%d"
                  cfg.pid k W.C.obj_tag cfg.params.Core.Params.n cfg.shards
              in
              (match Durable.Store.open_ ~dir ~meta ~fsync:cfg.fsync with
              | Error e ->
                  cfg.log
                    (Printf.sprintf "replica %d shard %d: %s" cfg.pid k e);
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
                  Some
                    ( store,
                      recovery,
                      recovered.Durable.Store.r_fresh,
                      List.length snap.P.s_applied )))
    in
    let nodes =
      Array.init cfg.shards (fun k ->
          let recovery = Option.map (fun (_, r, _, _) -> r) durable.(k) in
          let fallback =
            Option.map
              (fun (q : Quorum.Config.t) ->
                {
                  q with
                  Quorum.Config.on_mode =
                    (fun ~quorum ~epoch ~seq ->
                      cfg.log
                        (Printf.sprintf
                           "replica %d shard %d: mode: %s(epoch=%d seq=%d)"
                           cfg.pid k
                           (if quorum then "quorum" else "fast")
                           epoch seq);
                      q.Quorum.Config.on_mode ~quorum ~epoch ~seq);
                })
              cfg.fallback
          in
          R.node ~params:cfg.params ~transport:facades.(k) ~pid:cfg.pid
            ~offset:cfg.offset ?start_us:cfg.start_us ~threaded:true ?recovery
            ?fallback ())
    in
    facades_ref := Some facades;
    let stores =
      Array.mapi
        (fun k entry ->
          match entry with
          | None -> None
          | Some (store, _, fresh, replayed) ->
              if not fresh then begin
                R.post_recover facades.(k) ~pid:cfg.pid;
                cfg.log
                  (Printf.sprintf
                     "replica %d shard %d: recovered %d mutations; catching up"
                     cfg.pid k replayed);
                Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Recover
                  ~a:replayed ~b:k ()
              end;
              Some store)
        durable
    in
    let snap_stop = Atomic.make false in
    let snap_thread =
      if cfg.snapshot_every > 0 && Array.exists Option.is_some stores then
        (* One cadence thread sweeps every shard's store — 200 ms per
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
                           R.request_snapshot facades.(k) ~pid:cfg.pid
                             (fun view ->
                               let folded =
                                 Durable.Store.records_since_snapshot store
                               in
                               Durable.Store.snapshot store
                                 (P.encode_snapshot
                                    {
                                      P.s_obj = view.R.v_obj;
                                      s_hwm_time = view.R.v_hwm_time;
                                      s_hwm_pid = view.R.v_hwm_pid;
                                      s_applied =
                                        List.map
                                          (fun ((e : R.Alg.entry), result,
                                                op_id) ->
                                            {
                                              P.op = e.R.Alg.op;
                                              time =
                                                e.R.Alg.ts.Prelude.Stamp.time;
                                              pid =
                                                e.R.Alg.ts.Prelude.Stamp.pid;
                                              op_id;
                                              result;
                                            })
                                          view.R.v_applied;
                                    });
                               Obs.Recorder.emit ~pid:cfg.pid
                                 ~kind:Obs.Event.Checkpoint ~a:folded
                                 ~b:(Durable.Store.generation store)
                                 ())
                       | _ -> ())
                     stores
               done)
             ())
      else None
    in
    {
      config = cfg;
      transport;
      facades;
      nodes;
      dispatcher;
      dispatcher_on;
      recorder;
      stores;
      snap_stop;
      snap_thread;
      handle_stopped = false;
    }

  (* Stop order: shard nodes first (wakes any client handler blocked on an
     invocation cell), then the dispatcher and the shared transport, then
     the stores, the recorder last.  Returns per-shard completed-operation
     records. *)
  let stop handle =
    if not handle.handle_stopped then begin
      handle.handle_stopped <- true;
      Atomic.set handle.snap_stop true;
      let records = Array.map R.node_stop handle.nodes in
      Option.iter Thread.join handle.snap_thread;
      Atomic.set handle.dispatcher_on false;
      Thread.join handle.dispatcher;
      let stats = T.stats handle.transport in
      T.close handle.transport;
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
    else ([||], T.stats handle.transport)

  let stats handle = T.stats handle.transport

  (* ---- the [timebounds shards serve] process body ---- *)

  let run (cfg : config) =
    let stop_requested = Atomic.make false in
    let request_stop _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let handle = start cfg in
    let host, port = cfg.addrs.(cfg.pid) in
    cfg.log
      (Printf.sprintf "replica %d: hosting %d shards on %s:%d (%s, n=%d)"
         cfg.pid cfg.shards host port W.L.label cfg.params.Core.Params.n);
    let watched_parent = ref None in
    let set_watch pid = watched_parent := Some pid in
    let parent_alive () =
      match !watched_parent with
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
    (set_watch, wait, handle)

  let run_until_signalled ?watch_parent (cfg : config) =
    let set_watch, wait, handle = run cfg in
    (match watch_parent with Some p -> set_watch p | None -> ());
    wait ();
    let records, stats = stop handle in
    let total = Array.fold_left (fun k rs -> k + List.length rs) 0 records in
    cfg.log
      (Printf.sprintf "replica %d: stopped after %d ops over %d shards; %s"
         cfg.pid total cfg.shards
         (Format.asprintf "%a" T.pp_stats stats))
end
