(** One Algorithm 1 replica as an OS process: the TCP transport, a single
    {!Runtime.Replica} node on its own domain, and a client port — the
    body of [timebounds serve].

    Wiring: the replica's event type is opaque ([Replica.Make(D).event]);
    only its [net] (protocol entry) events cross the wire, encoded as
    {!Codec} [Entry] frames.  Client connections (first frame [Invoke]
    rather than [Hello]) are served on their accepting thread: each
    [Invoke] becomes a synchronous [node_invoke], each [Stats_req] a
    transport-stats snapshot, so invocations block the connection — not
    the replica loop — exactly like the in-process client cells.

    A {!handle} is separable from the CLI so an in-process caller (the
    [tcp_cluster] example, the tests) can run several replica stacks in
    one process on ephemeral ports. *)

type config = {
  pid : int;
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
      (** this replica's durable directory ({!Durable.Store}): WAL every
          applied mutation, checkpoint periodically, and on start recover
          the prefix and catch up from peers.  [None] = memory-only (the
          pre-PR-5 behaviour). *)
  fsync : Durable.Wal.fsync;  (** WAL durability policy (when [durable]) *)
  snapshot_every : int;
      (** checkpoint after this many WAL records (≤ 0 = never snapshot) *)
  fallback : Quorum.Config.t option;
      (** arm the adaptive quorum fallback ([--fallback quorum]): the
          replica heartbeats its peers, runs the fast path behind the
          response release gate while timing holds, and degrades to the
          sequencer/majority mode when a peer is suspected dead.  The
          configured [on_mode]/[on_suspect] hooks are composed with this
          stack's own logging (the "mode: quorum(...)" lines CI greps). *)
  sync : Sync.Config.t option;
      (** arm live clock synchronization ([--sync on]): the replica
          exchanges timestamped ping/pong probes with its peers, slews a
          corrected clock toward the Lundelius–Lynch midpoint average, and
          publishes its achieved ε each round.  The configured [on_eps]
          hook is composed with this stack's own logging (the
          "sync eps=..." lines the CI sync smoke greps). *)
  log : string -> unit;
}

(* How long a restarted replica waits for peer catch-up replies before
   giving up on the missing ones: the algorithm's own propagation bound
   plus a generous allowance for TCP reconnection — peers may themselves
   be mid-restart.  The freeze ends as soon as every peer answers, so the
   constant only caps the unresponsive-peer case. *)
let catchup_grace_us = 1_500_000

module Make (W : Wire.WIRED) = struct
  module C = Codec.Make (W.C)
  module R = Runtime.Replica.Make (W.L.D)
  module P = Persist.Make (W.C)

  type handle = {
    config : config;
    transport : R.event Runtime.Transport_intf.t;
    node : R.node;
    recorder : (Obs.Recorder.t * (unit -> unit)) option;
        (** installed recorder and its trace-file closer *)
    store : Durable.Store.t option;
    snap_stop : bool Atomic.t;
    snap_thread : Thread.t option;  (** checkpoint cadence *)
    mutable handle_stopped : bool;
  }

  let hello_of cfg =
    {
      Codec.pid = cfg.pid;
      n = cfg.params.Core.Params.n;
      d = cfg.params.Core.Params.d;
      u = cfg.params.Core.Params.u;
      eps = cfg.params.Core.Params.eps;
      x = cfg.params.Core.Params.x;
      obj_tag = W.C.obj_tag;
      shards = 0;
    }

  (* Accept a peer iff it runs the same protocol instance: same object,
     same (n, d, u, ε, X).  A mismatched peer would silently break the
     admissibility assumptions, so it is rejected loudly instead. *)
  let classify_hello cfg frame =
    match C.decode_payload frame with
    | Ok (C.Hello h) ->
        let mine = hello_of cfg in
        if h.Codec.obj_tag <> mine.Codec.obj_tag then
          Tcp_transport.Reject
            (Printf.sprintf "object mismatch (peer %d, ours %d)"
               h.Codec.obj_tag mine.Codec.obj_tag)
        else if
          h.Codec.n <> mine.Codec.n
          || h.Codec.d <> mine.Codec.d
          || h.Codec.u <> mine.Codec.u
          || h.Codec.eps <> mine.Codec.eps
          || h.Codec.x <> mine.Codec.x
        then
          Tcp_transport.Reject
            (Printf.sprintf
               "parameter mismatch: peer %d has (n=%d d=%d u=%d eps=%d x=%d)"
               h.Codec.pid h.Codec.n h.Codec.d h.Codec.u h.Codec.eps h.Codec.x)
        else if h.Codec.shards <> mine.Codec.shards then
          Tcp_transport.Reject
            (Printf.sprintf "shard topology mismatch (peer %d, ours %d)"
               h.Codec.shards mine.Codec.shards)
        else if h.Codec.pid < 0 || h.Codec.pid >= mine.Codec.n then
          Tcp_transport.Reject (Printf.sprintf "bad peer pid %d" h.Codec.pid)
        else Tcp_transport.Peer h.Codec.pid
    | Ok _ -> Tcp_transport.Client
    | Error e -> Tcp_transport.Reject ("bad handshake: " ^ e)

  let entry_of ~op ~time ~pid =
    { R.Alg.op; ts = Prelude.Stamp.make ~time ~pid }

  (* An unsharded serve stack only hosts shard 0; frames tagged for any
     other shard indicate a topology mismatch upstream and are dropped. *)
  let decode_peer ~me ~src frame =
    match C.decode_payload frame with
    | Ok (C.Entry { op; time; pid; trace; op_id; shard = 0 }) ->
        Obs.Recorder.emit ~pid:me ~kind:Obs.Event.Recv ~trace ~a:src ();
        Some (R.of_wire (R.Wire_entry (entry_of ~op ~time ~pid, trace, op_id)))
    | Ok (C.Catchup_req { time; cpid; shard = 0 }) ->
        Some (R.of_wire (R.Wire_catchup_req { time; cpid }))
    | Ok (C.Catchup_rep { entries; time; cpid; shard = 0 }) ->
        let entries =
          List.map
            (fun (op, time, pid, op_id) -> (entry_of ~op ~time ~pid, op_id))
            entries
        in
        Some (R.of_wire (R.Wire_catchup_rep { entries; time; cpid }))
    | Ok (C.Hb { stamp; epoch; qmode; seq; floor; ack; want; shard = 0 }) ->
        Some
          (R.of_wire
             (R.Wire_quorum (R.Hb { stamp; epoch; qmode; seq; floor; ack; want })))
    | Ok (C.Forward { qid; origin; op; op_id; trace; shard = 0 }) ->
        Some (R.of_wire (R.Wire_quorum (R.Forward { qid; origin; op; op_id; trace })))
    | Ok (C.Propose { epoch; qseq; time; origin; qid; op; op_id; trace; shard = 0 })
      ->
        Some
          (R.of_wire
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
                   })))
    | Ok (C.Qack { epoch; qseq; shard = 0 }) ->
        Some (R.of_wire (R.Wire_quorum (R.Qack { epoch; qseq })))
    | Ok (C.Qcommit { epoch; qseq; shard = 0 }) ->
        Some (R.of_wire (R.Wire_quorum (R.Qcommit { epoch; qseq })))
    | Ok (C.Fnack { qid; shard = 0 }) ->
        Some (R.of_wire (R.Wire_quorum (R.Fnack { qid })))
    | Ok (C.Qfill { epoch; from_seq; shard = 0 }) ->
        Some (R.of_wire (R.Wire_quorum (R.Qfill { epoch; from_seq })))
    | Ok (C.Ping { seq; t0; shard = 0 }) ->
        Some (R.of_wire (R.Wire_sync (R.Sping { seq; t0 })))
    | Ok (C.Pong { seq; t0; t_rx; t_tx; shard = 0 }) ->
        Some (R.of_wire (R.Wire_sync (R.Spong { seq; t0; t_rx; t_tx })))
    | Ok _ | Error _ -> None

  let encode_peer ev =
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
               shard = 0;
             })
    | Some (R.Wire_catchup_req { time; cpid }) ->
        C.encode (C.Catchup_req { time; cpid; shard = 0 })
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
        C.encode (C.Catchup_rep { entries; time; cpid; shard = 0 })
    | Some (R.Wire_quorum q) ->
        C.encode
          (match q with
          | R.Hb { stamp; epoch; qmode; seq; floor; ack; want } ->
              C.Hb { stamp; epoch; qmode; seq; floor; ack; want; shard = 0 }
          | R.Forward { qid; origin; op; op_id; trace } ->
              C.Forward { qid; origin; op; op_id; trace; shard = 0 }
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
                  shard = 0;
                }
          | R.Qack { epoch; qseq } -> C.Qack { epoch; qseq; shard = 0 }
          | R.Qcommit { epoch; qseq } -> C.Qcommit { epoch; qseq; shard = 0 }
          | R.Fnack { qid } -> C.Fnack { qid; shard = 0 }
          | R.Qfill { epoch; from_seq } ->
              C.Qfill { epoch; from_seq; shard = 0 })
    | Some (R.Wire_sync s) ->
        C.encode
          (match s with
          | R.Sping { seq; t0 } -> C.Ping { seq; t0; shard = 0 }
          | R.Spong { seq; t0; t_rx; t_tx } ->
              C.Pong { seq; t0; t_rx; t_tx; shard = 0 })
    | None ->
        (* Invoke/Stop/… are local-only events; the replica never sends
           them, so reaching here is a wiring bug. *)
        invalid_arg "Serve.encode_peer: local event on the wire"

  (* Wire-lane classification: heartbeats (doubling as mode announcements),
     sync probes, and catch-up frames ride the control lane so the failure
     detector and ε estimator stay live when data load saturates a link;
     everything else (entries, quorum ordering traffic) is data and may be
     shed under overload. *)
  let lane_of ev =
    match R.wire_view ev with
    | Some (R.Wire_quorum (R.Hb _))
    | Some (R.Wire_sync _)
    | Some (R.Wire_catchup_req _)
    | Some (R.Wire_catchup_rep _) ->
        Lanes.Ctrl
    | Some _ | None -> Lanes.Data

  (* [wrap] is the chaos layer's hook ({!Runtime.Transport_intf.wrapper}):
     applied outermost, around the TCP transport, with the cluster's shared
     clock epoch as the fault-window origin. *)
  let start ?(listener : Tcp_transport.listener option)
      ?(wrap : Runtime.Transport_intf.wrapper option) (cfg : config) =
    let host, port = cfg.addrs.(cfg.pid) in
    let listener =
      match listener with Some l -> l | None -> Tcp_transport.listen ~host ~port
    in
    (* The node is created after the transport, so client connections that
       race startup briefly spin on [node_ref]. *)
    let node_ref = ref None in
    let transport_ref = ref None in
    let rec the_node () =
      match !node_ref with
      | Some node -> node
      | None ->
          Prelude.Mclock.sleep_us 1_000;
          the_node ()
    in
    let admission = Admission.create () in
    let on_client ~first conn =
      let reply msg = Tcp_transport.conn_write conn (C.encode msg) in
      let handle_frame frame =
        match C.decode_payload frame with
        | Ok (C.Invoke { op; trace; op_id; shard; deadline }) -> (
            let now = Prelude.Mclock.now_us () in
            if deadline > 0 && now > deadline then begin
              (* Already late at the door: executing it would be dead work
                 the client stopped waiting for. *)
              Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Shed ~trace
                ~a:Obs.Event.shed_deadline ~b:shard ();
              reply (C.Shed { reason = "shed: deadline passed"; shard })
            end
            else
              match
                Admission.try_admit admission ~now_us:now ~deadline_us:deadline
              with
              | Admission.Shed reason ->
                  Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Shed ~trace
                    ~a:Obs.Event.shed_admission ~b:shard ();
                  reply (C.Shed { reason; shard })
              | Admission.Admitted -> (
                  let finish () =
                    Admission.finish admission
                      ~elapsed_us:(Prelude.Mclock.now_us () - now)
                  in
                  match
                    R.node_invoke ~trace ~op_id ~deadline (the_node ()) op
                  with
                  | r ->
                      finish ();
                      reply (C.Result { result = r; shard })
                  | exception R.Stopped ->
                      finish ();
                      reply (C.Error_msg "replica stopped")
                  | exception R.Retry_later why ->
                      finish ();
                      (* The client must back off and retry with the same op
                         id; [Client.retryable] recognises both answers.  A
                         "shed: ..." refusal (replica-side deadline check)
                         travels as the dedicated frame — the replica already
                         emitted its own [Shed] event. *)
                      if String.length why >= 4 && String.sub why 0 4 = "shed"
                      then reply (C.Shed { reason = why; shard })
                      else reply (C.Error_msg ("retry: " ^ why))))
        | Ok C.Stats_req ->
            let stats =
              match !transport_ref with
              | Some t -> Runtime.Transport_intf.stats t
              | None ->
                  {
                    Runtime.Transport_intf.sent = 0;
                    dropped = 0;
                    link = Some Runtime.Transport_intf.no_links;
                  }
            in
            reply (C.Stats stats)
        | Ok m ->
            ignore
              (reply
                 (C.Error_msg
                    (Format.asprintf "unexpected frame %a" C.pp_msg m)));
            false
        | Error e ->
            ignore (reply (C.Error_msg ("bad frame: " ^ e)));
            false
      in
      let rec loop frame =
        if handle_frame frame then
          match Tcp_transport.conn_read_frame conn with
          | Some next -> loop next
          | None -> ()
      in
      loop first
    in
    (* The recorder goes in before the transport so connection races at
       startup are already traced.  It is process-global: one traced serve
       stack per process (the in-process test harness passes [trace =
       None]). *)
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
      Tcp_transport.create ~me:cfg.pid ~addrs:cfg.addrs ~listener
        ~hello:(C.encode (C.Hello (hello_of cfg)))
        ~classify_hello:(classify_hello cfg)
        ~decode_peer:(decode_peer ~me:cfg.pid) ~encode_peer ~on_client
        ~lane_of ~log:cfg.log ()
    in
    let transport =
      match wrap with
      | None -> transport
      | Some w ->
          let start_us =
            match cfg.start_us with
            | Some s -> s
            | None -> Prelude.Mclock.now_us ()
          in
          w.Runtime.Transport_intf.wrap ~start_us transport
    in
    transport_ref := Some transport;
    (* Durable state loads before the node exists: the node seeds its
       object, dedup tables and high-water mark from the recovered prefix,
       then (if this is a restart rather than genesis) catches up from
       peers once the transport is live. *)
    let durable =
      match cfg.durable with
      | None -> None
      | Some dir ->
          let t0 = Prelude.Mclock.now_us () in
          let meta =
            Printf.sprintf "timebounds replica=%d obj=%d n=%d" cfg.pid
              W.C.obj_tag cfg.params.Core.Params.n
          in
          (match Durable.Store.open_ ~dir ~meta ~fsync:cfg.fsync with
          | Error e ->
              cfg.log (Printf.sprintf "replica %d: %s" cfg.pid e);
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
              let replayed = List.length snap.P.s_applied in
              let took = Prelude.Mclock.now_us () - t0 in
              Some (store, recovery, recovered.Durable.Store.r_fresh, replayed, took))
    in
    let recovery = Option.map (fun (_, r, _, _, _) -> r) durable in
    (* Compose the caller's fallback hooks with this stack's own logging —
       the "mode: quorum(...)" / "mode: fast(...)" lines are what the CI
       permanent-kill smoke greps for. *)
    let fallback =
      Option.map
        (fun (q : Quorum.Config.t) ->
          {
            q with
            Quorum.Config.on_mode =
              (fun ~quorum ~epoch ~seq ->
                cfg.log
                  (Printf.sprintf "replica %d: mode: %s(epoch=%d seq=%d)"
                     cfg.pid
                     (if quorum then "quorum" else "fast")
                     epoch seq);
                q.Quorum.Config.on_mode ~quorum ~epoch ~seq);
            on_suspect =
              (fun ~peer ~suspected ->
                cfg.log
                  (Printf.sprintf "replica %d: %s peer %d" cfg.pid
                     (if suspected then "suspecting" else "cleared")
                     peer);
                q.Quorum.Config.on_suspect ~peer ~suspected);
          })
        cfg.fallback
    in
    (* Likewise for the sync hook — the "sync eps=..." line is what the CI
       sync smoke greps for. *)
    let sync =
      Option.map
        (fun (s : Sync.Config.t) ->
          {
            s with
            Sync.Config.on_eps =
              (fun ~eps_us ~peers ->
                cfg.log
                  (Printf.sprintf "replica %d: sync eps=%dus peers=%d"
                     cfg.pid eps_us peers);
                s.Sync.Config.on_eps ~eps_us ~peers);
          })
        cfg.sync
    in
    let node =
      R.node ~params:cfg.params ~transport ~pid:cfg.pid ~offset:cfg.offset
        ?start_us:cfg.start_us ?recovery ?fallback ?sync ()
    in
    node_ref := Some node;
    let store =
      match durable with
      | None -> None
      | Some (store, _, fresh, replayed, took) ->
          if not fresh then begin
            (* Restart, not genesis: announce the disk prefix and ask the
               peers for whatever landed while we were down. *)
            R.post_recover transport ~pid:cfg.pid;
            cfg.log
              (Printf.sprintf
                 "replica %d: recovered %d mutations from %s in %dµs; \
                  catching up"
                 cfg.pid replayed (Option.get cfg.durable) took);
            Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Recover ~a:replayed
              ~b:took ()
          end;
          Some store
    in
    let snap_stop = Atomic.make false in
    let snap_thread =
      match store with
      | Some store when cfg.snapshot_every > 0 ->
          (* Checkpoint cadence: poll the WAL length and, past the
             threshold, ask the replica loop for a consistent cut.  The
             callback runs inside the loop — the same thread as the
             [on_apply] appends — so capture and rotation cannot race an
             append. *)
          let body () =
            while not (Atomic.get snap_stop) do
              Prelude.Mclock.sleep_us 200_000;
              if
                (not (Atomic.get snap_stop))
                && Durable.Store.records_since_snapshot store
                   >= cfg.snapshot_every
              then
                R.request_snapshot transport ~pid:cfg.pid (fun view ->
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
                    Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Checkpoint
                      ~a:folded
                      ~b:(Durable.Store.generation store)
                      ())
            done
          in
          Some (Thread.create body ())
      | _ -> None
    in
    {
      config = cfg;
      transport;
      node;
      recorder;
      store;
      snap_stop;
      snap_thread;
      handle_stopped = false;
    }

  (* Stop order matters: cancelling the node first wakes client-handler
     threads blocked on invocation cells, so closing the transport (which
     joins its threads) cannot hang behind them.  The recorder is torn
     down last, after every emitting thread is gone. *)
  let stop handle =
    if not handle.handle_stopped then begin
      handle.handle_stopped <- true;
      Atomic.set handle.snap_stop true;
      let records = R.node_stop handle.node in
      Option.iter Thread.join handle.snap_thread;
      let stats = Runtime.Transport_intf.stats handle.transport in
      Runtime.Transport_intf.close handle.transport;
      (* The node is joined, so no more [on_apply] appends: sync what the
         fsync policy may still be buffering, then close. *)
      Option.iter
        (fun store ->
          Durable.Store.sync store;
          Durable.Store.close store)
        handle.store;
      (match handle.recorder with
      | None -> ()
      | Some (r, close) ->
          Obs.Recorder.uninstall ();
          Obs.Recorder.stop r;
          close ());
      (records, stats)
    end
    else ([], Runtime.Transport_intf.stats handle.transport)

  let stats handle = Runtime.Transport_intf.stats handle.transport

  (* ---- the [timebounds serve] process body ---- *)

  let run ?wrap (cfg : config) =
    let stop_requested = Atomic.make false in
    let request_stop _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    (* Ignore SIGPIPE: a dead peer must surface as EPIPE on the write, not
       kill the process. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let handle = start ?wrap cfg in
    let host, port = cfg.addrs.(cfg.pid) in
    cfg.log
      (Printf.sprintf "replica %d: listening on %s:%d (%s, n=%d)" cfg.pid host
         port W.L.label cfg.params.Core.Params.n);
    let watched_parent = ref None in
    let set_watch pid = watched_parent := Some pid in
    let parent_alive () =
      match !watched_parent with
      | None -> true
      | Some pid -> ( match Unix.kill pid 0 with () -> true | exception _ -> false)
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

  let run_until_signalled ?watch_parent ?wrap (cfg : config) =
    let set_watch, wait, handle = run ?wrap cfg in
    (match watch_parent with Some p -> set_watch p | None -> ());
    wait ();
    let records, stats = stop handle in
    cfg.log
      (Printf.sprintf "replica %d: stopped after %d ops; %s" cfg.pid
         (List.length records)
         (Format.asprintf "%a" Runtime.Transport_intf.pp_stats stats))
end
