(** See the interface for the model mapping.  One domain per replica; all
    inter-domain communication goes through the transport's mailboxes and
    the per-invocation completion callbacks, which the loop itself runs —
    replica state itself is only ever touched by its own domain.

    Recovery additions (PR 5): a replica can be {e frozen} — either [Down]
    (an injected crash: it processes nothing, realising the fault the
    process path realises with SIGKILL) or [Catching_up] (just restarted:
    it broadcasts a catch-up request carrying its high-water mark, absorbs
    replies, and thaws when every peer answered or a timeout fires).
    While frozen, [Execute]/[Respond_*] timers are deferred (nothing
    applies, so the high-water mark stays contiguous) and client invokes
    are backlogged.  Operation ids ride on every broadcast entry, so a
    replica can recognise a client's replay of an operation it already
    holds and answer idempotently. *)

module Make (D : Spec.Data_type.S) = struct
  module Alg = Core.Algorithm1.Make (D)

  exception Stopped
  exception Retry_later of string

  type record = {
    pid : int;
    seq : int;
    op : D.op;
    result : D.result;
    invoke_us : int;
    response_us : int;
  }

  type outcome = Done of D.result | Cancelled | Rejected of string

  type snapshot_view = {
    v_obj : D.state;
    v_hwm_time : int;
    v_hwm_pid : int;
    v_applied : (Alg.entry * D.result * int) list;  (** oldest first *)
  }

  type recovered_state = {
    r_obj : D.state;
    r_applied : (Alg.entry * D.result * int) list;  (** oldest first *)
  }

  type recovery = {
    catchup_wait_us : int;
    on_apply : Alg.entry -> D.result -> int -> unit;
    recovered : recovered_state option;
  }

  (* ---- quorum fallback wire protocol (DESIGN.md §13) ---- *)

  (* One operation as the quorum era carries it: the sequencer fills
     [q_time] (the assigned stamp time; the stamp pid is [q_origin]), the
     rest identifies the op and its invoking replica. *)
  type qpayload = {
    q_time : int;
    q_op : D.op;
    q_origin : int;
    q_qid : int;  (** origin-local forward id, stable across retries *)
    q_op_id : int;
    q_trace : int;
  }

  type qwire =
    | Hb of {
        stamp : int;
        epoch : int;
        qmode : bool;
        seq : int;
        floor : int;
        ack : int;
        want : int;
      }
        (** heartbeat doubling as the mode announcement: sender clock
            stamp plus the sender's (epoch, mode, sequencer, floor); [ack]
            acknowledges the addressee's entry with that stamp time and
            [want] asks for a heartbeat once the addressee's clock reaches
            it (0 = none, for both) *)
    | Forward of { qid : int; origin : int; op : D.op; op_id : int; trace : int }
        (** origin → sequencer: please order this op *)
    | Propose of { epoch : int; qseq : int; p : qpayload }
        (** sequencer → all: slot [qseq] of the era holds [p] *)
    | Qack of { epoch : int; qseq : int }  (** follower → sequencer *)
    | Qcommit of { epoch : int; qseq : int }
        (** sequencer → all: a majority stored [qseq]; apply in order *)
    | Fnack of { qid : int }
        (** not the sequencer (or not in quorum mode): re-route *)
    | Qfill of { epoch : int; from_seq : int }
        (** follower → sequencer: re-send payloads from [from_seq] up *)

  (* ---- clock-synchronization wire protocol (DESIGN.md §14) ---- *)

  type swire =
    | Sping of { seq : int; t0 : int }
        (** prober → all: [t0] = the prober's corrected clock at send *)
    | Spong of { seq : int; t0 : int; t_rx : int; t_tx : int }
        (** echo: [seq]/[t0] copied back, [t_rx]/[t_tx] = the responder's
            corrected clock at receipt and reply *)

  type event =
    | Net of Alg.entry * int * int  (** entry, trace, op id (0 = none) *)
    | Catchup_req of { time : int; cpid : int }  (** asker's high-water mark *)
    | Catchup_rep of {
        entries : (Alg.entry * int) list;
        time : int;
        cpid : int;  (** replier's high-water mark *)
      }
    | Quorum_msg of qwire
    | Sync_msg of swire
    | Invoke of D.op * int * int * int * (outcome -> unit)
        (** op, trace, op id, deadline (absolute µs, 0 = none), completion *)
    | Crash_now
    | Recover_now
    | Snap_req of (snapshot_view -> unit)
    | Stop

  type wire =
    | Wire_entry of Alg.entry * int * int
    | Wire_catchup_req of { time : int; cpid : int }
    | Wire_catchup_rep of { entries : (Alg.entry * int) list; time : int; cpid : int }
    | Wire_quorum of qwire
    | Wire_sync of swire

  let wire_view = function
    | Net (e, trace, op_id) -> Some (Wire_entry (e, trace, op_id))
    | Catchup_req { time; cpid } -> Some (Wire_catchup_req { time; cpid })
    | Catchup_rep { entries; time; cpid } ->
        Some (Wire_catchup_rep { entries; time; cpid })
    | Quorum_msg q -> Some (Wire_quorum q)
    | Sync_msg s -> Some (Wire_sync s)
    | Invoke _ | Crash_now | Recover_now | Snap_req _ | Stop -> None

  let of_wire = function
    | Wire_entry (e, trace, op_id) -> Net (e, trace, op_id)
    | Wire_catchup_req { time; cpid } -> Catchup_req { time; cpid }
    | Wire_catchup_rep { entries; time; cpid } ->
        Catchup_rep { entries; time; cpid }
    | Wire_quorum q -> Quorum_msg q
    | Wire_sync s -> Sync_msg s

  let net ?(trace = 0) e = Net (e, trace, 0)

  let net_entry = function
    | Net (e, trace, _) -> Some (e, trace)
    | Catchup_req _ | Catchup_rep _ | Quorum_msg _ | Sync_msg _ | Invoke _
    | Crash_now | Recover_now | Snap_req _ | Stop ->
        None

  let class_of op = Obs.Event.class_code (D.classify op)

  (* ---- the per-replica event loop (runs inside the replica's domain) ---- *)

  (* [Catchup_retry_t] re-asks the peers that still owe a catch-up reply:
     over TCP the first write onto a connection whose remote died is
     accepted by the kernel and lost (the error only surfaces on the next
     write), so a one-shot request/reply exchange straddling a crash can
     vanish silently — retrying until every peer answers (or the unfreeze
     timeout lapses) makes anti-entropy immune to it. *)
  type rtimer =
    | A of Alg.timer
    | Unfreeze_t
    | Catchup_retry_t
    | Heartbeat_t  (** fallback: send a heartbeat, tick the detector *)
    | Qdrain_t  (** fallback: the sequencer's switch barrier elapsed *)
    | Qtick_t  (** fallback: re-send forwards, request Qfills *)
    | Prompt_t of int  (** fallback: a heartbeat this peer asked for is due *)
    | Sync_t  (** sync: apply the round's correction, broadcast pings *)

  type timer_entry = { due : int; tseq : int; timer : rtimer; ttrace : int }

  type mode = Up | Down | Catching_up

  type id_state =
    | Queued
    | Applied_id of D.result * int
        (** recorded result and the µs-since-start instant it applied, so a
            replay served from the table can log a history interval that
            still brackets the original linearization point *)

  (* The origin-side record of an operation routed through the quorum
     path: enough to re-send the forward (same [f_qid], so the sequencer
     recognises retries) or re-dispatch it down the fast path. *)
  type fwd = {
    f_qid : int;
    f_op : D.op;
    f_op_id : int;
    f_trace : int;
    mutable f_sent_us : int;
    mutable f_proposed : bool;  (** a Propose for it was seen *)
    mutable f_nacks : int;
  }

  type fallback_state = {
    qcfg : Quorum.Config.t;
    fd : Quorum.Failure_detector.t;
    mc : Quorum.Mode_controller.t;
    qlog : qpayload Quorum.Log.t;
    fwd_seen : (int * int, int) Hashtbl.t;  (** (origin, qid) → qseq *)
    mutable draining_until : int option;
        (** sequencer only: switch barrier deadline (absolute µs) *)
    mutable next_time : int;  (** sequencer: next stamp time to assign *)
    mutable last_q_applied : int;  (** max quorum-applied stamp time *)
    mutable pending_fwd : fwd option;
    mutable buffered : qpayload list;
        (** forwards held during the drain, reversed *)
    mutable gated : (D.result * Prelude.Stamp.t) option;
        (** a fast-path response the release gate is withholding *)
    gate : Quorum.Gate.t;  (** peers' receipt acks of our entries *)
    prompts : int array;
        (** per requester: the clock value it wants a heartbeat at
            (0 = no reply pending) *)
    mutable next_qid : int;
    mutable must_reconcile : bool;
        (** this replica skipped at least one whole era (its announcements
            never reached us), so the next switch back to the fast path
            must resynchronise through catch-up even if the current era's
            log looks drained *)
  }

  type loop_state = {
    pid : int;
    mutable st : Alg.state;
    mutable timers : timer_entry list;  (** sorted by [(due, tseq)] *)
    mutable tseq : int;
    mutable inflight : ((outcome -> unit) * D.op * int * int * int) option;
        (** completion, op, invoke_us, seq, trace *)
    mutable inflight_ts : Prelude.Stamp.t;
        (** stamp of the in-flight fast-path op (what the gate keys on) *)
    backlog : (D.op * int * int * int * (outcome -> unit)) Queue.t;
        (** op, trace, op id, deadline, completion *)
    mutable next_seq : int;
    mutable records : record list;  (** reversed *)
    (* -- recovery machinery (only exercised when [rec_mode] is [Some]) -- *)
    rec_mode : recovery option;
    mutable mode : mode;
    mutable deferred : timer_entry list;  (** newest first; replayed on thaw *)
    mutable awaiting : int list;  (** peers owing a catch-up reply *)
    mutable reply_hwms : (int * Prelude.Stamp.t) list;
        (** replier high-water marks, pushed back to at thaw *)
    seen : (Prelude.Stamp.t, unit) Hashtbl.t;
    stamp_ids : (Prelude.Stamp.t, int) Hashtbl.t;
    id_index : (int, id_state) Hashtbl.t;
    mutable hwm : Prelude.Stamp.t;  (** max applied stamp; time −1 = none *)
    mutable last_applied : (Alg.entry * D.result) list;
        (** physical-equality cursor into [st.applied] *)
  }

  let rec insert_timer e = function
    | [] -> [ e ]
    | hd :: tl ->
        if e.due < hd.due || (e.due = hd.due && e.tseq < hd.tseq) then
          e :: hd :: tl
        else hd :: insert_timer e tl

  let no_hwm = Prelude.Stamp.make ~time:(-1) ~pid:0

  (* Live clock synchronization (armed by [?sync]): the slewed corrected
     clock every timestamp is drawn from, plus the per-peer estimator the
     probe rounds feed. *)
  type sync_state = {
    scfg : Sync.Config.t;
    sclock : Sync.Clock.t;
    sest : Sync.Estimator.t;
    mutable sseq : int;  (** probe sequence number *)
  }

  let run_replica ~(params : Core.Params.t) ?recovery ?fallback ?sync
      ~(transport : event Transport_intf.t) ~start_us ~offset pid =
    let cfg = params in
    let now_rel () = Prelude.Mclock.now_us () - start_us in
    let raw_clock () = now_rel () + offset in
    let sy =
      Option.map
        (fun (scfg : Sync.Config.t) ->
          {
            scfg;
            sclock = Sync.Clock.create ();
            sest = Sync.Estimator.create ~n:cfg.Core.Params.n ~me:pid ();
            sseq = 0;
          })
        sync
    in
    (* With sync on, every timestamp the replica draws — invocation stamps,
       heartbeat stamps, probe timestamps — comes from the slewed corrected
       clock, which is monotone across corrections by construction. *)
    let clock () =
      match sy with
      | None -> raw_clock ()
      | Some s -> Sync.Clock.read s.sclock ~now:(raw_clock ())
    in
    let ls =
      {
        pid;
        st = Alg.init cfg ~n:cfg.n ~pid;
        timers = [];
        tseq = 0;
        inflight = None;
        inflight_ts = Prelude.Stamp.make ~time:(-1) ~pid:0;
        backlog = Queue.create ();
        next_seq = 0;
        records = [];
        rec_mode = recovery;
        mode = Up;
        deferred = [];
        awaiting = [];
        reply_hwms = [];
        seen = Hashtbl.create 256;
        stamp_ids = Hashtbl.create 256;
        id_index = Hashtbl.create 256;
        hwm = no_hwm;
        last_applied = [];
      }
    in
    (* Seed the protocol state from the durable prefix, if any: the object,
       its applied history (so catch-up can serve it), the stamp/id tables
       (so replayed broadcasts and retried clients are recognised) and the
       high-water mark. *)
    (match recovery with
    | Some { recovered = Some rs; _ } ->
        ls.st <-
          {
            ls.st with
            Alg.local_obj = rs.r_obj;
            applied = List.rev_map (fun (e, r, _) -> (e, r)) rs.r_applied;
          };
        List.iter
          (fun ((e : Alg.entry), r, op_id) ->
            Hashtbl.replace ls.seen e.ts ();
            if op_id <> 0 then begin
              Hashtbl.replace ls.stamp_ids e.ts op_id;
              Hashtbl.replace ls.id_index op_id (Applied_id (r, 0))
            end;
            if Prelude.Stamp.( < ) ls.hwm e.ts then ls.hwm <- e.ts)
          rs.r_applied
    | _ -> ());
    ls.last_applied <- ls.st.Alg.applied;
    let fb =
      Option.map
        (fun (qcfg : Quorum.Config.t) ->
          {
            qcfg;
            fd =
              Quorum.Failure_detector.make ~n:cfg.Core.Params.n ~me:pid
                ~hb_us:qcfg.hb_us ~suspect_after:qcfg.suspect_after
                ~now_us:(Prelude.Mclock.now_us ());
            mc = Quorum.Mode_controller.make ~n:cfg.Core.Params.n ~me:pid;
            qlog = Quorum.Log.create ~n:cfg.Core.Params.n ~epoch:0;
            fwd_seen = Hashtbl.create 64;
            draining_until = None;
            next_time = 0;
            last_q_applied = min_int;
            pending_fwd = None;
            buffered = [];
            gated = None;
            gate = Quorum.Gate.make ~n:cfg.Core.Params.n ~me:pid;
            prompts = Array.make cfg.Core.Params.n 0;
            next_qid = 1;
            must_reconcile = false;
          })
        fallback
    in
    (* The fallback leans on the same dedup tables recovery uses: op ids
       are how a re-routed (or re-proposed) operation is recognised. *)
    let dedup = Option.is_some recovery || Option.is_some fb in
    (* Clocks feeding invocation stamps clear the last quorum era's stamp
       floor: a fast-path op stamped below a quorum-ordered one would sort
       into already-executed history. *)
    let eff_clock () =
      let c = clock () in
      match fb with
      | Some f ->
          let fl = Quorum.Mode_controller.floor f.mc in
          if fl = min_int then c
          else Stdlib.max c (fl + cfg.Core.Params.timing.accessor_ts_back + 1)
      | None -> c
    in
    let register ts op_id =
      if op_id <> 0 then begin
        Hashtbl.replace ls.stamp_ids ts op_id;
        if not (Hashtbl.mem ls.id_index op_id) then
          Hashtbl.replace ls.id_index op_id Queued
      end
    in
    (* Every mutation the algorithm applied since the last call, oldest
       first: mark it seen, resolve its op id, advance the high-water mark
       and hand it to the durability hook — before any action (a response
       in particular) from the same protocol step is released. *)
    let drain_applied () =
      if dedup && not (ls.st.Alg.applied == ls.last_applied) then begin
        let rec fresh acc = function
          | l when l == ls.last_applied -> acc
          | [] -> acc
          | (e, r) :: tl -> fresh ((e, r) :: acc) tl
        in
        List.iter
          (fun ((e : Alg.entry), r) ->
            Hashtbl.replace ls.seen e.ts ();
            let op_id =
              Option.value ~default:0 (Hashtbl.find_opt ls.stamp_ids e.ts)
            in
            if op_id <> 0 then
              Hashtbl.replace ls.id_index op_id (Applied_id (r, now_rel ()));
            if Prelude.Stamp.( < ) ls.hwm e.ts then ls.hwm <- e.ts;
            match ls.rec_mode with
            | Some rc -> rc.on_apply e r op_id
            | None -> ())
          (fresh [] ls.st.Alg.applied);
        ls.last_applied <- ls.st.Alg.applied
      end
    in
    (* Applied and still-queued entries with a stamp above [after], in
       stamp order, each with its op id — what catch-up serves. *)
    let entries_after after =
      let keep (e : Alg.entry) = Prelude.Stamp.( < ) after e.ts in
      let applied =
        List.filter_map
          (fun ((e : Alg.entry), _) -> if keep e then Some e else None)
          ls.st.Alg.applied
      in
      let queued =
        List.filter keep (Alg.Queue.to_sorted_list ls.st.Alg.to_execute)
      in
      List.sort
        (fun (a : Alg.entry) b -> Prelude.Stamp.compare a.ts b.ts)
        (List.rev_append applied queued)
      |> List.map (fun (e : Alg.entry) ->
             (e, Option.value ~default:0 (Hashtbl.find_opt ls.stamp_ids e.ts)))
    in
    let push_back peer after =
      let missing = entries_after after in
      if missing <> [] then begin
        Obs.Recorder.emit ~pid ~kind:Obs.Event.Catchup
          ~a:(List.length missing) ~b:peer ();
        List.iter
          (fun ((e : Alg.entry), op_id) ->
            Transport_intf.send transport ~trace:0 ~src:pid ~dst:peer
              (Net (e, 0, op_id)))
          missing
      end
    in
    let respond r =
      match ls.inflight with
      | None -> ()  (* cannot happen: Algorithm 1 responds only when pending *)
      | Some (complete, op, invoke_us, seq, trace) ->
          let response_us = now_rel () in
          ls.records <-
            { pid; seq; op; result = r; invoke_us; response_us }
            :: ls.records;
          ls.inflight <- None;
          Obs.Recorder.emit ~pid ~kind:Obs.Event.Respond ~trace
            ~a:(class_of op) ~b:(response_us - invoke_us) ();
          complete (Done r)
    in
    (* A client replaying an operation id this replica already knows must
       not be executed twice.  Applied → answer from the recorded result;
       still queued → a pure mutator's reply is state-independent (answer
       now), anything else must wait for the first attempt (tell the
       client to retry).  Accessors have no effect and are never deduped. *)
    (* Each [Done] comes with the invoke instant a history record for the
       replayed completion should carry: the apply time for an applied op
       (its linearization point lies between then and now), now for a
       queued pure mutator (stamp order places it before anything invoked
       later). *)
    let dedup_check op op_id =
      if (not dedup) || op_id = 0 then None
      else
        match D.classify op with
        | Spec.Data_type.Pure_accessor -> None
        | cls -> (
            match Hashtbl.find_opt ls.id_index op_id with
            | Some (Applied_id (r, at)) -> Some (Done r, at)
            | Some Queued -> (
                match cls with
                | Spec.Data_type.Pure_mutator ->
                    let _, r = D.apply ls.st.Alg.local_obj op in
                    Some (Done r, now_rel ())
                | _ -> Some (Rejected "in flight; retry", 0))
            | None -> None)
    in
    let arm_timer timer delay_us =
      let e =
        { due = Prelude.Mclock.now_us () + delay_us; tseq = ls.tseq; timer;
          ttrace = 0 }
      in
      ls.tseq <- ls.tseq + 1;
      ls.timers <- insert_timer e ls.timers
    in
    (* The fast path's response release gate (armed only under fallback,
       in fast mode): a response stamped [ts] may be released once every
       peer either acked the entry (pure mutators only — their reply is
       state-independent, so all the gate must ensure is that every peer
       holds the effect) or sent a heartbeat stamped at or past
       [ts + d + ε] (its clock reached that at least d after our send, so
       it holds everything stamped up to [ts]; a partition that ate the
       entry would have eaten the heartbeat too).  Either way a released
       response is never lost to a peer we later abandon.  Acks come back
       on receipt; heartbeats are asked for at invoke (see [prompt_peers]),
       so neither waits for the heartbeat tick.  A dead or partitioned peer
       stalls the gate until the failure detector excuses it by switching
       the object into quorum mode. *)
    let threshold (ts : Prelude.Stamp.t) =
      ts.Prelude.Stamp.time + cfg.Core.Params.d + cfg.Core.Params.eps
    in
    let gate_passes f (ts : Prelude.Stamp.t) =
      let mop =
        match ls.inflight with
        | Some (_, op, _, _, _) -> D.classify op = Spec.Data_type.Pure_mutator
        | None -> false
      in
      Quorum.Gate.ready f.gate ~fd:f.fd ~mop ~stamp:ts.Prelude.Stamp.time
        ~due:(threshold ts)
    in
    (* A heartbeat to [dst] (everyone when [None]): the clock stamp plus
       the mode announcement, optionally carrying an ack or a prompt. *)
    let send_hb f ?dst ?(ack = 0) ?(want = 0) () =
      let epoch, qmode, seq, floor = Quorum.Mode_controller.announcement f.mc in
      let hb =
        Quorum_msg (Hb { stamp = clock (); epoch; qmode; seq; floor; ack; want })
      in
      match dst with
      | Some dst -> Transport_intf.send transport ~trace:0 ~src:pid ~dst hb
      | None -> Transport_intf.broadcast transport ~trace:0 ~src:pid hb
    in
    (* Answer requester [src]'s pending prompt once this replica's clock
       has reached it; until then re-check on a one-shot timer (the slewed
       clock may run slow, so a timer can fire short of the mark). *)
    let serve_prompt f src =
      let want = f.prompts.(src) in
      if want <> 0 then
        if ls.mode <> Up then f.prompts.(src) <- 0
        else
          let now = clock () in
          if now >= want then begin
            f.prompts.(src) <- 0;
            send_hb f ~dst:src ()
          end
          else arm_timer (Prompt_t src) (want - now)
    in
    let in_quorum f =
      Quorum.Mode_controller.mode f.mc = Quorum.Mode_controller.Quorum
    in
    let rec handle_actions ~trace actions =
      List.iter
        (fun (a : (D.result, Alg.entry, Alg.timer) Sim.Action.t) ->
          match a with
          | Sim.Action.Respond r -> (
              match fb with
              | Some f
                when ls.inflight <> None
                     && (not (in_quorum f))
                     && (not (Quorum.Mode_controller.stalled f.mc))
                     && not (gate_passes f ls.inflight_ts) ->
                  (* Withhold until the gate passes (or a mode switch
                     supersedes it); the single-inflight invariant means at
                     most one response is ever held. *)
                  f.gated <- Some (r, ls.inflight_ts)
              | _ ->
                  respond r;
                  (* The model allows one pending operation per process;
                     queued client calls start once the previous responds. *)
                  next_from_backlog ())
          | Sim.Action.Send (dst, m) ->
              let op_id =
                Option.value ~default:0
                  (Hashtbl.find_opt ls.stamp_ids m.Alg.ts)
              in
              Transport_intf.send transport ~trace ~src:pid ~dst
                (Net (m, trace, op_id))
          | Sim.Action.Broadcast m ->
              Obs.Recorder.emit ~pid ~kind:Obs.Event.Broadcast ~trace
                ~a:(cfg.Core.Params.n - 1) ();
              let op_id =
                Option.value ~default:0
                  (Hashtbl.find_opt ls.stamp_ids m.Alg.ts)
              in
              Transport_intf.broadcast transport ~trace ~src:pid
                (Net (m, trace, op_id))
          | Sim.Action.Set_timer (delay, t) ->
              (* Timer delays are clock-time delays; clocks advance at the
                 rate of real time, so a [δ]-delay timer is due at
                 [now + δ] on the real timeline. *)
              Obs.Recorder.emit ~pid ~kind:Obs.Event.Hold_set ~trace ~a:delay ();
              let e =
                { due = Prelude.Mclock.now_us () + delay; tseq = ls.tseq;
                  timer = A t; ttrace = trace }
              in
              ls.tseq <- ls.tseq + 1;
              ls.timers <- insert_timer e ls.timers
          | Sim.Action.Cancel_timer t ->
              ls.timers <-
                List.filter
                  (fun e ->
                    match e.timer with
                    | A t' -> not (Alg.equal_timer t' t)
                    | Unfreeze_t | Catchup_retry_t | Heartbeat_t | Qdrain_t
                    | Qtick_t | Prompt_t _ | Sync_t ->
                        true)
                  ls.timers)
        actions
    and try_release_gate ~force f =
      match f.gated with
      | Some (r, ts) when ls.inflight <> None && (force || gate_passes f ts) ->
          f.gated <- None;
          respond r;
          next_from_backlog ()
      | _ -> ()
    and dispatch_alg_invoke op trace op_id =
      let st', actions = Alg.on_invoke cfg ls.st ~clock:(eff_clock ()) op in
      ls.st <- st';
      (match ls.st.Alg.pending with
      | Alg.Waiting_mop e | Alg.Waiting_oop e | Alg.Waiting_aop e ->
          ls.inflight_ts <- e.ts
      | Alg.Idle -> ());
      prompt_peers ();
      (* The broadcast below carries the op id, so every replica can tie
         the entry's stamp back to the client's operation. *)
      (if dedup then
         match ls.st.Alg.pending with
         | Alg.Waiting_mop e | Alg.Waiting_oop e ->
             Hashtbl.replace ls.seen e.ts ();
             register e.ts op_id
         | Alg.Waiting_aop _ | Alg.Idle -> ());
      handle_actions ~trace actions
    (* Accessors and other ops answer from local state, so only every
       peer's horizon passing [ts + d + ε] frees them: ask each peer for a
       heartbeat at that clock value rather than wait for its next tick.
       Pure mutators are freed by the receipt acks their broadcast draws. *)
    and prompt_peers () =
      match (fb, ls.st.Alg.pending) with
      | Some f, (Alg.Waiting_aop e | Alg.Waiting_oop e)
        when cfg.Core.Params.n > 1 && not (in_quorum f) ->
          send_hb f ~want:(threshold e.ts) ()
      | _ -> ()
    and start_invoke op trace op_id complete =
      let invoke_us = now_rel () in
      let seq = ls.next_seq in
      ls.next_seq <- ls.next_seq + 1;
      ls.inflight <- Some (complete, op, invoke_us, seq, trace);
      Obs.Recorder.emit ~pid ~kind:Obs.Event.Invoke ~trace ~a:(class_of op) ();
      dispatch_alg_invoke op trace op_id
    and start_quorum_invoke f op trace op_id complete =
      let invoke_us = now_rel () in
      let seq = ls.next_seq in
      ls.next_seq <- ls.next_seq + 1;
      ls.inflight <- Some (complete, op, invoke_us, seq, trace);
      Obs.Recorder.emit ~pid ~kind:Obs.Event.Invoke ~trace ~a:(class_of op) ();
      let qid = f.next_qid in
      f.next_qid <- qid + 1;
      f.pending_fwd <-
        Some
          { f_qid = qid; f_op = op; f_op_id = op_id; f_trace = trace;
            f_sent_us = Prelude.Mclock.now_us (); f_proposed = false;
            f_nacks = 0 };
      dispatch_fwd f
    and dispatch_fwd f =
      match f.pending_fwd with
      | None -> ()
      | Some w ->
          w.f_sent_us <- Prelude.Mclock.now_us ();
          let p =
            { q_time = 0; q_op = w.f_op; q_origin = pid; q_qid = w.f_qid;
              q_op_id = w.f_op_id; q_trace = w.f_trace }
          in
          if Quorum.Mode_controller.is_sequencer f.mc then
            sequencer_admit f p
          else
            Transport_intf.send transport ~trace:w.f_trace ~src:pid
              ~dst:(Quorum.Mode_controller.seq_pid f.mc)
              (Quorum_msg
                 (Forward
                    { qid = w.f_qid; origin = pid; op = w.f_op;
                      op_id = w.f_op_id; trace = w.f_trace }))
    and broadcast_propose f qseq p =
      Transport_intf.broadcast transport ~trace:p.q_trace ~src:pid
        (Quorum_msg (Propose { epoch = Quorum.Log.epoch f.qlog; qseq; p }))
    and sequencer_admit f p =
      match Hashtbl.find_opt f.fwd_seen (p.q_origin, p.q_qid) with
      | Some qseq -> (
          (* A retried forward for a slot we already assigned: re-send the
             Propose (and the Qcommit, if it got that far) so a lost frame
             cannot wedge the origin. *)
          match Quorum.Log.payload f.qlog ~qseq with
          | Some p' ->
              broadcast_propose f qseq p';
              if Quorum.Log.committed f.qlog ~qseq then
                Transport_intf.broadcast transport ~trace:0 ~src:pid
                  (Quorum_msg
                     (Qcommit { epoch = Quorum.Log.epoch f.qlog; qseq }))
          | None -> ())
      | None ->
          if f.draining_until <> None then f.buffered <- p :: f.buffered
          else if
            p.q_op_id <> 0
            && Hashtbl.mem ls.id_index p.q_op_id
            && D.classify p.q_op <> Spec.Data_type.Pure_accessor
          then begin
            (* The op already entered history under another stamp (fast
               path before the switch, or an earlier era): never order it
               twice — bounce it back through the origin's dedup tables. *)
            if p.q_origin <> pid then
              Transport_intf.send transport ~trace:p.q_trace ~src:pid
                ~dst:p.q_origin (Quorum_msg (Fnack { qid = p.q_qid }))
          end
          else propose f p
    and propose f p =
      let time =
        List.fold_left max
          (eff_clock ())
          [ f.next_time; f.last_q_applied + 1;
            ls.hwm.Prelude.Stamp.time + 1 ]
      in
      f.next_time <- time + 1;
      let p = { p with q_time = time } in
      let qseq = Quorum.Log.append f.qlog ~me:pid p in
      Hashtbl.replace f.fwd_seen (p.q_origin, p.q_qid) qseq;
      register (Prelude.Stamp.make ~time ~pid:p.q_origin) p.q_op_id;
      (if p.q_origin = pid then
         match f.pending_fwd with
         | Some w when w.f_qid = p.q_qid -> w.f_proposed <- true
         | _ -> ());
      broadcast_propose f qseq p;
      if Quorum.Log.majority f.qlog <= 1 then do_commit f qseq
    and do_commit f qseq =
      Quorum.Log.commit f.qlog ~qseq;
      Transport_intf.broadcast transport ~trace:0 ~src:pid
        (Quorum_msg (Qcommit { epoch = Quorum.Log.epoch f.qlog; qseq }));
      apply_committed f
    and apply_committed f =
      List.iter
        (fun (_qseq, p) ->
          let ts = Prelude.Stamp.make ~time:p.q_time ~pid:p.q_origin in
          let st = ls.st in
          let st =
            if Hashtbl.mem ls.seen ts then st
            else begin
              register ts p.q_op_id;
              {
                st with
                Alg.to_execute =
                  Alg.Queue.insert { Alg.op = p.q_op; ts } st.Alg.to_execute;
              }
            end
          in
          (* Executing *through* the committed stamp is the follower
             barrier: any straggler fast-path entry below it executes
             first, in stamp order. *)
          let st, actions = Alg.execute_through st ~upto:ts ~inclusive:true in
          ls.st <- st;
          f.last_q_applied <- max f.last_q_applied p.q_time;
          drain_applied ();
          handle_actions ~trace:p.q_trace actions;
          match (f.pending_fwd, ls.inflight) with
          | Some w, Some _ when p.q_origin = pid && w.f_qid = p.q_qid -> (
              match
                List.find_map
                  (fun ((e : Alg.entry), r) ->
                    if Prelude.Stamp.equal e.ts ts then Some r else None)
                  ls.st.Alg.applied
              with
              | Some r ->
                  f.pending_fwd <- None;
                  respond r;
                  next_from_backlog ()
              | None -> ())
          | _ -> ())
        (Quorum.Log.applyable f.qlog)
    and cancel_clients why =
      (match fb with
      | Some f ->
          f.gated <- None;
          f.pending_fwd <- None
      | None -> ());
      (match ls.inflight with
      | None -> ()
      | Some (complete, _, _, _, _) -> complete (Rejected why));
      ls.inflight <- None;
      Queue.iter (fun (_, _, _, _, complete) -> complete (Rejected why))
        ls.backlog;
      Queue.clear ls.backlog
    and enter_quorum f ~epoch ~sequencer =
      Quorum.Log.reset f.qlog ~epoch;
      Hashtbl.reset f.fwd_seen;
      f.buffered <- [];
      Obs.Recorder.emit ~pid ~kind:Obs.Event.Mode_switch ~a:1 ~b:epoch ();
      f.qcfg.Quorum.Config.on_mode ~quorum:true ~epoch
        ~seq:(Quorum.Mode_controller.seq_pid f.mc);
      (* A gate-held response is safe now: its entry was broadcast to every
         live peer and sorts below the new era's base. *)
      try_release_gate ~force:true f;
      if sequencer then begin
        let barrier = (2 * cfg.Core.Params.d) + cfg.Core.Params.eps in
        f.draining_until <- Some (Prelude.Mclock.now_us () + barrier);
        arm_timer Qdrain_t barrier
      end
      else begin
        f.draining_until <- None;
        (* Re-route an op forwarded to a previous era's sequencer. *)
        dispatch_fwd f
      end
    and leave_quorum f ~epoch =
      Obs.Recorder.emit ~pid ~kind:Obs.Event.Mode_switch ~a:0 ~b:epoch ();
      f.qcfg.Quorum.Config.on_mode ~quorum:false ~epoch
        ~seq:(Quorum.Mode_controller.seq_pid f.mc);
      f.draining_until <- None;
      (* A forward the old era never ordered re-enters the fast path; one
         it did order completes when the (retained) log's commit arrives. *)
      match f.pending_fwd with
      | Some w when not w.f_proposed ->
          f.pending_fwd <- None;
          dispatch_alg_invoke w.f_op w.f_trace w.f_op_id
      | _ -> ()
    and run_decisions f =
      let fd = f.fd in
      if ls.mode <> Up then ()
      else
      match
        Quorum.Mode_controller.consider f.mc
          ~alive:(Quorum.Failure_detector.alive fd)
          ~all_alive:(Quorum.Failure_detector.all_alive fd)
          ~suspects_any:(Quorum.Failure_detector.suspects_any fd)
          ~lowest:(Quorum.Failure_detector.lowest_alive fd)
      with
      | None -> ()
      | Some Quorum.Mode_controller.Stall ->
          Quorum.Mode_controller.stall f.mc;
          cancel_clients "retry: minority stall";
          run_decisions f
      | Some Quorum.Mode_controller.Unstall ->
          Quorum.Mode_controller.unstall f.mc;
          next_from_backlog ();
          run_decisions f
      | Some Quorum.Mode_controller.Initiate_quorum ->
          let epoch = Quorum.Mode_controller.initiate_quorum f.mc in
          enter_quorum f ~epoch ~sequencer:true;
          run_decisions f
      | Some Quorum.Mode_controller.Initiate_fast ->
          (* Only once the era is fully drained: every slot committed and
             applied, no forward buffered or pending anywhere we know of.
             Until then the decision simply re-fires on a later tick. *)
          if
            Quorum.Log.drained f.qlog
            && f.buffered = []
            && f.pending_fwd = None
            && f.draining_until = None
          then begin
            let epoch =
              Quorum.Mode_controller.initiate_fast f.mc ~floor:(f.next_time - 1)
            in
            leave_quorum f ~epoch
          end
    and submit op trace op_id deadline complete =
      match dedup_check op op_id with
      | Some ((Done r as outcome), invoke_us) ->
          (* A replay answered from the dedup table is a client-visible
             completion like any other: without a record the history would
             come up one op short (the bounced first attempt recorded
             nothing).  The record rides a fresh virtual pid (≥ n, unique
             per record): its [applied-at, now] interval overlaps this
             replica's one-inflight-at-a-time sequence, so putting it on
             [pid] would fabricate program-order constraints the checker
             must not see — only real time orders a replayed completion. *)
          let seq = ls.next_seq in
          ls.next_seq <- ls.next_seq + 1;
          ls.records <-
            { pid = (cfg.Core.Params.n * (1 + seq)) + pid; seq; op;
              result = r; invoke_us; response_us = now_rel () }
            :: ls.records;
          complete outcome
      | Some (outcome, _) -> complete outcome
      | None ->
          if ls.inflight <> None then
            Queue.push (op, trace, op_id, deadline, complete) ls.backlog
          else (
            match fb with
            | Some f when in_quorum f ->
                start_quorum_invoke f op trace op_id complete
            | _ -> start_invoke op trace op_id complete)
    and shed_expired trace complete =
      (* The deadline already passed: doing the work now is dead work the
         client stopped waiting for — refuse it (visibly, as a counted
         [Shed] event) instead of adding it to the queue ahead of ops that
         can still meet theirs.  The op was never executed, so the
         idempotent retry path is always safe. *)
      Obs.Recorder.emit ~pid ~kind:Obs.Event.Shed ~trace
        ~a:Obs.Event.shed_deadline ();
      complete (Rejected "shed: deadline passed")
    and next_from_backlog () =
      if ls.inflight = None && ls.mode = Up && not (Queue.is_empty ls.backlog)
      then begin
        let op, trace, op_id, deadline, complete = Queue.pop ls.backlog in
        if deadline > 0 && Prelude.Mclock.now_us () > deadline then begin
          shed_expired trace complete;
          next_from_backlog ()
        end
        else begin
          submit op trace op_id deadline complete;
          next_from_backlog ()
        end
      end
    and fire_alg_timer t ttrace =
      let st', actions = Alg.on_timer cfg ls.st ~clock:(clock ()) t in
      ls.st <- st';
      drain_applied ();
      handle_actions ~trace:ttrace actions
    and do_unfreeze () =
      ls.mode <- Up;
      ls.timers <-
        List.filter
          (fun e ->
            match e.timer with
            | Unfreeze_t | Catchup_retry_t -> false
            | A _ | Heartbeat_t | Qdrain_t | Qtick_t | Prompt_t _ | Sync_t ->
                true)
          ls.timers;
      let replies = ls.reply_hwms in
      ls.reply_hwms <- [];
      ls.awaiting <- [];
      (* Now that every reply is absorbed, send each replier whatever this
         replica holds above that replier's high-water mark — anti-entropy
         runs both ways, so a peer that itself missed broadcasts while this
         one was down converges too. *)
      List.iter (fun (peer, after) -> push_back peer after) replies;
      let thaw = List.rev ls.deferred in
      ls.deferred <- [];
      List.iter
        (fun te ->
          match te.timer with
          | A t -> fire_alg_timer t te.ttrace
          | Unfreeze_t | Catchup_retry_t | Heartbeat_t | Qdrain_t | Qtick_t
          | Prompt_t _ | Sync_t ->
              ())
        thaw;
      next_from_backlog ()
    in
    let absorb_catchup ~src entries =
      let fresh =
        List.filter
          (fun ((e : Alg.entry), _) -> not (Hashtbl.mem ls.seen e.ts))
          entries
      in
      List.iter
        (fun ((e : Alg.entry), op_id) ->
          Hashtbl.replace ls.seen e.ts ();
          register e.ts op_id;
          let st', actions =
            Alg.on_message cfg ls.st ~clock:(clock ()) ~src e
          in
          ls.st <- st';
          handle_actions ~trace:0 actions)
        fresh;
      if fresh <> [] then
        Obs.Recorder.emit ~pid ~kind:Obs.Event.Catchup ~a:(List.length fresh)
          ~b:src ()
    in
    let catchup_req () =
      Catchup_req
        { time = ls.hwm.Prelude.Stamp.time; cpid = ls.hwm.Prelude.Stamp.pid }
    in
    (* Re-ask often enough that a reply lost to a stale TCP connection (see
       [Catchup_retry_t]) is recovered well inside the unfreeze window: the
       failed first write makes the peer's link reconnect, so the retry's
       reply rides a fresh connection. *)
    (* The catch-up wait: a recovery config's explicit allowance, else (for
       the fallback's reconciliation, which has no recovery config) one
       network round plus skew. *)
    let catchup_wait_us () =
      match recovery with
      | Some rc -> rc.catchup_wait_us
      | None -> cfg.Core.Params.d + cfg.Core.Params.eps
    in
    let schedule_catchup_retry ~wait_us =
      let e =
        { due = Prelude.Mclock.now_us () + max 1 (wait_us / 4);
          tseq = ls.tseq; timer = Catchup_retry_t; ttrace = 0 }
      in
      ls.tseq <- ls.tseq + 1;
      ls.timers <- insert_timer e ls.timers
    in
    let start_catchup ~wait_us =
      ls.mode <- Catching_up;
      let peers =
        List.filter (fun p -> p <> pid) (List.init cfg.Core.Params.n Fun.id)
      in
      if peers = [] then do_unfreeze ()
      else begin
        ls.awaiting <- peers;
        ls.reply_hwms <- [];
        Transport_intf.broadcast transport ~trace:0 ~src:pid (catchup_req ());
        let e =
          { due = Prelude.Mclock.now_us () + wait_us;
            tseq = ls.tseq; timer = Unfreeze_t; ttrace = 0 }
        in
        ls.tseq <- ls.tseq + 1;
        ls.timers <- insert_timer e ls.timers;
        schedule_catchup_retry ~wait_us
      end
    in
    (* Adopted a fast-path announcement while behind: this replica joined
       the quorum era late (its log has holes below the slots it saw) or
       missed one or more eras outright.  The retained-log repair path is
       dead — no sequencer remains interested in the old era — so
       resynchronise through the recovery catch-up instead.  Waiting
       clients are bounced to a caught-up replica; op ids make the replays
       idempotent. *)
    let reconcile_via_catchup f ~epoch =
      Obs.Recorder.emit ~pid ~kind:Obs.Event.Mode_switch ~a:0 ~b:epoch ();
      f.qcfg.Quorum.Config.on_mode ~quorum:false ~epoch
        ~seq:(Quorum.Mode_controller.seq_pid f.mc);
      f.draining_until <- None;
      f.buffered <- [];
      f.must_reconcile <- false;
      cancel_clients "retry: reconciling";
      start_catchup ~wait_us:(catchup_wait_us ())
    in
    (* Quorum-protocol frames.  Epoch discipline: Forward/Propose validate
       against the mode controller's era; Qack/Qcommit/Qfill against the
       log's (retained across a switch back, so a late commit for the old
       era still applies). *)
    let handle_quorum ~src q =
      match fb with
      | None -> ()
      | Some f -> (
          match q with
          | Hb { stamp; epoch; qmode; seq; floor; ack; want } ->
              (* Heartbeats are timestamped: when sync is armed they double
                 as free one-way offset samples (Lundelius–Lynch midpoint,
                 uncertainty u/2) between probe rounds. *)
              (match sy with
              | Some s ->
                  Sync.Estimator.observe_one_way s.sest ~peer:src
                    ~now:(now_rel ()) ~d:s.scfg.Sync.Config.d
                    ~u:s.scfg.Sync.Config.u ~sent:stamp ~clock:(clock ())
              | None -> ());
              let cleared =
                Quorum.Failure_detector.heard f.fd ~peer:src ~stamp
                  ~now_us:(Prelude.Mclock.now_us ())
              in
              if cleared then begin
                Obs.Recorder.emit ~pid ~kind:Obs.Event.Suspect ~a:src ~b:0 ();
                f.qcfg.Quorum.Config.on_suspect ~peer:src ~suspected:false
              end;
              if ack <> 0 then Quorum.Gate.ack f.gate ~peer:src ~stamp:ack;
              (* One pending reply per requester: a newer prompt replaces
                 the older (its op is done).  A pending reply already has
                 its timer, which re-arms for the new mark when it fires
                 short; only a mark earlier than the pending one needs its
                 own. *)
              if want <> 0 then begin
                let pending = f.prompts.(src) in
                f.prompts.(src) <- want;
                if pending = 0 || want < pending then serve_prompt f src
              end;
              let prev_epoch = Quorum.Mode_controller.epoch f.mc in
              (match
                 Quorum.Mode_controller.observe f.mc ~epoch ~quorum:qmode ~seq
                   ~floor
               with
              | Quorum.Mode_controller.Adopted ->
                  (* An epoch jump of more than one means whole eras went by
                     unseen — whatever they committed is missing here. *)
                  let jumped = epoch - prev_epoch > 1 in
                  if qmode then begin
                    if jumped then f.must_reconcile <- true;
                    enter_quorum f ~epoch ~sequencer:false
                  end
                  else if
                    jumped || f.must_reconcile
                    || not (Quorum.Log.drained f.qlog)
                  then reconcile_via_catchup f ~epoch
                  else leave_quorum f ~epoch
              | Quorum.Mode_controller.Ignored -> ());
              try_release_gate ~force:false f;
              run_decisions f
          | Forward { qid; origin; op; op_id; trace } ->
              if
                in_quorum f
                && Quorum.Mode_controller.is_sequencer f.mc
                && ls.mode = Up
              then
                sequencer_admit f
                  { q_time = 0; q_op = op; q_origin = origin; q_qid = qid;
                    q_op_id = op_id; q_trace = trace }
              else
                Transport_intf.send transport ~trace ~src:pid ~dst:origin
                  (Quorum_msg (Fnack { qid }))
          | Propose { epoch; qseq; p } ->
              if epoch = Quorum.Mode_controller.epoch f.mc && in_quorum f
              then begin
                if Quorum.Log.epoch f.qlog <> epoch then begin
                  Quorum.Log.reset f.qlog ~epoch;
                  Hashtbl.reset f.fwd_seen
                end;
                Quorum.Log.store f.qlog ~qseq p;
                register
                  (Prelude.Stamp.make ~time:p.q_time ~pid:p.q_origin)
                  p.q_op_id;
                (if p.q_origin = pid then
                   match f.pending_fwd with
                   | Some w when w.f_qid = p.q_qid -> w.f_proposed <- true
                   | _ -> ());
                Transport_intf.send transport ~trace:p.q_trace ~src:pid
                  ~dst:src (Quorum_msg (Qack { epoch; qseq }));
                (* a Qfill-refilled hole may have unblocked the prefix *)
                apply_committed f
              end
          | Qack { epoch; qseq } ->
              if
                epoch = Quorum.Log.epoch f.qlog
                && Quorum.Log.ack f.qlog ~qseq ~from:src
              then do_commit f qseq
          | Qcommit { epoch; qseq } ->
              if epoch = Quorum.Log.epoch f.qlog then begin
                Quorum.Log.commit f.qlog ~qseq;
                apply_committed f
              end
          | Fnack { qid } -> (
              match f.pending_fwd with
              | Some w when w.f_qid = qid && not w.f_proposed ->
                  w.f_nacks <- w.f_nacks + 1;
                  if w.f_nacks > 3 then begin
                    (* Routing is flapping (sequencer handover storm):
                       bounce the client rather than loop forever. *)
                    f.pending_fwd <- None;
                    match ls.inflight with
                    | Some (complete, _, _, _, _) ->
                        ls.inflight <- None;
                        complete (Rejected "retry: quorum reroute");
                        next_from_backlog ()
                    | None -> ()
                  end
                  else if not (in_quorum f) then begin
                    f.pending_fwd <- None;
                    dispatch_alg_invoke w.f_op w.f_trace w.f_op_id
                  end
                  else dispatch_fwd f
              | _ -> ())
          | Qfill { epoch; from_seq } ->
              if
                epoch = Quorum.Log.epoch f.qlog
                && Quorum.Mode_controller.is_sequencer f.mc
              then
                for qseq = from_seq to Quorum.Log.highest f.qlog do
                  match Quorum.Log.payload f.qlog ~qseq with
                  | Some p ->
                      Transport_intf.send transport ~trace:p.q_trace ~src:pid
                        ~dst:src (Quorum_msg (Propose { epoch; qseq; p }));
                      if Quorum.Log.committed f.qlog ~qseq then
                        Transport_intf.send transport ~trace:0 ~src:pid
                          ~dst:src (Quorum_msg (Qcommit { epoch; qseq }))
                  | None -> ()
                done)
    in
    let drain_on_stop () =
      (* Answer every client still waiting: their operations will never
         respond (the replica is gone), and a blocked caller of
         [invoke_on] would otherwise hang teardown. *)
      (match ls.inflight with
      | None -> ()
      | Some (complete, _, _, _, _) -> complete Cancelled);
      ls.inflight <- None;
      Queue.iter (fun (_, _, _, _, complete) -> complete Cancelled) ls.backlog;
      Queue.clear ls.backlog;
      List.rev ls.records
    in
    let rec loop () =
      let deadline = match ls.timers with [] -> None | e :: _ -> Some e.due in
      match Transport_intf.recv transport ~me:pid ~deadline with
      | Some (src, Net (m, trace, op_id)) ->
          (match ls.mode with
          | Down -> ()  (* the replica is down: the message is lost *)
          | Up | Catching_up ->
              (* Under fallback, a fresh fast-path entry stamped at or below
                 this replica's own quorum-applied high-point is a healed
                 straggler from before a switch: its origin never got a
                 (gated) ack for it, and admitting it would order it into
                 already-executed history.  Keyed on the *local*
                 [last_q_applied] so a rejoining replica (whose own mark is
                 still low) keeps accepting catch-up entries. *)
              let stale_q =
                match fb with
                | Some f ->
                    (not (Hashtbl.mem ls.seen m.Alg.ts))
                    && m.Alg.ts.Prelude.Stamp.time <= f.last_q_applied
                | None -> false
              in
              if stale_q then ()
              else if dedup && Hashtbl.mem ls.seen m.Alg.ts then
                ()  (* replayed entry (push-back or duplicate): drop *)
              else begin
                if dedup then begin
                  Hashtbl.replace ls.seen m.Alg.ts ();
                  register m.Alg.ts op_id
                end;
                if Obs.Recorder.active () then
                  Obs.Recorder.emit ~pid ~kind:Obs.Event.Deliver ~trace ~a:src
                    ~b:(Transport_intf.depth transport ~me:pid) ();
                let st', actions =
                  Alg.on_message cfg ls.st ~clock:(clock ()) ~src m
                in
                ls.st <- st';
                drain_applied ();
                (* [Apply] marks the entry's hand-off to the protocol state
                   machine; Algorithm 1 may defer its execution to ts order. *)
                Obs.Recorder.emit ~pid ~kind:Obs.Event.Apply ~trace ~a:src ();
                handle_actions ~trace actions;
                (* The entry is now held: ack it to its origin, whose
                   release gate may be withholding the op's response.  Only
                   pure mutators are freed by acks, and only an up,
                   fast-mode replica acks — a frozen one defers, and quorum
                   mode never gates. *)
                match fb with
                | Some f
                  when ls.mode = Up && src = m.Alg.ts.Prelude.Stamp.pid
                       && m.Alg.ts.Prelude.Stamp.time <> 0
                       && D.classify m.Alg.op = Spec.Data_type.Pure_mutator
                       && not (in_quorum f) ->
                    send_hb f ~dst:src ~ack:m.Alg.ts.Prelude.Stamp.time ()
                | _ -> ()
              end);
          loop ()
      | Some (src, Catchup_req { time; cpid }) ->
          (match ls.mode with
          | Down -> ()
          | Up | Catching_up ->
              let after = Prelude.Stamp.make ~time ~pid:cpid in
              let entries = entries_after after in
              Obs.Recorder.emit ~pid ~kind:Obs.Event.Catchup
                ~a:(List.length entries) ~b:src ();
              Transport_intf.send transport ~trace:0 ~src:pid ~dst:src
                (Catchup_rep
                   {
                     entries;
                     time = ls.hwm.Prelude.Stamp.time;
                     cpid = ls.hwm.Prelude.Stamp.pid;
                   }));
          loop ()
      | Some (src, Catchup_rep { entries; time; cpid }) ->
          (match ls.mode with
          | Down -> ()
          | Up | Catching_up -> (
              absorb_catchup ~src entries;
              let rh = Prelude.Stamp.make ~time ~pid:cpid in
              match ls.mode with
              | Catching_up ->
                  ls.reply_hwms <- (src, rh) :: ls.reply_hwms;
                  ls.awaiting <- List.filter (fun p -> p <> src) ls.awaiting;
                  if ls.awaiting = [] then do_unfreeze ()
              | Up ->
                  (* Late reply after the timeout already thawed us: push
                     back immediately instead of at thaw. *)
                  push_back src rh
              | Down -> ()));
          loop ()
      | Some (src, Quorum_msg q) ->
          (match ls.mode with
          | Down -> ()
          | Up | Catching_up -> handle_quorum ~src q);
          loop ()
      | Some (src, Sync_msg sw) ->
          (match (ls.mode, sy) with
          | Down, _ | _, None -> ()  (* down replicas answer nothing *)
          | (Up | Catching_up), Some s -> (
              match sw with
              | Sping { seq; t0 } ->
                  (* Echo immediately: the responder's rx and tx readings
                     coincide (one clock read), which only tightens the
                     prober's RTT-asymmetry uncertainty. *)
                  let t_rx = clock () in
                  Transport_intf.send transport ~trace:0 ~src:pid ~dst:src
                    (Sync_msg (Spong { seq; t0; t_rx; t_tx = t_rx }))
              | Spong { seq = _; t0; t_rx; t_tx } ->
                  let t1 = clock () in
                  Sync.Estimator.observe_two_way s.sest ~peer:src
                    ~now:(now_rel ()) ~t0 ~t1 ~t_rx ~t_tx;
                  if Obs.Recorder.active () then
                    Obs.Recorder.emit ~pid ~kind:Obs.Event.Sync_probe ~a:src
                      ~b:(((t_rx - t0) + (t_tx - t1)) / 2)
                      ()));
          loop ()
      | Some (_, Invoke (op, trace, op_id, deadline, complete)) ->
          (if deadline > 0 && Prelude.Mclock.now_us () > deadline then
             shed_expired trace complete
           else
             match fb with
             | Some _ when ls.mode = Down ->
                 complete (Rejected "retry: replica down")
             | Some f when Quorum.Mode_controller.stalled f.mc ->
                 complete (Rejected "retry: minority stall")
             | _ ->
                 if ls.mode <> Up then
                   Queue.push (op, trace, op_id, deadline, complete)
                     ls.backlog
                 else submit op trace op_id deadline complete);
          loop ()
      | Some (_, Crash_now) ->
          (match (ls.rec_mode, fb) with
          | None, None -> ()  (* crash realisation is transport isolation *)
          | _ ->
              ls.mode <- Down;
              if fb <> None then cancel_clients "retry: replica down");
          loop ()
      | Some (_, Recover_now) ->
          (match (ls.rec_mode, ls.mode) with
          | None, Down when fb <> None ->
              (* No durability layer: rejoin live and anti-entropy the gap
                 (peers answer the catch-up request with what we missed). *)
              ls.mode <- Up;
              Transport_intf.broadcast transport ~trace:0 ~src:pid
                (catchup_req ())
          | None, _ | _, Catching_up -> ()
          | Some rc, (Up | Down) ->
              start_catchup ~wait_us:rc.catchup_wait_us);
          loop ()
      | Some (_, Snap_req f) ->
          let v_applied =
            List.rev_map
              (fun ((e : Alg.entry), r) ->
                ( e,
                  r,
                  Option.value ~default:0 (Hashtbl.find_opt ls.stamp_ids e.ts)
                ))
              ls.st.Alg.applied
          in
          f
            {
              v_obj = ls.st.Alg.local_obj;
              v_hwm_time = ls.hwm.Prelude.Stamp.time;
              v_hwm_pid = ls.hwm.Prelude.Stamp.pid;
              v_applied;
            };
          loop ()
      | Some (_, Stop) -> drain_on_stop ()
      | None -> (
          (* The earliest timer is due, and (per [Mailbox.take]) no ripe
             message predates it: fire exactly one and re-merge. *)
          match ls.timers with
          | [] -> loop ()
          | e :: rest ->
              ls.timers <- rest;
              (match e.timer with
              | Unfreeze_t ->
                  if ls.mode = Catching_up then do_unfreeze ()
              | Catchup_retry_t ->
                  if ls.mode = Catching_up && ls.awaiting <> [] then begin
                    List.iter
                      (fun peer ->
                        Transport_intf.send transport ~trace:0 ~src:pid
                          ~dst:peer (catchup_req ()))
                      ls.awaiting;
                    schedule_catchup_retry ~wait_us:(catchup_wait_us ())
                  end
              | Heartbeat_t ->
                  (match fb with
                  | Some f ->
                      (if ls.mode = Up then begin
                         send_hb f ();
                         let newly =
                           Quorum.Failure_detector.tick f.fd
                             ~now_us:(Prelude.Mclock.now_us ())
                         in
                         List.iter
                           (fun peer ->
                             Obs.Recorder.emit ~pid ~kind:Obs.Event.Suspect
                               ~a:peer ~b:1 ();
                             f.qcfg.Quorum.Config.on_suspect ~peer
                               ~suspected:true)
                           newly;
                         run_decisions f
                       end);
                      arm_timer Heartbeat_t f.qcfg.Quorum.Config.hb_us
                  | None -> ())
              | Qdrain_t ->
                  (match fb with
                  | Some f
                    when f.draining_until <> None
                         && Quorum.Mode_controller.is_sequencer f.mc
                         && in_quorum f ->
                      (* The switch barrier: every fast-path entry broadcast
                         before the era change has had 2d + ε to land.
                         Execute everything below the era's stamp base, then
                         admit the forwards buffered during the drain. *)
                      f.draining_until <- None;
                      let queued_max =
                        List.fold_left
                          (fun acc (e : Alg.entry) ->
                            max acc e.ts.Prelude.Stamp.time)
                          min_int
                          (Alg.Queue.to_sorted_list ls.st.Alg.to_execute)
                      in
                      let base =
                        1
                        + List.fold_left max
                            (clock () + cfg.Core.Params.eps)
                            [ ls.hwm.Prelude.Stamp.time; queued_max;
                              Quorum.Mode_controller.floor f.mc;
                              f.last_q_applied ]
                      in
                      let st, actions =
                        Alg.execute_through ls.st
                          ~upto:(Prelude.Stamp.make ~time:base ~pid:(-1))
                          ~inclusive:false
                      in
                      ls.st <- st;
                      drain_applied ();
                      handle_actions ~trace:0 actions;
                      f.next_time <- base;
                      let buffered = List.rev f.buffered in
                      f.buffered <- [];
                      List.iter (fun p -> sequencer_admit f p) buffered
                  | _ -> ())
              | Qtick_t ->
                  (match fb with
                  | Some f ->
                      (if ls.mode = Up && in_quorum f then begin
                         let timeout = Quorum.Config.timeout_us f.qcfg in
                         (match (f.pending_fwd, ls.inflight) with
                         | Some w, Some (complete, _, _, _, _)
                           when Prelude.Mclock.now_us () - w.f_sent_us
                                > 2 * timeout ->
                             f.pending_fwd <- None;
                             ls.inflight <- None;
                             complete (Rejected "retry: quorum timeout");
                             next_from_backlog ()
                         | Some w, _
                           when (not w.f_proposed)
                                && not
                                     (Quorum.Mode_controller.is_sequencer f.mc)
                           ->
                             dispatch_fwd f
                         | _ -> ());
                         if not (Quorum.Mode_controller.is_sequencer f.mc)
                         then
                           match Quorum.Log.missing f.qlog with
                           | [] -> ()
                           | missing ->
                               let from_seq =
                                 List.fold_left min max_int missing
                               in
                               Transport_intf.send transport ~trace:0 ~src:pid
                                 ~dst:(Quorum.Mode_controller.seq_pid f.mc)
                                 (Quorum_msg
                                    (Qfill
                                       {
                                         epoch = Quorum.Log.epoch f.qlog;
                                         from_seq;
                                       }))
                       end);
                      (* a switch back blocked on the drain retries here *)
                      if ls.mode = Up then run_decisions f;
                      if Sys.getenv_opt "TIMEBOUNDS_QDEBUG" <> None then
                        Printf.eprintf
                          "[qdbg %d] mode=%s up=%b epoch=%d seq=%b \
                           inflight=%b gated=%b pend=%s backlog=%d \
                           drained=%b buffered=%d draining=%b next_time=%d \
                           last_q=%d queue=%d\n\
                           %!"
                          pid
                          (if in_quorum f then "quorum" else "fast")
                          (ls.mode = Up)
                          (Quorum.Mode_controller.epoch f.mc)
                          (Quorum.Mode_controller.is_sequencer f.mc)
                          (ls.inflight <> None) (f.gated <> None)
                          (match f.pending_fwd with
                          | None -> "-"
                          | Some w ->
                              Printf.sprintf "qid=%d,prop=%b" w.f_qid
                                w.f_proposed)
                          (Queue.length ls.backlog)
                          (Quorum.Log.drained f.qlog)
                          (List.length f.buffered)
                          (f.draining_until <> None)
                          f.next_time f.last_q_applied
                          (Alg.Queue.size ls.st.Alg.to_execute);
                      arm_timer Qtick_t
                        (max 1 (Quorum.Config.timeout_us f.qcfg / 2))
                  | None -> ())
              | Prompt_t src ->
                  (match fb with Some f -> serve_prompt f src | None -> ())
              | Sync_t ->
                  (match sy with
                  | Some s ->
                      (if ls.mode = Up then begin
                         (* Absorb the round's samples: feed the Lundelius–
                            Lynch average correction to the slewed clock,
                            shift the estimator so it isn't re-applied, and
                            publish the achieved-ε estimate before probing
                            again. *)
                         let c = Sync.Estimator.correction s.sest in
                         if c <> 0 then begin
                           Sync.Clock.adjust s.sclock ~delta:c;
                           Sync.Estimator.shift s.sest ~by:c
                         end;
                         let peers = Sync.Estimator.peers s.sest in
                         if peers > 0 then begin
                           let eps_us =
                             Sync.Estimator.achieved_eps s.sest
                               ~now:(now_rel ())
                           in
                           Obs.Recorder.emit ~pid ~kind:Obs.Event.Sync_eps
                             ~a:eps_us ~b:peers ();
                           s.scfg.Sync.Config.on_eps ~eps_us ~peers
                         end;
                         s.sseq <- s.sseq + 1;
                         Transport_intf.broadcast transport ~trace:0 ~src:pid
                           (Sync_msg (Sping { seq = s.sseq; t0 = clock () }))
                       end);
                      arm_timer Sync_t s.scfg.Sync.Config.interval_us
                  | None -> ())
              | A (Alg.Add _ as t) ->
                  (* Self-delivery of an already-broadcast entry: enqueue
                     even while frozen, keeping the local queue consistent
                     with what peers received. *)
                  fire_alg_timer t e.ttrace
              | A t ->
                  if ls.mode = Up then fire_alg_timer t e.ttrace
                  else ls.deferred <- e :: ls.deferred);
              loop ())
    in
    (match fb with
    | Some f ->
        arm_timer Heartbeat_t f.qcfg.Quorum.Config.hb_us;
        arm_timer Qtick_t (max 1 (Quorum.Config.timeout_us f.qcfg / 2))
    | None -> ());
    (match sy with
    | Some s ->
        (* First round fires early so probing (and the first correction)
           starts well before the load does. *)
        arm_timer Sync_t (max 1 (s.scfg.Sync.Config.interval_us / 8))
    | None -> ());
    loop ()

  (* ---- single node: one replica on one domain, any transport ---- *)

  type node = {
    node_pid : int;
    node_transport : event Transport_intf.t;
    node_start_us : int;
    node_join : unit -> record list;
        (** join the replica's execution vehicle (domain or thread) and
            return its records; called exactly once, from [node_stop] *)
    mutable node_stopped : bool;
  }

  let node ~params ~transport ~pid ?(offset = 0) ?start_us ?(threaded = false)
      ?recovery ?fallback ?sync () =
    let start_us =
      match start_us with Some s -> s | None -> Prelude.Mclock.now_us ()
    in
    let body () =
      (* Hold timers are the paper's share of every latency: let the kernel
         fire this thread's waits on time instead of up to 50 µs late. *)
      Prelude.Os.set_timer_slack_ns 1;
      run_replica ~params ?recovery ?fallback ?sync ~transport ~start_us
        ~offset pid
    in
    let join =
      if threaded then begin
        (* Systhread vehicle: many replicas share one domain's runtime
           lock, which the event loop releases whenever it blocks in
           [Mailbox.take] — the right trade for a sharded host running
           far more replicas than the ~128-domain ceiling allows. *)
        let result = ref [] in
        let t = Thread.create (fun () -> result := body ()) () in
        fun () ->
          Thread.join t;
          !result
      end
      else
        let d = Domain.spawn body in
        fun () -> Domain.join d
    in
    {
      node_pid = pid;
      node_transport = transport;
      node_start_us = start_us;
      node_join = join;
      node_stopped = false;
    }

  let post_invoke ?(trace = 0) ?(op_id = 0) ?(deadline = 0) transport ~pid op
      complete =
    Transport_intf.post transport ~src:pid ~dst:pid
      (Invoke (op, trace, op_id, deadline, complete))

  let invoke_on ?trace ?op_id ?deadline transport ~pid op =
    let lock = Mutex.create () and cond = Condition.create () in
    let answer = ref None in
    post_invoke ?trace ?op_id ?deadline transport ~pid op (fun o ->
        Mutex.lock lock;
        answer := Some o;
        Condition.signal cond;
        Mutex.unlock lock);
    Mutex.lock lock;
    while Option.is_none !answer do
      Condition.wait cond lock
    done;
    Mutex.unlock lock;
    match !answer with
    | Some (Done r) -> r
    | Some Cancelled | None -> raise Stopped
    | Some (Rejected why) -> raise (Retry_later why)

  let node_invoke ?trace ?op_id ?deadline node op =
    invoke_on ?trace ?op_id ?deadline node.node_transport ~pid:node.node_pid op

  let node_stop node =
    if node.node_stopped then []
    else begin
      node.node_stopped <- true;
      Transport_intf.post node.node_transport ~src:node.node_pid
        ~dst:node.node_pid Stop;
      node.node_join ()
    end

  let node_elapsed_us node = Prelude.Mclock.now_us () - node.node_start_us

  let post_crash transport ~pid =
    Transport_intf.post transport ~src:pid ~dst:pid Crash_now

  let post_recover transport ~pid =
    Transport_intf.post transport ~src:pid ~dst:pid Recover_now

  let request_snapshot transport ~pid f =
    Transport_intf.post transport ~src:pid ~dst:pid (Snap_req f)

  (* ---- in-process cluster: n nodes sharing one bus transport ---- *)

  type cluster = {
    params : Core.Params.t;
    transport : event Transport_intf.t;
    start_us : int;
    nodes : node array;
    mutable stopped : bool;
    mutable records : record list;
  }

  let start ~params ?policy ?offsets ?wrap ?recovery ?fallback ?sync () =
    let n = params.Core.Params.n in
    let offsets =
      match offsets with Some o -> Array.copy o | None -> Array.make n 0
    in
    if Array.length offsets <> n then
      invalid_arg "Replica.start: offsets length must be n";
    let start_us = Prelude.Mclock.now_us () in
    let transport =
      let bus = Transport.bus ~n () in
      let base =
        Transport.intf
          (match policy with
          | None -> bus
          | Some policy -> Transport.with_delays ~policy bus)
      in
      match wrap with
      | None -> base
      | Some (w : Transport_intf.wrapper) -> w.Transport_intf.wrap ~start_us base
    in
    {
      params;
      transport;
      start_us;
      nodes =
        Array.init n (fun pid ->
            node ~params ~transport ~pid ~offset:offsets.(pid) ~start_us
              ?recovery ?fallback ?sync ());
      stopped = false;
      records = [];
    }

  let invoke ?trace ?op_id cluster ~pid op =
    invoke_on ?trace ?op_id cluster.transport ~pid op

  let crash cluster ~pid = post_crash cluster.transport ~pid
  let recover cluster ~pid = post_recover cluster.transport ~pid

  module Client = struct
    let invoke ?trace cluster ~pid op = invoke ?trace cluster ~pid op
  end

  let stop cluster =
    if not cluster.stopped then begin
      cluster.stopped <- true;
      let records =
        Array.to_list cluster.nodes |> List.concat_map node_stop
      in
      Transport_intf.close cluster.transport;
      cluster.records <-
        List.sort
          (fun (a : record) b ->
            match compare a.invoke_us b.invoke_us with
            | 0 -> compare (a.pid, a.seq) (b.pid, b.seq)
            | c -> c)
          records
    end

  let history cluster =
    if not cluster.stopped then
      invalid_arg "Replica.history: stop the cluster first";
    cluster.records

  let elapsed_us cluster = Prelude.Mclock.now_us () - cluster.start_us
  let transport_stats cluster = Transport_intf.stats cluster.transport
end
