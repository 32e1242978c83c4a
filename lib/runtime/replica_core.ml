(** See the interface for the model mapping and the effect boundary.

    Recovery additions: a replica can be {e frozen} — either [Down]
    (an injected crash: it processes nothing, realising the fault the
    process path realises with SIGKILL) or [Catching_up] (just restarted:
    it broadcasts a catch-up request carrying its high-water mark, absorbs
    replies, and thaws when every peer answered or a timeout fires).
    While frozen, [Execute]/[Respond_*] timers are deferred (nothing
    applies, so the high-water mark stays contiguous) and client invokes
    are backlogged.  Operation ids ride on every broadcast entry, so a
    replica can recognise a client's replay of an operation it already
    holds and answer idempotently.

    Bounded state: a replica keeps the object, not its history.  Applied
    entries stay in a FIFO, in stamp order, only while they are inside the
    dedup window; the window's floor stands for every older stamp.  A
    catch-up asker at or above this replica's high-water mark gets the
    queued entries above its mark, one below it a state transfer. *)

module Make (D : Spec.Data_type.S) = struct
  module Alg = Core.Algorithm1.Make (D)

  type outcome = Done of D.result | Cancelled | Rejected of string

  type durable = {
    obj : D.state;
    hwm_time : int;
    hwm_pid : int;
    window : (Alg.entry * D.result * int) list;  (** oldest first *)
  }

  type recovery = {
    catchup_wait_us : int;
    on_apply : Alg.entry -> D.result -> int -> unit;
    on_transfer : src:int -> durable -> unit;
    recovered : durable option;
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
    | Forward of { qid : int; origin : int; op : D.op; op_id : int; trace : int }
    | Propose of { epoch : int; qseq : int; p : qpayload }
    | Qack of { epoch : int; qseq : int }
    | Qcommit of { epoch : int; qseq : int }
    | Fnack of { qid : int }
    | Qfill of { epoch : int; from_seq : int }

  (* ---- clock-synchronization wire protocol (DESIGN.md §14) ---- *)

  type swire =
    | Sping of { seq : int; t0 : int }
    | Spong of { seq : int; t0 : int; t_rx : int; t_tx : int }

  type wire =
    | Wire_entry of Alg.entry * int * int  (** entry, trace, op id (0 = none) *)
    | Wire_catchup_req of { time : int; cpid : int }
    | Wire_catchup_rep of {
        entries : (Alg.entry * int) list;
        time : int;
        cpid : int;
      }
    | Wire_catchup_state of {
        obj : D.state;
        time : int;
        cpid : int;
        window : (Alg.entry * D.result * int) list;
        entries : (Alg.entry * int) list;
      }
    | Wire_quorum of qwire
    | Wire_sync of swire

  type call = {
    op : D.op;
    trace : int;
    op_id : int;
    deadline : int;
    ticket : int;
  }
  type reply = { ticket : int; outcome : outcome }
  type control = Start | Crash | Recover | Stop

  let call ?(trace = 0) ?(op_id = 0) ?(deadline = max_int) ?(ticket = 0) op =
    { op; trace; op_id; deadline; ticket }

  type config = {
    params : Core.Params.t;
    recovery : recovery option;
    fallback : Quorum.Config.t option;
    sync : Sync.Config.t option;
    dedup_window_us : int;
  }

  (* An entry stamped ts reaches every replica within max(d, [add_wait])
     of its stamp and executes at most [execute_wait] after it arrives;
     clocks are within ε; quorum commits land up to two more round trips
     (2d) later.  The dedup window is at least twice that, so every
     replica that is up has applied an entry before it leaves the window
     and its stamp falls under the floor, with room for drivers that step
     late. *)
  let min_window_us (config : config) =
    let p = config.params in
    let settle =
      max p.Core.Params.d p.Core.Params.timing.Core.Params.add_wait
      + p.Core.Params.timing.Core.Params.execute_wait + p.Core.Params.eps
    in
    2 * if config.fallback = None then settle else settle + (2 * p.Core.Params.d)

  (* [Catchup_retry_t] re-asks the peers that still owe a catch-up reply:
     over TCP the first write onto a connection whose remote died is
     accepted by the kernel and lost (the error only surfaces on the next
     write), so a one-shot request/reply exchange straddling a crash can
     vanish silently — retrying until every peer answers (or the unfreeze
     timeout lapses) makes anti-entropy immune to it. *)
  type timer =
    | A of Alg.timer * int
    | Unfreeze_t
    | Catchup_retry_t
    | Heartbeat_t
    | Qdrain_t
    | Qtick_t
    | Prompt_t of int
    | Sync_t
    | Fresh_t

  let equal_timer a b =
    match (a, b) with
    | A (t, _), A (t', _) -> Alg.equal_timer t t'
    | A _, _ | _, A _ -> false
    | _ -> a = b

  type op = call
  type result = reply
  type msg = wire
  type action = (reply, wire, timer) Sim.Action.t

  let name = "replica-core"

  type mode = Up | Down | Catching_up

  type id_state =
    | Queued
    | Applied_id of D.result  (** the recorded result *)

  (* The origin-side record of an operation routed through the quorum
     path: enough to re-send the forward (same [f_qid], so the sequencer
     recognises retries) or re-dispatch it down the fast path. *)
  type fwd = {
    f_qid : int;
    f_op : D.op;
    f_op_id : int;
    f_trace : int;
    mutable f_sent_us : int;  (** local clock of the last (re-)send *)
    mutable f_proposed : bool;  (** a Propose for it was seen *)
    mutable f_nacks : int;
  }

  type fallback_state = {
    qcfg : Quorum.Config.t;
    mutable fd : Quorum.Failure_detector.t;  (** re-made at boot *)
    mc : Quorum.Mode_controller.t;
    qlog : qpayload Quorum.Log.t;
    fwd_seen : (int * int, int) Hashtbl.t;  (** (origin, qid) → qseq *)
    mutable draining_until : int option;
        (** sequencer only: switch barrier deadline (local clock) *)
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

  (* Live clock synchronization (armed by [sync]): the slewed corrected
     clock every timestamp is drawn from, plus the per-peer estimator the
     probe rounds feed. *)
  type sync_state = {
    scfg : Sync.Config.t;
    sclock : Sync.Clock.t;
    sest : Sync.Estimator.t;
    mutable sseq : int;  (** probe sequence number *)
  }

  type state = {
    pid : int;
    p : Core.Params.t;
    rec_mode : recovery option;
    fb : fallback_state option;
    sy : sync_state option;
    dedup : bool;
        (** the fallback leans on the same dedup tables recovery uses: op
            ids are how a re-routed (or re-proposed) operation is
            recognised *)
    mutable now : int;  (** raw local clock of the step in progress *)
    mutable out : action list;  (** the step's outputs, newest first *)
    mutable booted : bool;
    mutable st : Alg.state;
    mutable inflight : (call * int) option;  (** call, invoked at *)
    mutable own_ts : Prelude.Stamp.t;
        (** stamp of the latest own fast-path op: the in-flight one's
            (what the gate keys on), and the one the next must sort above *)
    mutable fresh_armed : bool;  (** a [Fresh_t] is pending *)
    backlog : call Queue.t;
    mutable mode : mode;
    mutable deferred : (Alg.timer * int) list;  (** newest first *)
    mutable awaiting : int list;  (** peers owing a catch-up reply *)
    mutable reply_hwms : (int * Prelude.Stamp.t) list;
        (** replier high-water marks, pushed back to at thaw *)
    seen : (Prelude.Stamp.t, unit) Hashtbl.t;
    mutable seen_floor : Prelude.Stamp.t;
        (** every stamp at or below it counts as seen: expired from
            [seen], or folded into the object by recovery or a transfer *)
    stamp_ids : (Prelude.Stamp.t, int) Hashtbl.t;  (** until applied *)
    id_index : (int, id_state) Hashtbl.t;
    mutable hwm : Prelude.Stamp.t;  (** max applied stamp; time −1 = none *)
    recent : (Alg.entry * int) Queue.t;
        (** the dedup window: applied entries and their op ids (0 = none),
            stamp order; empty without dedup *)
    window_us : int;  (** at least {!min_window_us} *)
  }

  let no_hwm = Prelude.Stamp.make ~time:(-1) ~pid:0
  let bottom = Prelude.Stamp.make ~time:min_int ~pid:0
  let class_of op = Obs.Event.class_code (D.classify op)

  let init (config : config) ~n ~pid =
    let p = config.params in
    if n <> p.Core.Params.n then invalid_arg "Replica_core.init: n <> params.n";
    let t =
      {
        pid;
        p;
        rec_mode = config.recovery;
        fb =
          Option.map
            (fun (qcfg : Quorum.Config.t) ->
              {
                qcfg;
                fd =
                  Quorum.Failure_detector.make ~n ~me:pid ~hb_us:qcfg.hb_us
                    ~suspect_after:qcfg.suspect_after ~now_us:0;
                mc = Quorum.Mode_controller.make ~n ~me:pid;
                qlog = Quorum.Log.create ~n ~epoch:0;
                fwd_seen = Hashtbl.create 64;
                draining_until = None;
                next_time = 0;
                last_q_applied = min_int;
                pending_fwd = None;
                buffered = [];
                gated = None;
                gate = Quorum.Gate.make ~n ~me:pid;
                prompts = Array.make n 0;
                next_qid = 1;
                must_reconcile = false;
              })
            config.fallback;
        sy =
          Option.map
            (fun scfg ->
              {
                scfg;
                sclock = Sync.Clock.create ();
                sest = Sync.Estimator.create ~n ~me:pid ();
                sseq = 0;
              })
            config.sync;
        dedup = Option.is_some config.recovery || Option.is_some config.fallback;
        now = 0;
        out = [];
        booted = false;
        st = Alg.init p ~n ~pid;
        inflight = None;
        own_ts = bottom;
        fresh_armed = false;
        backlog = Queue.create ();
        mode = Up;
        deferred = [];
        awaiting = [];
        reply_hwms = [];
        seen = Hashtbl.create 256;
        stamp_ids = Hashtbl.create 256;
        id_index = Hashtbl.create 256;
        seen_floor = bottom;
        hwm = no_hwm;
        recent = Queue.create ();
        window_us = max config.dedup_window_us (min_window_us config);
      }
    in
    (* Seed the protocol state from the durable prefix, if any: the object
       and its high-water mark, below which every stamp counts as seen, and
       the recorded results (so retried clients are recognised). *)
    (match config.recovery with
    | Some { recovered = Some rs; _ } ->
        t.st <- { t.st with Alg.local_obj = rs.obj };
        t.hwm <- Prelude.Stamp.make ~time:rs.hwm_time ~pid:rs.hwm_pid;
        t.seen_floor <- t.hwm;
        List.iter
          (fun ((e : Alg.entry), r, op_id) ->
            if op_id <> 0 then begin
              Hashtbl.replace t.id_index op_id (Applied_id r);
              Queue.add (e, op_id) t.recent
            end)
          rs.window
    | _ -> ());
    t

  (* ---- outputs ---- *)

  let emit t a = t.out <- a :: t.out
  let send t ~dst w = emit t (Sim.Action.Send (dst, w))
  let broadcast t w = emit t (Sim.Action.Broadcast w)
  let set_timer t delay timer = emit t (Sim.Action.Set_timer (delay, timer))
  let complete t ticket outcome = emit t (Sim.Action.Respond { ticket; outcome })

  (* ---- clocks ---- *)

  (* With sync on, every timestamp the replica draws — invocation stamps,
     heartbeat stamps, probe timestamps — comes from the slewed corrected
     clock, which is monotone across corrections by construction. *)
  let clock t =
    match t.sy with
    | None -> t.now
    | Some s -> Sync.Clock.read s.sclock ~now:t.now

  (* Clocks feeding invocation stamps clear the last quorum era's stamp
     floor: a fast-path op stamped below a quorum-ordered one would sort
     into already-executed history. *)
  let eff_clock t =
    let c = clock t in
    match t.fb with
    | Some f ->
        let fl = Quorum.Mode_controller.floor f.mc in
        if fl = min_int then c
        else Stdlib.max c (fl + t.p.Core.Params.timing.accessor_ts_back + 1)
    | None -> c

  let in_quorum f =
    Quorum.Mode_controller.mode f.mc = Quorum.Mode_controller.Quorum

  let op_id_of t ts = Option.value ~default:0 (Hashtbl.find_opt t.stamp_ids ts)

  let register t ts op_id =
    if op_id <> 0 then begin
      Hashtbl.replace t.stamp_ids ts op_id;
      if not (Hashtbl.mem t.id_index op_id) then
        Hashtbl.replace t.id_index op_id Queued
    end

  let seen t ts =
    Prelude.Stamp.( <= ) ts t.seen_floor || Hashtbl.mem t.seen ts

  (* Expire the dedup window's oldest entries: those stamped more than
     [window_us] below the high-water mark.  Ages are read between stamps,
     on the clocks that drew them, so sync's corrections shift nothing and
     no clock is read.  Each entry is popped once: O(1) amortized per
     apply. *)
  let trim t =
    let oldest = t.hwm.Prelude.Stamp.time - t.window_us in
    while
      (not (Queue.is_empty t.recent))
      && (fst (Queue.peek t.recent)).Alg.ts.Prelude.Stamp.time < oldest
    do
      let (e : Alg.entry), op_id = Queue.take t.recent in
      Hashtbl.remove t.seen e.ts;
      if op_id <> 0 then Hashtbl.remove t.id_index op_id;
      if Prelude.Stamp.( < ) t.seen_floor e.ts then t.seen_floor <- e.ts
    done

  (* A batch the algorithm just applied, oldest first: advance the
     high-water mark; with dedup, mark each entry seen, resolve its op id,
     window it and hand it to the durability hook — before any output (a
     response in particular) of the same step is performed. *)
  let record_applied t batch =
    match batch with
    | [] -> ()
    | _ ->
        List.iter
          (fun ((e : Alg.entry), r) ->
            if Prelude.Stamp.( < ) t.hwm e.ts then t.hwm <- e.ts;
            if t.dedup then begin
              Hashtbl.replace t.seen e.ts ();
              let op_id = op_id_of t e.ts in
              Hashtbl.remove t.stamp_ids e.ts;
              if op_id <> 0 then Hashtbl.replace t.id_index op_id (Applied_id r);
              Queue.add (e, op_id) t.recent;
              match t.rec_mode with
              | Some rc -> rc.on_apply e r op_id
              | None -> ()
            end)
          batch;
        if t.dedup then trim t

  (* Still-queued entries stamped above [after], in stamp order, with op
     ids. *)
  let queued_after t after =
    List.filter_map
      (fun (e : Alg.entry) ->
        if Prelude.Stamp.( < ) after e.ts then Some (e, op_id_of t e.ts)
        else None)
      (Alg.Queue.to_sorted_list t.st.Alg.to_execute)

  (* The dedup window as a checkpoint or a transfer carries it: every
     windowed entry with an op id and its recorded result, oldest first. *)
  let window t =
    List.filter_map
      (fun ((e : Alg.entry), op_id) ->
        match Hashtbl.find_opt t.id_index op_id with
        | Some (Applied_id r) when op_id <> 0 -> Some (e, r, op_id)
        | _ -> None)
      (List.of_seq (Queue.to_seq t.recent))

  let snapshot t =
    {
      obj = t.st.Alg.local_obj;
      hwm_time = t.hwm.Prelude.Stamp.time;
      hwm_pid = t.hwm.Prelude.Stamp.pid;
      window = window t;
    }

  (* The object, its high-water mark, the dedup window and every entry
     still queued: everything a peer behind this replica's mark needs. *)
  let transfer t =
    Wire_catchup_state
      {
        obj = t.st.Alg.local_obj;
        time = t.hwm.Prelude.Stamp.time;
        cpid = t.hwm.Prelude.Stamp.pid;
        window = window t;
        entries = queued_after t t.hwm;
      }

  (* What catch-up owes a peer whose high-water mark is [after]: nothing
     applied is kept entry by entry, so a peer below our mark gets a state
     transfer, and one at or above it the queued entries above its mark
     ([Some]). *)
  let owed t after =
    if Prelude.Stamp.( < ) after t.hwm then None else Some (queued_after t after)

  let push_back t peer after =
    match owed t after with
    | None ->
        Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Catchup ~a:0 ~b:peer ();
        send t ~dst:peer (transfer t)
    | Some [] -> ()
    | Some missing ->
        Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Catchup
          ~a:(List.length missing) ~b:peer ();
        List.iter
          (fun ((e : Alg.entry), op_id) ->
            send t ~dst:peer (Wire_entry (e, 0, op_id)))
          missing

  let respond t r =
    match t.inflight with
    | None -> ()  (* cannot happen: Algorithm 1 responds only when pending *)
    | Some (c, invoke_us) ->
        t.inflight <- None;
        Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Respond ~trace:c.trace
          ~a:(class_of c.op) ~b:(t.now - invoke_us) ();
        complete t c.ticket (Done r)

  (* A client replaying an operation id this replica already knows must
     not be executed twice.  Applied → answer from the recorded result;
     still queued → a pure mutator's reply is state-independent (answer
     now), anything else must wait for the first attempt (tell the
     client to retry).  Accessors have no effect and are never deduped. *)
  let dedup_check t op op_id =
    if (not t.dedup) || op_id = 0 then None
    else
      match D.classify op with
      | Spec.Data_type.Pure_accessor -> None
      | cls -> (
          match Hashtbl.find_opt t.id_index op_id with
          | Some (Applied_id r) -> Some (Done r)
          | Some Queued -> (
              match cls with
              | Spec.Data_type.Pure_mutator ->
                  let _, r = D.apply t.st.Alg.local_obj op in
                  Some (Done r)
              | _ -> Some (Rejected "in flight; retry"))
          | None -> None)

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
  let threshold t (ts : Prelude.Stamp.t) =
    ts.Prelude.Stamp.time + t.p.Core.Params.d + t.p.Core.Params.eps

  let gate_passes t f (ts : Prelude.Stamp.t) =
    let mop =
      match t.inflight with
      | Some (c, _) -> D.classify c.op = Spec.Data_type.Pure_mutator
      | None -> false
    in
    Quorum.Gate.ready f.gate ~fd:f.fd ~mop ~stamp:ts.Prelude.Stamp.time
      ~due:(threshold t ts)

  (* A heartbeat to [dst] (everyone when [None]): the clock stamp plus
     the mode announcement, optionally carrying an ack or a prompt. *)
  let send_hb t f ?dst ?(ack = 0) ?(want = 0) () =
    let epoch, qmode, seq, floor = Quorum.Mode_controller.announcement f.mc in
    let hb =
      Wire_quorum (Hb { stamp = clock t; epoch; qmode; seq; floor; ack; want })
    in
    match dst with Some dst -> send t ~dst hb | None -> broadcast t hb

  (* Answer requester [src]'s pending prompt once this replica's clock
     has reached it; until then re-check on a one-shot timer (the slewed
     clock may run slow, so a timer can fire short of the mark). *)
  let serve_prompt t f src =
    let want = f.prompts.(src) in
    if want <> 0 then
      if t.mode <> Up then f.prompts.(src) <- 0
      else
        let now = clock t in
        if now >= want then begin
          f.prompts.(src) <- 0;
          send_hb t f ~dst:src ()
        end
        else set_timer t (want - now) (Prompt_t src)

  let rec handle_actions t ~trace actions =
    List.iter
      (fun (a : (D.result, Alg.entry, Alg.timer) Sim.Action.t) ->
        match a with
        | Sim.Action.Respond r -> (
            match t.fb with
            | Some f
              when t.inflight <> None
                   && (not (in_quorum f))
                   && (not (Quorum.Mode_controller.stalled f.mc))
                   && not (gate_passes t f t.own_ts) ->
                (* Withhold until the gate passes (or a mode switch
                   supersedes it); the single-inflight invariant means at
                   most one response is ever held. *)
                f.gated <- Some (r, t.own_ts)
            | _ ->
                respond t r;
                (* The model allows one pending operation per process;
                   queued client calls start once the previous responds. *)
                next_from_backlog t)
        | Sim.Action.Send (dst, m) ->
            send t ~dst (Wire_entry (m, trace, op_id_of t m.Alg.ts))
        | Sim.Action.Broadcast m ->
            Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Broadcast ~trace
              ~a:(t.p.Core.Params.n - 1) ();
            broadcast t (Wire_entry (m, trace, op_id_of t m.Alg.ts))
        | Sim.Action.Set_timer (delay, tm) ->
            Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Hold_set ~trace
              ~a:delay ();
            set_timer t delay (A (tm, trace))
        | Sim.Action.Cancel_timer tm ->
            emit t (Sim.Action.Cancel_timer (A (tm, 0))))
      actions

  and try_release_gate t ~force f =
    match f.gated with
    | Some (r, ts) when t.inflight <> None && (force || gate_passes t f ts) ->
        f.gated <- None;
        respond t r;
        next_from_backlog t
    | _ -> ()

  and dispatch_alg_invoke t op trace op_id =
    let st', actions = Alg.on_invoke t.p t.st ~clock:(eff_clock t) op in
    t.st <- st';
    (match t.st.Alg.pending with
    | Alg.Waiting_mop e | Alg.Waiting_oop e | Alg.Waiting_aop e ->
        t.own_ts <- e.ts
    | Alg.Idle -> ());
    prompt_peers t;
    (* The broadcast below carries the op id, so every replica can tie
       the entry's stamp back to the client's operation. *)
    (if t.dedup then
       match t.st.Alg.pending with
       | Alg.Waiting_mop e | Alg.Waiting_oop e ->
           Hashtbl.replace t.seen e.ts ();
           register t e.ts op_id
       | Alg.Waiting_aop _ | Alg.Idle -> ());
    handle_actions t ~trace actions

  (* Accessors and other ops answer from local state, so only every
     peer's horizon passing [ts + d + ε] frees them: ask each peer for a
     heartbeat at that clock value rather than wait for its next tick.
     Pure mutators are freed by the receipt acks their broadcast draws. *)
  and prompt_peers t =
    match (t.fb, t.st.Alg.pending) with
    | Some f, (Alg.Waiting_aop e | Alg.Waiting_oop e)
      when t.p.Core.Params.n > 1 && not (in_quorum f) ->
        send_hb t f ~want:(threshold t e.ts) ()
    | _ -> ()

  and begin_op t c =
    t.inflight <- Some (c, t.now);
    Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Invoke ~trace:c.trace
      ~a:(class_of c.op) ()

  and start_quorum_invoke t f c =
    begin_op t c;
    let qid = f.next_qid in
    f.next_qid <- qid + 1;
    f.pending_fwd <-
      Some
        { f_qid = qid; f_op = c.op; f_op_id = c.op_id; f_trace = c.trace;
          f_sent_us = t.now; f_proposed = false; f_nacks = 0 };
    dispatch_fwd t f

  and dispatch_fwd t f =
    match f.pending_fwd with
    | None -> ()
    | Some w ->
        w.f_sent_us <- t.now;
        let p =
          { q_time = 0; q_op = w.f_op; q_origin = t.pid; q_qid = w.f_qid;
            q_op_id = w.f_op_id; q_trace = w.f_trace }
        in
        if Quorum.Mode_controller.is_sequencer f.mc then sequencer_admit t f p
        else
          send t
            ~dst:(Quorum.Mode_controller.seq_pid f.mc)
            (Wire_quorum
               (Forward
                  { qid = w.f_qid; origin = t.pid; op = w.f_op;
                    op_id = w.f_op_id; trace = w.f_trace }))

  and broadcast_propose t f qseq p =
    broadcast t
      (Wire_quorum (Propose { epoch = Quorum.Log.epoch f.qlog; qseq; p }))

  and sequencer_admit t f p =
    match Hashtbl.find_opt f.fwd_seen (p.q_origin, p.q_qid) with
    | Some qseq -> (
        (* A retried forward for a slot we already assigned: re-send the
           Propose (and the Qcommit, if it got that far) so a lost frame
           cannot wedge the origin. *)
        match Quorum.Log.payload f.qlog ~qseq with
        | Some p' ->
            broadcast_propose t f qseq p';
            if Quorum.Log.committed f.qlog ~qseq then
              broadcast t
                (Wire_quorum (Qcommit { epoch = Quorum.Log.epoch f.qlog; qseq }))
        | None -> ())
    | None ->
        if f.draining_until <> None then f.buffered <- p :: f.buffered
        else if
          p.q_op_id <> 0
          && Hashtbl.mem t.id_index p.q_op_id
          && D.classify p.q_op <> Spec.Data_type.Pure_accessor
        then begin
          (* The op already entered history under another stamp (fast
             path before the switch, or an earlier era): never order it
             twice — bounce it back through the origin's dedup tables. *)
          if p.q_origin <> t.pid then
            send t ~dst:p.q_origin (Wire_quorum (Fnack { qid = p.q_qid }))
        end
        else propose t f p

  and propose t f p =
    let time =
      List.fold_left max (eff_clock t)
        [ f.next_time; f.last_q_applied + 1; t.hwm.Prelude.Stamp.time + 1 ]
    in
    f.next_time <- time + 1;
    let p = { p with q_time = time } in
    let qseq = Quorum.Log.append f.qlog ~me:t.pid p in
    Hashtbl.replace f.fwd_seen (p.q_origin, p.q_qid) qseq;
    register t (Prelude.Stamp.make ~time ~pid:p.q_origin) p.q_op_id;
    (if p.q_origin = t.pid then
       match f.pending_fwd with
       | Some w when w.f_qid = p.q_qid -> w.f_proposed <- true
       | _ -> ());
    broadcast_propose t f qseq p;
    if Quorum.Log.majority f.qlog <= 1 then do_commit t f qseq

  and do_commit t f qseq =
    Quorum.Log.commit f.qlog ~qseq;
    broadcast t (Wire_quorum (Qcommit { epoch = Quorum.Log.epoch f.qlog; qseq }));
    apply_committed t f

  and apply_committed t f =
    List.iter
      (fun (_qseq, p) ->
        let ts = Prelude.Stamp.make ~time:p.q_time ~pid:p.q_origin in
        let st = t.st in
        let st =
          if seen t ts then st
          else begin
            register t ts p.q_op_id;
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
        let st, actions, batch =
          Alg.execute_through st ~upto:ts ~inclusive:true
        in
        t.st <- st;
        f.last_q_applied <- max f.last_q_applied p.q_time;
        record_applied t batch;
        handle_actions t ~trace:p.q_trace actions;
        match (f.pending_fwd, t.inflight) with
        | Some w, Some _ when p.q_origin = t.pid && w.f_qid = p.q_qid -> (
            (* Applied by this commit, or earlier (catch-up brought the
               entry first): then its id holds the result. *)
            let applied =
              match
                List.find_map
                  (fun ((e : Alg.entry), r) ->
                    if Prelude.Stamp.equal e.ts ts then Some r else None)
                  batch
              with
              | None when w.f_op_id <> 0 -> (
                  match Hashtbl.find_opt t.id_index w.f_op_id with
                  | Some (Applied_id r) -> Some r
                  | _ -> None)
              | found -> found
            in
            match applied with
            | Some r ->
                f.pending_fwd <- None;
                respond t r;
                next_from_backlog t
            | None -> ())
        | _ -> ())
      (Quorum.Log.applyable f.qlog)

  (* Bounce the in-flight op and every backlogged one with [outcome]. *)
  and answer_all t outcome =
    (match t.inflight with
    | None -> ()
    | Some (c, _) -> complete t c.ticket outcome);
    t.inflight <- None;
    Queue.iter (fun (c : call) -> complete t c.ticket outcome) t.backlog;
    Queue.clear t.backlog

  and cancel_clients t why =
    (match t.fb with
    | Some f ->
        f.gated <- None;
        f.pending_fwd <- None
    | None -> ());
    answer_all t (Rejected why)

  and enter_quorum t f ~epoch ~sequencer =
    Quorum.Log.reset f.qlog ~epoch;
    Hashtbl.reset f.fwd_seen;
    f.buffered <- [];
    Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Mode_switch ~a:1 ~b:epoch ();
    f.qcfg.Quorum.Config.on_mode ~quorum:true ~epoch
      ~seq:(Quorum.Mode_controller.seq_pid f.mc);
    (* A gate-held response is safe now: its entry was broadcast to every
       live peer and sorts below the new era's base. *)
    try_release_gate t ~force:true f;
    if sequencer then begin
      let barrier = (2 * t.p.Core.Params.d) + t.p.Core.Params.eps in
      f.draining_until <- Some (t.now + barrier);
      set_timer t barrier Qdrain_t
    end
    else begin
      f.draining_until <- None;
      (* Re-route an op forwarded to a previous era's sequencer. *)
      dispatch_fwd t f
    end

  and leave_quorum t f ~epoch =
    Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Mode_switch ~a:0 ~b:epoch ();
    f.qcfg.Quorum.Config.on_mode ~quorum:false ~epoch
      ~seq:(Quorum.Mode_controller.seq_pid f.mc);
    f.draining_until <- None;
    (* A forward the old era never ordered re-enters the fast path; one
       it did order completes when the (retained) log's commit arrives. *)
    match f.pending_fwd with
    | Some w when not w.f_proposed ->
        f.pending_fwd <- None;
        dispatch_alg_invoke t w.f_op w.f_trace w.f_op_id
    | _ -> ()

  and run_decisions t f =
    let fd = f.fd in
    if t.mode <> Up then ()
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
          cancel_clients t "retry: minority stall";
          run_decisions t f
      | Some Quorum.Mode_controller.Unstall ->
          Quorum.Mode_controller.unstall f.mc;
          next_from_backlog t;
          run_decisions t f
      | Some Quorum.Mode_controller.Initiate_quorum ->
          let epoch = Quorum.Mode_controller.initiate_quorum f.mc in
          enter_quorum t f ~epoch ~sequencer:true;
          run_decisions t f
      | Some Quorum.Mode_controller.Initiate_fast ->
          (* Only once the era is fully drained: every slot committed and
             applied, no forward buffered or pending anywhere we know of.
             Until then the decision simply re-fires on a later tick. *)
          if
            Quorum.Log.drained f.qlog && f.buffered = [] && f.pending_fwd = None
            && f.draining_until = None
          then
            leave_quorum t f
              ~epoch:
                (Quorum.Mode_controller.initiate_fast f.mc
                   ~floor:(f.next_time - 1))

  and submit t c =
    match dedup_check t c.op c.op_id with
    | Some outcome -> complete t c.ticket outcome
    | None -> (
        match t.fb with
        | Some f when in_quorum f -> start_quorum_invoke t f c
        | _ ->
            begin_op t c;
            dispatch_alg_invoke t c.op c.trace c.op_id)

  (* µs until [c]'s fast-path stamp sorts above this replica's last own
     one (0: now).  Algorithm 1 orders a process's operations by their
     stamps; with zero holds a call taken in the µs its predecessor
     answered would tie with it, and a read, stamped X back, may fall
     below it.  In a quorum era the sequencer assigns the stamps. *)
  and stale_by t c =
    let back = t.p.Core.Params.timing.accessor_ts_back in
    let ts =
      if D.classify c.op = Spec.Data_type.Pure_accessor then eff_clock t - back
      else eff_clock t
    and last = t.own_ts.Prelude.Stamp.time in
    match t.fb with
    | Some f when in_quorum f -> 0
    | _ -> if ts > last then 0 else last - ts + 1

  (* The deadline already passed: doing the work now is dead work the
     client stopped waiting for — refuse it (visibly, as a counted [Shed]
     event) instead of adding it to the queue ahead of ops that can still
     meet theirs.  The op was never executed, so the idempotent retry path
     is always safe. *)
  and shed_expired t c =
    Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Shed ~trace:c.trace
      ~a:Obs.Event.shed_deadline ();
    complete t c.ticket (Rejected "shed: deadline passed")

  (* Start the backlog's head unless it must wait for a fresh stamp: then
     it stays at the head, and what arrives meanwhile queues behind it. *)
  and next_from_backlog t =
    if t.inflight = None && t.mode = Up && not (Queue.is_empty t.backlog)
    then begin
      let c = Queue.peek t.backlog in
      match if t.now > c.deadline then 0 else stale_by t c with
      | 0 ->
          ignore (Queue.pop t.backlog);
          if t.now > c.deadline then shed_expired t c else submit t c;
          next_from_backlog t
      | wait ->
          if not t.fresh_armed then begin
            t.fresh_armed <- true;
            set_timer t wait Fresh_t
          end
    end

  and fire_alg_timer t tm trace =
    let st', actions, batch = Alg.timer_step t.p t.st tm in
    t.st <- st';
    record_applied t batch;
    handle_actions t ~trace actions

  and do_unfreeze t =
    t.mode <- Up;
    emit t (Sim.Action.Cancel_timer Unfreeze_t);
    emit t (Sim.Action.Cancel_timer Catchup_retry_t);
    let replies = t.reply_hwms in
    t.reply_hwms <- [];
    t.awaiting <- [];
    (* Now that every reply is absorbed, send each replier whatever this
       replica holds above that replier's high-water mark — anti-entropy
       runs both ways, so a peer that itself missed broadcasts while this
       one was down converges too. *)
    List.iter (fun (peer, after) -> push_back t peer after) replies;
    let thaw = List.rev t.deferred in
    t.deferred <- [];
    List.iter (fun (tm, trace) -> fire_alg_timer t tm trace) thaw;
    next_from_backlog t

  let absorb_catchup t ~src entries =
    let fresh =
      List.filter
        (fun ((e : Alg.entry), _) -> not (seen t e.ts))
        entries
    in
    List.iter
      (fun ((e : Alg.entry), op_id) ->
        Hashtbl.replace t.seen e.ts ();
        register t e.ts op_id;
        let st', actions = Alg.on_message t.p t.st ~clock:(clock t) ~src e in
        t.st <- st';
        handle_actions t ~trace:0 actions)
      fresh;
    if fresh <> [] then
      Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Catchup
        ~a:(List.length fresh) ~b:src ()

  (* A state transfer from [src]: when its high-water mark is above ours,
     its object replaces ours.  Queued entries at or below the mark are in
     that object and leave the queue (their pending timers find nothing),
     and the sender's dedup window joins ours, in stamp order.  A dropped
     entry's op id stays answerable only if the window records its
     result; otherwise it is forgotten, so a replay runs afresh.  An
     in-flight OOP or AOP stamped at or below the mark cannot take its
     answer from the new object: an OOP answers from the window when its
     result is there, otherwise both go back to the client to retry, and
     an OOP's own copy is not queued afterwards. *)
  let adopt t ~src ~obj ~hwm ~window =
    if Prelude.Stamp.( < ) t.hwm hwm then begin
      let dropped, rest =
        Alg.Queue.pop_while
          (fun (e : Alg.entry) -> Prelude.Stamp.( <= ) e.ts hwm)
          t.st.Alg.to_execute
      in
      t.st <- { t.st with Alg.local_obj = obj; to_execute = rest };
      t.hwm <- hwm;
      if Prelude.Stamp.( < ) t.seen_floor hwm then t.seen_floor <- hwm;
      let theirs =
        List.map
          (fun ((e : Alg.entry), r, op_id) ->
            Hashtbl.replace t.id_index op_id (Applied_id r);
            (e, op_id))
          window
      in
      let forget_queued op_id =
        if Hashtbl.find_opt t.id_index op_id = Some Queued then
          Hashtbl.remove t.id_index op_id
      in
      List.iter
        (fun (e : Alg.entry) ->
          forget_queued (op_id_of t e.ts);
          Hashtbl.remove t.stamp_ids e.ts;
          Hashtbl.remove t.seen e.ts)
        dropped;
      let merged =
        List.sort_uniq
          (fun ((a : Alg.entry), _) ((b : Alg.entry), _) ->
            Prelude.Stamp.compare a.ts b.ts)
          (List.rev_append (List.of_seq (Queue.to_seq t.recent)) theirs)
      in
      Queue.clear t.recent;
      List.iter (fun x -> Queue.add x t.recent) merged;
      (match (t.st.Alg.pending, t.inflight) with
      | (Alg.Waiting_oop e | Alg.Waiting_aop e), Some (c, _)
        when Prelude.Stamp.( <= ) e.ts hwm -> (
          t.st <- { t.st with Alg.pending = Alg.Idle };
          (* An OOP's own copy may not be queued yet: it must not join
             the queue below the mark later. *)
          emit t (Sim.Action.Cancel_timer (A (Alg.Add e, 0)));
          match
            (D.classify c.op, Hashtbl.find_opt t.id_index c.op_id)
          with
          | Spec.Data_type.Other, Some (Applied_id r) when c.op_id <> 0 ->
              respond t r
          | _ ->
              forget_queued c.op_id;
              t.inflight <- None;
              complete t c.ticket (Rejected "retry: state transfer")
        )
      | _ -> ());
      (match t.rec_mode with
      | Some rc -> rc.on_transfer ~src (snapshot t)
      | None -> ());
      next_from_backlog t
    end

  let catchup_req t =
    Wire_catchup_req
      { time = t.hwm.Prelude.Stamp.time; cpid = t.hwm.Prelude.Stamp.pid }

  (* The catch-up wait: a recovery config's explicit allowance, else (for
     the fallback's reconciliation, which has no recovery config) one
     network round plus skew. *)
  let catchup_wait_us t =
    match t.rec_mode with
    | Some rc -> rc.catchup_wait_us
    | None -> t.p.Core.Params.d + t.p.Core.Params.eps

  (* Re-ask often enough that a reply lost to a stale TCP connection (see
     [Catchup_retry_t]) is recovered well inside the unfreeze window: the
     failed first write makes the peer's link reconnect, so the retry's
     reply rides a fresh connection. *)
  let schedule_catchup_retry t ~wait_us =
    set_timer t (max 1 (wait_us / 4)) Catchup_retry_t

  let start_catchup t ~wait_us =
    t.mode <- Catching_up;
    let peers =
      List.filter (fun p -> p <> t.pid) (List.init t.p.Core.Params.n Fun.id)
    in
    if peers = [] then do_unfreeze t
    else begin
      t.awaiting <- peers;
      t.reply_hwms <- [];
      broadcast t (catchup_req t);
      set_timer t wait_us Unfreeze_t;
      schedule_catchup_retry t ~wait_us
    end

  (* Adopted a fast-path announcement while behind: this replica joined
     the quorum era late (its log has holes below the slots it saw) or
     missed one or more eras outright.  The retained-log repair path is
     dead — no sequencer remains interested in the old era — so
     resynchronise through the recovery catch-up instead.  Waiting
     clients are bounced to a caught-up replica; op ids make the replays
     idempotent. *)
  let reconcile_via_catchup t f ~epoch =
    Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Mode_switch ~a:0 ~b:epoch ();
    f.qcfg.Quorum.Config.on_mode ~quorum:false ~epoch
      ~seq:(Quorum.Mode_controller.seq_pid f.mc);
    f.draining_until <- None;
    f.buffered <- [];
    f.must_reconcile <- false;
    cancel_clients t "retry: reconciling";
    start_catchup t ~wait_us:(catchup_wait_us t)

  (* Quorum-protocol frames.  Epoch discipline: Forward/Propose validate
     against the mode controller's era; Qack/Qcommit/Qfill against the
     log's (retained across a switch back, so a late commit for the old
     era still applies). *)
  let handle_quorum t f ~src = function
    | Hb { stamp; epoch; qmode; seq; floor; ack; want } ->
        (* Heartbeats are timestamped: when sync is armed they double as
           free one-way offset samples (Lundelius–Lynch midpoint,
           uncertainty u/2) between probe rounds. *)
        (match t.sy with
        | Some s ->
            Sync.Estimator.observe_one_way s.sest ~peer:src ~now:t.now
              ~d:s.scfg.Sync.Config.d ~u:s.scfg.Sync.Config.u ~sent:stamp
              ~clock:(clock t)
        | None -> ());
        if Quorum.Failure_detector.heard f.fd ~peer:src ~stamp ~now_us:t.now
        then begin
          Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Suspect ~a:src ~b:0 ();
          f.qcfg.Quorum.Config.on_suspect ~peer:src ~suspected:false
        end;
        if ack <> 0 then Quorum.Gate.ack f.gate ~peer:src ~stamp:ack;
        (* One pending reply per requester: a newer prompt replaces the
           older (its op is done).  A pending reply already has its timer,
           which re-arms for the new mark when it fires short; only a mark
           earlier than the pending one needs its own. *)
        if want <> 0 then begin
          let pending = f.prompts.(src) in
          f.prompts.(src) <- want;
          if pending = 0 || want < pending then serve_prompt t f src
        end;
        let prev_epoch = Quorum.Mode_controller.epoch f.mc in
        (match
           Quorum.Mode_controller.observe f.mc ~epoch ~quorum:qmode ~seq ~floor
         with
        | Quorum.Mode_controller.Adopted ->
            (* An epoch jump of more than one means whole eras went by
               unseen — whatever they committed is missing here. *)
            let jumped = epoch - prev_epoch > 1 in
            if qmode then begin
              if jumped then f.must_reconcile <- true;
              enter_quorum t f ~epoch ~sequencer:false
            end
            else if
              jumped || f.must_reconcile || not (Quorum.Log.drained f.qlog)
            then reconcile_via_catchup t f ~epoch
            else leave_quorum t f ~epoch
        | Quorum.Mode_controller.Ignored -> ());
        try_release_gate t ~force:false f;
        run_decisions t f
    | Forward { qid; origin; op; op_id; trace } ->
        if in_quorum f && Quorum.Mode_controller.is_sequencer f.mc && t.mode = Up
        then
          sequencer_admit t f
            { q_time = 0; q_op = op; q_origin = origin; q_qid = qid;
              q_op_id = op_id; q_trace = trace }
        else send t ~dst:origin (Wire_quorum (Fnack { qid }))
    | Propose { epoch; qseq; p } ->
        if epoch = Quorum.Mode_controller.epoch f.mc && in_quorum f then begin
          if Quorum.Log.epoch f.qlog <> epoch then begin
            Quorum.Log.reset f.qlog ~epoch;
            Hashtbl.reset f.fwd_seen
          end;
          Quorum.Log.store f.qlog ~qseq p;
          register t (Prelude.Stamp.make ~time:p.q_time ~pid:p.q_origin) p.q_op_id;
          (if p.q_origin = t.pid then
             match f.pending_fwd with
             | Some w when w.f_qid = p.q_qid -> w.f_proposed <- true
             | _ -> ());
          send t ~dst:src (Wire_quorum (Qack { epoch; qseq }));
          (* a Qfill-refilled hole may have unblocked the prefix *)
          apply_committed t f
        end
    | Qack { epoch; qseq } ->
        if epoch = Quorum.Log.epoch f.qlog && Quorum.Log.ack f.qlog ~qseq ~from:src
        then do_commit t f qseq
    | Qcommit { epoch; qseq } ->
        if epoch = Quorum.Log.epoch f.qlog then begin
          Quorum.Log.commit f.qlog ~qseq;
          apply_committed t f
        end
    | Fnack { qid } -> (
        match f.pending_fwd with
        | Some w when w.f_qid = qid && not w.f_proposed ->
            w.f_nacks <- w.f_nacks + 1;
            if w.f_nacks > 3 then begin
              (* Routing is flapping (sequencer handover storm): bounce the
                 client rather than loop forever. *)
              f.pending_fwd <- None;
              match t.inflight with
              | Some (c, _) ->
                  t.inflight <- None;
                  complete t c.ticket (Rejected "retry: quorum reroute");
                  next_from_backlog t
              | None -> ()
            end
            else if not (in_quorum f) then begin
              f.pending_fwd <- None;
              dispatch_alg_invoke t w.f_op w.f_trace w.f_op_id
            end
            else dispatch_fwd t f
        | _ -> ())
    | Qfill { epoch; from_seq } ->
        if
          epoch = Quorum.Log.epoch f.qlog
          && Quorum.Mode_controller.is_sequencer f.mc
        then
          for qseq = from_seq to Quorum.Log.highest f.qlog do
            match Quorum.Log.payload f.qlog ~qseq with
            | Some p ->
                send t ~dst:src (Wire_quorum (Propose { epoch; qseq; p }));
                if Quorum.Log.committed f.qlog ~qseq then
                  send t ~dst:src (Wire_quorum (Qcommit { epoch; qseq }))
            | None -> ()
          done

  (* A fast-path entry from [src]. *)
  let handle_entry t ~src (m : Alg.entry) trace op_id =
    (* Under fallback, a fresh fast-path entry stamped at or below this
       replica's own quorum-applied high-point is a healed straggler from
       before a switch: its origin never got a (gated) ack for it, and
       admitting it would order it into already-executed history.  Keyed
       on the *local* [last_q_applied] so a rejoining replica (whose own
       mark is still low) keeps accepting catch-up entries. *)
    let stale_q =
      match t.fb with
      | Some f ->
          (not (seen t m.ts))
          && m.ts.Prelude.Stamp.time <= f.last_q_applied
      | None -> false
    in
    if stale_q then ()
    else if t.dedup && seen t m.ts then
      ()  (* replayed entry (push-back or duplicate): drop *)
    else begin
      if t.dedup then begin
        Hashtbl.replace t.seen m.ts ();
        register t m.ts op_id
      end;
      let st', actions = Alg.on_message t.p t.st ~clock:(clock t) ~src m in
      t.st <- st';
      (* [Apply] marks the entry's hand-off to the protocol state machine;
         Algorithm 1 may defer its execution to ts order. *)
      Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Apply ~trace ~a:src ();
      handle_actions t ~trace actions;
      (* The entry is now held: ack it to its origin, whose release gate
         may be withholding the op's response.  Only pure mutators are
         freed by acks, and only an up, fast-mode replica acks — a frozen
         one defers, and quorum mode never gates. *)
      match t.fb with
      | Some f
        when t.mode = Up
             && src = m.ts.Prelude.Stamp.pid
             && m.ts.Prelude.Stamp.time <> 0
             && D.classify m.op = Spec.Data_type.Pure_mutator
             && not (in_quorum f) ->
          send_hb t f ~dst:src ~ack:m.ts.Prelude.Stamp.time ()
      | _ -> ()
    end

  let handle_sync t s ~src = function
    | Sping { seq; t0 } ->
        (* Echo immediately: the responder's rx and tx readings coincide
           (one clock read), which only tightens the prober's
           RTT-asymmetry uncertainty. *)
        let t_rx = clock t in
        send t ~dst:src (Wire_sync (Spong { seq; t0; t_rx; t_tx = t_rx }))
    | Spong { seq = _; t0; t_rx; t_tx } ->
        let t1 = clock t in
        Sync.Estimator.observe_two_way s.sest ~peer:src ~now:t.now ~t0 ~t1 ~t_rx
          ~t_tx;
        if Obs.Recorder.active () then
          Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Sync_probe ~a:src
            ~b:(((t_rx - t0) + (t_tx - t1)) / 2)
            ()

  (* ---- steps ---- *)

  (* The periodic timers start with the first step, which also opens the
     failure detector's boot grace on this replica's clock. *)
  let boot t =
    t.booted <- true;
    (match t.fb with
    | Some f ->
        f.fd <-
          Quorum.Failure_detector.make ~n:t.p.Core.Params.n ~me:t.pid
            ~hb_us:f.qcfg.hb_us ~suspect_after:f.qcfg.suspect_after
            ~now_us:t.now;
        set_timer t f.qcfg.Quorum.Config.hb_us Heartbeat_t;
        set_timer t (max 1 (Quorum.Config.timeout_us f.qcfg / 2)) Qtick_t
    | None -> ());
    match t.sy with
    | Some s ->
        (* First round fires early so probing (and the first correction)
           starts well before the load does. *)
        set_timer t (max 1 (s.scfg.Sync.Config.interval_us / 8)) Sync_t
    | None -> ()

  let step t ~clock f =
    t.now <- clock;
    if not t.booted then boot t;
    f t;
    let out = List.rev t.out in
    t.out <- [];
    (t, out)

  let catchup_replied t ~src rh =
    match t.mode with
    | Catching_up ->
        t.reply_hwms <- (src, rh) :: t.reply_hwms;
        t.awaiting <- List.filter (fun p -> p <> src) t.awaiting;
        if t.awaiting = [] then do_unfreeze t
    | Up ->
        (* Late reply after the timeout already thawed us: push back
           immediately instead of at thaw. *)
        push_back t src rh
    | Down -> ()

  let on_message (_ : config) t ~clock ~src w =
    step t ~clock (fun t ->
        if t.mode <> Down then
          (* a down replica loses every message *)
          match w with
          | Wire_entry (m, trace, op_id) -> handle_entry t ~src m trace op_id
          | Wire_catchup_req { time; cpid } -> (
              match owed t (Prelude.Stamp.make ~time ~pid:cpid) with
              | Some entries ->
                  Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Catchup
                    ~a:(List.length entries) ~b:src ();
                  send t ~dst:src
                    (Wire_catchup_rep
                       { entries; time = t.hwm.Prelude.Stamp.time;
                         cpid = t.hwm.Prelude.Stamp.pid })
              | None ->
                  Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Catchup ~a:0
                    ~b:src ();
                  send t ~dst:src (transfer t))
          | Wire_catchup_rep { entries; time; cpid } ->
              absorb_catchup t ~src entries;
              catchup_replied t ~src (Prelude.Stamp.make ~time ~pid:cpid)
          | Wire_catchup_state { obj; time; cpid; window; entries } ->
              let rh = Prelude.Stamp.make ~time ~pid:cpid in
              adopt t ~src ~obj ~hwm:rh ~window;
              absorb_catchup t ~src entries;
              catchup_replied t ~src rh
          | Wire_quorum q -> Option.iter (fun f -> handle_quorum t f ~src q) t.fb
          | Wire_sync sw -> Option.iter (fun s -> handle_sync t s ~src sw) t.sy)

  let on_invoke (_ : config) t ~clock c =
    step t ~clock (fun t ->
        if t.now > c.deadline then shed_expired t c
        else
          match t.fb with
          | Some _ when t.mode = Down ->
              complete t c.ticket (Rejected "retry: replica down")
          | Some f when Quorum.Mode_controller.stalled f.mc ->
              complete t c.ticket (Rejected "retry: minority stall")
          | _ when t.mode <> Up -> Queue.push c t.backlog
          | _ -> (
              (* A replay is answered at once, even behind other calls. *)
              match dedup_check t c.op c.op_id with
              | Some outcome -> complete t c.ticket outcome
              | None ->
                  Queue.push c t.backlog;
                  next_from_backlog t))

  let heartbeat t f =
    if t.mode = Up then begin
      send_hb t f ();
      List.iter
        (fun peer ->
          Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Suspect ~a:peer ~b:1 ();
          f.qcfg.Quorum.Config.on_suspect ~peer ~suspected:true)
        (Quorum.Failure_detector.tick f.fd ~now_us:t.now);
      run_decisions t f
    end;
    set_timer t f.qcfg.Quorum.Config.hb_us Heartbeat_t

  (* The switch barrier: every fast-path entry broadcast before the era
     change has had 2d + ε to land.  Execute everything below the era's
     stamp base, then admit the forwards buffered during the drain. *)
  let drain_barrier t f =
    f.draining_until <- None;
    let queued_max =
      List.fold_left
        (fun acc (e : Alg.entry) -> max acc e.ts.Prelude.Stamp.time)
        min_int
        (Alg.Queue.to_sorted_list t.st.Alg.to_execute)
    in
    let base =
      1
      + List.fold_left max
          (clock t + t.p.Core.Params.eps)
          [ t.hwm.Prelude.Stamp.time; queued_max;
            Quorum.Mode_controller.floor f.mc; f.last_q_applied ]
    in
    let st, actions, batch =
      Alg.execute_through t.st
        ~upto:(Prelude.Stamp.make ~time:base ~pid:(-1))
        ~inclusive:false
    in
    t.st <- st;
    record_applied t batch;
    handle_actions t ~trace:0 actions;
    f.next_time <- base;
    let buffered = List.rev f.buffered in
    f.buffered <- [];
    List.iter (sequencer_admit t f) buffered

  let quorum_tick t f =
    (if t.mode = Up && in_quorum f then begin
       let timeout = Quorum.Config.timeout_us f.qcfg in
       (match (f.pending_fwd, t.inflight) with
       | Some w, Some (c, _) when t.now - w.f_sent_us > 2 * timeout ->
           f.pending_fwd <- None;
           t.inflight <- None;
           complete t c.ticket (Rejected "retry: quorum timeout");
           next_from_backlog t
       | Some w, _
         when (not w.f_proposed) && not (Quorum.Mode_controller.is_sequencer f.mc)
         ->
           dispatch_fwd t f
       | _ -> ());
       if not (Quorum.Mode_controller.is_sequencer f.mc) then
         match Quorum.Log.missing f.qlog with
         | [] -> ()
         | missing ->
             send t
               ~dst:(Quorum.Mode_controller.seq_pid f.mc)
               (Wire_quorum
                  (Qfill
                     { epoch = Quorum.Log.epoch f.qlog;
                       from_seq = List.fold_left min max_int missing }))
     end);
    (* a switch back blocked on the drain retries here *)
    if t.mode = Up then run_decisions t f;
    set_timer t (max 1 (Quorum.Config.timeout_us f.qcfg / 2)) Qtick_t

  (* Absorb the round's samples: feed the Lundelius–Lynch average
     correction to the slewed clock, shift the estimator so it isn't
     re-applied, and publish the achieved-ε estimate before probing
     again. *)
  let sync_round t s =
    if t.mode = Up then begin
      let c = Sync.Estimator.correction s.sest in
      if c <> 0 then begin
        Sync.Clock.adjust s.sclock ~delta:c;
        Sync.Estimator.shift s.sest ~by:c
      end;
      let peers = Sync.Estimator.peers s.sest in
      if peers > 0 then begin
        let eps_us = Sync.Estimator.achieved_eps s.sest ~now:t.now in
        Obs.Recorder.emit ~pid:t.pid ~kind:Obs.Event.Sync_eps ~a:eps_us ~b:peers
          ();
        s.scfg.Sync.Config.on_eps ~eps_us ~peers
      end;
      s.sseq <- s.sseq + 1;
      broadcast t (Wire_sync (Sping { seq = s.sseq; t0 = clock t }))
    end;
    set_timer t s.scfg.Sync.Config.interval_us Sync_t

  let on_timer (_ : config) t ~clock tm =
    step t ~clock (fun t ->
        match tm with
        | Unfreeze_t -> if t.mode = Catching_up then do_unfreeze t
        | Catchup_retry_t ->
            if t.mode = Catching_up && t.awaiting <> [] then begin
              List.iter (fun peer -> send t ~dst:peer (catchup_req t)) t.awaiting;
              schedule_catchup_retry t ~wait_us:(catchup_wait_us t)
            end
        | Heartbeat_t -> Option.iter (heartbeat t) t.fb
        | Qdrain_t -> (
            match t.fb with
            | Some f
              when f.draining_until <> None
                   && Quorum.Mode_controller.is_sequencer f.mc
                   && in_quorum f ->
                drain_barrier t f
            | _ -> ())
        | Qtick_t -> Option.iter (quorum_tick t) t.fb
        | Prompt_t src -> Option.iter (fun f -> serve_prompt t f src) t.fb
        | Sync_t -> Option.iter (sync_round t) t.sy
        | Fresh_t ->
            t.fresh_armed <- false;
            next_from_backlog t
        | A ((Alg.Add _ as tm), trace) ->
            (* Self-delivery of an already-broadcast entry: enqueue even
               while frozen, keeping the local queue consistent with what
               peers received. *)
            fire_alg_timer t tm trace
        | A (tm, trace) ->
            if t.mode = Up then fire_alg_timer t tm trace
            else t.deferred <- (tm, trace) :: t.deferred)

  let on_control (_ : config) t ~clock ctl =
    step t ~clock (fun t ->
        match ctl with
        | Start -> ()
        | Crash ->
            (* Without recovery or fallback, a crash is the transport's
               isolation alone. *)
            if t.rec_mode <> None || t.fb <> None then begin
              t.mode <- Down;
              if t.fb <> None then cancel_clients t "retry: replica down"
            end
        | Recover -> (
            match (t.rec_mode, t.mode) with
            | None, Down when t.fb <> None ->
                (* No durability layer: rejoin live and anti-entropy the gap
                   (peers answer the catch-up request with what we missed). *)
                t.mode <- Up;
                broadcast t (catchup_req t)
            | None, _ | _, Catching_up -> ()
            | Some rc, (Up | Down) -> start_catchup t ~wait_us:rc.catchup_wait_us)
        | Stop ->
            (* Answer every client still waiting: their operations will
               never respond (the replica is gone). *)
            answer_all t Cancelled)
end
