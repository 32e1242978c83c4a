(** See the interface for the model mapping.  This file is the live
    driver: one domain (or systhread) per replica runs {!run_replica},
    which steps the sans-I/O {!Replica_core} and performs its outputs.
    All inter-domain communication goes through the transport's mailboxes
    and the per-invocation completion callbacks, which the loop itself
    runs — replica state is only ever touched by its own domain. *)

module Make (D : Spec.Data_type.S) = struct
  include Replica_core.Make (D)

  exception Stopped
  exception Retry_later of string

  type event =
    | Net of wire
    | Invoke of D.op * int * int * int * (outcome -> unit)
        (** op, trace, op id, deadline (absolute µs, 0 = none), completion *)
    | Control of control
    | Snap_req of (snapshot_view -> unit)

  (* The operation a message belongs to, for the transport's [Send]
     observability events. *)
  let trace_of = function
    | Wire_entry (_, trace, _) | Wire_quorum (Forward { trace; _ }) -> trace
    | Wire_quorum (Propose { p; _ }) -> p.q_trace
    | Wire_catchup_req _ | Wire_catchup_rep _ | Wire_quorum _ | Wire_sync _ -> 0

  type timer_entry = { due : int; tseq : int; timer : timer }

  let by_due a b = compare (a.due, a.tseq) (b.due, b.tseq)

  (* ---- the live driver (runs inside the replica's domain) ---- *)

  (* Wait on the mailbox until the next arrival or the next timer, read the
     clock once, step the core on the replica's raw local clock
     ([Mclock − start_us + offset]) and perform its outputs in order.  This
     is the only place absolute time exists: timer delays become [Mclock]
     due times, client deadlines move onto the local clock, and record
     times move onto the cluster timeline (µs since [start_us]). *)
  let run_replica ~(params : Core.Params.t) ?recovery ?fallback ?sync
      ~(transport : event Transport_intf.t) ~start_us ~offset pid =
    let config = { params; recovery; fallback; sync } in
    let core = ref (init config ~n:params.Core.Params.n ~pid) in
    let timers = ref [] and tseq = ref 0 and now = ref 0 in
    let waiting = Hashtbl.create 16 and tickets = ref 0 in
    let perform = function
      | Sim.Action.Respond (r : reply) -> (
          match Hashtbl.find_opt waiting r.ticket with
          | Some complete ->
              Hashtbl.remove waiting r.ticket;
              complete r.outcome
          | None -> ())
      | Sim.Action.Send (dst, w) ->
          Transport_intf.send transport ~trace:(trace_of w) ~src:pid ~dst
            (Net w)
      | Sim.Action.Broadcast w ->
          Transport_intf.broadcast transport ~trace:(trace_of w) ~src:pid
            (Net w)
      | Sim.Action.Set_timer (delay, timer) ->
          (* Clocks advance at the rate of real time, so a [δ]-delay timer
             is due at [now + δ] on the real timeline. *)
          let e = { due = !now + delay; tseq = !tseq; timer } in
          timers := List.merge by_due !timers [ e ];
          incr tseq
      | Sim.Action.Cancel_timer timer ->
          timers :=
            List.filter (fun e -> not (equal_timer e.timer timer)) !timers
    in
    let step f =
      now := Prelude.Mclock.now_us ();
      let st, outputs = f config !core ~clock:(!now - start_us + offset) in
      core := st;
      List.iter perform outputs
    in
    let control ctl = step (fun c st ~clock -> on_control c st ~clock ctl) in
    let timeline at = if at = min_int then 0 else at - offset in
    control Start;
    let rec loop () =
      let deadline = match !timers with [] -> None | e :: _ -> Some e.due in
      match Transport_intf.recv transport ~me:pid ~deadline with
      | Some (src, Net w) ->
          (match w with
          | Wire_entry (_, trace, _) when Obs.Recorder.active () ->
              Obs.Recorder.emit ~pid ~kind:Obs.Event.Deliver ~trace ~a:src
                ~b:(Transport_intf.depth transport ~me:pid) ()
          | _ -> ());
          step (fun c st ~clock -> on_message c st ~clock ~src w);
          loop ()
      | Some (_, Invoke (op, trace, op_id, deadline, complete)) ->
          let ticket = !tickets in
          incr tickets;
          Hashtbl.replace waiting ticket complete;
          let deadline =
            if deadline = 0 then max_int else deadline - start_us + offset
          in
          step (fun c st ~clock ->
              on_invoke c st ~clock (call ~trace ~op_id ~deadline ~ticket op));
          loop ()
      | Some (_, Snap_req f) -> f (snapshot !core); loop ()
      | Some (_, Control Stop) ->
          control Stop;
          List.map
            (fun (r : record) ->
              { r with invoke_us = timeline r.invoke_us;
                response_us = timeline r.response_us })
            (records !core)
      | Some (_, Control ctl) -> control ctl; loop ()
      | None -> (
          (* The earliest timer is due, and (per [Mailbox.take]) no ripe
             message predates it: fire exactly one and re-merge. *)
          match !timers with
          | [] -> loop ()
          | e :: rest ->
              timers := rest;
              step (fun c st ~clock -> on_timer c st ~clock e.timer);
              loop ())
    in
    loop ()

  (* ---- single node: one replica on one domain, any transport ---- *)

  type node = {
    node_pid : int;
    node_transport : event Transport_intf.t;
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
      node_join = join;
      node_stopped = false;
    }

  let post transport ~pid ev = Transport_intf.post transport ~src:pid ~dst:pid ev

  let post_invoke ?(trace = 0) ?(op_id = 0) ?(deadline = 0) transport ~pid op
      complete =
    post transport ~pid (Invoke (op, trace, op_id, deadline, complete))

  let node_stop node =
    if node.node_stopped then []
    else begin
      node.node_stopped <- true;
      post node.node_transport ~pid:node.node_pid (Control Stop);
      node.node_join ()
    end

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
    let lock = Mutex.create () and cond = Condition.create () in
    let answer = ref None in
    post_invoke ?trace ?op_id cluster.transport ~pid op (fun o ->
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

  let crash cluster ~pid = post cluster.transport ~pid (Control Crash)
  let recover cluster ~pid = post cluster.transport ~pid (Control Recover)

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
