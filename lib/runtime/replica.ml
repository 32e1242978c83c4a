(** See the interface for the model mapping.  This file holds the live
    {!driver} — one core, its timer list and the clock translation — and
    the in-process vehicle built on it: one domain per replica runs
    {!run_replica}, which waits on its mailbox and steps the driver.  All
    inter-domain communication goes through the transport's mailboxes and
    the per-invocation completion callbacks, which the loop itself runs —
    replica state is only ever touched by its own domain. *)

module Make (D : Spec.Data_type.S) = struct
  include Replica_core.Make (D)

  exception Stopped
  exception Retry_later of string

  type event =
    | Net of wire
    | Invoke of D.op * int * int * int * (outcome -> unit)
        (** op, trace, op id, deadline (absolute µs, 0 = none), completion *)
    | Control of control

  (* The operation a message belongs to, for the transport's [Send]
     observability events. *)
  let trace_of = function
    | Wire_entry (_, trace, _) | Wire_quorum (Forward { trace; _ }) -> trace
    | Wire_quorum (Propose { p; _ }) -> p.q_trace
    | Wire_catchup_req _ | Wire_catchup_rep _ | Wire_quorum _ | Wire_sync _ -> 0

  (* ---- the driver: one core, its timers and the clock translation ---- *)

  type timer_entry = { due : int; tseq : int; timer : timer }

  let by_due a b = compare (a.due, a.tseq) (b.due, b.tseq)

  type output = (reply, wire, timer) Sim.Action.t

  type driver = {
    config : config;
    pid : int;
    start_us : int;
    offset : int;
    mutable core : state;
    mutable timers : timer_entry list;  (** sorted by [(due, tseq)] *)
    mutable tseq : int;
    mutable last : int;  (** [Mclock] µs of the latest step *)
  }

  let driver ~(params : Core.Params.t) ?recovery ?fallback ?sync ~start_us
      ~offset pid =
    let config = { params; recovery; fallback; sync } in
    {
      config;
      pid;
      start_us;
      offset;
      core = init config ~n:params.Core.Params.n ~pid;
      timers = [];
      tseq = 0;
      last = min_int;
    }

  let next_due d = match d.timers with [] -> max_int | e :: _ -> e.due

  (* Step the core on the replica's raw local clock ([now − start_us +
     offset], [now] on the {!Prelude.Mclock} timeline) and perform its
     outputs in emitted order: timers go into the driver's list — clocks
     advance at the rate of real time, so a [δ]-delay timer is due at
     [now + δ] — and sends and completions go to [out].  A replica never
     takes two steps at one clock value: two invocations stepped in the
     same µs (or the same loop cycle) would otherwise share a timestamp,
     and Algorithm 1 orders a process's operations by theirs. *)
  let step d ~now ~out f =
    let now = if now > d.last then now else d.last + 1 in
    d.last <- now;
    let st, outputs = f d.config d.core ~clock:(now - d.start_us + d.offset) in
    d.core <- st;
    List.iter
      (function
        | Sim.Action.Set_timer (delay, timer) ->
            d.timers <-
              List.merge by_due d.timers [ { due = now + delay; tseq = d.tseq; timer } ];
            d.tseq <- d.tseq + 1
        | Sim.Action.Cancel_timer timer ->
            d.timers <- List.filter (fun e -> not (equal_timer e.timer timer)) d.timers
        | o -> out o)
      outputs

  let fire_next d ~now ~out =
    match d.timers with
    | e :: rest when e.due <= now ->
        d.timers <- rest;
        step d ~now ~out (fun c st ~clock -> on_timer c st ~clock e.timer);
        true
    | _ -> false

  let fire_due d ~now ~out = while fire_next d ~now ~out do () done

  (* Client deadlines arrive in [Mclock] µs and move onto the local clock. *)
  let invoke_at d ~now ~out ~trace ~op_id ~deadline ~ticket op =
    let deadline =
      if deadline = 0 then max_int else deadline - d.start_us + d.offset
    in
    step d ~now ~out (fun c st ~clock ->
        on_invoke c st ~clock (call ~trace ~op_id ~deadline ~ticket op))

  let deliver_at d ~now ~out ~src ~depth w =
    (match w with
    | Wire_entry (_, trace, _) when Obs.Recorder.active () ->
        Obs.Recorder.emit ~pid:d.pid ~kind:Obs.Event.Deliver ~trace ~a:src
          ~b:depth ()
    | _ -> ());
    step d ~now ~out (fun c st ~clock -> on_message c st ~clock ~src w)

  let control_at d ~now ~out ctl =
    step d ~now ~out (fun c st ~clock -> on_control c st ~clock ctl)

  let driver_snapshot d = snapshot d.core

  (* History-record times move onto the cluster timeline (µs since
     [start_us]). *)
  let driver_records d =
    let timeline at = if at = min_int then 0 else at - d.offset in
    List.map
      (fun (r : record) ->
        { r with invoke_us = timeline r.invoke_us;
          response_us = timeline r.response_us })
      (records d.core)

  (* ---- the in-process loop (runs inside the replica's domain) ---- *)

  (* Wait on the mailbox until the next arrival or the next timer, read the
     clock once per step and step the driver.  Ripe messages and due
     timers interleave in chronological order (see {!Mailbox.take}). *)
  let run_replica ~params ?recovery ?fallback ?sync
      ~(transport : event Transport_intf.t) ~start_us ~offset pid =
    let d = driver ~params ?recovery ?fallback ?sync ~start_us ~offset pid in
    let waiting = Hashtbl.create 16 and tickets = ref 0 in
    let out = function
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
      | Sim.Action.Set_timer _ | Sim.Action.Cancel_timer _ -> ()
    in
    let now () = Prelude.Mclock.now_us () in
    control_at d ~now:(now ()) ~out Start;
    let rec loop () =
      let deadline = match d.timers with [] -> None | e :: _ -> Some e.due in
      match Transport_intf.recv transport ~me:pid ~deadline with
      | Some (src, Net w) ->
          deliver_at d ~now:(now ()) ~out ~src
            ~depth:(Transport_intf.depth transport ~me:pid)
            w;
          loop ()
      | Some (_, Invoke (op, trace, op_id, deadline, complete)) ->
          let ticket = !tickets in
          incr tickets;
          Hashtbl.replace waiting ticket complete;
          invoke_at d ~now:(now ()) ~out ~trace ~op_id ~deadline ~ticket op;
          loop ()
      | Some (_, Control Stop) ->
          control_at d ~now:(now ()) ~out Stop;
          driver_records d
      | Some (_, Control ctl) ->
          control_at d ~now:(now ()) ~out ctl;
          loop ()
      | None ->
          (* The earliest timer is due, and (per [Mailbox.take]) no ripe
             message predates it: fire exactly one and re-merge. *)
          ignore (fire_next d ~now:(now ()) ~out);
          loop ()
    in
    loop ()

  (* ---- single node: one replica on one domain, any transport ---- *)

  type node = {
    node_pid : int;
    node_transport : event Transport_intf.t;
    node_domain : record list Domain.t;
    mutable node_stopped : bool;
  }

  let node ~params ~transport ~pid ?(offset = 0) ?start_us ?recovery
      ?fallback ?sync () =
    let start_us =
      match start_us with Some s -> s | None -> Prelude.Mclock.now_us ()
    in
    let domain =
      Domain.spawn (fun () ->
          (* Hold timers are the paper's share of every latency: let the
             kernel fire this domain's waits on time instead of up to 50 µs
             late. *)
          Prelude.Os.set_timer_slack_ns 1;
          run_replica ~params ?recovery ?fallback ?sync ~transport ~start_us
            ~offset pid)
    in
    {
      node_pid = pid;
      node_transport = transport;
      node_domain = domain;
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
      Domain.join node.node_domain
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
