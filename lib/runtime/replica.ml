(** See the interface for the model mapping.  This file holds the
    {!driver} — one core, its timer list and the clock translation — that
    both loops step: [Shard.Host]'s poll loop on the wall clock and
    {!Vloop}'s in virtual time. *)

module Make (D : Spec.Data_type.S) = struct
  include Replica_core.Make (D)

  (* The operation a message belongs to, for the [Send] observability
     events and the fault hook. *)
  let trace_of = function
    | Wire_entry (_, trace, _) | Wire_quorum (Forward { trace; _ }) -> trace
    | Wire_quorum (Propose { p; _ }) -> p.q_trace
    | Wire_catchup_req _ | Wire_catchup_rep _ | Wire_catchup_state _
    | Wire_quorum _ | Wire_sync _ ->
        0

  (* ---- the driver: one core, its timers and the clock translation ---- *)

  type timer_entry = {
    due : int;
    tseq : int;
    timer : timer;
    zero : bool;  (** set with no delay: due at its own step *)
  }

  let by_due a b =
    let c = Int.compare a.due b.due in
    if c <> 0 then c else Int.compare a.tseq b.tseq

  type output = (reply, wire, timer) Sim.Action.t

  type driver = {
    config : config;
    pid : int;
    offset : int;
    mutable core : state;
    mutable timers : timer_entry list;  (** sorted by [(due, tseq)] *)
    mutable tseq : int;
    mutable last : int;  (** loop time of the latest step *)
  }

  let driver ~(params : Core.Params.t) ?recovery ?fallback ?sync
      ?(dedup_window_us = max_int) ~offset pid =
    let config = { params; recovery; fallback; sync; dedup_window_us } in
    {
      config;
      pid;
      offset;
      core = init config ~n:params.Core.Params.n ~pid;
      timers = [];
      tseq = 0;
      last = min_int;
    }

  let next_due d = match d.timers with [] -> max_int | e :: _ -> e.due

  (* Step the core on the replica's raw local clock ([now + offset],
     [now] on the loop's timeline) and perform its
     outputs in emitted order: timers go into the driver's list — clocks
     advance at the rate of loop time, so a [δ]-delay timer is due at
     [now + δ] — and sends and completions go to [out].  A replica never
     takes two steps at one clock value: two invocations stepped in the
     same µs (or the same loop cycle) would otherwise share a timestamp,
     and Algorithm 1 orders a process's operations by theirs. *)
  let step d ~now ~out f =
    let now = if now > d.last then now else d.last + 1 in
    d.last <- now;
    let st, outputs = f d.config d.core ~clock:(now + d.offset) in
    d.core <- st;
    List.iter
      (function
        | Sim.Action.Set_timer (delay, timer) ->
            d.timers <-
              List.merge by_due d.timers
                [ { due = now + delay; tseq = d.tseq; timer; zero = delay = 0 } ];
            d.tseq <- d.tseq + 1
        | Sim.Action.Cancel_timer timer ->
            d.timers <- List.filter (fun e -> not (equal_timer e.timer timer)) d.timers
        | o -> out o)
      outputs

  let rec fire_due d ~now ~out =
    match d.timers with
    | e :: rest when e.due <= now ->
        d.timers <- rest;
        step d ~now ~out (fun c st ~clock -> on_timer c st ~clock e.timer);
        fire_due d ~now ~out
    | _ -> ()

  (* A zero delay set by a step bumped past [now] is due at that step,
     which has happened; any other timer waits for [now] to reach it.
     The steps this takes are bumped past [d.last] as read here, so a
     zero delay they set waits for a later call. *)
  let fire_caught_up d ~now ~out =
    let stepped = d.last in
    let rec go fired =
      match d.timers with
      | e :: rest when e.due <= now || (e.zero && e.due <= stepped) ->
          d.timers <- rest;
          step d ~now ~out (fun c st ~clock -> on_timer c st ~clock e.timer);
          go true
      | _ -> fired
    in
    go false

  (* Client deadlines arrive in loop µs and move onto the local clock. *)
  let invoke_at d ~now ~out ~trace ~op_id ~deadline ~ticket op =
    let deadline = if deadline = 0 then max_int else deadline + d.offset in
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
end
