(** See the interface for the model mapping.  This file holds the
    {!driver} — one core, its timer heap and the clock translation — that
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

  type timer_entry = { due : int; tseq : int; timer : timer }

  module Timers = Prelude.Heap.Make (struct
    type t = timer_entry

    let compare a b =
      let c = Int.compare a.due b.due in
      if c <> 0 then c else Int.compare a.tseq b.tseq
  end)

  type output = (reply, wire, timer) Sim.Action.t

  type driver = {
    config : config;
    pid : int;
    offset : int;
    mutable core : state;
    mutable timers : Timers.t;  (** by [(due, tseq)] *)
    mutable tseq : int;
  }

  let driver ~(params : Core.Params.t) ?recovery ?fallback ?sync
      ?(dedup_window_us = max_int) ~offset pid =
    let config = { params; recovery; fallback; sync; dedup_window_us } in
    {
      config;
      pid;
      offset;
      core = init config ~n:params.Core.Params.n ~pid;
      timers = Timers.empty;
      tseq = 0;
    }

  let next_due d =
    match Timers.find_min d.timers with None -> max_int | Some e -> e.due

  (* Step the core on the replica's raw local clock ([now + offset],
     [now] on the loop's timeline) and perform its outputs in emitted
     order: timers go into the driver's heap — clocks advance at the rate
     of loop time, so a [δ]-delay timer is due at [now + δ] — and sends
     and completions go to [out].  Cancels are rare (thaw, transfer), so
     one rebuilds the heap. *)
  let step d ~now ~out f =
    let st, outputs = f d.config d.core ~clock:(now + d.offset) in
    d.core <- st;
    List.iter
      (function
        | Sim.Action.Set_timer (delay, timer) ->
            d.timers <-
              Timers.insert { due = now + delay; tseq = d.tseq; timer } d.timers;
            d.tseq <- d.tseq + 1
        | Sim.Action.Cancel_timer timer ->
            let keep e = not (equal_timer e.timer timer) in
            d.timers <- Timers.(of_list (List.filter keep (to_sorted_list d.timers)))
        | o -> out o)
      outputs

  let rec fire_due d ~now ~out =
    match Timers.find_min d.timers with
    | Some e when e.due <= now ->
        d.timers <- Option.fold ~none:Timers.empty ~some:snd (Timers.delete_min d.timers);
        step d ~now ~out (fun c st ~clock -> on_timer c st ~clock e.timer);
        fire_due d ~now ~out
    | _ -> ()

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
