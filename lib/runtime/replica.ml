(** See the interface for the model mapping.  This file holds the
    {!driver} — one core, its timer heap, the clock translation and the
    fate of its outputs — that both loops step: [Shard.Host]'s poll loop
    on the wall clock and {!Vloop}'s in virtual time. *)

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

  (* ---- the driver: one core, its timers, the clock translation and the
     fate of its outputs ---- *)

  type link = dsts:int list -> trace:int -> wire -> unit

  (* What the heap holds: a core timer, or a frame a fault parked until
     it enters its link. *)
  type pending =
    | Timer of timer
    | Parked of { dst : int; trace : int; w : wire }

  type entry = { due : int; tseq : int; what : pending }

  module Timers = Prelude.Heap.Make (struct
    type t = entry

    let compare a b =
      let c = Int.compare a.due b.due in
      if c <> 0 then c else Int.compare a.tseq b.tseq
  end)

  type driver = {
    config : config;
    pid : int;
    offset : int;
    peers : int list;  (** every pid but this one: a broadcast's targets *)
    link : link;
    fault : Transport_intf.fault option;
    mutable core : state;
    mutable timers : Timers.t;  (** by [(due, tseq)] *)
    mutable tseq : int;
    waiting : (int, outcome -> unit) Hashtbl.t;  (** by ticket *)
    mutable ticket : int;
    mutable lost : int;  (** sends the fault lost *)
  }

  let driver ~(params : Core.Params.t) ?recovery ?fallback ?sync
      ?(dedup_window_us = max_int) ?fault ~offset ~link pid =
    let config = { params; recovery; fallback; sync; dedup_window_us } in
    let n = params.Core.Params.n in
    {
      config;
      pid;
      offset;
      peers = List.filter (( <> ) pid) (List.init n Fun.id);
      link;
      fault;
      core = init config ~n ~pid;
      timers = Timers.empty;
      tseq = 0;
      waiting = Hashtbl.create 16;
      ticket = 0;
      lost = 0;
    }

  let next_due d =
    match Timers.find_min d.timers with None -> max_int | Some e -> e.due

  let lost d = d.lost

  let push d due what =
    d.timers <- Timers.insert { due; tseq = d.tseq; what } d.timers;
    d.tseq <- d.tseq + 1

  (* Take the entries [p] selects off the heap, in [(due, tseq)] order. *)
  let take d p =
    let taken, kept = List.partition p (Timers.to_sorted_list d.timers) in
    d.timers <- Timers.of_list kept;
    taken

  (* A send under the fault hook, decided per destination: a lost send is
     counted, extra copies enter the link at once, and the original
     enters with them or is parked on the heap for [extra_us]. *)
  let send d ~now ~dsts w =
    let trace = trace_of w in
    match d.fault with
    | None -> d.link ~dsts ~trace w
    | Some fault ->
        let entered =
          List.concat_map
            (fun dst ->
              let fate = fault ~now_us:now ~src:d.pid ~dst ~trace in
              if fate.Transport_intf.copies = 0 then begin
                d.lost <- d.lost + 1;
                []
              end
              else if fate.extra_us > 0 then begin
                push d (now + fate.extra_us) (Parked { dst; trace; w });
                List.init (fate.copies - 1) (fun _ -> dst)
              end
              else List.init fate.copies (fun _ -> dst))
            dsts
        in
        if entered <> [] then d.link ~dsts:entered ~trace w

  (* Step the core on the replica's raw local clock ([now + offset],
     [now] on the loop's timeline) and perform its outputs in emitted
     order: timers go into the heap — clocks advance at the rate of loop
     time, so a [δ]-delay timer is due at [now + δ] — sends to the link
     through the fault hook, and a completion to its invocation's
     continuation.  Cancels are rare (thaw, transfer), so one rebuilds the
     heap. *)
  let step d ~now f =
    let st, outputs = f d.config d.core ~clock:(now + d.offset) in
    d.core <- st;
    List.iter
      (function
        | Sim.Action.Set_timer (delay, timer) ->
            push d (now + delay) (Timer timer)
        | Sim.Action.Cancel_timer timer ->
            ignore
              (take d (fun e ->
                   match e.what with
                   | Timer t -> equal_timer t timer
                   | Parked _ -> false))
        | Sim.Action.Send (dst, w) -> send d ~now ~dsts:[ dst ] w
        | Sim.Action.Broadcast w -> send d ~now ~dsts:d.peers w
        | Sim.Action.Respond (r : reply) -> (
            match Hashtbl.find_opt d.waiting r.ticket with
            | Some k ->
                Hashtbl.remove d.waiting r.ticket;
                k r.outcome
            | None -> ()))
      outputs

  (* A due entry: a timer steps the core, a parked frame enters its
     link. *)
  let fire d ~now e =
    match e.what with
    | Timer timer ->
        step d ~now (fun c st ~clock -> on_timer c st ~clock timer)
    | Parked { dst; trace; w } -> d.link ~dsts:[ dst ] ~trace w

  let rec fire_due d ~now =
    match Timers.find_min d.timers with
    | Some e when e.due <= now ->
        d.timers <-
          Option.fold ~none:Timers.empty ~some:snd (Timers.delete_min d.timers);
        fire d ~now e;
        fire_due d ~now
    | _ -> ()

  (* Client deadlines arrive in loop µs and move onto the local clock. *)
  let invoke_at d ~now ~trace ~op_id ~deadline op k =
    let ticket = d.ticket in
    d.ticket <- ticket + 1;
    Hashtbl.add d.waiting ticket k;
    let deadline = if deadline = 0 then max_int else deadline + d.offset in
    step d ~now (fun c st ~clock ->
        on_invoke c st ~clock (call ~trace ~op_id ~deadline ~ticket op))

  let deliver_at d ~now ~src ~depth w =
    (match w with
    | Wire_entry (_, trace, _) when Obs.Recorder.active () ->
        Obs.Recorder.emit ~pid:d.pid ~kind:Obs.Event.Deliver ~trace ~a:src
          ~b:depth ()
    | _ -> ());
    step d ~now (fun c st ~clock -> on_message c st ~clock ~src w)

  (* A fault delays a frame, it never loses one: a [Stop] lets every
     parked frame enter its link. *)
  let control_at d ~now ctl =
    step d ~now (fun c st ~clock -> on_control c st ~clock ctl);
    if ctl = Stop then
      List.iter (fire d ~now)
        (take d (fun e ->
             match e.what with Parked _ -> true | Timer _ -> false))

  let driver_snapshot d = snapshot d.core
end
