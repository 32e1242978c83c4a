(** See the interface.  Every input reaches a driver from the heap, so a
    continuation that invokes again never re-enters a driver mid-step. *)

module Make (D : Spec.Data_type.S) = struct
  module R = Replica.Make (D)

  (* A [late] event (a client invocation) runs after every other input
     and every timer due in its µs: each answer the loop gives in a µs is
     out before an invocation issued in that µs is taken. *)
  type event = { at : int; late : bool; seq : int; go : unit -> unit }

  module H = Prelude.Heap.Make (struct
    type t = event

    let compare a b =
      if a.at <> b.at then Int.compare a.at b.at
      else if a.late <> b.late then Bool.compare a.late b.late
      else Int.compare a.seq b.seq
  end)

  type t = {
    n : int;
    policy : Sim.Delay.t;
    fault : Transport_intf.fault;
    drivers : R.driver array;
    mutable outs : (R.output -> unit) array;
    mutable heap : H.t;
    mutable seq : int;
    mutable now : int;
    index : int array array;  (** per link: messages that entered it *)
    last : int array array;  (** per link: latest delivery time *)
    inflight : int array;  (** per destination: messages on its links *)
    waiting : (int, R.outcome -> unit) Hashtbl.t;  (** by ticket *)
    mutable ticket : int;
    mutable sent : int;
    mutable dropped : int;
    rounds : (int * int) list array;  (** achieved-ε rounds, newest first *)
  }

  let now t = t.now

  let schedule t ~late time go =
    t.heap <- H.insert { at = max time t.now; late; seq = t.seq; go } t.heap;
    t.seq <- t.seq + 1

  let at t time go = schedule t ~late:false time go

  (* The message enters link [src → dst] now. *)
  let enter t ~src ~dst ~trace w =
    t.sent <- t.sent + 1;
    Obs.Recorder.emit ~pid:src ~kind:Obs.Event.Send ~trace ~a:dst ();
    let index = t.index.(src).(dst) in
    t.index.(src).(dst) <- index + 1;
    let delay = t.policy ~src ~dst ~send_time:t.now ~index in
    if delay < 0 then t.dropped <- t.dropped + 1
    else begin
      let arrival = max (t.now + delay) t.last.(src).(dst) in
      t.last.(src).(dst) <- arrival;
      t.inflight.(dst) <- t.inflight.(dst) + 1;
      at t arrival (fun () ->
          t.inflight.(dst) <- t.inflight.(dst) - 1;
          R.deliver_at t.drivers.(dst) ~now:t.now ~out:t.outs.(dst) ~src
            ~depth:t.inflight.(dst) w)
    end

  let send t ~src ~dst w =
    let trace = R.trace_of w in
    Transport_intf.apply
      (t.fault ~now_us:t.now ~src ~dst ~trace)
      ~lost:(fun () ->
        t.sent <- t.sent + 1;
        t.dropped <- t.dropped + 1)
      ~enter:(fun () -> enter t ~src ~dst ~trace w)
      ~park:(fun extra_us ->
        at t (t.now + extra_us) (fun () -> enter t ~src ~dst ~trace w))

  let perform t src = function
    | Sim.Action.Respond (r : R.reply) -> (
        match Hashtbl.find_opt t.waiting r.ticket with
        | Some k ->
            Hashtbl.remove t.waiting r.ticket;
            k r.outcome
        | None -> ())
    | Sim.Action.Send (dst, w) -> send t ~src ~dst w
    | Sim.Action.Broadcast w ->
        for dst = 0 to t.n - 1 do
          if dst <> src then send t ~src ~dst w
        done
    | Sim.Action.Set_timer _ | Sim.Action.Cancel_timer _ -> ()

  let control t ~pid ctl =
    at t t.now (fun () ->
        R.control_at t.drivers.(pid) ~now:t.now ~out:t.outs.(pid) ctl)

  let create ~(params : Core.Params.t) ~policy ?offsets
      ?(fault = fun ~now_us:_ ~src:_ ~dst:_ ~trace:_ -> Transport_intf.on_time)
      ?recovery ?fallback ?sync () =
    let n = params.Core.Params.n in
    let offsets = match offsets with Some o -> o | None -> Array.make n 0 in
    if Array.length offsets <> n then
      invalid_arg "Vloop.create: offsets length must be n";
    let rounds = Array.make n [] in
    (* Each replica's sync hook also files its rounds under its pid. *)
    let sync_for pid =
      Option.map
        (fun (c : Sync.Config.t) ->
          {
            c with
            Sync.Config.on_eps =
              (fun ~eps_us ~peers ->
                rounds.(pid) <- (eps_us, peers) :: rounds.(pid);
                c.Sync.Config.on_eps ~eps_us ~peers);
          })
        sync
    in
    let t =
      {
        n;
        policy;
        fault;
        drivers =
          Array.init n (fun pid ->
              R.driver ~params ?recovery ?fallback ?sync:(sync_for pid)
                ~offset:offsets.(pid) pid);
        outs = [||];
        heap = H.empty;
        seq = 0;
        now = 0;
        index = Array.make_matrix n n 0;
        last = Array.make_matrix n n 0;
        inflight = Array.make n 0;
        waiting = Hashtbl.create 16;
        ticket = 0;
        sent = 0;
        dropped = 0;
        rounds;
      }
    in
    t.outs <- Array.init n (fun pid o -> perform t pid o);
    for pid = 0 to n - 1 do
      control t ~pid R.Start
    done;
    t

  let invoke t ~pid ?(trace = 0) ?(op_id = 0) ?(taken = ignore) op k =
    let ticket = t.ticket in
    t.ticket <- ticket + 1;
    Hashtbl.replace t.waiting ticket k;
    schedule t ~late:true t.now (fun () ->
        taken ();
        R.invoke_at t.drivers.(pid) ~now:t.now ~out:t.outs.(pid) ~trace ~op_id
          ~deadline:0 ~ticket op)

  (* One step: the earliest event, or the earliest due timer when it comes
     strictly first.  [false] when nothing is left. *)
  let step t =
    let due = ref max_int and pid = ref (-1) in
    Array.iteri
      (fun p d ->
        let at = R.next_due d in
        if at < !due then begin
          due := at;
          pid := p
        end)
      t.drivers;
    match H.find_min t.heap with
    | Some e when e.at < !due || (e.at = !due && not e.late) || !pid < 0 ->
        t.heap <- Option.fold ~none:H.empty ~some:snd (H.delete_min t.heap);
        t.now <- max t.now e.at;
        e.go ();
        true
    | _ when !pid >= 0 ->
        t.now <- max t.now !due;
        R.fire_due t.drivers.(!pid) ~now:t.now ~out:t.outs.(!pid);
        true
    | _ -> false

  let run t ~until =
    Obs.Recorder.with_clock
      (fun () -> t.now)
      (fun () -> while (not (until ())) && step t do () done)

  let stop t =
    Obs.Recorder.with_clock
      (fun () -> t.now)
      (fun () ->
        Array.iteri
          (fun pid d -> R.control_at d ~now:t.now ~out:t.outs.(pid) R.Stop)
          t.drivers)

  let stats t =
    { Transport_intf.sent = t.sent; dropped = t.dropped; link = None }

  let sync_rounds t = Array.map List.rev t.rounds
end
