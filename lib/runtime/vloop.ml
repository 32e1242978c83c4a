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
    policy : Sim.Delay.t;
    mutable drivers : R.driver array;
    mutable heap : H.t;
    mutable seq : int;
    mutable now : int;
    index : int array array;  (** per link: messages that entered it *)
    last : int array array;  (** per link: latest delivery time *)
    inflight : int array;  (** per destination: messages on its links *)
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
          R.deliver_at t.drivers.(dst) ~now:t.now ~src ~depth:t.inflight.(dst)
            w)
    end

  let control t ~pid ctl =
    at t t.now (fun () ->
        R.control_at t.drivers.(pid) ~now:t.now ctl)

  let create ~(params : Core.Params.t) ~policy ?offsets ?fault ?recovery
      ?fallback ?sync () =
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
        policy;
        drivers = [||];
        heap = H.empty;
        seq = 0;
        now = 0;
        index = Array.make_matrix n n 0;
        last = Array.make_matrix n n 0;
        inflight = Array.make n 0;
        sent = 0;
        dropped = 0;
        rounds;
      }
    in
    t.drivers <-
      Array.init n (fun pid ->
          R.driver ~params ?recovery ?fallback ?sync:(sync_for pid) ?fault
            ~offset:offsets.(pid)
            ~link:(fun ~dsts ~trace w ->
              List.iter (fun dst -> enter t ~src:pid ~dst ~trace w) dsts)
            pid);
    for pid = 0 to n - 1 do
      control t ~pid R.Start
    done;
    t

  let invoke t ~pid ?(trace = 0) ?(op_id = 0) ?(taken = ignore) op k =
    schedule t ~late:true t.now (fun () ->
        taken ();
        R.invoke_at t.drivers.(pid) ~now:t.now ~trace ~op_id ~deadline:0 op k)

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
        R.fire_due t.drivers.(!pid) ~now:t.now;
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
        Array.iter (fun d -> R.control_at d ~now:t.now R.Stop) t.drivers)

  (* A fault's losses count as sent and dropped, so loss stays visible. *)
  let stats t =
    let lost = Array.fold_left (fun acc d -> acc + R.lost d) 0 t.drivers in
    {
      Transport_intf.sent = t.sent + lost;
      dropped = t.dropped + lost;
      link = None;
    }

  let sync_rounds t = Array.map List.rev t.rounds
end
