type action = Dropped of string | Duplicated | Delayed of int

type event = {
  at_us : int;
  src : int;
  dst : int;
  index : int;
  trace : int;
  action : action;
}

type t = {
  plan : Fault_plan.t;
  log : event list Atomic.t;  (** newest first *)
  drops : int Atomic.t;
  dups : int Atomic.t;
  delays : int Atomic.t;
}

let create plan =
  {
    plan;
    log = Atomic.make [];
    drops = Atomic.make 0;
    dups = Atomic.make 0;
    delays = Atomic.make 0;
  }

let plan t = t.plan

let record t ev =
  (match ev.action with
  | Dropped _ -> Atomic.incr t.drops
  | Duplicated -> Atomic.incr t.dups
  | Delayed _ -> Atomic.incr t.delays);
  let rec push () =
    let old = Atomic.get t.log in
    if not (Atomic.compare_and_set t.log old (ev :: old)) then push ()
  in
  push ()

let events t = List.rev (Atomic.get t.log)

let action_string = function
  | Dropped label -> "drop:" ^ label
  | Duplicated -> "dup"
  | Delayed e -> Printf.sprintf "delay:+%dus" e

let canonical_log t =
  Atomic.get t.log
  |> List.map (fun ev ->
         Printf.sprintf "%d>%d #%d %s" ev.src ev.dst ev.index
           (action_string ev.action))
  |> List.sort compare

let injected t = (Atomic.get t.drops, Atomic.get t.dups, Atomic.get t.delays)

let pp_event fmt ev =
  Format.fprintf fmt "@[t=%dµs %d>%d #%d %s@]" ev.at_us ev.src ev.dst ev.index
    (action_string ev.action)

(* ---- the decorator ---- *)

let wrap_transport (t : t) ~start_us (inner : 'msg Runtime.Transport_intf.t) :
    'msg Runtime.Transport_intf.t =
  if Fault_plan.is_empty t.plan then inner
  else begin
    let n = inner.Runtime.Transport_intf.n in
    (* Per-link send counters: the [index] fed to the pure decision
       function.  Local to this wrap so two wrapped transports (one per
       process) number their own links independently, matching what each
       would see in a separate OS process. *)
    let indices = Array.init (n * n) (fun _ -> Atomic.make 0) in
    (* Delayed sends wait here until they ripen; [None] is the drainer's
       stop signal. *)
    let parked : (int * int * int * 'msg) option Runtime.Mailbox.t =
      Runtime.Mailbox.create ()
    in
    let chaos_dropped = Atomic.make 0 in
    let drainer =
      Thread.create
        (fun () ->
          let rec loop () =
            match Runtime.Mailbox.take parked ~deadline:None with
            | Some (Some (src, dst, trace, msg)) ->
                inner.Runtime.Transport_intf.send ~src ~dst ~trace msg;
                loop ()
            | Some None | None -> ()
          in
          loop ())
        ()
    in
    (* Obs payload convention for fault events: a = action code
       (0 drop, 1 dup, 2 delay), b = extra delay µs (delays only). *)
    let obs_fault ~src ~trace a b =
      Obs.Recorder.emit ~pid:src ~kind:Obs.Event.Fault ~trace ~a ~b ()
    in
    let send ~src ~dst ~trace msg =
      let now = Prelude.Mclock.now_us () in
      let at_us = now - start_us in
      let index =
        if src >= 0 && src < n && dst >= 0 && dst < n then
          Atomic.fetch_and_add indices.((src * n) + dst) 1
        else 0
      in
      let d = Fault_plan.decide t.plan ~now_us:at_us ~src ~dst ~index in
      match d.Fault_plan.drop with
      | Some label ->
          Atomic.incr chaos_dropped;
          obs_fault ~src ~trace 0 0;
          record t { at_us; src; dst; index; trace; action = Dropped label }
      | None ->
          for _ = 2 to d.Fault_plan.copies do
            obs_fault ~src ~trace 1 0;
            record t { at_us; src; dst; index; trace; action = Duplicated };
            inner.Runtime.Transport_intf.send ~src ~dst ~trace msg
          done;
          if d.Fault_plan.extra_us > 0 then begin
            obs_fault ~src ~trace 2 d.Fault_plan.extra_us;
            record t
              { at_us; src; dst; index; trace;
                action = Delayed d.Fault_plan.extra_us };
            Runtime.Mailbox.put parked
              ~deliver_at:(now + d.Fault_plan.extra_us)
              (Some (src, dst, trace, msg))
          end
          else inner.Runtime.Transport_intf.send ~src ~dst ~trace msg
    in
    let stats () =
      let s = inner.Runtime.Transport_intf.stats () in
      let injected = Atomic.get chaos_dropped in
      {
        s with
        Runtime.Transport_intf.sent = s.Runtime.Transport_intf.sent + injected;
        dropped = s.Runtime.Transport_intf.dropped + injected;
      }
    in
    let close () =
      Runtime.Mailbox.put parked ~deliver_at:(Prelude.Mclock.now_us ()) None;
      Thread.join drainer;
      (* Forward anything still parked: closing the chaos layer must not
         silently lose messages the plan decided to merely delay.  Parked
         items ripen at their stretched delivery time, so wait them out —
         but never longer than 2 s, in case a plan injected a huge spike. *)
      let give_up = Prelude.Mclock.now_us () + 2_000_000 in
      let rec drain () =
        if Runtime.Mailbox.length parked > 0 then
          match Runtime.Mailbox.take parked ~deadline:(Some give_up) with
          | Some (Some (src, dst, trace, msg)) ->
              inner.Runtime.Transport_intf.send ~src ~dst ~trace msg;
              drain ()
          | Some None -> drain ()
          | None -> ()
      in
      drain ();
      Runtime.Mailbox.close parked;
      inner.Runtime.Transport_intf.close ()
    in
    { inner with Runtime.Transport_intf.send; stats; close }
  end

let wrapper t =
  { Runtime.Transport_intf.wrap = (fun ~start_us inner -> wrap_transport t ~start_us inner) }
