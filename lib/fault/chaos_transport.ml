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
  indices : (int * int, int) Hashtbl.t;  (** per link: messages decided *)
  mutable log : event list;  (** newest first *)
  mutable drops : int;
  mutable dups : int;
  mutable delays : int;
}

let create plan =
  {
    plan;
    indices = Hashtbl.create 16;
    log = [];
    drops = 0;
    dups = 0;
    delays = 0;
  }

let plan t = t.plan

(* Obs payload convention for fault events: a = action code (0 drop,
   1 dup, 2 delay), b = extra delay µs (delays only). *)
let record t ev =
  let a, b =
    match ev.action with
    | Dropped _ ->
        t.drops <- t.drops + 1;
        (0, 0)
    | Duplicated ->
        t.dups <- t.dups + 1;
        (1, 0)
    | Delayed e ->
        t.delays <- t.delays + 1;
        (2, e)
  in
  Obs.Recorder.emit ~pid:ev.src ~kind:Obs.Event.Fault ~trace:ev.trace ~a ~b ();
  t.log <- ev :: t.log

let decide t ~now_us ~src ~dst ~trace =
  let index = Option.value ~default:0 (Hashtbl.find_opt t.indices (src, dst)) in
  Hashtbl.replace t.indices (src, dst) (index + 1);
  let d = Fault_plan.decide t.plan ~now_us ~src ~dst ~index in
  let record action =
    record t { at_us = now_us; src; dst; index; trace; action }
  in
  match d.Fault_plan.drop with
  | Some label ->
      record (Dropped label);
      { Runtime.Transport_intf.copies = 0; extra_us = 0 }
  | None ->
      for _ = 2 to d.Fault_plan.copies do
        record Duplicated
      done;
      if d.Fault_plan.extra_us > 0 then record (Delayed d.Fault_plan.extra_us);
      { copies = d.Fault_plan.copies; extra_us = d.Fault_plan.extra_us }

let events t = List.rev t.log

let action_string = function
  | Dropped label -> "drop:" ^ label
  | Duplicated -> "dup"
  | Delayed e -> Printf.sprintf "delay:+%dus" e

let canonical_log t =
  t.log
  |> List.map (fun ev ->
         Printf.sprintf "%d>%d #%d %s" ev.src ev.dst ev.index
           (action_string ev.action))
  |> List.sort compare

let injected t = (t.drops, t.dups, t.delays)

let pp_event fmt ev =
  Format.fprintf fmt "@[t=%dµs %d>%d #%d %s@]" ev.at_us ev.src ev.dst ev.index
    (action_string ev.action)
