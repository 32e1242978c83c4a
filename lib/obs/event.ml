type kind =
  | Invoke
  | Hold_set
  | Broadcast
  | Send
  | Recv
  | Deliver
  | Apply
  | Respond
  | Mbox_depth
  | Fault
  | Drops
  | Recover
  | Catchup
  | Checkpoint
  | Mode_switch
  | Suspect
  | Sync_probe
  | Sync_eps
  | Shed
  | Queue_depth

let kind_code = function
  | Invoke -> 0
  | Hold_set -> 1
  | Broadcast -> 2
  | Send -> 3
  | Recv -> 4
  | Deliver -> 5
  | Apply -> 6
  | Respond -> 7
  | Mbox_depth -> 8
  | Fault -> 9
  | Drops -> 10
  | Recover -> 11
  | Catchup -> 12
  | Checkpoint -> 13
  | Mode_switch -> 14
  | Suspect -> 15
  | Sync_probe -> 16
  | Sync_eps -> 17
  | Shed -> 18
  | Queue_depth -> 19

let kind_of_code = function
  | 0 -> Some Invoke
  | 1 -> Some Hold_set
  | 2 -> Some Broadcast
  | 3 -> Some Send
  | 4 -> Some Recv
  | 5 -> Some Deliver
  | 6 -> Some Apply
  | 7 -> Some Respond
  | 8 -> Some Mbox_depth
  | 9 -> Some Fault
  | 10 -> Some Drops
  | 11 -> Some Recover
  | 12 -> Some Catchup
  | 13 -> Some Checkpoint
  | 14 -> Some Mode_switch
  | 15 -> Some Suspect
  | 16 -> Some Sync_probe
  | 17 -> Some Sync_eps
  | 18 -> Some Shed
  | 19 -> Some Queue_depth
  | _ -> None

let kind_name = function
  | Invoke -> "invoke"
  | Hold_set -> "hold_set"
  | Broadcast -> "broadcast"
  | Send -> "send"
  | Recv -> "recv"
  | Deliver -> "deliver"
  | Apply -> "apply"
  | Respond -> "respond"
  | Mbox_depth -> "mbox_depth"
  | Fault -> "fault"
  | Drops -> "drops"
  | Recover -> "recover"
  | Catchup -> "catchup"
  | Checkpoint -> "checkpoint"
  | Mode_switch -> "mode_switch"
  | Suspect -> "suspect"
  | Sync_probe -> "sync_probe"
  | Sync_eps -> "sync_eps"
  | Shed -> "shed"
  | Queue_depth -> "queue_depth"

let class_mutator = 0
let class_accessor = 1
let class_other = 2

let class_code : Spec.Data_type.kind -> int = function
  | Spec.Data_type.Pure_mutator -> class_mutator
  | Spec.Data_type.Pure_accessor -> class_accessor
  | Spec.Data_type.Other -> class_other

let class_name = function
  | 0 -> "mutator"
  | 1 -> "accessor"
  | _ -> "other"

let shed_deadline = 0
let shed_admission = 1
let shed_queue = 2

let shed_reason_name = function
  | 0 -> "deadline"
  | 1 -> "admission"
  | _ -> "queue"

let lane_ctrl = 0
let lane_data = 1
let lane_name = function 0 -> "ctrl" | _ -> "data"

type t = { t_us : int; pid : int; kind : kind; trace : int; a : int; b : int }

let equal x y =
  x.t_us = y.t_us && x.pid = y.pid && x.kind = y.kind && x.trace = y.trace
  && x.a = y.a && x.b = y.b

let pp ppf e =
  Format.fprintf ppf "@[%8dus p%d %-10s trace=%x a=%d b=%d@]" e.t_us e.pid
    (kind_name e.kind) e.trace e.a e.b

let encode buf e =
  Buffer.add_char buf (Char.chr (kind_code e.kind));
  Prelude.Varint.add_int buf e.t_us;
  Prelude.Varint.add_int buf e.pid;
  Prelude.Varint.add_int buf e.trace;
  Prelude.Varint.add_int buf e.a;
  Prelude.Varint.add_int buf e.b

let decode s ~pos =
  if pos >= String.length s then None
  else
    match kind_of_code (Char.code s.[pos]) with
    | None -> None
    | Some kind -> (
        let r = { Prelude.Varint.src = s; pos = pos + 1 } in
        match
          let t_us = Prelude.Varint.get_int r in
          let pid = Prelude.Varint.get_int r in
          let trace = Prelude.Varint.get_int r in
          let a = Prelude.Varint.get_int r in
          let b = Prelude.Varint.get_int r in
          { t_us; pid; kind; trace; a; b }
        with
        | e -> Some (e, r.pos)
        | exception Prelude.Varint.Malformed _ -> None)
