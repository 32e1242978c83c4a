type lane = Ctrl | Data

let lane_name = function Ctrl -> "ctrl" | Data -> "data"

type 'a t = {
  ctrl : 'a Queue.t;
  data : 'a Queue.t;
  size_of : 'a -> int;
  max_data_frames : int;
  max_data_bytes : int;
  mutable data_bytes : int;
  mutable shed : int;
  mutable ctrl_hwm : int;
  mutable data_hwm : int;
}

let create ?(max_data_frames = 4096) ?(max_data_bytes = 4 lsl 20) ~size_of ()
    =
  if max_data_frames < 1 then invalid_arg "Lanes.create: max_data_frames < 1";
  if max_data_bytes < 1 then invalid_arg "Lanes.create: max_data_bytes < 1";
  {
    ctrl = Queue.create ();
    data = Queue.create ();
    size_of;
    max_data_frames;
    max_data_bytes;
    data_bytes = 0;
    shed = 0;
    ctrl_hwm = 0;
    data_hwm = 0;
  }

let length t = Queue.length t.ctrl + Queue.length t.data
let is_empty t = Queue.is_empty t.ctrl && Queue.is_empty t.data
let data_bytes t = t.data_bytes
let shed t = t.shed
let ctrl_hwm t = t.ctrl_hwm
let data_hwm t = t.data_hwm
let ctrl_length t = Queue.length t.ctrl
let data_length t = Queue.length t.data

let push t lane x =
  match lane with
  | Ctrl ->
      Queue.push x t.ctrl;
      let d = Queue.length t.ctrl in
      if d > t.ctrl_hwm then t.ctrl_hwm <- d;
      0
  | Data ->
      let sz = t.size_of x in
      if sz > t.max_data_bytes then begin
        (* Larger than the whole budget: shed the arrival itself rather
           than empty the lane for a frame that can never fit. *)
        t.shed <- t.shed + 1;
        1
      end
      else begin
        let dropped = ref 0 in
        while
          (not (Queue.is_empty t.data))
          && (Queue.length t.data >= t.max_data_frames
             || t.data_bytes + sz > t.max_data_bytes)
        do
          let old = Queue.pop t.data in
          t.data_bytes <- t.data_bytes - t.size_of old;
          t.shed <- t.shed + 1;
          incr dropped
        done;
        Queue.push x t.data;
        t.data_bytes <- t.data_bytes + sz;
        let d = Queue.length t.data in
        if d > t.data_hwm then t.data_hwm <- d;
        !dropped
      end

let peek t =
  match Queue.peek_opt t.ctrl with
  | Some x -> Some (Ctrl, x)
  | None -> (
      match Queue.peek_opt t.data with
      | Some x -> Some (Data, x)
      | None -> None)

let drop t lane =
  match lane with
  | Ctrl -> ignore (Queue.pop t.ctrl)
  | Data ->
      let x = Queue.pop t.data in
      t.data_bytes <- t.data_bytes - t.size_of x

let clear t =
  Queue.clear t.ctrl;
  Queue.clear t.data;
  t.data_bytes <- 0
