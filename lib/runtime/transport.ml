(** See the interface.  Both implementations share the mailbox array; the
    delay wrapper only replaces the routing function, so stacking wrappers
    composes and [recv]/[post] always reach the same mailboxes. *)

type 'msg route = src:int -> dst:int -> 'msg -> unit

type 'msg t = {
  n : int;
  epoch : int;  (** µs origin for the policy's [send_time] *)
  boxes : (int * 'msg) Mailbox.t array;
  route : 'msg route;
  sent_ctr : int Atomic.t;
  dropped_ctr : int Atomic.t;
}

type stats = Transport_intf.stats = {
  sent : int;
  dropped : int;
  link : Transport_intf.link_stats option;
}

let bus ~n () =
  let boxes = Array.init n (fun _ -> Mailbox.create ()) in
  {
    n;
    epoch = Prelude.Mclock.now_us ();
    boxes;
    route =
      (fun ~src ~dst msg ->
        Mailbox.put boxes.(dst) ~deliver_at:(Prelude.Mclock.now_us ()) (src, msg));
    sent_ctr = Atomic.make 0;
    dropped_ctr = Atomic.make 0;
  }

let with_delays ~policy t =
  (* One lock serialises the policy: delay policies are built on the
     sequential [Prelude.Rng] and on per-link index counters, neither of
     which is domain-safe on its own. *)
  let lock = Mutex.create () in
  let indices = Array.make_matrix t.n t.n 0 in
  let route ~src ~dst msg =
    Mutex.lock lock;
    let index = indices.(src).(dst) in
    indices.(src).(dst) <- index + 1;
    let now = Prelude.Mclock.now_us () in
    let delay = policy ~src ~dst ~send_time:(now - t.epoch) ~index in
    Mutex.unlock lock;
    if delay < 0 then Atomic.incr t.dropped_ctr
    else Mailbox.put t.boxes.(dst) ~deliver_at:(now + delay) (src, msg)
  in
  { t with route }

let n t = t.n

let send ?(trace = 0) t ~src ~dst msg =
  Atomic.incr t.sent_ctr;
  Obs.Recorder.emit ~pid:src ~kind:Obs.Event.Send ~trace ~a:dst ();
  t.route ~src ~dst msg

let broadcast t ~src msg =
  for dst = 0 to t.n - 1 do
    if dst <> src then send t ~src ~dst msg
  done

let post t ~src ~dst msg =
  Mailbox.put t.boxes.(dst) ~deliver_at:(Prelude.Mclock.now_us ()) (src, msg)

let recv t ~me ~deadline = Mailbox.take t.boxes.(me) ~deadline

let stats t =
  { sent = Atomic.get t.sent_ctr; dropped = Atomic.get t.dropped_ctr; link = None }

let intf t =
  {
    Transport_intf.n = t.n;
    send = (fun ~src ~dst ~trace msg -> send ~trace t ~src ~dst msg);
    post = (fun ~src ~dst msg -> post t ~src ~dst msg);
    recv = (fun ~me ~deadline -> recv t ~me ~deadline);
    depth = (fun ~me -> Mailbox.length t.boxes.(me));
    stats = (fun () -> stats t);
    close = (fun () -> Array.iter Mailbox.close t.boxes);
  }
