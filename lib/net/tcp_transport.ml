(** See the interface.  Thread structure per process:

    - 1 acceptor (select loop, so [close] can interrupt it);
    - 1 reader per accepted connection (peer frames → [deliver], client
      connections → [on_client]);
    - 1 writer per outgoing peer link (bounded queue, reconnect/backoff).

    All peer socket IO happens on these helper threads; the caller's
    [deliver] is the only way a received message leaves the transport.
    Client replies are the exception: {!conn_write} is a non-blocking send
    made by whichever thread completes the invocation. *)

type listener = { listen_fd : Unix.file_descr; host : string; port : int }

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> failwith ("cannot resolve " ^ host)
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found -> failwith ("cannot resolve " ^ host))

let listen ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (resolve host, port));
  Unix.listen fd 64;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  { listen_fd = fd; host; port }

type hello_verdict = Peer of int | Client | Reject of string

(* ---- outgoing peer links ---- *)

type link = {
  dst : int;
  lanes : string Lanes.t;
      (** two-lane write queue: control frames (heartbeats, sync probes,
          catch-up) always preempt data frames, and the data lane sheds —
          counted — instead of buffering without bound *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable fd : Unix.file_descr option;
  mutable attempts : int;  (** connect attempts so far (for reconnects) *)
  mutable backoff : int;
      (** next reconnect delay, µs; doubles per failure up to the cap and
          resets to the minimum once a connect + Hello succeeds, so a healed
          link probes at full cadence again instead of staying pinned at the
          maximum backoff (which would starve failure-detector recovery) *)
}

type counters = {
  sent : int Atomic.t;
  dropped : int Atomic.t;
  reconnects : int Atomic.t;
  bytes_out : int Atomic.t;
  bytes_in : int Atomic.t;
  disconnected_us : int Atomic.t;
      (** cumulative µs links spent wanting a connection they did not have *)
  queue_hwm : int Atomic.t;
      (** data-lane write-queue high-water mark, max over links *)
  ctrl_hwm : int Atomic.t;
      (** control-lane high-water mark, max over links *)
  lane_shed : int Atomic.t;
      (** frames shed from full data lanes, summed over links *)
}

let atomic_max a v =
  let rec go () =
    let cur = Atomic.get a in
    if v > cur && not (Atomic.compare_and_set a cur v) then go ()
  in
  go ()

(* An accepted socket.  [live] is cleared, under [guard], by whoever
   closes the descriptor (its reader on exit, or [close]), so a reply
   written later from another thread never lands on a reused number. *)
type sock = {
  sock_fd : Unix.file_descr;
  guard : Mutex.t;
  mutable live : bool;
}

type client_conn = {
  sock : sock;
  mutable residual : string;  (** bytes read past the frame last returned *)
  ctrs : counters;
}

(* Sockets carry SO_SNDTIMEO, so a blocking [write] to a wedged peer
   returns [EAGAIN] every slice instead of parking the thread on the
   kernel's send buffer indefinitely.  [write_all] resumes from the same
   offset (never restarting the frame mid-stream) and converts a stall
   longer than [stall_after_us] into [ETIMEDOUT], which callers already
   treat as a dead connection — the frame is retransmitted whole on the
   next connection, and a stopping transport's writer gets back to its
   loop head (where it checks the flag) within one slice. *)
let write_all ?(stall_after_us = max_int) fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let started = Prelude.Mclock.now_us () in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          if Prelude.Mclock.now_us () - started >= stall_after_us then
            raise (Unix.Unix_error (Unix.ETIMEDOUT, "write", ""))
          else go off
  in
  go 0

let send_timeout_slice_s = 0.25

let set_send_timeout fd =
  try Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_slice_s
  with Unix.Unix_error _ -> ()

let quiet_shutdown fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* A client's unread replies are bounded: past this much (the kernel
   doubles it) the next reply finds the buffer full and the connection is
   dropped.  A closed-loop client never has more than one reply queued. *)
let client_sndbuf = 64 * 1024

(* Non-blocking: replies are written from replica event loops, which must
   never wait on a client.  A frame the socket buffer cannot take whole
   shuts the connection down (its reader then sees EOF and releases it);
   the client's op-id retry covers the lost reply. *)
let conn_write conn s =
  let sock = conn.sock in
  let len = String.length s in
  let rec go off =
    off = len
    ||
    match Prelude.Os.send_nowait sock.sock_fd s off (len - off) with
    | 0 -> false
    | n -> go (off + n)
    | exception Unix.Unix_error _ -> false
  in
  Mutex.lock sock.guard;
  let ok = sock.live && go 0 in
  if ok then ignore (Atomic.fetch_and_add conn.ctrs.bytes_out len)
  else if sock.live then quiet_shutdown sock.sock_fd;
  Mutex.unlock sock.guard;
  ok

let conn_read_frame conn =
  let chunk = Bytes.create 8192 in
  let rec go acc =
    match Codec.decode_frame acc with
    | Codec.Got (frame, next) ->
        conn.residual <- String.sub acc next (String.length acc - next);
        Some frame
    | Codec.Corrupt _ -> None
    | Codec.Need_more _ -> (
        match Unix.read conn.sock.sock_fd chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | n ->
            ignore (Atomic.fetch_and_add conn.ctrs.bytes_in n);
            go (acc ^ Bytes.sub_string chunk 0 n)
        | exception (Unix.Unix_error _ | Sys_error _) -> None)
  in
  go conn.residual

(* ---- transport state ---- *)

type state = {
  me : int;
  n : int;
  addrs : (string * int) array;
  hello : string;
  listener : listener;
  links : link array;
  ctrs : counters;
  stopping : bool Atomic.t;
  accepted : sock list ref;
  accepted_lock : Mutex.t;
  write_stall_us : int;
  backoff_min_us : int;
  backoff_max_us : int;
  log : string -> unit;
}

let quiet_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Sleep in short slices so a stopping transport is never stuck in a long
   backoff pause. *)
let backoff_sleep st us =
  let slice = 50_000 in
  let rec go left =
    if left > 0 && not (Atomic.get st.stopping) then begin
      Prelude.Mclock.sleep_us (min slice left);
      go (left - slice)
    end
  in
  go us

let try_connect st link =
  let host, port = st.addrs.(link.dst) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (resolve host, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    set_send_timeout fd;
    write_all ~stall_after_us:st.write_stall_us fd st.hello
  with
  | () ->
      ignore (Atomic.fetch_and_add st.ctrs.bytes_out (String.length st.hello));
      Some fd
  | exception (Unix.Unix_error _ | Sys_error _ | Failure _) ->
      quiet_close fd;
      None

(* Connect (or reconnect) [link], sleeping with capped exponential backoff
   between attempts; every attempt beyond the link's first counts as a
   reconnect.  [None] only when the transport is stopping.  Time spent
   inside here without a connection is charged to [disconnected_us] — the
   raw material for attributing a verdict to a partition. *)
let ensure_connected st link =
  let entered = Prelude.Mclock.now_us () in
  let charge () =
    let waited = Prelude.Mclock.now_us () - entered in
    if waited > 0 then
      ignore (Atomic.fetch_and_add st.ctrs.disconnected_us waited)
  in
  let rec go () =
    if Atomic.get st.stopping then begin
      charge ();
      None
    end
    else
      match link.fd with
      | Some fd -> Some fd
      | None ->
          if link.attempts > 0 then Atomic.incr st.ctrs.reconnects;
          link.attempts <- link.attempts + 1;
          (match try_connect st link with
          | Some fd ->
              Mutex.lock link.lock;
              link.fd <- Some fd;
              link.backoff <- st.backoff_min_us;
              Mutex.unlock link.lock;
              charge ();
              Some fd
          | None ->
              let backoff = link.backoff in
              link.backoff <- min (2 * backoff) st.backoff_max_us;
              backoff_sleep st backoff;
              go ())
  in
  go ()

let drop_connection link =
  Mutex.lock link.lock;
  (match link.fd with
  | Some fd ->
      link.fd <- None;
      quiet_shutdown fd;
      quiet_close fd
  | None -> ());
  Mutex.unlock link.lock

let writer_loop st link =
  let rec loop () =
    Mutex.lock link.lock;
    while Lanes.is_empty link.lanes && not (Atomic.get st.stopping) do
      Condition.wait link.cond link.lock
    done;
    if Atomic.get st.stopping then Mutex.unlock link.lock
    else begin
      (* Peek, write, then drop: a frame interrupted by a connection
         failure is retransmitted on the fresh connection (the receiver
         discarded the truncated copy at EOF).  The drop names the lane the
         peek returned, so a control frame arriving during the write never
         gets removed in place of the data frame just written. *)
      let lane, frame =
        match Lanes.peek link.lanes with
        | Some lf -> lf
        | None -> assert false
      in
      Mutex.unlock link.lock;
      (match ensure_connected st link with
      | None -> ()
      | Some fd -> (
          match write_all ~stall_after_us:st.write_stall_us fd frame with
          | () ->
              ignore
                (Atomic.fetch_and_add st.ctrs.bytes_out (String.length frame));
              Mutex.lock link.lock;
              Lanes.drop link.lanes lane;
              Mutex.unlock link.lock
          | exception (Unix.Unix_error _ | Sys_error _) ->
              drop_connection link));
      if not (Atomic.get st.stopping) then loop ()
    end
  in
  loop ();
  drop_connection link

(* ---- incoming connections ---- *)

(* Incremental frame stream over a connection; calls [on_frame] until EOF
   or corruption.  Returns the leftover bytes past the last frame handed
   out (for handing a client connection over mid-buffer). *)
let read_frames st fd ~(on_frame : Codec.frame -> rest:string -> bool) =
  let chunk = Bytes.create 8192 in
  let rec go acc =
    match Codec.decode_frame acc with
    | Codec.Got (frame, next) ->
        let rest = String.sub acc next (String.length acc - next) in
        if on_frame frame ~rest then go rest else ()
    | Codec.Corrupt e ->
        st.log (Printf.sprintf "replica %d: corrupt frame: %s" st.me e)
    | Codec.Need_more _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            ignore (Atomic.fetch_and_add st.ctrs.bytes_in n);
            go (acc ^ Bytes.sub_string chunk 0 n)
        | exception (Unix.Unix_error _ | Sys_error _) -> ())
  in
  go ""

(* Deregister and close an accepted socket exactly once, whoever gets
   there first: its reader on exit, or [close] draining the list. *)
let release_conn st sock =
  Mutex.lock st.accepted_lock;
  st.accepted := List.filter (fun s -> s != sock) !(st.accepted);
  Mutex.unlock st.accepted_lock;
  Mutex.lock sock.guard;
  if sock.live then begin
    sock.live <- false;
    quiet_shutdown sock.sock_fd;
    quiet_close sock.sock_fd
  end;
  Mutex.unlock sock.guard

let reader st classify_hello decode_peer deliver on_client sock =
  let role = ref `Unknown in
  read_frames st sock.sock_fd ~on_frame:(fun frame ~rest ->
      match !role with
      | `Peer src ->
          (match decode_peer ~src frame with
          | Some msg -> deliver ~src msg
          | None -> ());
          true
      | `Unknown -> (
          match classify_hello frame with
          | Peer src ->
              role := `Peer src;
              true
          | Reject why ->
              st.log
                (Printf.sprintf "replica %d: rejected connection: %s" st.me why);
              false
          | Client ->
              (match on_client with
              | Some handler ->
                  (try
                     Unix.setsockopt_int sock.sock_fd Unix.SO_SNDBUF
                       client_sndbuf
                   with Unix.Unix_error _ -> ());
                  handler ~first:frame
                    { sock; residual = rest; ctrs = st.ctrs }
              | None ->
                  st.log
                    (Printf.sprintf
                       "replica %d: unexpected client connection" st.me));
              false));
  release_conn st sock

let acceptor_loop st classify_hello decode_peer deliver on_client =
  let rec loop () =
    if not (Atomic.get st.stopping) then begin
      match Unix.select [ st.listener.listen_fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
          match Unix.accept st.listener.listen_fd with
          | fd, _ ->
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              set_send_timeout fd;
              let sock =
                { sock_fd = fd; guard = Mutex.create (); live = true }
              in
              Mutex.lock st.accepted_lock;
              st.accepted := sock :: !(st.accepted);
              Mutex.unlock st.accepted_lock;
              ignore
                (Thread.create
                   (reader st classify_hello decode_peer deliver on_client)
                   sock);
              loop ()
          | exception Unix.Unix_error _ -> if Atomic.get st.stopping then () else loop ())
      | exception Unix.Unix_error _ -> if Atomic.get st.stopping then () else loop ()
    end
  in
  loop ()

(* ---- assembly ---- *)

type 'msg t = {
  t_send : dst:int -> trace:int -> 'msg -> unit;
  t_stats : unit -> Runtime.Transport_intf.stats;
  t_close : unit -> unit;
}

let send t ~dst ~trace msg = t.t_send ~dst ~trace msg
let stats t = t.t_stats ()
let close t = t.t_close ()

let create (type msg) ~me ~addrs ~listener ~hello ~classify_hello
    ~(decode_peer : src:int -> Codec.frame -> msg option)
    ~(encode_peer : msg -> string) ~(deliver : src:int -> msg -> unit)
    ?on_client ?(max_queue = 4096) ?(max_lane_bytes = 4 lsl 20)
    ?(lane_of : (msg -> Lanes.lane) option)
    ?(write_stall_us = 2_000_000) ?(backoff_min_us = 20_000)
    ?(backoff_max_us = 1_000_000) ?(log = fun s -> prerr_endline s) () :
    msg t =
  let n = Array.length addrs in
  if me < 0 || me >= n then invalid_arg "Tcp_transport.create: me out of range";
  let lane_of = match lane_of with Some f -> f | None -> fun _ -> Lanes.Data in
  let st =
    {
      me;
      n;
      addrs;
      hello;
      listener;
      links =
        Array.init n (fun dst ->
            {
              dst;
              lanes =
                Lanes.create ~max_data_frames:max_queue
                  ~max_data_bytes:max_lane_bytes ~size_of:String.length ();
              lock = Mutex.create ();
              cond = Condition.create ();
              fd = None;
              attempts = 0;
              backoff = backoff_min_us;
            });
      ctrs =
        {
          sent = Atomic.make 0;
          dropped = Atomic.make 0;
          reconnects = Atomic.make 0;
          bytes_out = Atomic.make 0;
          bytes_in = Atomic.make 0;
          disconnected_us = Atomic.make 0;
          queue_hwm = Atomic.make 0;
          ctrl_hwm = Atomic.make 0;
          lane_shed = Atomic.make 0;
        };
      stopping = Atomic.make false;
      accepted = ref [];
      accepted_lock = Mutex.create ();
      write_stall_us;
      backoff_min_us;
      backoff_max_us;
      log;
    }
  in
  let acceptor =
    Thread.create
      (fun () -> acceptor_loop st classify_hello decode_peer deliver on_client)
      ()
  in
  let writers =
    Array.to_list st.links
    |> List.filter_map (fun link ->
           if link.dst = me then None
           else Some (Thread.create (fun () -> writer_loop st link) ()))
  in
  let send ~dst ~trace msg =
    Atomic.incr st.ctrs.sent;
    Obs.Recorder.emit ~pid:me ~kind:Obs.Event.Send ~trace ~a:dst ();
    if dst = me then deliver ~src:me msg
    else if dst < 0 || dst >= n then
      invalid_arg "Tcp_transport.send: dst out of range"
    else begin
      let frame = encode_peer msg in
      let lane = lane_of msg in
      let link = st.links.(dst) in
      Mutex.lock link.lock;
      let shed = Lanes.push link.lanes lane frame in
      let ctrl_depth = Lanes.ctrl_length link.lanes in
      let data_depth = Lanes.data_length link.lanes in
      Condition.signal link.cond;
      Mutex.unlock link.lock;
      if shed > 0 then begin
        ignore (Atomic.fetch_and_add st.ctrs.dropped shed);
        ignore (Atomic.fetch_and_add st.ctrs.lane_shed shed);
        if Obs.Recorder.active () then
          for _ = 1 to shed do
            Obs.Recorder.emit ~pid:me ~kind:Obs.Event.Shed ~trace
              ~a:Obs.Event.shed_queue ~b:dst ()
          done
      end;
      let prev_ctrl = Atomic.get st.ctrs.ctrl_hwm in
      let prev_data = Atomic.get st.ctrs.queue_hwm in
      atomic_max st.ctrs.ctrl_hwm ctrl_depth;
      atomic_max st.ctrs.queue_hwm data_depth;
      (* Sample lane depths into the trace only when a lane sets a new
         high-water mark — a counter per send would double event volume. *)
      if Obs.Recorder.active () then begin
        if ctrl_depth > prev_ctrl then
          Obs.Recorder.emit ~pid:me ~kind:Obs.Event.Queue_depth
            ~a:Obs.Event.lane_ctrl ~b:ctrl_depth ();
        if data_depth > prev_data then
          Obs.Recorder.emit ~pid:me ~kind:Obs.Event.Queue_depth
            ~a:Obs.Event.lane_data ~b:data_depth ()
      end
    end
  in
  let stats () =
    {
      Runtime.Transport_intf.sent = Atomic.get st.ctrs.sent;
      dropped = Atomic.get st.ctrs.dropped;
      link =
        Some
          {
            Runtime.Transport_intf.reconnects = Atomic.get st.ctrs.reconnects;
            bytes_out = Atomic.get st.ctrs.bytes_out;
            bytes_in = Atomic.get st.ctrs.bytes_in;
            disconnected_us = Atomic.get st.ctrs.disconnected_us;
            queue_hwm = Atomic.get st.ctrs.queue_hwm;
            ctrl_hwm = Atomic.get st.ctrs.ctrl_hwm;
            lane_shed = Atomic.get st.ctrs.lane_shed;
          };
    }
  in
  let close () =
    if not (Atomic.exchange st.stopping true) then begin
      (* Wake writers (blocked on their condition) and break any write in
         progress, then interrupt the acceptor and all readers. *)
      Array.iter
        (fun link ->
          Mutex.lock link.lock;
          (match link.fd with Some fd -> quiet_shutdown fd | None -> ());
          Condition.broadcast link.cond;
          Mutex.unlock link.lock)
        st.links;
      quiet_close st.listener.listen_fd;
      Thread.join acceptor;
      List.iter Thread.join writers;
      Mutex.lock st.accepted_lock;
      let conns = !(st.accepted) in
      Mutex.unlock st.accepted_lock;
      (* Readers exit on the shutdown-induced EOF; they are not joined —
         they only touch their own socket, [deliver] and atomic counters. *)
      List.iter (release_conn st) conns
    end
  in
  { t_send = send; t_stats = stats; t_close = close }
