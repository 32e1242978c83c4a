(** Synchronous TCP client for a replica's client port — what the cluster
    load generator (and any external tool) speaks.

    A client connection opens with an [Invoke] frame (no [Hello]): the
    host's poll loop classifies the connection by that first frame and
    serves it as a client for its lifetime.  The protocol is strict
    request/response — [Invoke op → Result r | Error_msg e] and
    [Stats_req → Stats s] — so a blocking read after each request is a
    complete client.  Replies are reassembled in the connection's
    {!Tcp_transport.Buf}, the same cursor buffer the host reads frames
    with. *)

module Make (W : Wire.WIRED) = struct
  module C = Codec.Make (W.C)

  type t = {
    fd : Unix.file_descr;
    buf : Tcp_transport.Buf.t;  (** reply bytes read, not yet decoded *)
    mutable rcv_timeout : int option;  (** the [SO_RCVTIMEO] last set *)
  }

  let connect ~host ~port ?(attempts = 50) ?(retry_delay_us = 100_000) () =
    let addr =
      try Unix.ADDR_INET (Tcp_transport.resolve host, port)
      with Failure e -> failwith e
    in
    let rec go k =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match
        Unix.connect fd addr;
        Unix.setsockopt fd Unix.TCP_NODELAY true
      with
      | () -> Ok { fd; buf = Tcp_transport.Buf.create (); rcv_timeout = None }
      | exception Unix.Unix_error (err, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          if k <= 1 then
            Error
              (Printf.sprintf "connect %s:%d: %s" host port
                 (Unix.error_message err))
          else begin
            Prelude.Mclock.sleep_us retry_delay_us;
            go (k - 1)
          end
    in
    go (max 1 attempts)

  let send t msg =
    let s = C.encode msg in
    match
      let b = Bytes.unsafe_of_string s in
      let rec go off =
        if off < String.length s then
          go (off + Unix.write t.fd b off (String.length s - off))
      in
      go 0
    with
    | () -> Ok ()
    | exception (Unix.Unix_error _ | Sys_error _) -> Error "connection lost"

  (* [timeout_us]: bound the wait for a reply via [SO_RCVTIMEO].  A
     timed-out request leaves the connection in an unknown state (the
     reply may still be in flight), so callers should close and reconnect
     before retrying.  The option is set only when it changes. *)
  let set_timeout t us =
    if us <> t.rcv_timeout then
      try
        Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO
          (match us with
          | None -> 0.
          | Some us -> float_of_int (max 1 us) /. 1e6);
        t.rcv_timeout <- us
      with Unix.Unix_error _ -> ()

  (* The next whole reply already in [t.buf], if there is one. *)
  let buffered t =
    match Tcp_transport.Buf.next_frame t.buf with
    | Codec.Got (frame, _) -> (
        match C.decode_payload frame with
        | Ok msg -> Some (Ok msg)
        | Error e -> Some (Error ("corrupt reply: " ^ e)))
    | Codec.Corrupt e -> Some (Error ("corrupt reply: " ^ e))
    | Codec.Need_more _ -> None

  (* For a poll loop: called once [t.fd] polled readable, it reads once
     and never blocks; [None] while the reply is still partial. *)
  let recv_ready t =
    match buffered t with
    | Some _ as reply -> reply
    | None -> (
        match Tcp_transport.Buf.fill t.buf (Unix.read t.fd) with
        | 0 -> Some (Error "connection closed by replica")
        | _ -> buffered t
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Some (Error "timeout waiting for reply")
        | exception (Unix.Unix_error _ | Sys_error _) ->
            Some (Error "connection lost"))

  let rec recv t =
    match recv_ready t with Some reply -> reply | None -> recv t

  let rpc t msg =
    match send t msg with Error e -> Error e | Ok () -> recv t

  let result_of ~shard = function
    | Ok (C.Result { result; shard = rs }) ->
        if rs = shard then Ok result
        else
          Error
            (Printf.sprintf "replica error: shard mismatch (sent %d, got %d)"
               shard rs)
    | Ok (C.Shed { reason; _ }) ->
        (* Overload refusal: the op was *not* executed, so retrying (same
           op id, same deadline, capped backoff) is always safe. *)
        Error reason
    | Ok (C.Error_msg e) -> Error ("replica error: " ^ e)
    | Ok m -> Error (Format.asprintf "unexpected reply %a" C.pp_msg m)
    | Error e -> Error e

  let invoke ?(trace = 0) ?(op_id = 0) ?(shard = 0) ?(deadline = 0) ?timeout_us
      t op =
    set_timeout t timeout_us;
    result_of ~shard (rpc t (C.Invoke { op; trace; op_id; shard; deadline }))

  (* Which invocation errors are safe and useful to retry (with the same
     op id)?  Timeouts and lost/closed connections — the op may or may not
     have landed, which is what idempotence is for — the replica's explicit
     back-off answer for an in-flight replay, and overload sheds (the op
     was refused before execution). *)
  let retryable e =
    let has_sub sub =
      let ls = String.length sub and le = String.length e in
      let rec go i = i + ls <= le && (String.sub e i ls = sub || go (i + 1)) in
      go 0
    in
    has_sub "timeout" || has_sub "connection" || has_sub "retry"
    || has_sub "shed"

  let stats t =
    match rpc t C.Stats_req with
    | Ok (C.Stats s) -> Ok s
    | Ok (C.Error_msg e) -> Error ("replica error: " ^ e)
    | Ok m -> Error (Format.asprintf "unexpected reply %a" C.pp_msg m)
    | Error e -> Error e

  let close t =
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
end
