(** The transport *interface*, factored out of {!Transport}: what the
    in-process bus offers {!Replica}'s nodes, and what a decorator such as
    [Fault.Chaos_transport] wraps.  A TCP host ([Shard.Host]) steps its
    replicas straight from its socket set instead; it presents a shard's
    sends as one of these only so that a chaos plan can wrap them.

    A transport is a first-class record of closures, polymorphic in the
    message type: one value serves every [Replica.Make] instantiation, and
    implementations live wherever their dependencies do.

    Contract, shared by all implementations:

    - {!send} is the network: it may delay, reorder across links, or drop
      (counted in {!stats}); per-link FIFO order is preserved.
    - {!post} is the local client/control port: immediate, reliable,
      in-process delivery to [dst]'s mailbox — in the system model this is
      the co-located application layer invoking an operation, not a
      network hop.
    - {!recv} blocks on endpoint [me]'s mailbox with {!Mailbox.take}
      deadline semantics.
    - {!close} releases any OS resources (threads, sockets, the
      mailboxes' wake-up pipes) once the endpoints' replicas are
      stopped. *)

type link_stats = {
  reconnects : int;
      (** connection attempts beyond the first on each link — every retry
          of the capped-backoff reconnect loop counts *)
  bytes_out : int;  (** wire bytes successfully written *)
  bytes_in : int;  (** wire bytes received and fed to the decoder *)
  disconnected_us : int;
      (** cumulative µs any outgoing link spent wanting a connection it did
          not have, summed over links — the raw material for attributing an
          UNCHECKED verdict to a partition rather than to checker limits *)
  queue_hwm : int;
      (** high-water mark of the per-link data-lane write queues (frames),
          max over links — how close a wedged peer came to the shed cap *)
  ctrl_hwm : int;
      (** high-water mark of the per-link control-lane write queues
          (frames), max over links — the lane heartbeats, mode
          announcements, sync probes, and catch-up ride; it preempts the
          data lane so this should stay near zero even at saturation *)
  lane_shed : int;
      (** frames shed from full data lanes, summed over links — counted
          overload, never silent (each shed also emits an Obs event) *)
}

type stats = {
  sent : int;  (** messages handed to {!send} (including later-dropped) *)
  dropped : int;
      (** messages lost: marked by the delay policy (bus) or shed from a
          full/disconnected peer queue (TCP) *)
  link : link_stats option;
      (** socket-level counters; [None] for in-process transports *)
}

type 'msg t = {
  n : int;
  send : src:int -> dst:int -> trace:int -> 'msg -> unit;
      (** [trace] is the id of the operation this message belongs to
          ([Obs.Trace_id.none] when untraced) — transports and their
          wrappers emit [Send]/[Fault] observability events against it
          without inspecting the opaque message. *)
  post : src:int -> dst:int -> 'msg -> unit;
  recv : me:int -> deadline:int option -> (int * 'msg) option;
  depth : me:int -> int;
      (** Current queue depth of endpoint [me]'s inbound mailbox — sampled
          into [Deliver]/[Mbox_depth] observability events. *)
  stats : unit -> stats;
  close : unit -> unit;
}

type wrapper = { wrap : 'msg. start_us:int -> 'msg t -> 'msg t }
(** A transport decorator that is polymorphic in the message type, so one
    value (e.g. [Fault.Chaos_transport]'s) can wrap the in-process bus and
    the TCP transport alike.  [start_us] is the run's clock epoch on the
    {!Prelude.Mclock} timeline — wrappers that schedule behaviour in run
    time (fault windows) measure from it. *)

let n t = t.n
let send t ?(trace = 0) ~src ~dst msg = t.send ~src ~dst ~trace msg

(** {!send} to every endpoint except [src] — the system model's broadcast
    (a process never sends to itself; its own copy is handled locally). *)
let broadcast t ?(trace = 0) ~src msg =
  for dst = 0 to t.n - 1 do
    if dst <> src then t.send ~src ~dst ~trace msg
  done

let post t ~src ~dst msg = t.post ~src ~dst msg
let recv t ~me ~deadline = t.recv ~me ~deadline
let depth t ~me = t.depth ~me
let stats t = t.stats ()
let close t = t.close ()

let no_links =
  {
    reconnects = 0;
    bytes_out = 0;
    bytes_in = 0;
    disconnected_us = 0;
    queue_hwm = 0;
    ctrl_hwm = 0;
    lane_shed = 0;
  }

let pp_stats fmt s =
  Format.fprintf fmt "sent=%d dropped=%d" s.sent s.dropped;
  match s.link with
  | None -> ()
  | Some l ->
      Format.fprintf fmt " reconnects=%d bytes_out=%d bytes_in=%d"
        l.reconnects l.bytes_out l.bytes_in;
      if l.disconnected_us > 0 then
        Format.fprintf fmt " disconnected=%dµs" l.disconnected_us;
      if l.queue_hwm > 0 then Format.fprintf fmt " queue_hwm=%d" l.queue_hwm;
      if l.ctrl_hwm > 0 then Format.fprintf fmt " ctrl_hwm=%d" l.ctrl_hwm;
      if l.lane_shed > 0 then Format.fprintf fmt " lane_shed=%d" l.lane_shed
