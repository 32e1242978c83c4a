(** Pluggable message transport between [n] endpoints — the live runtime's
    replacement for the simulator's message-passing layer.

    A transport is a first-class value (polymorphic in the message type, so
    one implementation serves every [Replica.Make] instantiation):

    - {!bus} is the base implementation: an in-process *domain bus*, one
      {!Mailbox} per endpoint, delivering immediately.
      Endpoints are OCaml 5 domains; sends are lock-free handoffs into the
      receiver's mailbox.
    - {!with_delays} is a delay-injecting wrapper: every {!send} is
      assigned a delay by a {!Sim.Delay.t} policy — the same policy
      vocabulary the simulator uses, so [Sim.Delay.random ~d ~u] enforces
      the model's [[d − u, d]] window and [Sim.Delay.lossy] drops messages
      (the {!Sim.Delay.dropped} sentinel).  The message is then parked in
      the receiver's mailbox until its delivery time.

    {!post} bypasses the delay policy: it is the local client/control port
    (operation invocations, shutdown), which in the system model reach a
    process from its co-located application layer, not over the network. *)

type 'msg t

type stats = Transport_intf.stats = {
  sent : int;
  dropped : int;
  link : Transport_intf.link_stats option;
}
(** [sent] counts messages handed to {!send} (including later-dropped
    ones); [dropped] those the delay policy marked lost.  [link] is always
    [None] for the in-process bus — only socket transports have link-level
    counters. *)

val bus : n:int -> unit -> 'msg t
(** In-process domain bus: [send] delivers into the destination's mailbox
    with no injected delay. *)

val with_delays : policy:Sim.Delay.t -> 'msg t -> 'msg t
(** Wrap a transport so every {!send} is delayed by [policy ~src ~dst
    ~send_time ~index] microseconds (negative ⇒ dropped).  [send_time] is
    µs since the wrapped transport's creation; [index] is the per-link
    message sequence number, as in the simulator.  Policy state (its RNG,
    the index counters) is guarded by one lock, so concurrent senders see a
    consistent stream. *)

val n : 'msg t -> int

val send : ?trace:int -> 'msg t -> src:int -> dst:int -> 'msg -> unit
(** [trace] (default none) tags the [Obs] send event this emits when a
    recorder is installed; routing is unaffected. *)

val broadcast : 'msg t -> src:int -> 'msg -> unit
(** {!send} to every endpoint except [src] — the system model's broadcast. *)

val post : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Immediate local delivery, never delayed or dropped (client port). *)

val recv : 'msg t -> me:int -> deadline:int option -> (int * 'msg) option
(** Blocking receive on endpoint [me]'s mailbox: [Some (src, msg)], or
    [None] once [deadline] (µs, {!Prelude.Mclock} timeline) passes —
    deadline semantics as in {!Mailbox.take}. *)

val stats : 'msg t -> stats

val intf : 'msg t -> 'msg Transport_intf.t
(** Pack the bus as a first-class {!Transport_intf.t}, the representation
    {!Replica} consumes — so in-process and TCP clusters share one replica
    event loop.  Its [close] releases the mailboxes' wake-up pipes: call
    it once every endpoint's taker is gone. *)
