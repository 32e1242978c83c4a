(** Fault injection as a per-send decision.

    A {!t} is the {e controller}: it owns the compiled {!Fault_plan.t}, the
    per-link send counters and the log of every fault actually injected.
    {!decide} is the one {!Runtime.Transport_intf.fault} hook both loops
    apply at send time — [Runtime.Vloop] for an in-process cluster,
    [Shard.Host] in a shard's send path — so one controller serves the
    virtual-time links and the TCP links alike.

    Per send, {!decide}:

    - numbers the message on its link [src → dst] and asks
      [Fault_plan.decide] with its run-relative send time and that index;
    - on a {e drop} returns [copies = 0];
    - on a {e duplicate} returns the extra copies;
    - on an injected {e delay} returns [extra_us]: the caller parks the
      message that long before it enters the link, so a spike reorders it
      against later undelayed traffic — exactly the misbehaviour the plan
      asked for;
    - records the injected fault in the log and emits an [Obs] [Fault]
      event against the message's trace.

    Only the network is faulted: client invocations and controls never go
    through it.

    Reproducibility: the {e decisions} are pure functions of the plan
    (see {!Fault_plan.decide}), so {!canonical_log} — the timestamp-free
    view of the injected-fault log — is identical across runs with the same
    seed, spec and per-link message sequence.  A controller belongs to one
    loop: it is not thread-safe. *)

type action =
  | Dropped of string  (** rule label that lost the message *)
  | Duplicated  (** one extra copy was sent *)
  | Delayed of int  (** extra µs before the message entered its link *)

type event = {
  at_us : int;  (** run-relative send time (µs) *)
  src : int;
  dst : int;
  index : int;  (** per-link sequence number of the message *)
  trace : int;  (** trace id of the faulted message (0 when untraced) *)
  action : action;
}

type t

val create : Fault_plan.t -> t
val plan : t -> Fault_plan.t

val decide : t -> Runtime.Transport_intf.fault
(** Decide and record one send's fate (see the module docs). *)

val events : t -> event list
(** Injected faults so far, in injection order. *)

val canonical_log : t -> string list
(** [(src, dst, index, action)] rendered and sorted, timestamps excluded —
    the bit-for-bit reproducibility key for seeded runs. *)

val injected : t -> int * int * int
(** [(drops, duplicates, delays)] injected so far. *)

val pp_event : Format.formatter -> event -> unit
