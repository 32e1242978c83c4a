(** Fault-injecting transport decorator.

    A {!t} is the {e controller}: it owns the compiled {!Fault_plan.t} and
    the log of every fault actually injected.  {!wrapper} turns it into a
    {!Runtime.Transport_intf.wrapper}, the polymorphic hook accepted by
    [Runtime.Replica.start] and [Shard.Host] — one controller can therefore
    sit under the in-process bus and the TCP transport alike.

    What the wrapped transport does per {!Runtime.Transport_intf.send}:

    - asks [Fault_plan.decide] with the message's run-relative send time and
      its per-link sequence index;
    - a {e drop} never reaches the inner transport (counted in the wrapped
      [stats] as both sent and dropped, so loss remains visible);
    - a {e duplicate} is forwarded twice;
    - injected {e delay} parks the message in a {!Runtime.Mailbox} until its
      stretched delivery time; a single drainer thread then forwards it, so
      per-link FIFO order is preserved among equally-delayed messages but a
      spike does reorder against later undelayed traffic — exactly the
      misbehaviour the plan asked for.

    [post] (the local client port) and [recv] pass through untouched:
    faults model the {e network}, not the co-located application layer.

    Reproducibility: the {e decisions} are pure functions of the plan
    (see {!Fault_plan.decide}), so {!canonical_log} — the timestamp-free
    view of the injected-fault log — is identical across runs with the same
    seed, spec and per-link message sequence. *)

type action =
  | Dropped of string  (** rule label that lost the message *)
  | Duplicated  (** one extra copy was forwarded *)
  | Delayed of int  (** extra µs added to the delivery time *)

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

val wrapper : t -> Runtime.Transport_intf.wrapper
(** The decorator.  May be applied to several transports (e.g. one per
    replica process); all of them feed the same controller log. *)

val events : t -> event list
(** Injected faults so far, in injection order. *)

val canonical_log : t -> string list
(** [(src, dst, index, action)] rendered and sorted, timestamps excluded —
    the bit-for-bit reproducibility key for seeded runs. *)

val injected : t -> int * int * int
(** [(drops, duplicates, delays)] injected so far. *)

val pp_event : Format.formatter -> event -> unit
