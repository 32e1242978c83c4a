(** The fast path's response release gate: per-peer receipt acks and the
    predicate that decides when a held response may go out.

    A response stamped [stamp] (the in-flight op's stamp time) with
    threshold [due = stamp + d + ε] passes once every peer [p ≠ me]
    satisfies {e heard p ≥ due} (the peer's clock has passed the
    threshold: it holds everything broadcast at or below [stamp]) or, for
    a pure mutator only, {e acked p = stamp} (the peer acknowledged
    receipt of that very entry). *)

type t

val make : n:int -> me:int -> t
(** No acks yet from any of the [n - 1] peers. *)

val ack : t -> peer:int -> stamp:int -> unit
(** [peer] acknowledged our fast-path entry stamped [stamp] (its time
    component; the pid is ours).  Acks from [me] or outside [0, n) are
    ignored; the per-peer record never moves backwards. *)

val acked : t -> int -> int
(** Largest stamp [peer] acknowledged ([min_int] before any). *)

val passes :
  n:int ->
  me:int ->
  mop:bool ->
  stamp:int ->
  due:int ->
  acked:(int -> int) ->
  heard:(int -> int) ->
  bool
(** The pure predicate: true iff every peer [p ≠ me] in [0, n) has
    [heard p >= due], or [mop] holds and [acked p = stamp].  Vacuous for
    [n = 1]. *)

val ready : t -> fd:Failure_detector.t -> mop:bool -> stamp:int -> due:int -> bool
(** {!passes} over this gate's acks and the detector's heard stamps. *)
