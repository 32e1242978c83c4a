(** Server-side admission control: an inflight budget plus an EWMA
    service-time estimate.

    Deadlines make dead work visible {e before} it is done: an op that
    cannot complete before its client-minted deadline should be refused at
    the door (cheap, and the client's capped-backoff retry may land on a
    less loaded replica) rather than executed late (wasted service time
    that also delays every queued op behind it).  [try_admit] refuses when
    the inflight budget is full, or when the expected completion time —
    now + EWMA service time × (queue ahead + 1) — exceeds the op's
    deadline.

    Not thread-safe: each controller is owned by one host loop, the only
    caller. *)

type t

val create : ?budget:int -> unit -> t
(** [budget] is the max concurrently admitted ops (default 64).  The EWMA
    weighs the newest completion 0.2.
    @raise Invalid_argument on a non-positive budget. *)

type verdict =
  | Admitted  (** proceed; pair with exactly one {!finish} *)
  | Shed of string  (** refusal reason, ready for a [Codec] Shed reply *)

val try_admit : t -> now_us:int -> deadline_us:int -> verdict
(** [deadline_us] is the op's absolute deadline on the
    {!Prelude.Mclock} timeline; 0 = none (only the budget applies).
    A fresh estimator (no completions yet) admits everything and learns
    from the first completions. *)

val finish : t -> elapsed_us:int -> unit
(** Completion (success or failure) of an admitted op: releases its
    budget slot and folds its service time into the EWMA. *)

val inflight : t -> int
val ewma_us : t -> int

type totals = { admitted : int; shed_budget : int; shed_deadline : int }

val totals : t -> totals
