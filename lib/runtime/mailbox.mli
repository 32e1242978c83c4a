(** Blocking, delivery-time-ordered mailbox — the primitive under both the
    in-process transport and each in-process replica's event loop.

    Every item carries a [deliver_at] time (microseconds, {!Prelude.Mclock}
    timeline).  {!take} only surfaces items whose delivery time has passed,
    which is how the delay-injecting transport turns a sampled message delay
    into an actual one: the message sits *in the receiver's mailbox* until
    it is ripe.  Items ripen in ([deliver_at], insertion) order, so two
    messages on the same link never reorder.

    There is one wait: a parked taker sleeps on the mailbox's self-pipe
    with the exact time left until the head ripens or its deadline falls,
    and {!put} wakes it at once by writing a byte — only when a taker is
    parked, so a busy mailbox costs no syscall.  The pipe is created the
    first time a taker parks and released by {!close}.

    One taker at a time; any number of putters, from any domain or
    thread. *)

type 'a t

val create : unit -> 'a t

val put : 'a t -> deliver_at:int -> 'a -> unit
(** Insert an item that becomes visible to {!take} once
    [Prelude.Mclock.now_us () >= deliver_at], waking a parked taker.
    Safe after {!close} (the item is queued, nobody is woken). *)

val take : 'a t -> deadline:int option -> 'a option
(** Block until an item is ripe, then remove and return the earliest one —
    except that an item is only returned if its [deliver_at] is at or
    before [deadline], and [None] is returned once the deadline itself has
    passed.  A deadline is never cut short: [None] means
    [Prelude.Mclock.now_us () >= deadline] held when [take] returned, which
    is what keeps a hold timer from firing early.  Thus a caller
    multiplexing the mailbox with its own timer wheel processes mailbox
    items and timer firings in global chronological order even when it is
    running late.  [deadline:None] waits indefinitely.
    @raise Invalid_argument if the mailbox is closed and nothing is ripe. *)

val length : 'a t -> int

val close : 'a t -> unit
(** Release the wake-up pipe's two descriptors.  Call once the taker is
    gone; idempotent. *)
