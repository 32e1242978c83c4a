(** Three OS calls the [Unix] library lacks, for the replica event loop's
    wait and its client replies (a small C stub; no extra dependency). *)

val set_timer_slack_ns : int -> unit
(** Set the {e calling thread's} timer slack: how late the kernel may
    fire its sleeps and poll timeouts to batch wake-ups (Linux defaults
    to 50 µs).  A no-op off Linux. *)

val wait_readable : Unix.file_descr -> timeout_ns:int -> bool
(** Block (releasing the runtime lock) until [fd] is readable or
    [timeout_ns] has elapsed ([< 0] = no timeout); [true] iff readable.
    Never returns [false] before the timeout except on a signal.  No
    [FD_SETSIZE] limit, unlike [Unix.select]. *)

val send_nowait : Unix.file_descr -> string -> int -> int -> int
(** [send_nowait fd s off len] sends what the socket buffer takes right
    now, without blocking and without raising SIGPIPE; returns the byte
    count (0 = buffer full).
    @raise Unix.Unix_error on a dead connection. *)
