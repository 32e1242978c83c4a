(** OS calls the [Unix] library lacks, for the host's poll loop and its
    client replies (a small C stub; no extra dependency). *)

val set_timer_slack_ns : int -> unit
(** Set the {e calling thread's} timer slack: how late the kernel may
    fire its sleeps and poll timeouts to batch wake-ups (Linux defaults
    to 50 µs).  A no-op off Linux.  Slack 1 ns removes the batching, not
    the wake-up itself: on a VM an idle vCPU still returns from a
    [ppoll] tens of µs late (see EXPERIMENTS.md, "Timer precision on a
    VM"), which [Net.Tcp_transport.poll] absorbs by waking early. *)

val monotonic_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds: the clock [ppoll] measures its
    timeouts on, which never steps (unlike {!Mclock}, which holds still
    after the wall clock steps back).  Allocation-free. *)

val sched_yield : unit -> unit
(** Hand the CPU to any other runnable thread or process, or return at
    once when there is none ([sched_yield(2)]).  What a spin calls
    between polls, so that spinning costs a process it shares the CPU
    with no time slice.  Keeps the runtime lock: other threads of this
    domain do not run meanwhile.  Allocation-free. *)

val send_nowait : Unix.file_descr -> string -> int -> int -> int
(** [send_nowait fd s off len] sends what the socket buffer takes right
    now, without blocking and without raising SIGPIPE; returns the byte
    count (0 = buffer full).
    @raise Unix.Unix_error on a dead connection. *)

val stamp_arrivals : Unix.file_descr -> unit
(** Ask the kernel to stamp every packet arriving on this socket
    ([SO_TIMESTAMPNS]); a no-op where that does not exist. *)

val recv_aged : Unix.file_descr -> Bytes.t -> int -> int -> age:int array -> int
(** [recv_aged fd buf ofs len ~age] reads what is there, like
    [Unix.read] on a non-blocking socket (0 = end of stream), and sets
    [age.(0)] to how many ns ago the last packet it read arrived, or -1
    without an arrival stamp (see {!stamp_arrivals}).  Allocation-free.
    @raise Invalid_argument on a bad range or an empty [age].
    @raise Unix.Unix_error as [read] does ([EAGAIN] when nothing is
    there). *)

val pollin : int
(** Event bit: readable (also reported on hang-up or error, so a read
    sees the EOF or the error). *)

val pollout : int
(** Event bit: writable (also reported on hang-up or error). *)

val pollerr : int
(** Reported only: error, hang-up or an invalid descriptor. *)

val poll :
  Unix.file_descr array ->
  events:int array ->
  revents:int array ->
  count:int ->
  timeout_ns:int ->
  int
(** [poll fds ~events ~revents ~count ~timeout_ns] waits (releasing the
    runtime lock) until one of the first [count] descriptors is ready for
    what its [events] entry asks ({!pollin} / {!pollout} bits, [0] = just
    errors), or [timeout_ns] elapsed ([< 0] = no timeout).  It writes each
    descriptor's readiness into [revents] and returns how many are ready:
    [0] on timeout, never before it unless a descriptor is ready; [-1]
    when a signal interrupted the wait, after that signal's OCaml handler
    ran — so a loop can stop on SIGINT at once.  The arrays are the
    caller's and are reused across calls: the call allocates nothing on
    the OCaml heap.  No [FD_SETSIZE] limit.
    @raise Invalid_argument if [count] exceeds an array's length.
    @raise Unix.Unix_error on any other failure. *)
