(** Monotonic wall-clock shim for the live runtime.

    The simulator measures time in abstract integer ticks; the live runtime
    ({!Runtime}) needs a real clock with the same integer arithmetic.  We
    standardise on **microseconds**, matching the "think microseconds"
    convention of {!Ticks}, so the [d]/[u]/[ε]/[X] parameters of
    {!Core.Params} carry over unchanged between simulated and live runs.

    A true monotonic clock is at hand — {!Os.monotonic_ns} reads
    [CLOCK_MONOTONIC] — but this clock stays a shim over
    [Unix.gettimeofday] on purpose: its readings must mean the same
    instant in every process of a cluster.  The shared origin a cluster's
    replicas start from ([serve --epoch], µs on the wall clock) and the
    absolute deadlines clients mint on it are wall times that one process
    hands to another, possibly on another host.  The shim is
    *monotonized*: concurrent readers in any domain observe non-decreasing
    values even if the wall clock steps backwards (NTP adjustment); after a
    backward step the clock holds still until real time catches up, which
    is why timed waits measure their sleep on {!Os.monotonic_ns}. *)

val now_us : unit -> int
(** Current time in microseconds since the Unix epoch, monotonized across
    all domains. *)

val sleep_us : int -> unit
(** Block the calling domain for (at least) the given number of
    microseconds; no-op when non-positive.  Actual resolution is the OS
    scheduler's (tens of microseconds on Linux). *)
