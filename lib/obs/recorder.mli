(** Lock-free event recorder.

    A bounded multi-producer single-consumer ring (Vyukov-style: one atomic
    sequence word per slot) sits between the emitting threads (host loops,
    the virtual-time loop, clients) and one consumer.  Producers
    claim a slot with one CAS and two atomic stores —
    nanoseconds, no locks, no allocation beyond the event record — and when
    the ring is full the event is {e dropped and counted}, never blocking a
    replica.  The one consumer is whoever owns the recorder: a host loop
    calls {!drain} once per cycle, a virtual-time loop drains a full ring
    in place ({!with_clock}), and {!stop} drains the rest.  A
    drain empties the ring into a pluggable sink (an in-memory list for
    in-process runs, an append-mode binary file for cluster processes) and
    emits a [Drops] accounting event whenever the drop counter advanced,
    so lost events are visible in the trace itself.  The recorder starts
    no thread.

    One recorder is installed process-globally ({!install}); emission sites
    all over the runtime call {!emit}, which is a single atomic load when no
    recorder is installed. *)

type t

val start :
  ?capacity:int ->
  epoch_us:int ->
  sink:(Event.t -> unit) ->
  ?flush:(unit -> unit) ->
  unit ->
  t
(** A recorder with an empty ring; no thread is started.  [capacity]
    (default 65536) is rounded up to a power of two; the ring's slots are
    allocated 256 at a time as events first reach them, so starting costs
    no per-slot work.  Event timestamps are
    [Mclock.now_us () - epoch_us]; passing the same epoch to every process
    of a cluster makes their trace files merge onto one timeline.  [flush]
    ends every {!drain}. *)

val drain : t -> unit
(** Move every published event into the sink, emit a [Drops] record if
    the drop counter advanced since the last one, and call [flush].
    Single consumer: at most one caller at a time, by construction rather
    than by a lock — the loop that owns the recorder, or {!stop}. *)

val stop : t -> unit
(** The last {!drain}, once the producers are gone.  A second call drains
    nothing new. *)

val stats : t -> int * int
(** [(recorded, dropped)] so far. *)

(** {1 The process-global recorder} *)

val install : t -> unit
val uninstall : unit -> unit
val active : unit -> bool

val emit :
  pid:int -> kind:Event.kind -> ?trace:int -> ?a:int -> ?b:int -> unit -> unit
(** Record into the installed recorder; a no-op (one atomic load) when none
    is installed. *)

val with_clock : (unit -> int) -> (unit -> 'a) -> 'a
(** [with_clock now f] runs [f] with [now ()] as the timestamp source of
    every {!emit} in place of [Mclock.now_us () − epoch_us] — how
    [Runtime.Vloop] stamps its events with virtual µs since the run's
    start, [Drops] records included.  The loop is then the only producer
    and the one consumer: an {!emit} that finds the ring full drains it
    in place on the caller's thread instead of dropping, so an in-process
    run loses no event.  One virtual loop at a time. *)

(** {1 Sinks} *)

val memory_sink : unit -> (Event.t -> unit) * (unit -> Event.t list)
(** [(sink, contents)] — [contents ()] returns events drained so far in
    drain order.  Unsynchronised: call [contents] from the consumer's
    thread, or after {!stop}. *)

val file_magic : string

val file_sink : string -> (Event.t -> unit) * (unit -> unit) * (unit -> unit)
(** [file_sink path] is [(sink, flush, close)].  The file is opened in
    append mode and stamped with {!file_magic} when empty, so a restarted
    replica process appends to its predecessor's trace. *)

val read_file : string -> Event.t list
(** Decode a trace file.  Raises [Failure] on a bad magic; a truncated tail
    (a replica killed mid-write) silently ends the list. *)

(** {1 Direct ring access (tests)} *)

val push : t -> Event.t -> bool
(** Enqueue without going through {!emit} (so tests control timestamps).
    [false] = ring full, drop counted. *)
