(** The in-process vehicle: [n] replica drivers ({!Replica.Make}'s
    [driver], the one a TCP host steps) on one single-threaded loop over
    one virtual clock.

    The loop keeps a heap of events — link deliveries, client invokes,
    controls and the caller's callbacks ({!at}) — and watches each
    driver's [next_due].  Each step takes the earliest of the two (an
    event before a timer due at the same µs), sets the virtual [now] and
    steps the driver, whose outputs it routes at once: a [Send] or
    [Broadcast] goes onto the links, a [Respond] to the callback that
    holds the invocation's ticket.  Nothing sleeps and nothing races, so
    a run is a pure function of its arguments: the same seed gives the
    same history, latencies and counters, to the µs.

    {b Links.}  A send first asks the [fault] hook for its
    {!Transport_intf.fate} (a drop, extra copies, or a park of
    [extra_us] before the message enters the link).  On entering link
    [src → dst] it draws its delay from [policy] with the link's message
    index, as the simulator does (negative = lost), and is delivered at
    [max (now + delay, previous delivery on the link)]: per-link FIFO, and
    still inside [[d − u, d]] when every draw is.  Each entry emits the
    [Send] observability event, each delivery the driver's [Deliver].

    While {!run} steps, {!Obs.Recorder} stamps events with the virtual
    [now] (µs since the run's start) — the timeline a caller's clients
    stamp their invocations and responses on too.  A driver takes at most one step per µs, so an input that lands
    on a replica in a µs it already stepped in is stepped a µs later;
    that is the only gap between an event's stamp and the replica's
    clock. *)

module Make (D : Spec.Data_type.S) : sig
  module R : module type of struct
    include Replica.Make (D)
  end

  type t

  val create :
    params:Core.Params.t ->
    policy:Sim.Delay.t ->
    ?offsets:int array ->
    ?fault:Transport_intf.fault ->
    ?recovery:R.recovery ->
    ?fallback:Quorum.Config.t ->
    ?sync:Sync.Config.t ->
    unit ->
    t
  (** [params.n] fresh replicas, booted at virtual time 0.  [offsets]
      (default all 0) are the per-replica clock offsets; their spread must
      be ≤ [params.eps] for the timing guarantees to hold.  [fault]
      (default: every send on time) is consulted on every send, with the
      send's virtual time.  [recovery], [fallback] and [sync] arm every
      replica as in {!Replica.Make.driver}; its dedup window is the
      default, forever (in-process clients give their operations no
      deadline, so a replay may come at any time). *)

  val now : t -> int
  (** Virtual µs since the run's start. *)

  val at : t -> int -> (unit -> unit) -> unit
  (** [at t time f] runs [f] from the loop at virtual [time] (at once, in
      order, when [time ≤ now]). *)

  val invoke :
    t -> pid:int -> ?trace:int -> ?op_id:int -> ?taken:(unit -> unit) ->
    D.op -> (R.outcome -> unit) -> unit
  (** Hand replica [pid] a client invocation now; the loop calls the
      continuation with its outcome when the replica completes it.  A
      replica may hold several at once; the closed-loop callers keep one
      per client.  The replica takes the invocation after every other
      input and timer of this µs, calling [taken] first: whatever the
      loop answers in a µs is answered before an invocation issued in
      that µs starts. *)

  val control : t -> pid:int -> R.control -> unit
  (** Step a crash, recover or stop on replica [pid] now. *)

  val run : t -> until:(unit -> bool) -> unit
  (** Step until [until ()] holds (checked after every step) or nothing
      is left to do: no event pending and no timer armed. *)

  val stop : t -> unit
  (** Stop every replica: waiting clients get [Cancelled]. *)

  val stats : t -> Transport_intf.stats
  (** Messages offered to the links ([sent]) and lost to a fault or the
      policy ([dropped]); duplicates count once per copy. *)

  val sync_rounds : t -> (int * int) list array
  (** Per replica, every achieved-ε round so far as [(eps_us, peers)],
      oldest first; empty without [sync]. *)
end
