(** Live Algorithm 1 replicas: a sans-I/O core plus a thin live driver.

    {b The core} ({!Replica_core}, included below) is everything a replica
    decides — Algorithm 1's fast path ({!Core.Algorithm1}), the failure
    detector, mode controller and release gate of the quorum fallback,
    crash-recovery catch-up, clock sync, client deadlines and op-id dedup —
    as one {!Sim.Protocol.S} state machine.  Each step takes the raw local
    clock as [~clock] and returns {!Sim.Action.t} outputs: sends,
    broadcasts, timer sets/cancels and completions.  It never reads
    a clock, never touches a network and owns no timer wheel.  Its
    only effects are the configuration hooks ([on_apply] for the WAL,
    [on_mode], [on_suspect], [on_eps]) and {!Obs.Recorder.emit}.  Its
    sync-corrected clock, failure detector, drain barrier and forward
    timeouts all run on that local clock, so {!Sim.Engine} runs the same
    core under virtual time with exact µs.

    {b The driver} ({!driver}) holds one core, its timer list and the
    clock translation.  A loop feeds it inputs with the time it read
    ({!invoke_at}, {!deliver_at}, {!control_at}, {!fire_due}); the driver
    steps the core on the replica's raw local clock, files timer outputs
    into its list and hands sends and completions to the loop's [out]
    callback in emitted order.  It is the only place that translates
    absolute time: client deadlines arrive in loop µs and move onto the
    local clock.
    Two loops drive it: [Shard.Host]'s single poll loop, which steps every
    shard's driver straight from the sockets in each TCP host process on
    the {!Prelude.Mclock} timeline, and {!Vloop}, which steps [n] drivers
    of an in-process cluster on one virtual clock.

    Clocks: replica [i]'s raw clock reads [now + offset] — the loop's
    shared-clock reading plus a fixed per-replica offset, exactly the
    thesis' clock model with skew [ε = max offset spread].  There is no
    per-run origin: {!Prelude.Mclock} is wall-clock based, so a later run
    over the same durable directory stamps above every stamp an earlier
    one logged (unless the wall clock was set back in between), and its
    recovered high-water mark does not hide its new writes.  Timer
    delays are clock-time delays, and clocks run at the rate of loop
    time, as in the model.
    With a {!Sync.Config.t} (the [?sync] argument below) the
    core instead stamps with a {e corrected} clock: the raw clock plus a
    correction earned over the wire by the clock-synchronization subsystem
    (DESIGN.md §14).  Every [interval_us] the replica broadcasts
    timestamped pings, folds the pong echoes into a per-peer offset
    estimator ({!Sync.Estimator}), and slews the correction toward the
    Lundelius–Lynch midpoint average ({!Sync.Clock} — rate-limited and
    never stepped backward, so timer arithmetic stays monotone).  Each
    round it publishes the achieved skew bound ε as an
    {!Obs.Event.Sync_eps} event and through the config's [on_eps] hook.

    A replica keeps no log of its answers: the operation history the
    post-hoc linearizability check reads is the one its clients observe
    ({!Loadgen.Make.drive}'s tally), invocation and response stamped at
    the client, in process as over TCP.

    {2 Crash recovery (PR 5)}

    With a {!recovery} configuration a replica becomes restartable:

    - Algorithm 1's (timestamp, origin) total order makes the applied
      history replayable; the [on_apply] hook sees every mutation in
      exactly that order, which is what [Shard.Host] appends to the WAL.
    - A restarted replica seeds itself from its {!durable} state (decoded
      snapshot + WAL), then {e catches up from peers}: it freezes,
      broadcasts a catch-up request carrying its high-water mark (the
      largest applied stamp), absorbs replies, and thaws when every peer
      answered or [catchup_wait_us] expires.  At thaw it also pushes back
      anything it holds above each replier's own high-water mark, so
      anti-entropy converges both ways.
    - Operation ids ride on every broadcast entry.  A client replaying an
      operation id the replica already applied gets the recorded result; a
      replay of a still-queued pure mutator is answered immediately (its
      result is state-independent); a replay of a still-queued OOP is
      [Rejected "in flight; retry"].  Accessors have no effect and are
      never deduped.
    - While frozen, [Execute]/[Respond] timers are deferred (nothing
      applies, keeping the high-water mark contiguous) and invokes are
      backlogged; [Add] timers still fire, since they only mirror an
      already-broadcast entry into the local queue.

    {2 Adaptive quorum fallback (DESIGN.md §13)}

    With a {!Quorum.Config.t} a replica runs the adaptive degraded mode:
    it exchanges heartbeats (doubling as mode announcements), feeds a
    per-peer failure detector, and — while timing is intact — keeps
    running Algorithm 1's fast path with one addition, the {e release
    gate}: a response stamped [ts] is withheld until every peer's
    heartbeat clock passed [ts + d + ε], proving the peer received the
    entry's broadcast (or sits behind a partition that also ate its
    heartbeats, in which case the gate stalls until the detector excuses
    it); a pure mutator is also freed once every peer acked its entry.
    When a peer is suspected dead, the lowest live pid bumps the
    epoch and announces {e quorum mode}: operations are forwarded to that
    sequencer, ordered into a majority-replicated log (Propose / Qack /
    Qcommit — ABD-style two round trips, 4d + ε), and applied through an
    execution barrier that first drains every straggling fast-path entry
    below the committed stamp.  When the detector sees every peer again,
    the sequencer drains its log and announces fast mode with a stamp
    {e floor}; fast-path clocks clamp above the floor so the two eras
    never interleave.  A minority partition {e stalls}: clients are
    bounced with ["retry: …"] until quorum returns — safety over
    availability on the minority side, availability on the majority's.

    Known gap, documented in DESIGN.md §11: a MOP is acknowledged ε + X
    after invocation but applied (and therefore logged) only at d + ε, so
    a whole-cluster crash inside that window can lose an acked mutator —
    single-replica crashes cannot, because the broadcast survives on
    peers.  Likewise, an origin that dies {e mid}-broadcast can leave an
    entry at a strict subset of peers; catch-up re-spreads it unless every
    holder already applied past its stamp (a sub-µs window). *)

module Make (D : Spec.Data_type.S) : sig
  include module type of struct
    include Replica_core.Make (D)
  end

  val trace_of : wire -> int
  (** The operation a message belongs to ([0] = none), for the [Send]
      observability events and the fault hook. *)

  (** {2 The driver} *)

  type driver
  (** One core, its pending timers and its clock translation.  Not
      thread-safe: one loop owns it. *)

  type output = (reply, wire, timer) Sim.Action.t

  val driver :
    params:Core.Params.t ->
    ?recovery:recovery ->
    ?fallback:Quorum.Config.t ->
    ?sync:Sync.Config.t ->
    ?dedup_window_us:int ->
    offset:int ->
    int ->
    driver
  (** [driver ~params ~offset pid]: replica [pid]'s fresh core.  Its raw
      clock reads [now + offset] for a loop reading [now].
      [recovery] enables the durability machinery, [fallback] arms the
      adaptive quorum fallback (heartbeats, failure detection, the
      degraded ABD mode — DESIGN.md §13) and [sync] live clock
      synchronization (DESIGN.md §14); see the module docs.
      [dedup_window_us] (default [max_int]: forever) bounds how long an
      applied op id is remembered; see {!config}. *)

  val next_due : driver -> int
  (** Loop µs of the earliest pending timer; [max_int] if none. *)

  val fire_due : driver -> now:int -> out:(output -> unit) -> unit
  (** Fire every timer due at [now], in due order — including timers
      those steps set due by [now]. *)

  val fire_caught_up : driver -> now:int -> out:(output -> unit) -> bool
  (** {!fire_due}, and also, in due order, each zero-delay timer that a
      step already taken set past [now] — a replica takes one step per
      µs, so a cycle that stepped several inputs carries its steps, and
      the zero holds they set, past the cycle's clock reading.  A timer
      with a delay still waits for [now] to reach its due time, and a
      zero delay set by one of these steps waits for a later call.  True
      if any fired. *)

  val invoke_at :
    driver -> now:int -> out:(output -> unit) -> trace:int -> op_id:int ->
    deadline:int -> ticket:int -> D.op -> unit
  (** Step a client invocation.  [deadline] is absolute loop µs
      ([0] = none), read on the local clock as [deadline + offset]; the completion comes back through [out] as a
      [Respond] carrying [ticket]. *)

  val deliver_at :
    driver -> now:int -> out:(output -> unit) -> src:int -> depth:int ->
    wire -> unit
  (** Step a peer message; emits the [Deliver] observability event with
      [depth] (inputs still queued behind it). *)

  val control_at : driver -> now:int -> out:(output -> unit) -> control -> unit

  val driver_snapshot : driver -> durable
  (** A consistent cut of the durable state, for checkpoints. *)
end
