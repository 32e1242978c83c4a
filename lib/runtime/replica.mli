(** Live Algorithm 1 replicas: the paper's protocol state machine
    ({!Core.Algorithm1}) hosted on real OCaml 5 domains behind a real
    clock, exchanging messages over a {!Transport_intf.t}.

    Each replica is one domain running an event loop over a single
    {!Mailbox}: network messages (possibly delay-injected), client
    invocations and a shutdown signal all arrive there, and an internal
    timer wheel realises the algorithm's [Set_timer] actions.  Ripe
    messages and due timers are processed in global chronological order
    (see {!Mailbox.take}), so a replica that falls behind (scheduling) still
    handles events in the order the model prescribes.

    The building block is a {e node} — one replica on one domain over an
    arbitrary transport.  [Shard.Host] runs one node per shard in each OS
    process over TCP; {!start} below assembles the PR 1 in-process cluster by
    pointing [n] nodes at one shared bus transport.

    Clocks: replica [i] reads [Mclock.now_us () − start + offset] — real
    time plus a fixed per-replica offset, exactly the thesis' clock model
    with skew [ε = max offset spread].  Timer delays are clock-time
    delays, and clocks run at the rate of real time, as in the model.
    With a {!Sync.Config.t} (the [?sync] argument below) the replica
    instead reads a {e corrected} clock: the raw clock plus a correction
    earned over the wire by the clock-synchronization subsystem
    (DESIGN.md §14).  Every [interval_us] the replica broadcasts
    timestamped pings, folds the pong echoes into a per-peer offset
    estimator ({!Sync.Estimator}), and slews the correction toward the
    Lundelius–Lynch midpoint average ({!Sync.Clock} — rate-limited and
    never stepped backward, so timer arithmetic stays monotone).  Each
    round it publishes the achieved skew bound ε as an
    {!Obs.Event.Sync_eps} event and through the config's [on_eps] hook.

    The cluster records every completed operation with its replica-side
    invocation/response times (µs since cluster start); these feed the
    post-hoc linearizability check.  Replica-side intervals are contained
    in the client-observed ones, so a history that passes the check with
    them is also linearizable from the clients' point of view.

    {2 Crash recovery (PR 5)}

    With a {!recovery} configuration a replica becomes restartable:

    - Algorithm 1's (timestamp, origin) total order makes the applied
      history replayable; the [on_apply] hook sees every mutation in
      exactly that order, which is what [Shard.Host] appends to the WAL.
    - A restarted replica seeds itself from {!recovered_state} (decoded
      snapshot + WAL), then {e catches up from peers}: it freezes,
      broadcasts a catch-up request carrying its high-water mark (the
      largest applied stamp), absorbs replies, and thaws when every peer
      answered or [catchup_wait_us] expires.  At thaw it also pushes back
      anything it holds above each replier's own high-water mark, so
      anti-entropy converges both ways.
    - Operation ids ride on every broadcast entry.  A client replaying an
      operation id the replica already applied gets the recorded result; a
      replay of a still-queued pure mutator is answered immediately (its
      result is state-independent); a replay of a still-queued OOP raises
      {!Retry_later}.  Accessors have no effect and are never deduped.
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
    it).  When a peer is suspected dead, the lowest live pid bumps the
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
  module Alg : module type of Core.Algorithm1.Make (D)

  exception Stopped
  (** Raised by {!invoke}/{!node_invoke} when the replica shut down before
      responding (the operation is lost, not retried). *)

  exception Retry_later of string
  (** Raised by {!invoke_on} when a replayed operation id is still in
      flight and its result is state-dependent: the client must back off
      and retry — the first attempt will land, and the retry will then be
      answered from the recorded result. *)

  type record = {
    pid : int;
    seq : int;  (** per-replica invocation sequence number *)
    op : D.op;
    result : D.result;
    invoke_us : int;  (** µs since cluster start, replica-side *)
    response_us : int;
  }

  type event
  (** What flows through a replica's transport: network entries, catch-up
      requests/replies, local client invocations (which carry an
      unserialisable completion cell), crash/recover injections, snapshot
      requests and the stop signal.  Only events with a {!wire_view} ever
      cross a wire. *)

  type snapshot_view = {
    v_obj : D.state;  (** the object right now *)
    v_hwm_time : int;  (** high-water mark stamp (−1 = nothing applied) *)
    v_hwm_pid : int;
    v_applied : (Alg.entry * D.result * int) list;
        (** applied history with op ids, oldest first *)
  }
  (** A consistent cut of a replica's durable state, taken inside its own
      event loop (see {!request_snapshot}) — what a checkpoint encodes. *)

  type recovered_state = {
    r_obj : D.state;
    r_applied : (Alg.entry * D.result * int) list;  (** oldest first *)
  }
  (** The durable prefix a restarted replica seeds itself from: decoded
      snapshot fast-forwarded by the WAL tail. *)

  type recovery = {
    catchup_wait_us : int;
        (** freeze at most this long waiting for peer catch-up replies;
            thaws early once every peer answered *)
    on_apply : Alg.entry -> D.result -> int -> unit;
        (** called for every mutation, in applied (timestamp) order, with
            its op id (0 = none), {e before} the same protocol step's
            response is released — the WAL-append hook *)
    recovered : recovered_state option;  (** [None] = fresh boot *)
  }

  (** {2 Wire mapping}

      The codec sees events through {!wire}: protocol entries (now
      carrying the op id), the two catch-up frames and the quorum
      frames.  Local-only events have no wire view and must never reach
      an encoder. *)

  type qpayload = {
    q_time : int;  (** assigned stamp time (stamp pid is [q_origin]) *)
    q_op : D.op;
    q_origin : int;
    q_qid : int;  (** origin-local forward id, stable across retries *)
    q_op_id : int;
    q_trace : int;
  }
  (** One operation as the quorum era's replicated log carries it. *)

  (** Clock-synchronization probe frames (DESIGN.md §14): a ping carries
      the prober's corrected clock at send; the pong echoes it plus the
      responder's receive/reply clocks — the four NTP timestamps of one
      two-way offset sample. *)
  type swire =
    | Sping of { seq : int; t0 : int }
    | Spong of { seq : int; t0 : int; t_rx : int; t_tx : int }

  type qwire =
    | Hb of {
        stamp : int;
        epoch : int;
        qmode : bool;
        seq : int;
        floor : int;
        ack : int;
        want : int;
      }
        (** heartbeat doubling as the mode announcement: the sender's
            clock plus its (epoch, mode, sequencer pid, stamp floor).
            [ack] (0 = none) acknowledges receipt of the addressee's
            fast-path entry with that stamp time; [want] (0 = none) asks
            the addressee for a heartbeat once its clock reaches that
            value.  Both feed the release gate ({!Quorum.Gate}). *)
    | Forward of { qid : int; origin : int; op : D.op; op_id : int; trace : int }
        (** origin → sequencer: please order this op *)
    | Propose of { epoch : int; qseq : int; p : qpayload }
        (** sequencer → all: slot [qseq] of the era holds [p] *)
    | Qack of { epoch : int; qseq : int }  (** follower → sequencer *)
    | Qcommit of { epoch : int; qseq : int }
        (** sequencer → all: a majority stored [qseq]; apply in order *)
    | Fnack of { qid : int }
        (** addressee is not the sequencer (or left quorum mode): re-route *)
    | Qfill of { epoch : int; from_seq : int }
        (** follower → sequencer: re-send payloads from [from_seq] up *)

  type wire =
    | Wire_entry of Alg.entry * int * int  (** entry, trace, op id *)
    | Wire_catchup_req of { time : int; cpid : int }
        (** asker's high-water mark *)
    | Wire_catchup_rep of {
        entries : (Alg.entry * int) list;  (** (entry, op id), stamp order *)
        time : int;
        cpid : int;  (** replier's high-water mark *)
      }
    | Wire_quorum of qwire
    | Wire_sync of swire

  val wire_view : event -> wire option
  val of_wire : wire -> event

  val net : ?trace:int -> Alg.entry -> event
  (** Wrap a protocol message — what a TCP transport's decoder builds.
      [trace] (default none) is the originating operation's id, carried in
      the wire format since codec v2 so cross-process spans reassemble.
      Equivalent to [of_wire (Wire_entry (e, trace, 0))]. *)

  val net_entry : event -> (Alg.entry * int) option
  (** The protocol message and trace id of a {!net} event; [None]
      otherwise. *)

  (** {2 Single node (one replica, any transport)} *)

  type node

  val node :
    params:Core.Params.t ->
    transport:event Transport_intf.t ->
    pid:int ->
    ?offset:int ->
    ?start_us:int ->
    ?threaded:bool ->
    ?recovery:recovery ->
    ?fallback:Quorum.Config.t ->
    ?sync:Sync.Config.t ->
    unit ->
    node
  (** Spawn one replica domain with identity [pid] over [transport].
      [offset] (default 0) is its clock offset in µs; [start_us] (default
      now) is the origin of its record timeline — the in-process cluster
      passes one shared origin so all records are comparable.  [threaded]
      (default false) runs the event loop on a systhread instead of its
      own domain: the loop blocks in [Mailbox.take] (releasing the runtime
      lock) whenever idle, so a sharded host can run hundreds of replicas
      in one process — far past the OCaml domain ceiling — at the cost of
      serialising their CPU bursts.  [recovery] enables the durability
      machinery (see the module docs); pass {!post_recover} after the
      transport is connected to trigger peer catch-up.  [fallback] arms
      the adaptive quorum fallback (heartbeats, failure detection, the
      degraded ABD mode — see the module docs and DESIGN.md §13).
      [sync] arms live clock synchronization: the replica reads a
      slew-corrected clock and measures its achieved ε over the wire
      (see the module docs and DESIGN.md §14). *)

  val node_invoke :
    ?trace:int -> ?op_id:int -> ?deadline:int -> node -> D.op -> D.result
  (** Synchronous client call on this node; queued behind any pending
      operation (the model allows one per process).  [trace] tags every
      [Obs] event and outgoing message of this operation; [op_id] is the
      idempotence key (see {!invoke_on}); [deadline] the op's absolute
      deadline (see {!invoke_on}).  @raise Stopped if the node
      shuts down first.  @raise Retry_later if a replay must back off. *)

  val node_stop : node -> record list
  (** Post the stop signal, join the domain, and return the node's
      completed-operation records (invocation order).  Clients still
      waiting are woken with {!Stopped}.  Idempotent ([[]] thereafter). *)

  val node_elapsed_us : node -> int

  val invoke_on :
    ?trace:int -> ?op_id:int -> ?deadline:int -> event Transport_intf.t ->
    pid:int -> D.op -> D.result
  (** Synchronous client call posted straight to a transport — what
      [Shard.Host] uses.  [op_id] (default 0 = none) identifies the client
      operation for idempotent retries: invoking twice with the same id
      executes once.  [deadline] (default 0 = none) is the op's absolute
      deadline in µs on the {!Prelude.Mclock} timeline: a replica sheds
      an op whose deadline already passed — at arrival or when it surfaces
      from the backlog — with [Retry_later "shed: ..."] and a counted
      [Obs.Event.Shed] event, instead of doing dead work.
      @raise Retry_later if a replay must back off or the op was shed;
      @raise Stopped if the replica shuts down first. *)

  val post_crash : event Transport_intf.t -> pid:int -> unit
  (** Freeze replica [pid] as if it crashed: it drops network traffic,
      defers its response/execute timers and backlogs invokes until
      {!post_recover}.  The in-process realisation of a crash fault —
      pair it with the chaos layer's transport isolation. *)

  val post_recover : event Transport_intf.t -> pid:int -> unit
  (** Thaw replica [pid] through the catch-up protocol (no-op without a
      [recovery] config, or if already catching up). *)

  val request_snapshot :
    event Transport_intf.t -> pid:int -> (snapshot_view -> unit) -> unit
  (** Ask replica [pid] for a consistent cut; the callback runs inside the
      replica's own event loop, so it must be quick and may not invoke. *)

  (** {2 In-process cluster (n nodes on one bus)} *)

  type cluster

  val start :
    params:Core.Params.t ->
    ?policy:Sim.Delay.t ->
    ?offsets:int array ->
    ?wrap:Transport_intf.wrapper ->
    ?recovery:recovery ->
    ?fallback:Quorum.Config.t ->
    ?sync:Sync.Config.t ->
    unit ->
    cluster
  (** Spawn [params.n] replica domains connected by an in-process bus —
      wrapped in a delay-injecting transport when [policy] is given (delays
      in µs; negative = loss).  [offsets] (default all 0) are the
      per-replica clock offsets; their spread must be ≤ [params.eps] for
      the timing guarantees to be targets.  [wrap] decorates the assembled
      transport (applied outermost, after the delay policy) — the hook the
      chaos layer ([Fault.Chaos_transport]) uses to inject faults; the
      cluster's start time is passed as the wrapper's [start_us].
      [recovery] (shared by all nodes; [recovered] should be [None]) arms
      the crash/recover/catch-up machinery for {!crash}/{!recover};
      [fallback] (shared by all nodes) arms the quorum fallback; [sync]
      (shared by all nodes) arms live clock synchronization, letting the
      cluster measure and shrink the very skew [offsets] injects. *)

  val invoke : ?trace:int -> ?op_id:int -> cluster -> pid:int -> D.op -> D.result
  (** Synchronous client call: block until replica [pid] responds.
      Concurrent invocations on one replica are queued — the model allows
      one pending operation per process.  See {!invoke_on} for [op_id]. *)

  val crash : cluster -> pid:int -> unit
  (** {!post_crash} on replica [pid]. *)

  val recover : cluster -> pid:int -> unit
  (** {!post_recover} on replica [pid]. *)

  module Client : sig
    val invoke : ?trace:int -> cluster -> pid:int -> D.op -> D.result
  end

  val stop : cluster -> unit
  (** Shut every replica down and join its domain.  Idempotent. *)

  val history : cluster -> record list
  (** Completed operations of a {e stopped} cluster, sorted by invocation
      time (ties by [(pid, seq)], preserving per-replica program order). *)

  val elapsed_us : cluster -> int
  (** µs since cluster start — the timeline {!record} times live on. *)

  val transport_stats : cluster -> Transport_intf.stats
end
