(** Closed-loop load generator with post-hoc linearizability verification.

    Worker domains drive a live {!Replica} cluster: each worker repeatedly
    draws an operation (mutator/accessor/other, per the configured mix),
    invokes it synchronously and records the client-observed wall-clock
    latency into a per-class {!Histogram}.

    The run proceeds in {e rounds} of at most [round] operations: after
    each round every worker quiesces (domain join) before the next starts.
    The quiescent cuts let the ≤ 62-operation Wing–Gong checker
    ({!Linearize.Make}) verify the full history exactly, segment by
    segment, carrying the witness state across cuts — so live executions
    are linearizability-verified post hoc exactly like simulated ones.

    Timing: the network-facing delays are drawn in [[d − u, d]] µs, but the
    replicas run Algorithm 1 with [d + slack] and [u + slack]: [slack] is
    scheduling-jitter headroom (mailbox poll quantum, OS preemption) that
    the discrete-event simulator does not need but a real executor does.
    The simulator's tick bounds thus become latency {e targets}; whether a
    run met the model's guarantees is decided by the post-hoc check. *)

type verdict =
  | Linearizable of int  (** number of verified history segments *)
  | Violation of { segment : int; reason : string }
  | Unchecked of string

type class_report = {
  class_name : string;  (** ["MOP"], ["AOP"] or ["OOP"] *)
  target_us : int;  (** the paper's bound for this class under the run's params *)
  hist : Histogram.t;  (** fault-free latencies (all of them when no windows) *)
  faulty : Histogram.t option;
      (** latencies of ops {e invoked} inside a declared fault window;
          [None] when the run declared no windows *)
}

val classes_of :
  params:Core.Params.t -> windowed:bool -> Histogram.t array -> class_report list
(** Name the 6-histogram worker layout (slots 0–2 = clean MOP/AOP/OOP,
    3–5 = their fault-window halves) and attach each class's paper target
    under [params].  [windowed = false] drops the faulty halves.  Shared
    by this module and [Shard.Cluster] — which calls it
    once per shard, so hot-shard latency is keyed by shard rather than
    averaged away. *)

type shard_report = {
  shard : int;
  shard_ops : int;  (** completed operations routed to this shard *)
  shard_classes : class_report list;
  shard_verdict : verdict;
      (** this shard's own segmented Wing–Gong check — linearizability is
          compositional, so the namespace verdict is the conjunction of
          these *)
}
(** Per-shard slice of a sharded run's report ([Shard.Cluster]). *)

val pp_shard_report : Format.formatter -> shard_report -> unit
(** One line: ops routed there, per-class p99 against target, verdict —
    compact enough to print all 64 shards. *)

type report = {
  label : string;
  params : Core.Params.t;  (** effective (slack included in [d], [u]) *)
  net_d : int;
  net_u : int;
  slack : int;
  mix : int * int * int;
  workers : int;
  seed : int;
  loss : int;
  ops : int;
  wall_us : int;
  throughput : float;  (** completed operations per second *)
  classes : class_report list;
  net : Transport.stats;
  offsets : int array;
      (** effective per-replica clock offsets (seeded draw + any injected
          skew) — spread > ε means the skew assumption was violated *)
  cuts : int list;  (** quiescent cut times, µs since cluster start *)
  mode_switches : (int * bool * int) list;
      (** fallback availability log: [(µs since start, entered quorum?,
          epoch)] per replica-local mode transition, in time order; empty
          when no fallback was armed (or no replica switched) *)
  verdict : verdict;
}

val is_linearizable : report -> bool

val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit

module Make (L : Workloads.LIVE) : sig
  module Lin : module type of Linearize.Make (L.D)

  val check_history : ?initial:L.D.state -> Lin.entry list -> int list -> verdict
  (** [check_history entries cuts] splits the history (in invocation
      order, times on one µs timeline) at the quiescent [cuts] and runs
      Wing–Gong segment by segment, threading the witness state across
      cuts — shared by the in-process load generator and the TCP cluster
      orchestrator ([Shard.Cluster]).  [initial] is the object state the
      history starts from (default: fresh) — a durable cluster restarted
      over existing directories serves the persisted history, so its
      checker must start from the recovered state. *)

  val run :
    n:int ->
    d:int ->
    u:int ->
    ?eps:int ->
    ?x:int ->
    ?slack:int ->
    ?workers:int ->
    ?round:int ->
    ?mix:int * int * int ->
    ?loss:int ->
    ?skews:int array ->
    ?wrap:Transport_intf.wrapper ->
    ?fault_windows:(int * int) list ->
    ?recovery:bool ->
    ?crashes:(int * int * int) list ->
    ?fallback:Quorum.Config.t ->
    ?sync:Sync.Config.t ->
    ops:int ->
    seed:int ->
    unit ->
    report
  (** Run [ops] operations against a fresh [n]-replica cluster.

      - [d], [u] (µs): injected network delays lie in [[d − u, d]];
      - [eps] (default [(1 − 1/n)·u]): clock-offset spread, drawn seeded;
      - [x]: Algorithm 1's trade-off knob, [0 ≤ X ≤ d + ε − u];
      - [slack] (µs, default 5000): jitter headroom added to the [d]/[u]
        the replicas assume (see module doc);
      - [workers] (default [n]): closed-loop client domains;
      - [round] (default 48, max 62): operations per quiescent round;
      - [mix] (default [(50, 40, 10)]): percentage weights for
        mutators/accessors/others, normalised over their sum;
      - [loss]: percentage of messages dropped — Algorithm 1 has no
        retransmission layer, so expect a [Violation] verdict;
      - [skews]: per-replica extra clock offsets added to the seeded draw
        (the chaos layer's skew injection); length must be [n];
      - [wrap]: transport decorator applied outermost (see
        {!Replica.Make.start}) — the chaos layer's fault-injection hook;
      - [fault_windows]: [(from, until)] µs intervals on the run timeline;
        ops invoked inside any of them are recorded into the [faulty]
        histograms so degraded latency is reported separately;
      - [recovery]: arm the replicas' crash/recover/catch-up machinery
        (see {!Replica.Make}); workers then mint per-operation ids and
        retry idempotently (capped exponential backoff) when a replica
        asks them to back off;
      - [crashes]: [(pid, crash_at, restart_at)] µs instants on the run
        timeline (the plan's {!Fault.Fault_plan.crash_schedule}): freeze
        the replica at the crash, thaw it through peer catch-up at the
        restart.  Entries with [restart_at = max_int] (permanent kills) are
        skipped unless [fallback] is armed — without a degraded mode a
        replica that never thaws would wedge its workers.  Only effective
        together with [recovery] or [fallback];
      - [fallback]: arm the adaptive quorum fallback ({!Replica.Make.node})
        on every replica.  Workers then mint op ids, retry idempotently and
        rotate to the next replica when one asks them to back off (it may
        be permanently dead), and the report's [mode_switches] log records
        every fast↔quorum transition;
      - [sync]: arm live clock synchronization ({!Replica.Make.node}) on
        every replica — each reads a slew-corrected clock and publishes
        its achieved ε per round;
      - [seed]: all randomness (delays, offsets, op draws, backoff). *)
end
