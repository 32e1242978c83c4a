(** The closed-loop client, and the in-process load generator it drives.

    {!Make.drive} is the one closed-loop client: [workers] clients, each
    drawing an operation from an op {!source}, invoking it through a
    {!port} and waiting for its outcome before drawing the next.  It owns
    the op draw, op and trace ids, the deadline, the retry (capped
    exponential backoff, seeded jitter), the failover rotation, the
    per-shard latency histograms and the rounds: at most [round]
    operations each, and once every client of a round is done the next
    µs is a {e quiescent cut}.  The cuts let the ≤ 62-operation Wing–Gong
    checker ({!Linearize.Make}) verify the whole history exactly, segment
    by segment, carrying the witness state across cuts.

    A port is a clock, a timer and an [invoke] that answers through a
    continuation, so the client runs on any single-threaded loop:
    {!Make.run} puts it on {!Vloop} (in-process, virtual time: a run is a
    pure function of its arguments), [Shard.Cluster] on a poll loop over
    TCP sockets to [serve] processes.

    In-process timing: the network delays are drawn in [[d − u, d]] µs,
    but the replicas run Algorithm 1 with [d + slack] and [u + slack].  A
    virtual clock has no scheduling jitter, so [slack] only stretches the
    holds; it is kept so that an in-process run times exactly like a TCP
    cluster with the same flags, where it is the jitter headroom. *)

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

val pp_classes : Format.formatter -> class_report list -> unit
(** One line per class (latency histogram against its target), and one
    for its fault-window half when there is one. *)

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
  wall_us : int;  (** µs of run time until the last operation completed *)
  throughput : float;  (** completed operations per second *)
  classes : class_report list;
  net : Transport_intf.stats;
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

type 'op source = {
  shards : int;  (** shard instances per replica *)
  mix : int * int * int;  (** mutator:accessor:other weights *)
  describe : string;  (** report line naming the source's shape *)
  draw : Prelude.Rng.t -> int * 'op;  (** the next [(shard, op)] *)
  home : wid:int -> shard:int -> int;
      (** the replica client [wid] sends a [shard] op to first *)
}
(** Where a run's operations come from. *)

type 'r outcome =
  | Done of 'r
  | Retry of string
      (** refused or lost: an op with an id is replayed under it — a
          refusal starting ["shed"] only until the op's deadline *)
  | Failed of string  (** final *)

val shed : string -> bool
(** An overload refusal: from admission control or a replica's deadline
    check, its reason starts with ["shed"]. *)

type ('op, 'r) port = {
  replicas : int;  (** replicas [0 .. replicas − 1] *)
  now : unit -> int;  (** µs on the run timeline *)
  at : int -> (unit -> unit) -> unit;
      (** [at time f] runs [f] from the loop at [time] (at once, in order,
          when it has passed) *)
  invoke :
    wid:int ->
    replica:int ->
    shard:int ->
    trace:int ->
    op_id:int ->
    deadline:int ->
    taken:(unit -> unit) ->
    'op ->
    ('r outcome -> unit) ->
    unit;
      (** hand client [wid]'s op to [replica] ([deadline] on the run
          timeline, [0] = none); the loop calls [taken] when the op is
          handed on — as late as the port can tell: in process, when the
          replica takes it — then the continuation at most once, with its
          outcome *)
  backoff_us : int;  (** first pause before a replay *)
  backoff_cap_us : int;  (** the pause doubles up to this *)
  max_retries : int;  (** replays of one op before it fails *)
}
(** A loop the client runs on. *)

module Make (L : Workloads.LIVE) : sig
  module Lin : module type of Linearize.Make (L.D)

  val object_source : n:int -> mix:int * int * int -> L.D.op source
  (** The object's own samplers, on shard 0, drawn per the [mix] weights;
      client [wid] is homed on replica [wid mod n]. *)

  type tally = {
    hists : (int, Histogram.t array) Hashtbl.t;
        (** shard → 6 latency histograms (see {!classes_of}) *)
    mutable entries : (int * Lin.entry) list;
        (** [(shard, client-observed entry)], newest first; [pid] = client.
            Invocation and response times are the port's µs times 1000
            plus the order of the reading inside that µs (up to 999), so
            a response and an invocation the loop saw in the same µs still
            order as it saw them. *)
    mutable cuts : int list;  (** quiescent cuts (port µs), newest first *)
    mutable failed : int;  (** ops given up on *)
    mutable sheds : int;  (** overload refusals seen *)
    mutable first_error : string option;
    mutable progress : int;  (** when the last op completed *)
    mutable finished : bool;  (** every round done *)
    mutable gave_up : bool;  (** a non-[resilient] client failed an op *)
  }

  val drive :
    (L.D.op, L.D.result) port ->
    L.D.op source ->
    workers:int ->
    round:int ->
    ops:int ->
    windows:(int * int) list ->
    first_op_id:int ->
    deadline_us:int ->
    traced:bool ->
    resilient:bool ->
    rotate:bool ->
    rng:Prelude.Rng.t ->
    seed:int ->
    tally
  (** Hand the first round's invocations to [port] and return the tally
      the loop fills in; the caller runs its loop until [finished] or
      [gave_up].  [windows]: an op invoked in one is recorded in its
      class's fault-window histogram.  [first_op_id]: ids are minted from
      it ([0]: no ids, and no replays).  [deadline_us]: each op's
      deadline after its first invocation ([0]: none).  [traced]: mint
      trace ids, their origin the op's shard.  [resilient]: a failed op
      costs only itself, else the client gives up.  [rotate]: each replay of an
      op goes to the next replica.  [rng] splits
      into the clients' op draws; [seed] hashes the replay jitter. *)

  val judge :
    ?initials:L.D.state option array ->
    ?aborted:string ->
    params:Core.Params.t ->
    windowed:bool ->
    shards:int ->
    expected:int ->
    tally ->
    verdict * shard_report list
  (** The one place a client-observed history becomes a verdict, for
      {!run} as for [Shard.Cluster]: the tally's entries are split by
      shard, put in invocation order (ties by client) and checked per
      shard with {!check_history} from [initials.(k)] (default: fresh),
      sharing the tally's cuts.  The verdict is [Unchecked] when an op
      failed, when the run was [aborted] (the reason), or when the tally
      holds other than [expected] completions; else the conjunction of the
      shards' checks (linearizability composes).  Also returns a
      {!shard_report} per shard that completed an op, hottest first, its
      classes named under [params] ({!classes_of} with [windowed]). *)

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
    ?fault:Transport_intf.fault ->
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
      - [workers] (default [n]): closed-loop clients;
      - [round] (default 48, max 62): operations per quiescent round;
      - [mix] (default [(50, 40, 10)]): percentage weights for
        mutators/accessors/others, normalised over their sum;
      - [loss]: percentage of messages dropped — Algorithm 1 has no
        retransmission layer, so expect a [Violation] verdict;
      - [skews]: per-replica extra clock offsets added to the seeded draw
        (the chaos layer's skew injection); length must be [n];
      - [fault]: consulted on every send (see {!Vloop.Make.create}) —
        the chaos layer's fault-injection hook;
      - [fault_windows]: [(from, until)] µs intervals on the run timeline;
        ops invoked inside any of them are recorded into the [faulty]
        histograms so degraded latency is reported separately;
      - [recovery]: arm the replicas' crash/recover/catch-up machinery
        (see {!Replica.Make}); workers then mint per-operation ids and
        retry idempotently (capped exponential backoff, 1 ms doubling to
        200 ms) when a replica asks them to back off;
      - [crashes]: [(pid, crash_at, restart_at)] µs instants on the run
        timeline (the plan's {!Fault.Fault_plan.crash_schedule}): freeze
        the replica at the crash, thaw it through peer catch-up at the
        restart — also when the restart falls after the last operation.  Entries with [restart_at = max_int] (permanent kills) are
        skipped unless [fallback] is armed — without a degraded mode a
        replica that never thaws would wedge its workers.  Only effective
        together with [recovery] or [fallback];
      - [fallback]: arm the adaptive quorum fallback ({!Replica.Make.driver})
        on every replica.  Workers then mint op ids, retry idempotently and
        rotate to the next replica when one asks them to back off (it may
        be permanently dead), and the report's [mode_switches] log records
        every fast↔quorum transition;
      - [sync]: arm live clock synchronization ({!Replica.Make.driver}) on
        every replica — each reads a slew-corrected clock and publishes
        its achieved ε per round;
      - [seed]: all randomness (delays, offsets, op draws, replay
        jitter).

      A run that completes nothing for 60 virtual seconds (a stalled
      minority, a replica frozen for good) ends there with an
      [Unchecked] verdict. *)
end
