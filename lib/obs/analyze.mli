(** Latency decomposition and bound attribution.

    Every complete span is checked against its class's paper bound —
    pure mutators against ε + X, pure accessors against d + ε − X, other
    operations against d + ε — plus a [grace_us] allowance for scheduler
    jitter (the live runtime folds its [slack] into d and u for the same
    reason; the bounds themselves are model-time statements).  Under chaos,
    a violation whose span overlaps an assumption-violation window (as
    computed by [Fault.Assumption_monitor]) is {e excused} rather than
    counted: the model's premises did not hold while it ran.

    {2 Measured ε}

    When the trace carries [Sync_eps] events (live clock synchronization
    armed, DESIGN.md §14), the {e measured} skew takes precedence over
    the configured ε: each span's bound substitutes the origin replica's
    achieved-ε — interpolated between the sync rounds bracketing the
    invocation — into the same formulas (mutator ε+X, accessor d+ε−X,
    other d+ε, quorum 4d+ε).  Replicas that published no sync rounds
    keep the configured bound.  Precedence with [grace_us]: the grace is
    a scheduler-jitter allowance added {e on top of} whichever bound was
    selected — it neither affects which ε is used nor is it scaled by
    it.  When the measured ε exceeds the configured one the report
    prints a warning: the cluster ran outside its admissibility
    assumption, so the configured bounds were never targets. *)

type verdict =
  | Within
  | Violated of int  (** µs in excess of bound + grace *)
  | Excused of string  (** overlapping violation window's label *)
  | Incomplete  (** never responded — not checked *)

type checked = { span : Span.t; bound_us : int; verdict : verdict }

type class_stats = {
  cls : int;
  bound_us : int;
  count : int;
  complete : int;
  p50_us : int;
  p99_us : int;
  max_us : int;
  mean_us : float;
  mean_hold_us : float;  (** deliberate local wait *)
  mean_wire_us : float option;  (** send → remote receipt, across legs *)
  mean_rqueue_us : float option;  (** remote receipt → mailbox delivery *)
  max_overshoot_us : int;  (** max latency − hold: scheduling + processing *)
  violations : int;
  excused : int;
}

type report = {
  params : Core.Params.t;
  grace_us : int;
  spans : checked list;  (** by invocation time *)
  classes : class_stats list;  (** classes that appeared, by class code *)
  total : int;
  incomplete : int;
  violations : int;  (** unexcused *)
  excused : int;
  ring_drops : int;  (** events lost to recorder wrap-around *)
  faults : int;  (** chaos injections seen in the stream *)
  mode_switches : int;  (** [Mode_switch] events in the stream *)
  suspect_transitions : int;  (** [Suspect] events in the stream *)
  quorum_spans : int;  (** spans invoked while quorum mode was active *)
  sync_rounds : int;  (** [Sync_eps] events in the stream *)
  measured_eps_us : int option;
      (** max achieved ε over every replica's sync rounds; [None] when the
          stream carries no [Sync_eps] events (bounds then use the
          configured ε) *)
  sheds : (string * int) list;
      (** [Shed] events by reason ("deadline" / "admission" / "queue");
          only non-zero reasons appear.  Sheds are refusals, not losses:
          the op was never executed, and an idempotent client replays it *)
  shed_spans : int;
      (** completed spans excused from bound checks because their trace was
          shed at least once — the interval includes refusal round-trips
          and client backoff the model's bounds never priced in *)
  lane_hwm : (string * int) list;
      (** per-lane ("ctrl" / "data") peak transport queue depth, from
          [Queue_depth] events; empty when the transport emitted none *)
}

val bound_us : Core.Params.t -> int -> int
(** The paper bound for a class code: mutator ↦ ε+X, accessor ↦ d+ε−X,
    other ↦ d+ε. *)

val bound_with_eps : Core.Params.t -> int -> int -> int
(** [bound_with_eps p cls eps] — the same formulas with [eps] substituted
    for the configured skew: what a span is checked against when the sync
    subsystem measured the actual ε at its invocation. *)

val sync_eps_timelines : Event.t list -> (int * (int * int) array) list
(** Per-pid achieved-ε timelines from the [Sync_eps] stream: [(pid,
    samples)] with each sample [(t_us, eps_us)], time-sorted.  Empty when
    sync was off. *)

val measured_eps_at :
  (int * (int * int) array) list -> pid:int -> t_us:int -> int option
(** The replica's achieved ε at an instant, linearly interpolated between
    the bracketing sync rounds (clamped to the first/last sample outside
    them); [None] if the replica published no rounds. *)

val quorum_bound_us : Core.Params.t -> int
(** The round-trip expectation while in quorum mode: 4d + ε (forward to
    the sequencer plus propose/ack, two δ-bounded round trips). *)

val quorum_windows : Event.t list -> (int * int) list
(** Intervals during which any replica ran in quorum mode, reconstructed
    from [Mode_switch] events; an unmatched entry switch yields an
    interval closed at [max_int].  Spans invoked inside one are checked
    against {!quorum_bound_us}, at the measured ε when the origin
    published one; spans straddling a boundary are excused as
    ["mode switch"]. *)

val check :
  params:Core.Params.t ->
  ?grace_us:int ->
  ?windows:(string * int * int) list ->
  Event.t list ->
  report
(** [windows] are assumption-violation intervals [(label, from_us,
    until_us)] on the same timeline as the events. *)

val pp_checked : Format.formatter -> checked -> unit
val pp_report : Format.formatter -> report -> unit
