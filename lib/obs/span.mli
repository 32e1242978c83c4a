(** Offline span assembly.

    A {e span} is everything one operation did, reconstructed from the
    merged event stream of every process: the invocation and response at the
    origin replica, the deliberate local hold, and one {e leg} per remote
    replica the entry fanned out to (link send, wire receive, mailbox
    delivery, state-machine apply).  Assembly is purely offline — group by
    trace id, sort by timestamp — so it costs the replicas nothing. *)

type leg = {
  dst : int;
  send_us : int option;  (** link-level send at the origin *)
  recv_us : int option;  (** wire decode at [dst] (absent in process) *)
  deliver_us : int option;  (** mailbox handed it to [dst]'s loop *)
  apply_us : int option;  (** applied to [dst]'s local copy *)
}

type t = {
  trace : int;
  origin : int;  (** replica pid that accepted the invocation *)
  cls : int;  (** class code, see {!Event.class_code} *)
  t_inv : int;
  t_resp : int option;  (** [None] = never responded (crash, cut short) *)
  latency_us : int option;
  hold_us : int;  (** sum of deliberate local holds (ε+X / d+ε−X timers) *)
  legs : leg list;  (** sorted by [dst] *)
  events : Event.t list;  (** this trace's events, time-sorted *)
}

val complete : t -> bool

val shard : t -> int
(** The shard label riding in the span's trace id: {!Trace_id.fresh}'s
    [origin] bits, which the sharded load generator mints as the target
    shard (unsharded tooling mints the worker id there instead — only
    interpret this as a shard when the run was sharded).  Per-shard bound
    attribution partitions a merged event stream on this label and runs
    {!Analyze.check} per group. *)

val wire_us : leg -> int option
(** Receive (or, in process, delivery) minus send. *)

val remote_queue_us : leg -> int option
(** Delivery minus wire receive: time spent in the remote mailbox. *)

val assemble : Event.t list -> t list
(** Group trace-tagged events into spans, sorted by invocation time.
    Untagged events (trace 0) and traces with no [Invoke] are ignored. *)
