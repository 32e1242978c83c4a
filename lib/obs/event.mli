(** Structured trace events.

    One event is one interesting instant in the life of an operation (or of
    the replica processing it): invocation, hold-deadline armed, broadcast
    fan-out, per-link send/recv, mailbox delivery, state-machine apply,
    response, plus ambient samples (mailbox depth) and chaos-layer fault
    injections.  Events are tiny fixed records — no strings on the hot path —
    and serialize to a compact varint binary form so a replica can log
    hundreds of thousands per second into {!Obs.Recorder} without feeling
    it.

    The two payload words [a] and [b] are kind-specific (documented on each
    constructor); unused words are 0. *)

type kind =
  | Invoke  (** operation accepted by a replica. [a] = class code. *)
  | Hold_set
      (** local hold/timer armed for the in-flight op. [a] = delay in µs. *)
  | Broadcast  (** entry fanned out to peers. [a] = number of destinations. *)
  | Send  (** one link-level send. [a] = destination pid. *)
  | Recv  (** link-level receive (wire decoded). [a] = source pid. *)
  | Deliver
      (** mailbox handed the message to the replica loop. [a] = source pid,
          [b] = mailbox depth after removal. *)
  | Apply  (** entry applied to the local copy. [a] = source pid. *)
  | Respond
      (** response released to the caller. [a] = class code, [b] = latency
          in µs as measured by the replica. *)
  | Mbox_depth  (** ambient mailbox-depth sample. [a] = depth. *)
  | Fault
      (** chaos-layer injection on a send. [a] = action code
          (0 drop, 1 duplicate, 2 delay), [b] = extra delay in µs. *)
  | Drops
      (** accounting record a drain emits: [a] events were lost to a full
          ring since the previous [Drops] (or start). *)
  | Recover
      (** replica recovered its durable prefix at boot. [a] = mutations
          replayed (snapshot + WAL tail), [b] = recovery wall time in µs. *)
  | Catchup
      (** one anti-entropy exchange leg: emitted when a catch-up reply is
          served or absorbed. [a] = entries transferred, [b] = peer pid. *)
  | Checkpoint
      (** durable snapshot written. [a] = WAL records folded into it,
          [b] = new generation number. *)
  | Mode_switch
      (** quorum fallback transition. [a] = 1 entering quorum mode,
          0 returning to the fast path, [b] = new epoch. *)
  | Suspect
      (** failure-detector suspicion transition. [a] = peer pid,
          [b] = 1 suspected, 0 cleared. *)
  | Sync_probe
      (** one two-way sync sample completed. [a] = peer pid, [b] = raw
          offset estimate in µs (peer clock − ours; may be negative). *)
  | Sync_eps
      (** per-round achieved-ε estimate published by the sync subsystem.
          [a] = achieved ε in µs (max over sampled peers of |offset| +
          age-widened uncertainty), [b] = peers contributing.  The
          analyzer interpolates these per pid to attribute bounds against
          the measured skew instead of the configured one. *)
  | Shed
      (** overload protection refused or abandoned work instead of doing
          it late. [a] = reason code ({!shed_deadline} the op's deadline
          had already passed, {!shed_admission} the admission controller
          predicted a deadline miss or the inflight budget was full,
          {!shed_queue} a full data-lane write queue dropped a frame),
          [b] = shard (deadline/admission) or destination pid (queue). *)
  | Queue_depth
      (** ambient write-queue depth sample from the two-lane transport.
          [a] = lane code ({!lane_ctrl} or {!lane_data}), [b] = depth in
          frames. *)

val kind_code : kind -> int
val kind_of_code : int -> kind option
val kind_name : kind -> string

(** Class codes used in [Invoke]/[Respond] payloads. *)

val class_mutator : int
val class_accessor : int
val class_other : int

val class_code : Spec.Data_type.kind -> int
val class_name : int -> string

(** Reason codes carried in [Shed.a] and lane codes in [Queue_depth.a]. *)

val shed_deadline : int
val shed_admission : int
val shed_queue : int
val shed_reason_name : int -> string
val lane_ctrl : int
val lane_data : int
val lane_name : int -> string

type t = {
  t_us : int;  (** microseconds since the recorder's epoch *)
  pid : int;  (** replica (or process) id that recorded the event *)
  kind : kind;
  trace : int;  (** operation trace id; 0 = not tied to an operation *)
  a : int;  (** kind-specific payload, see {!kind} *)
  b : int;  (** kind-specific payload, see {!kind} *)
}

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Binary codec}

    Events serialize as [kind byte] followed by five zigzag LEB128 varints
    ([t_us], [pid], [trace], [a], [b]).  The encoding is self-delimiting;
    [decode] returns the event and the position one past it. *)

val encode : Buffer.t -> t -> unit

val decode : string -> pos:int -> (t * int) option
(** [None] on truncation or an unknown kind byte. *)
