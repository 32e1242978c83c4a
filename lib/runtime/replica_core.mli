(** The sans-I/O replica core: everything a live replica decides, as one
    {!Sim.Protocol.S} state machine composing {!Core.Algorithm1}.  Each
    step ({!on_invoke}, {!on_message}, {!on_timer}, {!on_control}) takes
    the raw local clock as [~clock] and returns its {!Sim.Action.t}
    outputs in order; the core reads no clock, calls no transport and owns
    no timer wheel.  Its only effects are the configuration hooks and
    {!Obs.Recorder.emit}; [on_apply] runs inside the step, before the
    completions that step emits.  [Runtime.Replica] documents the model
    mapping and is the live driver; {!Sim.Engine} runs the same core under
    virtual time. *)

module Make (D : Spec.Data_type.S) : sig
  module Alg : module type of Core.Algorithm1.Make (D)

  type outcome =
    | Done of D.result
    | Cancelled  (** the replica stopped before responding *)
    | Rejected of string
        (** back off and retry with the same op id: a replay still in
            flight, a shed (["shed: ..."]), or a replica that is down,
            stalled in a minority or rerouting a quorum op *)
  (** How an invocation ends. *)

  type durable = {
    obj : D.state;
    hwm_time : int;  (** high-water mark stamp of [obj] (−1 = nothing applied) *)
    hwm_pid : int;
    window : (Alg.entry * D.result * int) list;
        (** the dedup window: applied entries with an op id, each with
            its result, oldest first *)
  }
  (** A replica's durable state: the object, not its history, so its size
      does not grow with the operations served.  {!snapshot} cuts it for
      a checkpoint or a state transfer; a restarted replica seeds itself
      from it (decoded snapshot fast-forwarded by the WAL tail, whose
      entries extend the window). *)

  type recovery = {
    catchup_wait_us : int;
        (** freeze at most this long waiting for peer catch-up replies;
            thaws early once every peer answered *)
    on_apply : Alg.entry -> D.result -> int -> unit;
        (** called for every mutation, in applied (timestamp) order, with
            its op id (0 = none), {e before} the same step's completion is
            output — the WAL-append hook *)
    on_transfer : src:int -> durable -> unit;
        (** a state transfer from peer [src] replaced the object; the
            view is the new state.  The WAL no longer covers it, so a
            durable host checkpoints it before the next [on_apply]. *)
    recovered : durable option;  (** [None] = fresh boot *)
  }

  (** {2 Wire messages} *)

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
        (** the catch-up reply to an asker at or above the replier's
            high-water mark: the entries still queued above the asker's *)
    | Wire_catchup_state of {
        obj : D.state;  (** the replier's object at its high-water mark *)
        time : int;
        cpid : int;  (** replier's high-water mark *)
        window : (Alg.entry * D.result * int) list;
            (** its dedup window: (entry, result, op id), stamp order *)
        entries : (Alg.entry * int) list;  (** its queued entries *)
      }
        (** the catch-up reply to an asker whose high-water mark is below
            the replier's: a state transfer *)
    | Wire_quorum of qwire
    | Wire_sync of swire
  (** Everything replicas say to each other — what the codec carries. *)

  (** {2 The state machine} *)

  type call = {
    op : D.op;
    trace : int;  (** tags every [Obs] event and message of the op *)
    op_id : int;  (** idempotence key (0 = none) *)
    deadline : int;  (** local clock; [max_int] = none *)
    ticket : int;  (** echoed in the completion; opaque to the core *)
  }
  (** One client invocation. *)

  val call :
    ?trace:int -> ?op_id:int -> ?deadline:int -> ?ticket:int -> D.op -> call
  (** Defaults: untraced, no op id, no deadline, ticket 0. *)

  type reply = { ticket : int; outcome : outcome }
  (** A completion: the invocation with this ticket ended so. *)

  type control =
    | Start  (** boot now (the first step of any kind also boots) *)
    | Crash
        (** freeze as if crashed: drop network traffic, defer
            [Execute]/[Respond_*] timers, backlog invokes *)
    | Recover  (** thaw through the catch-up protocol *)
    | Stop  (** cancel every waiting client *)

  type config = {
    params : Core.Params.t;
    recovery : recovery option;  (** arms crash recovery and dedup *)
    fallback : Quorum.Config.t option;  (** arms the quorum fallback *)
    sync : Sync.Config.t option;  (** arms live clock synchronization *)
    dedup_window_us : int;
        (** with dedup (recovery or fallback armed): how long, by stamp
            distance below the high-water mark, an applied op id stays
            answerable from its recorded result; [max_int] = forever.  A
            window shorter than {!min_window_us} counts as that. *)
  }

  val min_window_us : config -> int
  (** The shortest dedup window: twice the longest an entry takes from
      its stamp to its last apply at a replica that is up (within the
      timing assumptions, fault-free) — max(d, d − u) + (u + ε) + ε from
      [params.timing], plus two round trips (2d) for quorum commits with
      the fallback armed.  Every stamp at or below the window's floor
      counts as seen, so this keeps the floor below every entry still to
      be applied. *)

  type timer =
    | A of Alg.timer * int  (** an Algorithm 1 timer and its op's trace *)
    | Unfreeze_t  (** catch-up: stop waiting for replies *)
    | Catchup_retry_t  (** catch-up: re-ask peers that owe a reply *)
    | Heartbeat_t  (** fallback: send a heartbeat, tick the detector *)
    | Qdrain_t  (** fallback: the sequencer's switch barrier elapsed *)
    | Qtick_t  (** fallback: re-send forwards, request Qfills *)
    | Prompt_t of int  (** fallback: a heartbeat this peer asked for is due *)
    | Sync_t  (** sync: apply the round's correction, broadcast pings *)
    | Fresh_t
        (** the backlog's head may start: its stamp now clears the
            replica's last own one *)
  (** [equal_timer] ignores an [A] timer's trace. *)

  include
    Sim.Protocol.S
      with type config := config
       and type op = call
       and type result = reply
       and type msg = wire
       and type timer := timer

  val on_control :
    config ->
    state ->
    clock:Prelude.Ticks.t ->
    control ->
    state * (reply, wire, timer) Sim.Action.t list

  val snapshot : state -> durable
  (** The durable state right now; pure. *)
end
