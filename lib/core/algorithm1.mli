(** Algorithm 1 of Chapter V: a linearizable implementation of an arbitrary
    deterministic data type with sub-2d operation latencies.

    Every process keeps a full copy of the object; operations are handled
    by {!Spec.Data_type.kind}:

    - **OOP** (read-modify-write, dequeue, pop, …): timestamped
      ⟨clock, pid⟩, broadcast, buffered in the [To_Execute] priority queue
      everywhere and executed in global timestamp order; the invoker
      responds when its own copy executes the operation — within d + ε.
    - **MOP** (write, push, enqueue, insert, …): disseminated the same way
      but acknowledged by a timer ε + X after invocation — a pure mutator's
      return value carries no information, only its ordering matters.
    - **AOP** (read, peek, search, …): never broadcast; timestamped X
      *earlier* than the invocation, the invoker waits d + ε − X, applies
      every buffered smaller-timestamped operation and answers locally.

    With {!Params.standard_timing} this is a faithful transcription of the
    paper's pseudocode; the experiments also run it with weakened timing to
    exhibit the lower bounds. *)

open Spec

module Make (D : Data_type.S) : sig
  type entry = { op : D.op; ts : Prelude.Stamp.t }

  module Queue : module type of Prelude.Heap.Make (struct
    type t = entry

    let compare a b = Prelude.Stamp.compare a.ts b.ts
  end)

  type pending =
    | Idle
    | Waiting_oop of entry
    | Waiting_mop of entry
    | Waiting_aop of entry

  type state = {
    pid : int;
    local_obj : D.state;  (** this process's replica of the object *)
    to_execute : Queue.t;  (** received but not yet executed, keyed by ts *)
    pending : pending;
  }
  (** A process keeps the object, not its history: what it executed goes
      back to the caller of {!execute_through} / {!timer_step}, oldest
      first.  Algorithm 1's (timestamp, origin) total order makes those
      batches a replayable history — what the durability layer's WAL
      records and what peer catch-up serves — but keeping it is the
      host's choice. *)

  type timer =
    | Add of entry  (** d − u after broadcasting one's own op: self-delivery *)
    | Execute of entry  (** u + ε after an entry joined [to_execute] *)
    | Respond_mutator of entry
    | Respond_accessor of entry
  (** Concrete so hosts can treat timer classes differently: the runtime's
      crash freeze defers [Execute]/[Respond_*] (nothing may apply or
      answer while "down") but still fires [Add], which only mirrors an
      already-broadcast entry into the local queue. *)

  include
    Sim.Protocol.S
      with type config = Params.t
       and type state := state
       and type op = D.op
       and type result = D.result
       and type msg = entry
       and type timer := timer

  val execute_through :
    state ->
    upto:Prelude.Stamp.t ->
    inclusive:bool ->
    state * (D.result, entry, timer) Sim.Action.t list * (entry * D.result) list
  (** Pop every queued entry with timestamp ≤ [upto] ([<] when [inclusive]
      is false) and execute it on the local copy in timestamp order; a
      [Respond] action is returned if one of them was the pending OOP, and
      the executed batch, with each entry's result, oldest first.
      Exposed for hosts that impose their own execution barriers — the
      quorum fallback applies committed entries through this so every
      straggler below them executes first, in order. *)

  val timer_step :
    config ->
    state ->
    timer ->
    state * (D.result, entry, timer) Sim.Action.t list * (entry * D.result) list
  (** {!on_timer} plus the batch the timer executed (see
      {!execute_through}); [on_timer] drops it. *)
end
