(** Linearizability checking (the correctness condition of Chapter
    III.B.4): is there a permutation of a completed history that is legal
    for the sequential specification and respects real-time precedence?
    Wing–Gong search, memoized on (linearized set, object state). *)

module Make (D : Spec.Data_type.S) : sig
  type entry = {
    pid : int;
    op : D.op;
    result : D.result;
    invoke : Prelude.Ticks.t;
    response : Prelude.Ticks.t;
  }

  val pp_entry : Format.formatter -> entry -> unit

  type verdict =
    | Linearizable of entry list  (** a witness permutation *)
    | Not_linearizable of string

  val is_linearizable : verdict -> bool

  val check : ?initial:D.state -> entry list -> verdict
  (** Histories must list each process's operations in invocation order
      (program order breaks same-process time ties) and are limited to 62
      operations.  [initial] (default [D.initial]) is the object state the
      history starts from — used by the live runtime to check long
      histories segment by segment across quiescent cuts. *)

  val final_states : ?initial:D.state -> entry list -> D.state list
  (** Every object state reachable as the final state of {e some} valid
      linearization of the history (empty iff not linearizable from
      [initial]).  Segmented checking needs the full set, not one
      witness: concurrent mutators whose results don't reveal their
      relative order (two [enqueue→ack]s, say) leave the end-of-segment
      state ambiguous, and committing to a single witness's state can
      make a later — perfectly linearizable — segment unsatisfiable.
      Same 62-operation limit and memoization as {!check}. *)

  val check_segmented :
    ?initial:D.state ->
    ?budget:int ->
    entry list array ->
    [ `Linearizable | `Not_linearizable | `Budget_exhausted ]
  (** Is the concatenation of the segments linearizable from [initial]?
      The segments must be separated in real time (every operation of
      segment i responds before any operation of segment i+1 is invoked —
      quiescent cuts guarantee this), so a linearization of the whole is
      exactly a chain of per-segment linearizations whose states connect.
      Unlike threading one witness's state, this backtracks across
      segments, so it is complete; failure memoization per segment keeps
      re-exploration polynomial in reachable (set, state) pairs.  Each
      segment is limited to 62 operations.

      Ambiguity can still be exponential in principle (concurrent
      mutators whose results hide their order, as in a FIFO queue's
      enqueue→acks): [budget] caps the number of search-node expansions,
      returning [`Budget_exhausted] instead of running away — report such
      histories as unchecked, not as violations. *)

  val check_sequentially_consistent : entry list -> verdict
  (** The weaker condition of Lipton–Sandberg/Attiya–Welch that the thesis'
      Chapter I contrasts with linearizability: the permutation need only
      respect per-process program order, not real time. *)

  val of_trace : (D.op, D.result, 'msg) Sim.Trace.t -> entry list
  (** Entries of a simulation trace; operations that never responded are
      skipped — pending operations are not supported. *)

  val check_trace : (D.op, D.result, 'msg) Sim.Trace.t -> verdict
end
