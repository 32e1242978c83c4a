(** Algorithm 1 of Chapter V: a linearizable implementation of an arbitrary
    deterministic data type with sub-2d operation latencies.

    Every process keeps a full copy of the object.  Operations are grouped
    by {!Spec.Data_type.kind}:

    - **OOP** (neither pure accessor nor pure mutator — e.g.
      read-modify-write, dequeue, pop): timestamped ⟨local clock, pid⟩,
      broadcast, buffered in the [To_Execute] priority queue on every
      process, and executed in global timestamp order once it is certain no
      smaller-timestamped operation can still arrive.  The invoker responds
      when its own copy executes the operation — within d + ε.

    - **MOP** (pure mutators — write, push, enqueue, insert): disseminated
      exactly like OOPs, but the response is issued by a timer ε + X after
      invocation, long before the local execution: a pure mutator's return
      value carries no information about the object, so only the *ordering*
      of its effect must be right, not its execution time.

    - **AOP** (pure accessors — read, peek, search, depth): never broadcast.
      The invoker timestamps them X *earlier* than the invocation clock
      time, waits d + ε − X, executes every buffered operation with a
      smaller timestamp on the local copy, applies the accessor and responds.

    The waiting periods live in {!Params.timing} so that the lower-bound
    experiments can build deliberately too-fast variants; with the standard
    timing this is a faithful transcription of the paper's pseudocode. *)

open Spec

module Make (D : Data_type.S) = struct
  type config = Params.t

  type entry = { op : D.op; ts : Prelude.Stamp.t }

  module Queue = Prelude.Heap.Make (struct
    type t = entry

    let compare a b = Prelude.Stamp.compare a.ts b.ts
  end)

  (* The invoker-side record of its single pending operation. *)
  type pending =
    | Idle
    | Waiting_oop of entry  (** respond when the local copy executes it *)
    | Waiting_mop of entry  (** respond on the ε + X timer *)
    | Waiting_aop of entry  (** respond on the d + ε − X timer *)

  type state = {
    pid : int;
    local_obj : D.state;  (** this process's copy of the object *)
    to_execute : Queue.t;  (** received but not yet executed, keyed by ts *)
    pending : pending;
  }

  type op = D.op
  type result = D.result
  type msg = entry

  type timer =
    | Add of entry  (** d − u after broadcasting one's own op: self-delivery *)
    | Execute of entry  (** u + ε after an entry joined [to_execute] *)
    | Respond_mutator of entry
    | Respond_accessor of entry

  let name = "algorithm1"

  let init (_ : config) ~n:_ ~pid =
    {
      pid;
      local_obj = D.initial;
      to_execute = Queue.empty;
      pending = Idle;
    }

  let equal_timer (a : timer) (b : timer) =
    match (a, b) with
    | Add x, Add y
    | Execute x, Execute y
    | Respond_mutator x, Respond_mutator y
    | Respond_accessor x, Respond_accessor y ->
        D.equal_op x.op y.op && Prelude.Stamp.equal x.ts y.ts
    | _ -> false

  (* Pop every queued entry with timestamp ≤ [upto] ([< upto] when
     [inclusive] is false) and execute it on the local copy, in timestamp
     order.  If one of them is this process's own pending OOP, the response
     becomes due.  The batch executed goes back to the caller, oldest
     first; the state keeps none of it. *)
  let execute_through st ~upto ~inclusive =
    let keep (e : entry) =
      if inclusive then Prelude.Stamp.( <= ) e.ts upto
      else Prelude.Stamp.( < ) e.ts upto
    in
    let batch, rest = Queue.pop_while keep st.to_execute in
    match batch with
    | [] -> (st, [], [])
    | _ ->
        let obj, rev_done, response =
          List.fold_left
            (fun (obj, rev_done, response) (e : entry) ->
              let obj', r = D.apply obj e.op in
              let response =
                match st.pending with
                | Waiting_oop own when Prelude.Stamp.equal own.ts e.ts -> Some r
                | _ -> response
              in
              (obj', (e, r) :: rev_done, response))
            (st.local_obj, [], None)
            batch
        in
        let st = { st with local_obj = obj; to_execute = rest } in
        let batch = List.rev rev_done in
        (match response with
        | Some r -> ({ st with pending = Idle }, [ Sim.Action.Respond r ], batch)
        | None -> (st, [], batch))

  let on_invoke (cfg : config) st ~clock op =
    let t = cfg.timing in
    match D.classify op with
    | Data_type.Pure_accessor ->
        let ts = Prelude.Stamp.make ~time:(clock - t.accessor_ts_back) ~pid:st.pid in
        let e = { op; ts } in
        ( { st with pending = Waiting_aop e },
          [ Sim.Action.Set_timer (t.accessor_wait, Respond_accessor e) ] )
    | Data_type.Pure_mutator ->
        let ts = Prelude.Stamp.make ~time:clock ~pid:st.pid in
        let e = { op; ts } in
        ( { st with pending = Waiting_mop e },
          [
            Sim.Action.Broadcast e;
            Sim.Action.Set_timer (t.add_wait, Add e);
            Sim.Action.Set_timer (t.mutator_wait, Respond_mutator e);
          ] )
    | Data_type.Other ->
        let ts = Prelude.Stamp.make ~time:clock ~pid:st.pid in
        let e = { op; ts } in
        ( { st with pending = Waiting_oop e },
          [ Sim.Action.Broadcast e; Sim.Action.Set_timer (t.add_wait, Add e) ] )

  let enqueue (cfg : config) st (e : entry) =
    ( { st with to_execute = Queue.insert e st.to_execute },
      [ Sim.Action.Set_timer (cfg.timing.execute_wait, Execute e) ] )

  let on_message cfg st ~clock:_ ~src:_ (e : msg) = enqueue cfg st e

  let timer_step cfg st = function
    | Add e ->
        let st, actions = enqueue cfg st e in
        (st, actions, [])
    | Execute e -> execute_through st ~upto:e.ts ~inclusive:true
    | Respond_mutator e -> (
        match st.pending with
        | Waiting_mop own when Prelude.Stamp.equal own.ts e.ts ->
            (* A pure mutator's return value is state-independent, so the
               current copy gives the right answer even though the
               operation's effect is applied later in timestamp order. *)
            let _, r = D.apply st.local_obj e.op in
            ({ st with pending = Idle }, [ Sim.Action.Respond r ], [])
        | _ -> (st, [], []))
    | Respond_accessor e -> (
        match st.pending with
        | Waiting_aop own when Prelude.Stamp.equal own.ts e.ts ->
            let st, due, batch = execute_through st ~upto:e.ts ~inclusive:false in
            assert (due = []);
            let _, r = D.apply st.local_obj e.op in
            ({ st with pending = Idle }, [ Sim.Action.Respond r ], batch)
        | _ -> (st, [], []))

  let on_timer cfg st ~clock:_ tm =
    let st, actions, _ = timer_step cfg st tm in
    (st, actions)
end
