(** Linearizability checking (the correctness condition of Chapter III.B.4).

    Given a complete history of operations — invocation and response real
    times plus results — decide whether there is a permutation π of the
    operations such that (a) π is legal for the sequential specification and
    (b) π respects the real-time precedence order: if op1 responds before
    op2 is invoked, op1 appears first.  This is the classic Wing–Gong
    search, memoized on (set of linearized operations, object state).

    Precedence is strict ([response < invoke]); additionally operations of
    the same process are always ordered by program order (they never
    overlap, but may touch when an invocation follows a response within the
    same tick). *)

open Spec

module Make (D : Data_type.S) = struct
  type entry = {
    pid : int;
    op : D.op;
    result : D.result;
    invoke : Prelude.Ticks.t;
    response : Prelude.Ticks.t;
  }

  let pp_entry fmt e =
    Format.fprintf fmt "p%d:%a→%a[%a,%a]" e.pid D.pp_op e.op D.pp_result
      e.result Prelude.Ticks.pp e.invoke Prelude.Ticks.pp e.response

  type verdict =
    | Linearizable of entry list  (** a witness permutation *)
    | Not_linearizable of string

  let is_linearizable = function Linearizable _ -> true | Not_linearizable _ -> false

  (* Does [a] precede [b] in the partial order the permutation must respect?
     For operations of the same process, program order (position in the
     history, which lists operations in invocation order) decides — one
     process's operations never overlap but an invocation may share a tick
     with the previous response.  Across processes, strict real-time
     precedence applies — unless we are checking the weaker *sequential
     consistency* (the condition of Lipton–Sandberg [5] and Attiya–Welch
     [1] that the thesis' Chapter I contrasts with linearizability), which
     keeps only program order. *)
  let precedes ~sequential_only (a, ia) (b, ib) =
    if a.pid = b.pid then ia < ib
    else (not sequential_only) && Prelude.Ticks.( < ) a.response b.invoke

  module Memo_key = struct
    type t = int * D.state

    let compare (m1, s1) (m2, s2) =
      match Int.compare m1 m2 with 0 -> D.compare_state s1 s2 | c -> c
  end

  module Memo = Set.Make (Memo_key)

  let check_gen ~sequential_only ?(initial = D.initial) (entries : entry list)
      : verdict =
    let arr = Array.of_list entries in
    let n = Array.length arr in
    if n > 62 then
      invalid_arg "Linearize.check: histories are limited to 62 operations";
    (* pred_mask.(i) = bitmask of entries that must precede entry i *)
    let pred_mask = Array.make n 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && precedes ~sequential_only (arr.(j), j) (arr.(i), i) then
          pred_mask.(i) <- pred_mask.(i) lor (1 lsl j)
      done
    done;
    let full = (1 lsl n) - 1 in
    let failed = ref Memo.empty in
    (* DFS over (set of already linearized ops, object state). *)
    let rec go done_mask state acc =
      if done_mask = full then Some (List.rev acc)
      else if Memo.mem (done_mask, state) !failed then None
      else
        let result = ref None in
        let i = ref 0 in
        while !result = None && !i < n do
          let idx = !i in
          incr i;
          let bit = 1 lsl idx in
          if done_mask land bit = 0 && pred_mask.(idx) land lnot done_mask = 0
          then begin
            let e = arr.(idx) in
            let state', r = D.apply state e.op in
            if D.equal_result r e.result then
              result := go (done_mask lor bit) state' (e :: acc)
          end
        done;
        if !result = None then failed := Memo.add (done_mask, state) !failed;
        !result
    in
    match go 0 initial [] with
    | Some witness -> Linearizable witness
    | None ->
        Not_linearizable
          (Format.asprintf "no legal %s permutation of {%a}"
             (if sequential_only then "program-order-respecting"
              else "real-time-respecting")
             (Format.pp_print_list
                ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
                pp_entry)
             entries)

  let check ?initial entries = check_gen ~sequential_only:false ?initial entries

  (* Like [check], but exhaustive: visit the whole (linearized set, state)
     graph and collect every state reached with all operations linearized.
     The memo set makes each (mask, state) pair expand at most once, so
     the traversal stays polynomial in the number of reachable pairs. *)
  let final_states ?(initial = D.initial) (entries : entry list) =
    let arr = Array.of_list entries in
    let n = Array.length arr in
    if n > 62 then
      invalid_arg "Linearize.final_states: histories are limited to 62 operations";
    let pred_mask = Array.make n 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && precedes ~sequential_only:false (arr.(j), j) (arr.(i), i)
        then pred_mask.(i) <- pred_mask.(i) lor (1 lsl j)
      done
    done;
    let full = (1 lsl n) - 1 in
    let visited = ref Memo.empty in
    let finals = ref [] in
    let rec go done_mask state =
      if Memo.mem (done_mask, state) !visited then ()
      else begin
        visited := Memo.add (done_mask, state) !visited;
        if done_mask = full then begin
          if
            not (List.exists (fun s -> D.compare_state s state = 0) !finals)
          then finals := state :: !finals
        end
        else
          for idx = 0 to n - 1 do
            let bit = 1 lsl idx in
            if done_mask land bit = 0 && pred_mask.(idx) land lnot done_mask = 0
            then begin
              let e = arr.(idx) in
              let state', r = D.apply state e.op in
              if D.equal_result r e.result then go (done_mask lor bit) state'
            end
          done
      end
    in
    go 0 initial;
    !finals

  module State_set = Set.Make (struct
    type t = D.state

    let compare = D.compare_state
  end)

  (* One segment's precomputed search space plus its failure memo.  The
     memo records (mask, state) pairs from which no completion of the
     segment leads to a successful continuation into the later segments —
     sound because continuations are deterministic in the final state and
     their own failure memos only grow. *)
  type prepared = {
    seg_arr : entry array;
    seg_pred : int array;
    seg_order : int array;
        (** candidate iteration order: earliest response first.  In a
            correct history operations linearize roughly in response
            order, so the first DFS path is usually a witness and
            backtracking stays rare. *)
    seg_full : int;
    mutable seg_failed : Memo.t;
  }

  let prepare entries =
    let arr = Array.of_list entries in
    let n = Array.length arr in
    if n > 62 then
      invalid_arg "Linearize.check_segmented: segments are limited to 62 operations";
    let pred = Array.make n 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && precedes ~sequential_only:false (arr.(j), j) (arr.(i), i)
        then pred.(i) <- pred.(i) lor (1 lsl j)
      done
    done;
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b -> Prelude.Ticks.compare arr.(a).response arr.(b).response)
      order;
    { seg_arr = arr; seg_pred = pred; seg_order = order;
      seg_full = (1 lsl n) - 1; seg_failed = Memo.empty }

  exception Budget_exhausted

  let check_segmented ?(initial = D.initial) ?budget
      (segments : entry list array) =
    let pre = Array.map prepare segments in
    let nsegs = Array.length pre in
    let credit = ref (match budget with Some b -> b | None -> max_int) in
    (* States from which segments i.. cannot linearize, per i. *)
    let failed_from = Array.make nsegs State_set.empty in
    let rec seg i state =
      if i >= nsegs then true
      else if State_set.mem state failed_from.(i) then false
      else begin
        let p = pre.(i) in
        let n = Array.length p.seg_arr in
        let rec go mask st =
          if mask = p.seg_full then seg (i + 1) st
          else if Memo.mem (mask, st) p.seg_failed then false
          else begin
            decr credit;
            if !credit < 0 then raise Budget_exhausted;
            let ok = ref false in
            let pos = ref 0 in
            while (not !ok) && !pos < n do
              let k = p.seg_order.(!pos) in
              incr pos;
              let bit = 1 lsl k in
              if mask land bit = 0 && p.seg_pred.(k) land lnot mask = 0
              then begin
                let e = p.seg_arr.(k) in
                let st', r = D.apply st e.op in
                if D.equal_result r e.result && go (mask lor bit) st' then
                  ok := true
              end
            done;
            if not !ok then p.seg_failed <- Memo.add (mask, st) p.seg_failed;
            !ok
          end
        in
        let ok = go 0 state in
        if not ok then failed_from.(i) <- State_set.add state failed_from.(i);
        ok
      end
    in
    match seg 0 initial with
    | true -> `Linearizable
    | false -> `Not_linearizable
    | exception Budget_exhausted -> `Budget_exhausted

  (** Sequential consistency: a legal permutation need only respect each
      process's program order, not real time.  Strictly weaker than
      linearizability; the thesis' opening example (our Fig. 1(a)
      experiment) violates linearizability while satisfying this. *)
  let check_sequentially_consistent entries =
    check_gen ~sequential_only:true entries

  (** Build a history from a simulation trace whose operations/results are
      already of this data type.  Operations that never responded are
      skipped — use only on traces where every scripted operation
      completed (the engine's normal mode) or on deliberately chopped runs
      where pending operations took no effect visible to others within the
      kept prefix. *)
  let of_trace (trace : (D.op, D.result, 'msg) Sim.Trace.t) : entry list =
    List.filter_map
      (fun (r : (D.op, D.result) Sim.Trace.op_record) ->
        match (r.result, r.response_real) with
        | Some result, Some response ->
            Some { pid = r.pid; op = r.op; result; invoke = r.invoke_real; response }
        | _ -> None)
      trace.ops

  let check_trace trace = check (of_trace trace)
end
