(** Executable checkers for the operation-type properties of Chapter II.

    Each *existential* property (immediately non-commuting, eventually
    non-self-commuting, mutator, accessor, non-overwriter, …) is decided by
    searching the data type's sample universe ([sample_prefixes] ×
    [sample_ops]) for a concrete witness, which is returned so tests and the
    CLI can display it.  Each *universal* property (immediately
    self-commuting, eventually self-commuting, overwriter) is the bounded
    negation: no witness exists in the universe.  The universes are chosen
    per data type to contain the paper's own witnesses (e.g. the
    [UpdateNext] case analysis of Chapter II.B), so on the paper's examples
    the bounded checks agree with the true properties; property tests
    corroborate them with randomized probing. *)

open Spec

module Make (D : Data_type.SAMPLED) = struct
  module R = Data_type.Run (D)

  type instance = (D.op, D.result) Data_type.Instance.t

  type witness = {
    prefix : D.op list;  (** the sequence ρ *)
    instances : instance list;  (** the operation instances involved *)
    note : string;
  }

  (* All instances of operation type [ty], committed (given their unique
     legal return value) at [state]. *)
  let instances_of_type ty state : instance list =
    D.sample_ops
    |> List.filter (fun op -> String.equal (D.op_type op) ty)
    |> List.map (fun op -> Data_type.Instance.make op (R.result_after state op))

  let legal_after state instances = R.sequence_legal state instances

  (* Search every (ρ, op1 ∈ ty1, op2 ∈ ty2) triple, instances committed
     after ρ, and return the first for which [decide] accepts the pair of
     per-order legality/state outcomes. *)
  let search_pairs ty1 ty2 decide =
    List.find_map
      (fun prefix ->
        let s = R.replay prefix in
        let i1s = instances_of_type ty1 s and i2s = instances_of_type ty2 s in
        (* Note: op1 and op2 may be the same operation value — two dequeues
           are distinct *instances* of one operation (Definition B.1 does
           not require distinct arguments). *)
        List.find_map
          (fun (i1, i2) ->
            let fwd = R.run_instances s [ i1; i2 ]
            and bwd = R.run_instances s [ i2; i1 ] in
            decide ~prefix ~i1 ~i2 ~fwd ~bwd)
          (Prelude.Combinatorics.ordered_pairs i1s i2s))
      D.sample_prefixes

  (** Definition B.1: ρ∘op1 and ρ∘op2 each legal, but at least one order of
      the two is illegal. *)
  let immediately_non_commuting ty1 ty2 =
    search_pairs ty1 ty2 (fun ~prefix ~i1 ~i2 ~fwd ~bwd ->
        if fwd = None || bwd = None then
          Some
            {
              prefix;
              instances = [ i1; i2 ];
              note =
                Printf.sprintf "order %s is illegal"
                  (if fwd = None then "op1∘op2" else "op2∘op1");
            }
        else None)

  (** Definition B.2. *)
  let immediately_non_self_commuting ty = immediately_non_commuting ty ty

  (** Definition B.3: both orders illegal. *)
  let strongly_immediately_non_self_commuting ty =
    search_pairs ty ty (fun ~prefix ~i1 ~i2 ~fwd ~bwd ->
        if fwd = None && bwd = None then
          Some { prefix; instances = [ i1; i2 ]; note = "both orders illegal" }
        else None)

  (** "Immediately (self-)commuting" in the paper's terminology = not
      immediately non-(self-)commuting; bounded universal check. *)
  let immediately_self_commuting ty = immediately_non_self_commuting ty = None

  (** Definition C.3: both single extensions legal, and the two orders are
      not equivalent — either exactly one order is legal, or both are and
      they reach different (hence non-equivalent, see [Run.equivalent])
      states. *)
  let eventually_non_self_commuting ty =
    search_pairs ty ty (fun ~prefix ~i1 ~i2 ~fwd ~bwd ->
        match (fwd, bwd) with
        | Some s12, Some s21 when not (R.equivalent s12 s21) ->
            Some
              { prefix; instances = [ i1; i2 ]; note = "orders reach different states" }
        | Some _, None | None, Some _ ->
            Some
              { prefix; instances = [ i1; i2 ]; note = "exactly one order legal" }
        | _ -> None)

  (** Definition C.6, bounded universal check. *)
  let eventually_self_commuting ty = eventually_non_self_commuting ty = None

  (* ---- Permutation properties (Definitions C.4 / C.5) ---- *)

  type permuting_verdict = {
    holds : bool;
    legal_permutations : instance list list;
    reason : string;
  }

  (* Shared engine: [distinguish pi pi'] says whether the definition requires
     π and π' to be non-equivalent. *)
  let check_permuting ~prefix ~(instances : instance list) ~distinguish =
    let s = R.replay prefix in
    if not (List.for_all (fun i -> legal_after s [ i ]) instances) then
      { holds = false; legal_permutations = []; reason = "an instance is illegal after ρ" }
    else
      let perms = Prelude.Combinatorics.permutations instances in
      let legal = List.filter_map
          (fun p -> match R.run_instances s p with
            | Some st -> Some (p, st)
            | None -> None)
          perms
      in
      if List.length legal < 2 then
        { holds = false;
          legal_permutations = List.map fst legal;
          reason = "fewer than two legal permutations" }
      else
        let offending = ref None in
        List.iter
          (fun (p, st) ->
            List.iter
              (fun (p', st') ->
                if p != p' && distinguish p p' && R.equivalent st st' then
                  offending := Some (p, p'))
              legal)
          legal;
        match !offending with
        | Some _ ->
            { holds = false;
              legal_permutations = List.map fst legal;
              reason = "two permutations required to differ are equivalent" }
        | None ->
            { holds = true;
              legal_permutations = List.map fst legal;
              reason = "all required permutation pairs are non-equivalent" }

  let last xs = List.nth xs (List.length xs - 1)

  let distinct_perms p p' =
    not
      (List.for_all2
         (fun (a : instance) (b : instance) -> D.equal_op a.op b.op)
         p p')

  (** Definition C.4 instantiated at a given ρ and instance set: any two
      *different* legal permutations are non-equivalent. *)
  let non_self_any_permuting_at ~prefix ~instances =
    check_permuting ~prefix ~instances ~distinguish:distinct_perms

  (** Definition C.5: any two legal permutations with *different last
      operation* are non-equivalent. *)
  let non_self_last_permuting_at ~prefix ~instances =
    check_permuting ~prefix ~instances ~distinguish:(fun p p' ->
        not (D.equal_op (last p).Data_type.Instance.op (last p').Data_type.Instance.op))

  (* Search the sample universe for k distinct instances of [ty] witnessing
     the property. *)
  let search_permuting ~k ty check =
    List.find_map
      (fun prefix ->
        let s = R.replay prefix in
        let candidates = instances_of_type ty s in
        let distinct = List.sort_uniq
            (fun (a : instance) (b : instance) -> compare a.op b.op)
            candidates
        in
        List.find_map
          (fun instances ->
            let v = check ~prefix ~instances in
            if v.holds then Some { prefix; instances; note = v.reason } else None)
          (Prelude.Combinatorics.combinations k distinct))
      D.sample_prefixes

  let eventually_non_self_any_permuting ~k ty =
    search_permuting ~k ty non_self_any_permuting_at

  let eventually_non_self_last_permuting ~k ty =
    search_permuting ~k ty non_self_last_permuting_at

  (* ---- Mutator / accessor / overwriter (Section II.D) ---- *)

  (** Definition D.1: some instance changes the object state. *)
  let is_mutator ty =
    List.find_map
      (fun prefix ->
        let s = R.replay prefix in
        List.find_map
          (fun (i : instance) ->
            let s', _ = D.apply s i.op in
            if not (R.equivalent s s') then
              Some { prefix; instances = [ i ]; note = "state changed" }
            else None)
          (instances_of_type ty s))
      D.sample_prefixes

  (** Definition D.2: some instance of the type is illegal after some legal
      sequence — i.e. the return value carries information about the state.
      Witness search: an instance committed after ρ1 that is illegal after
      ρ2. *)
  let is_accessor ty =
    List.find_map
      (fun p1 ->
        let s1 = R.replay p1 in
        List.find_map
          (fun (i : instance) ->
            List.find_map
              (fun p2 ->
                let s2 = R.replay p2 in
                if not (legal_after s2 [ i ]) then
                  Some
                    {
                      prefix = p2;
                      instances = [ i ];
                      note = "instance committed after another prefix is illegal here";
                    }
                else None)
              D.sample_prefixes)
          (instances_of_type ty s1))
      D.sample_prefixes

  let is_pure_mutator ty = is_mutator ty <> None && is_accessor ty = None
  let is_pure_accessor ty = is_accessor ty <> None && is_mutator ty = None

  (** Definition D.5: a mutator is a non-overwriter when ρ∘op1∘op2 and ρ∘op2
      can differ — i.e. the latest instance does not fully determine the
      state. *)
  let is_non_overwriter ty =
    List.find_map
      (fun prefix ->
        let s = R.replay prefix in
        let insts = instances_of_type ty s in
        List.find_map
          (fun ((i1 : instance), (i2 : instance)) ->
            let via_both = R.run_instances s [ i1 ] in
            match via_both with
            | None -> None
            | Some s1 -> (
                let s12, _ = D.apply s1 i2.op in
                let s2, _ = D.apply s i2.op in
                (* Note: op2's *state effect* after different prefixes is
                   what matters; compare end states. *)
                if not (R.equivalent s12 s2) then
                  Some { prefix; instances = [ i1; i2 ]; note = "ρ∘op1∘op2 ≢ ρ∘op2" }
                else None))
          (Prelude.Combinatorics.ordered_pairs insts insts))
      D.sample_prefixes

  let is_overwriter ty = is_mutator ty <> None && is_non_overwriter ty = None

  (** One-line summary of everything we can determine about an operation
      type, used by the CLI [classify] command and tests. *)
  type summary = {
    op_ty : string;
    mutator : bool;
    accessor : bool;
    pure_mutator : bool;
    pure_accessor : bool;
    imm_non_self_commuting : bool;
    strongly_imm_non_self_commuting : bool;
    ev_non_self_commuting : bool;
    overwriter : bool;
    non_overwriter : bool;
  }

  let summarize ty =
    {
      op_ty = ty;
      mutator = is_mutator ty <> None;
      accessor = is_accessor ty <> None;
      pure_mutator = is_pure_mutator ty;
      pure_accessor = is_pure_accessor ty;
      imm_non_self_commuting = immediately_non_self_commuting ty <> None;
      strongly_imm_non_self_commuting =
        strongly_immediately_non_self_commuting ty <> None;
      ev_non_self_commuting = eventually_non_self_commuting ty <> None;
      overwriter = is_overwriter ty;
      non_overwriter = is_non_overwriter ty <> None;
    }

  let pp_summary fmt s =
    let flag name b = if b then Some name else None in
    let flags =
      List.filter_map Fun.id
        [
          flag "mutator" s.mutator;
          flag "accessor" s.accessor;
          flag "pure-mutator" s.pure_mutator;
          flag "pure-accessor" s.pure_accessor;
          flag "imm-non-self-commuting" s.imm_non_self_commuting;
          flag "strongly-imm-non-self-commuting" s.strongly_imm_non_self_commuting;
          flag "ev-non-self-commuting" s.ev_non_self_commuting;
          flag "overwriter" s.overwriter;
          flag "non-overwriter" s.non_overwriter;
        ]
    in
    Format.fprintf fmt "%-12s %s" s.op_ty (String.concat ", " flags)
end
