(** Executable checkers for the operation-type properties of Chapter II.

    Existential properties (immediately non-commuting, eventually
    non-self-commuting, mutator, accessor, non-overwriter, …) are decided
    by searching the data type's sample universe for a concrete witness,
    which is returned for display.  Universal properties (immediately /
    eventually self-commuting, overwriter) are the bounded negation: no
    witness exists in the universe.  On the paper's examples the universes
    are chosen to contain the paper's own witnesses, so the bounded checks
    agree with the true properties. *)

open Spec

module Make (D : Data_type.SAMPLED) : sig
  type instance = (D.op, D.result) Data_type.Instance.t

  type witness = {
    prefix : D.op list;  (** the sequence ρ *)
    instances : instance list;
    note : string;
  }

  (** {2 Commutation (Definitions B.1–B.3, C.3, C.6)} *)

  val immediately_non_commuting : string -> string -> witness option
  (** ρ∘op1 and ρ∘op2 each legal, at least one order of the two illegal. *)

  val immediately_non_self_commuting : string -> witness option
  val strongly_immediately_non_self_commuting : string -> witness option

  val immediately_self_commuting : string -> bool
  (** Bounded universal: no immediate non-self-commutation witness. *)

  val eventually_non_self_commuting : string -> witness option
  (** Both single extensions legal and the two orders non-equivalent. *)

  val eventually_self_commuting : string -> bool

  (** {2 Permutation properties (Definitions C.4 / C.5)} *)

  type permuting_verdict = {
    holds : bool;
    legal_permutations : instance list list;
    reason : string;
  }

  val non_self_any_permuting_at :
    prefix:D.op list -> instances:instance list -> permuting_verdict
  (** Any two different legal permutations of [instances] after [prefix]
      are non-equivalent. *)

  val non_self_last_permuting_at :
    prefix:D.op list -> instances:instance list -> permuting_verdict
  (** Any two legal permutations with different *last* operations are
      non-equivalent. *)

  val eventually_non_self_any_permuting : k:int -> string -> witness option
  val eventually_non_self_last_permuting : k:int -> string -> witness option

  (** {2 Mutators, accessors, overwriters (Definitions D.1–D.5)} *)

  val is_mutator : string -> witness option
  val is_accessor : string -> witness option
  val is_pure_mutator : string -> bool
  val is_pure_accessor : string -> bool

  val is_non_overwriter : string -> witness option
  (** Some ρ∘op1∘op2 is not equivalent to ρ∘op2 — the latest instance does
      not fully determine the state. *)

  val is_overwriter : string -> bool

  (** {2 Summaries} *)

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

  val summarize : string -> summary
  val pp_summary : Format.formatter -> summary -> unit
end
