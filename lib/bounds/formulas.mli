(** Closed-form time bounds of the thesis, Tables I–IV (Chapter VI): per
    table row, the previous lower bound from the literature, the thesis'
    new lower bound, and the upper bound realized by Algorithm 1 — as
    symbolic formulas evaluable at concrete system parameters. *)

type formula = { symbolic : string; eval : Core.Params.t -> int }

val f : string -> (Core.Params.t -> int) -> formula

(** {2 Shared formulas} *)

(** [d_plus_m] is d + min\{ε, u, d/3\} (Theorems C.1/E.1); [half_u] is the
    previous u/2 bounds; [frac_u] is (1 − 1/n)·u (Theorem D.1 at k = n);
    [accessor_upper] is d + ε − X and [mutator_upper] is ε + X (Algorithm
    1's latencies). *)

val d_plus_m : formula

val just_d : formula
val half_u : formula
val frac_u : formula
val d_plus_eps : formula
val d_plus_2eps : formula
val accessor_upper : formula
val mutator_upper : formula

(** {2 Tables} *)

type row = {
  operation : string;
  previous_lower : formula;
  lower : formula option;  (** the thesis' bound; [None] for "—" cells *)
  upper : formula;
  tightness : string;
}

type table = { id : string; title : string; rows : row list }

(** [register] is Table I, [queue] Table II, [stack] Table III and [tree]
    Table IV of the thesis. *)

val register : table

val queue : table
val stack : table
val tree : table
val all_tables : table list

val pp_formula : Core.Params.t -> Format.formatter -> formula -> unit
val pp_row : Core.Params.t -> Format.formatter -> row -> unit
val pp_table : Core.Params.t -> Format.formatter -> table -> unit
