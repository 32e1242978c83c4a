(** Closed-form time bounds of the thesis, Tables I–IV (Chapter VI).

    Each table row carries the *previous* lower bound (from the literature
    the thesis improves on), the thesis' new lower bound, and the upper
    bound realized by Algorithm 1 — all as symbolic formulas evaluable at
    concrete system parameters.  The benchmark harness prints these next to
    the latencies actually measured in the simulator. *)

type formula = {
  symbolic : string;
  eval : Core.Params.t -> int;
}

let f symbolic eval = { symbolic; eval }

(* Shared formulas.  m = min{ε, u, d/3} is the slack of Theorems C.1/E.1. *)
let d_plus_m =
  f "d + min{ε,u,d/3}" (fun p -> p.Core.Params.d + Core.Params.slack p)

let just_d = f "d" (fun p -> p.Core.Params.d)
let half_u = f "u/2" (fun p -> p.Core.Params.u / 2)

let frac_u =
  f "(1−1/n)u" (fun p -> Core.Params.optimal_eps ~n:p.Core.Params.n ~u:p.Core.Params.u)

let d_plus_eps = f "d + ε" (fun p -> p.Core.Params.d + p.Core.Params.eps)

let d_plus_2eps =
  f "d + 2ε" (fun p -> p.Core.Params.d + (2 * p.Core.Params.eps))

(* Pure accessor upper bound: d + ε − X, which is u at X = d + ε − u. *)
let accessor_upper =
  f "d + ε − X" (fun p -> p.Core.Params.d + p.Core.Params.eps - p.Core.Params.x)

let mutator_upper =
  f "ε + X" (fun p -> p.Core.Params.eps + p.Core.Params.x)

type row = {
  operation : string;
  previous_lower : formula;
  lower : formula option;  (** the thesis' bound; [None] for the "—" cells *)
  upper : formula;
  tightness : string;
}

type table = { id : string; title : string; rows : row list }

(* Table I, p. 75. *)
let register =
  {
    id = "table1";
    title = "Operation Time Bounds on Read/Write/Read-Modify-Write Register";
    rows =
      [
        {
          operation = "read-modify-write";
          previous_lower = just_d;
          lower = Some d_plus_m;
          upper = d_plus_eps;
          tightness = "tight when ε ≤ u and ε ≤ d/3 (Thm C.1)";
        };
        {
          operation = "write";
          previous_lower = half_u;
          lower = Some frac_u;
          upper = mutator_upper;
          tightness = "tight at optimal ε = (1−1/n)u with X = 0 (Thm D.1)";
        };
        {
          operation = "read";
          previous_lower = half_u;
          lower = None;
          upper = accessor_upper;
          tightness = "u at X = d+ε−u; gap u/2 to the lower bound of [1]";
        };
        {
          operation = "write + read";
          previous_lower = just_d;
          lower = Some just_d;
          upper = d_plus_2eps;
          tightness = "gap 2ε (write overwrites, so Thm E.1 does not apply)";
        };
      ];
  }

(* Table II, p. 75. *)
let queue =
  {
    id = "table2";
    title = "Operation Time Bounds on Queue";
    rows =
      [
        {
          operation = "enqueue";
          previous_lower = half_u;
          lower = Some frac_u;
          upper = mutator_upper;
          tightness = "tight at optimal ε with X = 0 (Thm D.1)";
        };
        {
          operation = "dequeue";
          previous_lower = just_d;
          lower = Some d_plus_m;
          upper = d_plus_eps;
          tightness = "tight when ε ≤ u and ε ≤ d/3 (Thm C.1)";
        };
        {
          operation = "enqueue + peek";
          previous_lower = just_d;
          lower = Some d_plus_m;
          upper = d_plus_2eps;
          tightness = "Thm E.1 (enqueue is a non-overwriter); gap ε at ε=m";
        };
      ];
  }

(* Table III, p. 76. *)
let stack =
  {
    id = "table3";
    title = "Operation Time Bounds on Stack";
    rows =
      [
        {
          operation = "push";
          previous_lower = half_u;
          lower = Some frac_u;
          upper = mutator_upper;
          tightness = "tight at optimal ε with X = 0 (Thm D.1)";
        };
        {
          operation = "pop";
          previous_lower = just_d;
          lower = Some d_plus_m;
          upper = d_plus_eps;
          tightness = "tight when ε ≤ u and ε ≤ d/3 (Thm C.1)";
        };
        {
          operation = "push + peek";
          previous_lower = just_d;
          lower = Some d_plus_m;
          upper = d_plus_2eps;
          tightness = "Thm E.1 (push is a non-overwriter); gap ε at ε=m";
        };
      ];
  }

(* Table IV, p. 76. *)
let tree =
  {
    id = "table4";
    title = "Operation Time Bounds on Tree";
    rows =
      [
        {
          operation = "insert";
          previous_lower = half_u;
          lower = Some frac_u;
          upper = mutator_upper;
          tightness = "tight at optimal ε with X = 0 (Thm D.1)";
        };
        {
          operation = "delete";
          previous_lower = half_u;
          lower = Some frac_u;
          upper = mutator_upper;
          tightness = "tight at optimal ε with X = 0 (Thm D.1)";
        };
        {
          operation = "insert + depth";
          previous_lower = just_d;
          lower = Some d_plus_m;
          upper = d_plus_2eps;
          tightness = "Thm E.1 (insert is a non-overwriter); gap ε at ε=m";
        };
        {
          operation = "delete + depth";
          previous_lower = just_d;
          lower = Some d_plus_m;
          upper = d_plus_2eps;
          tightness = "Thm E.1 (delete is a non-overwriter); gap ε at ε=m";
        };
      ];
  }

let all_tables = [ register; queue; stack; tree ]

let pp_formula params fmt fm =
  Format.fprintf fmt "%s = %d" fm.symbolic (fm.eval params)

let pp_row params fmt r =
  Format.fprintf fmt "%-18s | prev LB %-14s | LB %-24s | UB %s"
    r.operation
    (Format.asprintf "%a" (pp_formula params) r.previous_lower)
    (match r.lower with
    | Some l -> Format.asprintf "%a" (pp_formula params) l
    | None -> "—")
    (Format.asprintf "%a" (pp_formula params) r.upper)

let pp_table params fmt t =
  Format.fprintf fmt "%s (%a)@." t.title Core.Params.pp params;
  List.iter (fun r -> Format.fprintf fmt "  %a@." (pp_row params) r) t.rows
