(** System and protocol parameters shared by every implementation.

    [d], [u], [eps] are the partially synchronous system bounds; [x] is
    Algorithm 1's trade-off parameter X ∈ [0, d + ε − u] regulating pure
    accessor versus pure mutator response time (Chapter V.A.2).  [timing]
    holds the four concrete waiting periods of the pseudocode — derived
    from the bounds by {!standard_timing}, or deliberately weakened by the
    [faster_*] / [without_*] constructors that the lower-bound and ablation
    experiments feed to the adversary. *)

type timing = {
  add_wait : int;  (** before adding one's own mutator to To_Execute: d − u *)
  execute_wait : int;  (** hold in To_Execute before executing: u + ε *)
  mutator_wait : int;  (** pure mutator response delay: ε + X *)
  accessor_wait : int;  (** pure accessor response delay: d + ε − X *)
  accessor_ts_back : int;  (** accessors timestamp X earlier than invoked *)
}

type t = { n : int; d : int; u : int; eps : int; x : int; timing : timing }

val standard_timing : d:int -> u:int -> eps:int -> x:int -> timing

val make : n:int -> d:int -> u:int -> eps:int -> ?x:int -> unit -> t
(** Standard parameters; raises [Invalid_argument] unless 0 ≤ u ≤ d and
    0 ≤ X ≤ d + ε − u.  [x] defaults to 0 (fastest mutators). *)

val optimal_eps : n:int -> u:int -> int
(** The optimal synchronized skew (1 − 1/n)·u (Lundelius–Lynch). *)

val slack : t -> int
(** m = min\{ε, u, d/3\}, the additive slack of Theorems C.1 and E.1. *)

(** {2 Deliberately too-fast variants (lower-bound adversaries)} *)

val faster_oop : t -> oop_latency:int -> t
(** OOPs respond in [oop_latency] instead of d + ε (vs Theorem C.1). *)

val faster_mutator : t -> latency:int -> t
(** Pure mutators respond in [latency] instead of ε + X (vs Theorem D.1). *)

val faster_accessor : t -> latency:int -> t
(** Pure accessors respond in [latency] instead of d + ε − X (vs Theorem
    E.1, combined with {!faster_mutator}). *)

(** {2 Ablation knobs (each wait shown load-bearing by the [ablation]
    experiment)} *)

val without_hold : t -> t
(** Execute queued operations immediately (drop the u + ε hold). *)

val without_self_delay : t -> t
(** Add one's own operations to To_Execute immediately (drop d − u). *)

val pp : Format.formatter -> t -> unit
