(** System and protocol parameters shared by every implementation.

    [d], [u], [eps] are the partially-synchronous system bounds; [x] is
    Algorithm 1's trade-off parameter X ∈ [0, d + ε − u] regulating pure
    accessor versus pure mutator response time (Chapter V.A.2).

    [timing] holds the four concrete waiting periods of the pseudocode.
    [standard] derives them exactly as the paper prescribes; the
    lower-bound experiments build deliberately *shortened* timings
    ([with_speedup], [faster_oop], …) to produce implementations that
    respond below the proven bounds — the adversary constructions of
    Chapter IV then exhibit their linearizability violations. *)

type timing = {
  add_wait : int;  (** timer before adding one's own mutator to To_Execute: d − u *)
  execute_wait : int;  (** hold time in To_Execute before executing: u + ε *)
  mutator_wait : int;  (** pure mutator response delay: ε + X *)
  accessor_wait : int;  (** pure accessor response delay: d + ε − X *)
  accessor_ts_back : int;  (** accessor timestamps pretend invocation X earlier *)
}

type t = { n : int; d : int; u : int; eps : int; x : int; timing : timing }

let standard_timing ~d ~u ~eps ~x =
  {
    add_wait = d - u;
    execute_wait = u + eps;
    mutator_wait = eps + x;
    accessor_wait = d + eps - x;
    accessor_ts_back = x;
  }

let make ~n ~d ~u ~eps ?(x = 0) () =
  if u < 0 || u > d then invalid_arg "Params.make: need 0 ≤ u ≤ d";
  if x < 0 || x > d + eps - u then
    invalid_arg "Params.make: need 0 ≤ X ≤ d + ε − u";
  { n; d; u; eps; x; timing = standard_timing ~d ~u ~eps ~x }

(** Optimal clock skew achievable by synchronization: (1 − 1/n)·u
    (Lundelius–Lynch).  [u] must be divisible by [n] for exactness. *)
let optimal_eps ~n ~u = u - (u / n)

(** The additive slack min{ε, u, d/3} appearing in Theorems C.1 and E.1. *)
let slack t = min t.eps (min t.u (t.d / 3))

(* -- deliberately too-fast variants (for the lower-bound adversaries) -- *)

(** Shrink the accessor/OOP waiting so that "other" operations respond in
    [oop_latency] instead of d + ε.  Used against Theorem C.1. *)
let faster_oop t ~oop_latency =
  let wait = max 0 (oop_latency - t.timing.execute_wait) in
  { t with timing = { t.timing with add_wait = wait } }

(** Make pure mutators respond after [latency] instead of ε + X.  Used
    against Theorem D.1. *)
let faster_mutator t ~latency =
  { t with timing = { t.timing with mutator_wait = latency } }

(** Make pure accessors respond after [latency] instead of d + ε − X.  Used
    against Theorem E.1 (together with [faster_mutator]). *)
let faster_accessor t ~latency =
  { t with timing = { t.timing with accessor_wait = latency } }

(* -- ablation knobs: remove one waiting period at a time to show each is
   load-bearing (see the [ablation] experiment) -- *)

(** Ablate the u + ε hold in [To_Execute]: operations execute the moment
    they are received/added.  Replicas then apply mutators in arrival
    order, which delay uncertainty and skew can decouple from timestamp
    order. *)
let without_hold t = { t with timing = { t.timing with execute_wait = 0 } }

(** Ablate the d − u self-delivery delay: the invoker adds its own
    operation to [To_Execute] immediately, racing ahead of remote
    operations with smaller timestamps. *)
let without_self_delay t = { t with timing = { t.timing with add_wait = 0 } }

let pp fmt t =
  Format.fprintf fmt "n=%d d=%d u=%d ε=%d X=%d" t.n t.d t.u t.eps t.x
