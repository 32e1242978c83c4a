(** Per-peer clock-offset and uncertainty estimation.

    Feeds on two-way ping/pong probes (uncertainty measured from the RTT
    asymmetry bound) and one-way heartbeat piggybacks (uncertainty u/2,
    via the shared {!Clocksync.Lundelius_lynch.midpoint_estimate}).  A
    stored sample's error bound widens by [drift_ppm] of its age, so a
    peer cut off by a partition honestly inflates the achieved-ε estimate
    until probes flow again.  Single-owner; not thread-safe. *)

type t

val drift_ppm : int
(** 250 ppm: staleness widening per second ≈ 250 µs. *)

val create : n:int -> me:int -> unit -> t

val observe_two_way :
  t -> peer:int -> now:int -> t0:int -> t1:int -> t_rx:int -> t_tx:int -> unit
(** A completed ping/pong exchange: [t0]/[t1] are our corrected-clock
    readings at ping send and pong receipt; [t_rx]/[t_tx] the peer's at
    ping receipt and pong send.  Negative round trips (clock anomaly) are
    discarded.  [now] is our raw local time, used for sample aging. *)

val observe_one_way :
  t -> peer:int -> now:int -> d:int -> u:int -> sent:int -> clock:int -> unit
(** A timestamped heartbeat from [peer] carrying reading [sent], received
    when our corrected clock read [clock]: the Lundelius–Lynch midpoint
    sample with uncertainty u/2. *)

val correction : t -> int
(** The Lundelius–Lynch correction to apply to our clock: the average of
    per-peer offset estimates over all n slots (self and unheard peers
    count 0). *)

val shift : t -> by:int -> unit
(** Record that the clock absorbed a correction of [by] µs: stored
    offsets shift by −[by] so the next round doesn't re-apply it. *)

val achieved_eps : t -> now:int -> int
(** Achieved-ε estimate: max over sampled peers of
    |offset| + age-widened uncertainty.  0 when nothing sampled yet. *)

val peers : t -> int
(** Number of peers with a stored sample. *)

val view : t -> now:int -> (int * int * int) option array
(** Per-peer [(offset, widened_uncertainty, age_us)] snapshot, [None] for
    self and unheard peers. *)
