(** Configuration for the live clock-synchronization subsystem.

    [d] and [u] are the *assumed* one-way delay bound and uncertainty
    (µs) used only for the coarse one-way heartbeat-piggyback samples —
    the two-way ping/pong samples measure their own uncertainty from the
    RTT and need neither.  [interval_us] is the probe-round period.

    [on_eps] is invoked once per round with the freshly computed
    achieved-ε estimate and the number of peers contributing; [Shard.Host]
    composes its own logging on top, the same way it does for the quorum
    fallback hooks. *)

type t = {
  interval_us : int;  (** probe-round period, µs (default 50 000) *)
  d : int;  (** assumed one-way delay bound for piggyback samples, µs *)
  u : int;  (** assumed one-way delay uncertainty, µs *)
  on_eps : eps_us:int -> peers:int -> unit;
}

let default_interval_us = 50_000

let make ?(interval_us = default_interval_us) ~d ~u
    ?(on_eps = fun ~eps_us:_ ~peers:_ -> ()) () =
  if interval_us <= 0 then invalid_arg "Sync.Config.make: interval_us <= 0";
  if u < 0 || d < u then invalid_arg "Sync.Config.make: need 0 <= u <= d";
  { interval_us; d; u; on_eps }
