(** Tuning knobs for the quorum fallback, shared by every layer that arms
    it (in-process clusters and [Shard.Host] processes).

    The defaults aim CI-sized clusters: heartbeats every 2.5 ms and
    suspicion after 40 consecutive missed intervals put the failure
    detector's timeout at 100 ms — far above any scheduler stall a loaded
    2-core runner produces, far below the seconds a load run lasts. *)

type t = {
  hb_us : int;  (** heartbeat period, µs *)
  suspect_after : int;
      (** consecutive missed heartbeat intervals before a peer is
          suspected; the detector's timeout is [hb_us * suspect_after] *)
  on_mode : quorum:bool -> epoch:int -> seq:int -> unit;
      (** called from inside the replica's event loop on every mode
          transition — the hook [Shard.Host] logs (and CI greps) and the
          chaos harness turns into an availability report *)
  on_suspect : peer:int -> suspected:bool -> unit;
      (** called on every suspicion transition of the failure detector *)
}

(* Below 1 there is no detector: a zero period re-arms the heartbeat at
   one clock value forever and divides by zero in the detector's tick. *)
let make ?(hb_us = 2_500) ?(suspect_after = 40)
    ?(on_mode = fun ~quorum:_ ~epoch:_ ~seq:_ -> ())
    ?(on_suspect = fun ~peer:_ ~suspected:_ -> ()) () =
  if hb_us < 1 then invalid_arg "Quorum.Config.make: hb_us < 1";
  if suspect_after < 1 then invalid_arg "Quorum.Config.make: suspect_after < 1";
  { hb_us; suspect_after; on_mode; on_suspect }

let default = make ()

let timeout_us t = t.hb_us * t.suspect_after
