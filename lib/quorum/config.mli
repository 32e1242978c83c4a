(** Tuning knobs for the quorum fallback, shared by every layer that arms
    it (in-process clusters and [Shard.Host] processes).

    The defaults aim CI-sized clusters: heartbeats every 2.5 ms and
    suspicion after 40 consecutive missed intervals put the failure
    detector's timeout at 100 ms — far above any scheduler stall a loaded
    2-core runner produces, far below the seconds a load run lasts. *)

type t = private {
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
(** Built only by {!make}, so every config in use passed its checks. *)

val make :
  ?hb_us:int ->
  ?suspect_after:int ->
  ?on_mode:(quorum:bool -> epoch:int -> seq:int -> unit) ->
  ?on_suspect:(peer:int -> suspected:bool -> unit) ->
  unit ->
  t
(** Defaults: 2 500 µs, 40 intervals, no-op hooks.
    @raise Invalid_argument if [hb_us] or [suspect_after] is below 1: with
    no period there is no detector. *)

val default : t

val timeout_us : t -> int
(** [hb_us * suspect_after]. *)
