(** A smoothly-slewed logical clock that is never stepped backward.

    Corrections requested with {!adjust} are applied gradually: each
    {!read} moves the applied correction toward the target by at most
    [slew_ppm] parts-per-million of the raw time elapsed since the
    previous read, and readings are clamped to be non-decreasing.
    Single-owner by design (the replica event loop); not thread-safe. *)

type t

val slew_ppm : int
(** 100 000 ppm (10%): a 2 ms correction completes in 20 ms. *)

val create : unit -> t

val read : t -> now:int -> int
(** Corrected reading for raw local clock [now] (µs).  Advances the slew
    by the raw time elapsed since the previous read.  Monotone
    non-decreasing across any sequence of reads and {!adjust}s, even when
    [now] itself jumps backward. *)

val adjust : t -> delta:int -> unit
(** Shift the target correction by [delta] µs (positive or negative);
    subsequent reads slew toward it. *)

val applied : t -> int
(** Correction currently reflected in readings, µs. *)

val pending : t -> int
(** Correction still to be slewed in, µs ([target − applied]). *)
