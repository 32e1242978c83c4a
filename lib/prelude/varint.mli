(** LEB128 varints: seven bits a byte, low group first, the high bit set
    on every byte but the last.  Integers are written {e unsigned} (a
    negative one as its 63-bit two's complement) or {e signed}, zigzag
    folded first so small magnitudes of either sign stay short.  The
    integers of wire frames, trace events and WAL record lengths. *)

val add_uint : Buffer.t -> int -> unit
val add_int : Buffer.t -> int -> unit  (** zigzag, then {!add_uint} *)

val uint_size : int -> int
(** How many bytes {!add_uint} writes for this integer. *)

val set_uint : Bytes.t -> int -> int -> unit
(** [set_uint b pos n] writes {!add_uint}'s bytes for [n] at [pos]; [b]
    must have {!uint_size}[ n] bytes of room there. *)

exception Malformed of string
(** A varint that runs past its input (["truncated payload"]) or past the
    ninth byte, which already carries every bit of an [int]
    (["varint overflow"]). *)

type reader = { src : string; mutable pos : int }
(** A read position in [src]. *)

val get_uint : reader -> int
(** Read one unsigned varint at [pos] and move past it; allocates
    nothing.  @raise Malformed *)

val get_int : reader -> int  (** zigzag: {!get_uint}, unfolded *)
