(** CRC-32 (IEEE 802.3, reflected, polynomial [0xedb88320]): the checksum
    of wire frames, WAL records and snapshots. *)

val update : int -> string -> pos:int -> len:int -> int
(** [update r s ~pos ~len] folds the [len] bytes of [s] from [pos] into
    the running register [r].  A checksum starts from the register
    [0xffffffff] and is its final value [lxor 0xffffffff].
    @raise Invalid_argument if the range is outside [s]. *)

val sub : string -> pos:int -> len:int -> int
(** The CRC-32 of the [len] bytes of [s] from [pos]. *)

val string : string -> int
(** The CRC-32 of all of [s]. *)
