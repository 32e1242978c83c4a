(** Append-only write-ahead log of opaque records.

    The WAL is the durability primitive under [Durable.Store]: each record
    is an arbitrary byte string (the typed encoding lives above, in
    [Net.Persist], because the object codecs do).  The on-disk format
    follows the [Obs.Event] discipline — self-delimiting records, no
    global index, damage truncates instead of failing:

    {v
    record := len (unsigned LEB128, payload bytes)
              crc32 (4 bytes big-endian, IEEE, over the payload)
              payload
    v}

    The reader walks records from the start and stops at the {e first}
    sign of damage — truncated length, oversized length, short payload or
    CRC mismatch — returning the clean prefix.  It never raises: a torn
    tail (crash mid-append) or a flipped bit costs the damaged suffix,
    nothing more.  That is exactly the crash-recovery contract: everything
    fsync'd before the crash is replayed, a partial final append is
    discarded. *)

type fsync =
  | Always  (** fsync after every append — every acked record survives *)
  | Interval of int
      (** fsync at most once per this many µs (and on [close]/[sync]) —
          bounded loss window, near-[Never] throughput *)
  | Never  (** leave flushing to the OS — fastest, crash loses the tail *)

val fsync_of_string : string -> (fsync, string) result
(** ["always"], ["never"], ["interval"] (default 5000 µs) or
    ["interval:N"] with N in µs. *)

val fsync_to_string : fsync -> string

(** {2 Writer} *)

type t

val create : path:string -> fsync:fsync -> t
(** Open [path] for appending (created if absent). *)

val append : t -> string -> unit
(** Append one record and apply the fsync policy.  Not thread-safe: one
    owner appends. *)

val append_with : t -> (Buffer.t -> unit) -> unit
(** [append_with t write]: {!append} the bytes [write] adds to an empty
    buffer.  The log reuses that buffer and the one it frames records in,
    so an append allocates nothing once they have grown to the record
    size. *)

val sync : t -> unit
(** Force an fsync now (no-op on an already-clean log). *)

val records_written : t -> int
(** Appends since [create] — the store's snapshot-cadence input. *)

val close : t -> unit
(** Sync (unless policy is [Never]) and close.  Idempotent. *)

(** {2 Reader} *)

val read_file : string -> string list
(** The longest clean prefix of records in [path], oldest first.  A
    missing file is the empty log.  Never raises on damage: reading stops
    at the first corrupt or torn record. *)

val of_string : string -> string list
(** [read_file] over in-memory bytes — the qcheck corruption suite's
    entry point: corrupt the encoding however you like, the result is
    always a clean prefix of the original records. *)

val encode_record : Buffer.t -> string -> unit
(** Append one record's on-disk encoding to [buf] (what {!append}
    writes). *)
