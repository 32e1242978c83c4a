(** A replica's durable directory: WAL generations, snapshots and an
    identity file, glued into one recovery story.

    {v
    dir/
      META            identity line; mismatch refuses to open
      wal-<g>.log     appended mutations since snapshot generation g
      snap-<g>.snap   checkpoint covering every generation < g
    v}

    Invariant: [snap-g] is written {e after} [wal-g] is opened and covers
    exactly the records of generations [< g], so recovery is "load the
    highest valid snapshot [G], then replay [wal-G], [wal-G+1], … in
    order".  A crash between rotation and snapshot write merely leaves an
    extra WAL generation to replay; a crash mid-snapshot leaves a [.tmp]
    that recovery ignores.  GC deletes generations [< G] only after
    [snap-G] is safely in place.

    A store has one owner and no lock: a host's single loop appends,
    checkpoints and (after that loop has ended) closes it. *)

type t

type recovered = {
  r_snapshot : string option;  (** highest valid checkpoint payload *)
  r_records : string list;  (** WAL records after it, oldest first *)
  r_generation : int;  (** generation appends go to now *)
  r_fresh : bool;
      (** [open_] created the directory this call (no prior [META]): a
          genesis boot, not a restart — the caller should skip peer
          catch-up.  Always [false] from {!inspect}. *)
}

val open_ :
  dir:string ->
  meta:string ->
  fsync:Wal.fsync ->
  (t * recovered, string) result
(** Open (creating the directory if needed), verify identity and read
    back everything that survived.  [meta] is the identity line (replica
    id, epoch, object tag — the caller formats it); if the directory
    already has a [META] that differs, the store {e refuses to open}: a
    supervised restart handed the wrong directory must fail loudly, not
    silently adopt another replica's history. *)

val append : t -> string -> unit
(** Durably append one record to the current WAL generation (fsync per
    the open policy). *)

val append_with : t -> (Buffer.t -> unit) -> unit
(** {!append} the record the callback writes ({!Wal.append_with}: no
    allocation per record). *)

val snapshot : t -> string -> unit
(** Rotate to a fresh WAL generation, checkpoint [payload] (which must
    cover every record appended so far) and GC older generations. *)

val generation : t -> int

val records_since_snapshot : t -> int
(** Appends into the current generation — the snapshot-cadence input. *)

val sync : t -> unit
val close : t -> unit

val inspect : dir:string -> (string * recovered, string) result
(** Read-only view for [timebounds recover]: the META line plus what
    recovery would reconstruct.  Does not touch the files. *)
