(** Typed durable formats on top of {!Durable}'s untyped bytes: what one
    WAL record and one snapshot payload {e mean} for a given object.

    - a {e WAL record} is one applied mutation — operation, ⟨time, pid⟩
      stamp, client op id (0 = none) and the result it produced — in the
      order Algorithm 1 applied it, which is timestamp order.  Replaying
      records from a known state therefore reproduces the object exactly.
    - a {e snapshot payload} is a checkpoint: the object, the high-water
      mark, and the dedup window — the applied entries with op ids still
      inside it, with their results — so a restarted replica recognises
      client retries from before the crash.  Its size follows the object
      and the window, not the operations served.

    Both use the codec's varint primitives and the object's
    {!Codec.OBJ_CODEC}, and both decode totally: corrupt input yields
    [None], never an exception — the durability layer's
    longest-clean-prefix discipline extends through the typed layer. *)

module Make (O : Codec.OBJ_CODEC) : sig
  type applied = {
    op : O.D.op;
    time : int;
    pid : int;
    op_id : int;
    result : O.D.result;
  }

  type snapshot = {
    s_obj : O.D.state;
    s_hwm_time : int;  (** −1 = nothing applied *)
    s_hwm_pid : int;
    s_applied : applied list;
        (** oldest first: the dedup window; after {!replay}, followed by
            the WAL tail *)
  }

  val empty_snapshot : snapshot
  (** The fresh-boot state: initial object, empty window, hwm −1. *)

  val write_record :
    Buffer.t ->
    op:O.D.op ->
    time:int ->
    pid:int ->
    op_id:int ->
    result:O.D.result ->
    unit
  (** Append one record's encoding to the buffer (what {!encode_record}
      returns, without building the record or the string). *)

  val encode_record : applied -> string
  val decode_record : string -> applied option

  val encode_snapshot : snapshot -> string

  val decode_snapshot : string -> snapshot option
  (** [None] on a payload for another object (tag mismatch) or malformed
      bytes. *)

  val replay : snapshot -> string list -> snapshot * int * int
  (** Fold raw WAL records (oldest first) into a checkpoint: decode,
      apply, advance the high-water mark.  Stops at the first undecodable
      record; skips records at or below the mark reached so far.  Returns
      the checkpoint, the records folded and the records skipped. *)

  val recover : Durable.Store.recovered -> snapshot * int * int
  (** The full recovery pipeline: decode the store's snapshot payload
      (falling back to {!empty_snapshot} when absent or undecodable) and
      {!replay} the WAL tail onto it. *)

  val recovered_of : Durable.Store.recovered -> snapshot
  (** {!recover}'s checkpoint alone. *)
end
