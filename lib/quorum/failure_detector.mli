(** Heartbeat failure detector with φ-style suspicion counters.

    Tracks, per peer, the arrival time of the last frame and the largest
    sender-clock stamp it carried.  A peer that stays silent for
    [suspect_after] heartbeat intervals becomes suspected; any later frame
    clears the suspicion. *)

type t

val make : n:int -> me:int -> hb_us:int -> suspect_after:int -> now_us:int -> t
(** Fresh detector for [n] replicas, observing as replica [me].  Every
    peer starts with one full timeout of boot grace. *)

val heard : t -> peer:int -> stamp:int -> now_us:int -> bool
(** Record a frame from [peer] carrying its sender-clock [stamp].  Returns
    [true] iff the peer was suspected and is now cleared. *)

val tick : t -> now_us:int -> int list
(** Advance to [now_us]; returns peers that just became suspected. *)

val suspected : t -> int -> bool
val suspects_any : t -> bool

val alive : t -> int
(** Number of non-suspected replicas, counting [me]. *)

val all_alive : t -> bool

val lowest_alive : t -> int
(** Smallest pid not currently suspected (the deterministic sequencer
    choice in quorum mode). *)

val heard_stamp : t -> int -> int
(** Largest sender-clock stamp received from a given peer ([min_int] until
    its first frame). *)
