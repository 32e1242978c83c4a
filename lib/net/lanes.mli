(** Two-lane priority write queue for the TCP transport.

    The overload-protection invariant the paper's bounds rely on: control
    traffic (heartbeats, mode announcements, sync probes, catch-up) must
    stay live even when offered data load pushes real queueing past [d].
    A single FIFO cannot promise that — a burst of data frames ahead of a
    heartbeat delays it by the whole backlog.  This queue keeps two FIFOs
    per link and always serves the control lane first:

    - the {b control} lane is unbounded (control traffic is cadence-bounded
      by construction — one heartbeat per [hb_us], one probe per sync
      round) and is never shed;
    - the {b data} lane is bounded in both frames and bytes; pushing past
      either bound sheds the oldest queued frames (counted, never silent)
      until the arrival fits.

    Within a lane, FIFO order is preserved; across lanes, a control frame
    is never ordered behind a data frame.  Not thread-safe — the caller
    (one lock per link) serialises access. *)

type lane = Ctrl | Data

val lane_name : lane -> string

type 'a t

val create :
  ?max_data_frames:int -> ?max_data_bytes:int -> size_of:('a -> int) ->
  unit -> 'a t
(** [size_of] prices a frame for the byte bound (defaults: 4096 frames,
    4 MiB).  Raises [Invalid_argument] on a non-positive bound. *)

val push : 'a t -> lane -> 'a -> int
(** Enqueue on [lane]; returns how many frames were shed to make room
    (always 0 on the control lane).  A data frame larger than the whole
    byte budget is itself shed (returns 1) rather than emptying the lane
    for a frame that can never fit. *)

val peek : 'a t -> (lane * 'a) option
(** Front of the queue in service order: control lane first. *)

val drop : 'a t -> lane -> unit
(** Remove the front of [lane] — pairs with {!peek}'s (lane, frame) so a
    writer that released the lock between peek and drop removes exactly
    the frame it wrote, even if the other lane grew meanwhile.
    Raises [Queue.Empty] if the lane is empty. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val ctrl_length : 'a t -> int
val data_length : 'a t -> int

val data_bytes : 'a t -> int
(** Bytes currently queued on the data lane (invariant: ≤ the byte bound). *)

val shed : 'a t -> int
(** Frames shed from the data lane since creation. *)

val ctrl_hwm : 'a t -> int
val data_hwm : 'a t -> int

val clear : 'a t -> unit
