(** φ-style heartbeat failure detector.

    Every peer broadcasts a stamped heartbeat each interval; the detector
    keeps, per peer, the receive time of the last frame and a suspicion
    counter — the number of consecutive heartbeat intervals that have
    elapsed since.  A peer whose counter reaches [suspect_after] is
    {e suspected}; any frame from it clears the suspicion (the detector is
    eventually perfect only while partial synchrony holds, which is all
    the mode controller needs: suspicion triggers the quorum fallback, and
    a false suspicion merely costs a round trip through the slow mode).

    The detector also tracks the largest {e sender-clock stamp} received
    from each peer.  Over FIFO links this is the replica's knowledge
    horizon: everything peer [q] sent with a stamp below [heard_stamp q]
    has been received — the evidence the fast path's response gate
    ({!Gate}) weighs per peer. *)

type t = {
  n : int;
  me : int;
  hb_us : int;
  suspect_after : int;
  last_rx : int array;  (** real time of the last frame from q, µs *)
  heard_stamp : int array;  (** max sender-clock stamp received from q *)
  suspected : bool array;
}

let make ~n ~me ~hb_us ~suspect_after ~now_us =
  if n < 1 then invalid_arg "Failure_detector.make: n must be >= 1";
  {
    n;
    me;
    hb_us;
    suspect_after;
    (* One extra timeout of boot grace: peers whose TCP links are still
       handshaking must not be suspected before they ever had a chance to
       beat. *)
    last_rx = Array.make n (now_us + (hb_us * suspect_after));
    heard_stamp = Array.make n min_int;
    suspected = Array.make n false;
  }

(* A frame from [peer] arrived, carrying its sender-clock [stamp].
   Returns [true] if the peer was suspected and is now cleared. *)
let heard t ~peer ~stamp ~now_us =
  if peer < 0 || peer >= t.n || peer = t.me then false
  else begin
    t.last_rx.(peer) <- now_us;
    if stamp > t.heard_stamp.(peer) then t.heard_stamp.(peer) <- stamp;
    if t.suspected.(peer) then begin
      t.suspected.(peer) <- false;
      true
    end
    else false
  end

(* Advance the detector to [now_us]; returns the peers that just crossed
   the suspicion threshold (oldest silence first). *)
let tick t ~now_us =
  let fresh = ref [] in
  for peer = t.n - 1 downto 0 do
    if peer <> t.me && not t.suspected.(peer) then begin
      let missed = (now_us - t.last_rx.(peer)) / t.hb_us in
      if missed >= t.suspect_after then begin
        t.suspected.(peer) <- true;
        fresh := peer :: !fresh
      end
    end
  done;
  !fresh

let suspected t peer = peer <> t.me && t.suspected.(peer)
let suspects_any t = Array.exists Fun.id t.suspected

let alive t =
  let c = ref 0 in
  for p = 0 to t.n - 1 do
    if p = t.me || not t.suspected.(p) then incr c
  done;
  !c

let all_alive t = alive t = t.n

let lowest_alive t =
  let rec go p = if p = t.me || not t.suspected.(p) then p else go (p + 1) in
  go 0

let heard_stamp t peer = t.heard_stamp.(peer)
