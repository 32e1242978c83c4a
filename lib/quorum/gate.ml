(** The fast path's response release gate (DESIGN.md §13).

    While the quorum fallback is armed, a fast-path response stamped [ts]
    must not be released until no peer the object might later abandon
    can be missing what the response depends on.  Two kinds of evidence
    count, per peer:

    - {e horizon}: the peer's heard clock stamp (its heartbeats, which it
      sends on request as well as on its tick) is at least
      [ts + d + ε].  The peer's clock reached that instant at least d
      after our broadcast left, so under the timing assumption it holds
      every entry broadcast at or below [ts] — ours and everyone else's.
    - {e receipt ack}: the peer answered our entry stamped [ts] with an
      ack.  That proves it holds {e that} entry and nothing more, which is
      exactly what a pure mutator (MOP) needs: its reply is
      state-independent, so the gate's only job is to make sure the
      effect survives.  Accessors (AOP) and other ops (OOP) answer from
      local state built of everyone's entries, so only the horizon frees
      them. *)

type t = { me : int; acked : int array }

let make ~n ~me =
  if n < 1 then invalid_arg "Gate.make: n must be >= 1";
  { me; acked = Array.make n min_int }

(* Stamps from one origin are distinct and its single in-flight op holds
   the newest, so keeping the maximum never hides the ack the gate wants;
   [passes] compares for equality, so an ack for a later or earlier entry
   never stands in for the held one. *)
let ack t ~peer ~stamp =
  if peer >= 0 && peer < Array.length t.acked && peer <> t.me
     && stamp > t.acked.(peer)
  then t.acked.(peer) <- stamp

let acked t peer = t.acked.(peer)

let passes ~n ~me ~mop ~stamp ~due ~acked ~heard =
  let rec go p =
    p >= n
    || ((p = me || heard p >= due || (mop && acked p = stamp)) && go (p + 1))
  in
  go 0

let ready t ~fd ~mop ~stamp ~due =
  passes ~n:(Array.length t.acked) ~me:t.me ~mop ~stamp ~due
    ~acked:(acked t)
    ~heard:(Failure_detector.heard_stamp fd)
