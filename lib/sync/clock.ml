(** A smoothly-slewed, never-backward logical clock.

    The replica's raw local clock (the loop's shared-clock µs plus its
    fixed configured offset) is corrected by an [applied] term
    that chases a [target] set by the estimator.  The correction is never
    stepped: each read moves [applied] toward [target] by at most
    [slew_ppm] parts-per-million of the raw time elapsed since the
    previous read, so the corrected clock's rate stays within
    (1 ± slew_ppm/10⁶) of real time.  A final clamp keeps readings
    non-decreasing even when the raw clock steps back.

    Single-owner: the replica event loop is the only caller, so no lock.
    All arithmetic is on OCaml's 63-bit ints — µs quantities cannot
    overflow it. *)

type t = {
  mutable applied : int;  (* correction currently reflected in readings *)
  mutable target : int;  (* correction the estimator wants *)
  mutable last_raw : int;  (* raw clock at the previous read *)
  mutable last_reading : int;  (* monotonicity clamp *)
  mutable initialized : bool;
}

(* 10% — fast enough to absorb a 2 ms skew in 20 ms of real time, gentle
   enough that timestamps drawn during the slew stay within the paper's
   rate model. *)
let slew_ppm = 100_000

let create () =
  {
    applied = 0;
    target = 0;
    last_raw = 0;
    last_reading = min_int;
    initialized = false;
  }

let read t ~now =
  if not t.initialized then begin
    t.last_raw <- now;
    t.initialized <- true
  end;
  let dt = max 0 (now - t.last_raw) in
  let budget = dt * slew_ppm / 1_000_000 in
  let diff = t.target - t.applied in
  let move = if diff >= 0 then min diff budget else -(min (-diff) budget) in
  t.applied <- t.applied + move;
  t.last_raw <- max t.last_raw now;
  let reading = max (now + t.applied) t.last_reading in
  t.last_reading <- reading;
  reading

let adjust t ~delta = t.target <- t.target + delta
let applied t = t.applied
let pending t = t.target - t.applied
