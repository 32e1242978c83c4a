type t = {
  hb_us : int;
  suspect_after : int;
  on_mode : quorum:bool -> epoch:int -> seq:int -> unit;
  on_suspect : peer:int -> suspected:bool -> unit;
}

(* Below 1 there is no detector: a zero period re-arms the heartbeat at
   one clock value forever and divides by zero in the detector's tick. *)
let make ?(hb_us = 2_500) ?(suspect_after = 40)
    ?(on_mode = fun ~quorum:_ ~epoch:_ ~seq:_ -> ())
    ?(on_suspect = fun ~peer:_ ~suspected:_ -> ()) () =
  if hb_us < 1 then invalid_arg "Quorum.Config.make: hb_us < 1";
  if suspect_after < 1 then invalid_arg "Quorum.Config.make: suspect_after < 1";
  { hb_us; suspect_after; on_mode; on_suspect }

let default = make ()

let timeout_us t = t.hb_us * t.suspect_after
