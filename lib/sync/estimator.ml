(** Per-peer clock-offset estimation from probe samples.

    Two sample sources feed the same per-peer slot:

    - {b two-way} ping/pong probes (NTP-style): the prober records [t0]
      at send and [t1] at pong receipt; the peer echoes its receive and
      transmit readings [t_rx]/[t_tx].  The classic midpoint estimate
      θ = ((t_rx − t0) + (t_tx − t1)) / 2 errs by at most half the RTT
      asymmetry, so the sample's own uncertainty is
      ((t1 − t0) − (t_tx − t_rx)) / 2 — measured, not assumed;
    - {b one-way} heartbeat piggybacks: a timestamped heartbeat gives the
      Lundelius–Lynch midpoint estimate
      {!Clocksync.Lundelius_lynch.midpoint_estimate} (assumed delay
      d − u/2, error ≤ u/2).

    A new sample replaces the stored one when its uncertainty is no worse
    than the stored sample's *age-widened* uncertainty: every stored
    sample's error bound grows by [drift_ppm] of its age, which is what
    makes a partitioned peer's contribution to the achieved-ε estimate
    widen honestly while fresh peers stay tight.

    The correction fed to the slewed clock is the Lundelius–Lynch average
    ({!Clocksync.Lundelius_lynch.average_correction}) over all n slots
    with self = 0 and peers without a sample counted as 0, which degrades
    to "trust the configured epoch" when nothing has been heard. *)

type sample = {
  offset : int;  (* estimated peer_clock − my_clock at [at], µs *)
  uncertainty : int;  (* error bound of [offset] when taken, µs *)
  at : int;  (* local raw time the sample was taken, µs *)
}

type t = {
  n : int;
  me : int;
  samples : sample option array;  (* index = peer pid; [me] stays None *)
}

(* 250 ppm of relative drift allowance: a sample cut off by a partition
   widens by 250 µs per second of staleness — visible within one fault
   window, negligible between 50 ms probe rounds. *)
let drift_ppm = 250

let create ~n ~me () =
  if n <= 0 || me < 0 || me >= n then invalid_arg "Sync.Estimator.create";
  { n; me; samples = Array.make n None }

let widened (s : sample) ~now =
  s.uncertainty + (max 0 (now - s.at) * drift_ppm / 1_000_000)

let store t ~peer ~now (candidate : sample) =
  if peer <> t.me && peer >= 0 && peer < t.n then
    match t.samples.(peer) with
    | None -> t.samples.(peer) <- Some candidate
    | Some old ->
        if candidate.uncertainty <= widened old ~now then
          t.samples.(peer) <- Some candidate

let observe_two_way t ~peer ~now ~t0 ~t1 ~t_rx ~t_tx =
  let rtt = (t1 - t0) - (t_tx - t_rx) in
  if rtt >= 0 then
    let offset = ((t_rx - t0) + (t_tx - t1)) / 2 in
    store t ~peer ~now { offset; uncertainty = (rtt + 1) / 2; at = now }

let observe_one_way t ~peer ~now ~d ~u ~sent ~clock =
  let offset = Clocksync.Lundelius_lynch.midpoint_estimate ~d ~u ~sent ~clock in
  store t ~peer ~now { offset; uncertainty = (u + 1) / 2; at = now }

let correction t =
  let estimates =
    Array.to_list t.samples
    |> List.filter_map (Option.map (fun s -> s.offset))
  in
  Clocksync.Lundelius_lynch.average_correction ~n:t.n ~estimates

(* The clock absorbed a correction of [c]: stored offsets were measured
   against the pre-correction clock, so shift them to stay consistent and
   avoid re-applying the same correction next round. *)
let shift t ~by:c =
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some s -> t.samples.(i) <- Some { s with offset = s.offset - c })
    t.samples

let peer_bound ~now = function
  | None -> None
  | Some s -> Some (abs s.offset + widened s ~now)

let achieved_eps t ~now =
  Array.fold_left
    (fun acc s ->
      match peer_bound ~now s with None -> acc | Some b -> max acc b)
    0 t.samples

let peers t =
  Array.fold_left (fun k s -> if s = None then k else k + 1) 0 t.samples

let view t ~now =
  Array.mapi
    (fun i s ->
      if i = t.me then None
      else
        Option.map
          (fun smp ->
            (smp.offset, widened smp ~now, max 0 (now - smp.at)))
          s)
    t.samples
