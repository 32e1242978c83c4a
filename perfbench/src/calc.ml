(** Measurement math of the live-stack benchmark: percentiles, the paper's
    class bounds under the exact replica parameters, per-op overhead and
    the per-layer latency ledger.  Pure, so the tests pin it down apart
    from the driver.

    Classes are indexed by their {!Obs.Event} class codes: 0 = pure
    mutator (MOP), 1 = pure accessor (AOP), 2 = other (OOP). *)

let class_names = [| "mop"; "aop"; "oop" |]

(* ---- order statistics ---- *)

(** [percentile xs q] for [q] in [[0, 1]]: linear interpolation between
    the closest ranks of the sorted sample (the median of an even-sized
    sample is the mean of the middle two).  [nan] on an empty sample. *)
let percentile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = percentile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

(** Samples strictly above [v] — the count that makes a tail percentile
    honest (it should be at least ten). *)
let count_beyond xs v =
  Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 xs

(** Which windows of a run to take timings from, given the CPU ticks the
    hypervisor stole from this machine in each: those at or below the
    first quartile of the windows' steal — at least a quarter of them,
    and all of them when nothing was stolen.  A neighbour's burst of load
    then moves the figures only when it covers most of a run. *)
let calm_windows steal =
  let q = percentile (Array.map float_of_int steal) 0.25 in
  Array.map (fun s -> float_of_int s <= q) steal

(* ---- the replicas' timing parameters and the paper's class bounds ---- *)

type timing = {
  n : int;
  d : int;  (** configured network delay bound, µs *)
  u : int;  (** configured delay uncertainty, µs *)
  eps : int;  (** clock-skew bound, µs — always passed explicitly *)
  x : int;  (** Algorithm 1's trade-off knob, µs *)
  slack : int;  (** scheduling headroom [serve] folds into d and u *)
}

(** The flags a [timebounds serve] replica receives for [t].  [--eps] is
    always explicit: [serve]'s default ε is (1 − 1/n)·u on the configured
    u, which the slack-inflated u of {!params} would not reproduce. *)
let timing_argv t =
  [
    "--d"; string_of_int t.d;
    "--u"; string_of_int t.u;
    "--eps"; string_of_int t.eps;
    "--x"; string_of_int t.x;
    "--slack"; string_of_int t.slack;
  ]

(** The parameters a replica started with {!timing_argv} runs Algorithm 1
    with — [serve] folds [slack] into d and u exactly like this. *)
let params t =
  Core.Params.make ~n:t.n ~d:(t.d + t.slack) ~u:(t.u + t.slack) ~eps:t.eps
    ~x:t.x ()

(** The mandated hold per class under [p] (ε+X, d+ε−X, d+ε): the bounds
    the trace analyzer checks spans against. *)
let class_bounds p = Array.init 3 (Obs.Analyze.bound_us p)

(** The timers a replica arms at the origin for one op of each class,
    summed — what [Obs.Span.hold_us] adds up.  An AOP arms its d+ε−X
    response hold; an OOP its entry's d−u add wait and then the u+ε
    execute wait that ends in the response, d+ε in all; a MOP its ε+X
    response hold plus the same two entry waits, which run on after the
    response.  So AOP and OOP equal their bounds and a MOP exceeds its
    bound by d+ε. *)
let armed_hold_us (p : Core.Params.t) =
  let t = p.Core.Params.timing in
  let entry = t.Core.Params.add_wait + t.Core.Params.execute_wait in
  [| t.Core.Params.mutator_wait + entry; t.Core.Params.accessor_wait; entry |]

(** Everything an operation took beyond the hold its class must take. *)
let overhead ~bound_us latency_us = latency_us -. float_of_int bound_us

(* ---- the latency ledger ---- *)

(** One traced operation, every figure in µs: the client-observed latency,
    the time spent inside [Client.send] and inside [Client.recv], and the
    replica's own Invoke → Respond span from the Obs trace. *)
type sample = { cls : int; lat : float; send : float; recv : float; span : float }

(** What the serving port added: the accept-thread hop, the mailbox
    hand-off to the replica loop and back, and both socket legs — the part
    of the client interval neither the client calls nor the replica span
    cover. *)
let port s = s.lat -. s.span -. s.send -. s.recv

(** Per class, the medians of the ledger's parts (send, recv, port, span)
    should add up to the median client latency; medians are not additive,
    so they close only when each layer is well behaved.  The result is the
    count-weighted absolute residual as a percentage of the count-weighted
    median latency; classes with no samples are skipped. *)
let ledger_gap_pct samples =
  let num = ref 0. and den = ref 0. in
  for cls = 0 to 2 do
    let of_cls = List.filter (fun s -> s.cls = cls) samples in
    let k = float_of_int (List.length of_cls) in
    if k > 0. then begin
      let med f = median (Array.of_list (List.map f of_cls)) in
      let parts =
        med (fun s -> s.send) +. med (fun s -> s.recv) +. med port
        +. med (fun s -> s.span)
      in
      let lat = med (fun s -> s.lat) in
      num := !num +. (k *. Float.abs (parts -. lat));
      den := !den +. (k *. lat)
    end
  done;
  if !den <= 0. then 0. else 100. *. !num /. !den
