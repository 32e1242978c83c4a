(* The X trade-off on the live replica code.

     dune exec examples/live_counter.exe

   A replicated counter (the register's self-commuting [Add] increment plus
   [Read]) served by three live Algorithm 1 replicas — the same replica
   code a TCP cluster runs — on the in-process virtual-time loop, with
   message delays drawn in [d − u, d] and closed-loop clients.  The run is
   repeated with X = 0 and with X at its maximum d + ε − u: Algorithm 1
   trades pure-mutator latency (ε + X) against pure-accessor latency
   (d + ε − X).  The replicas time their holds with the default 5 ms
   slack folded into d and u, so the histograms read the slacked bounds;
   linearizability is re-checked post hoc on each run. *)

module Gen = Runtime.Loadgen.Make (Runtime.Workloads.Counter_live)

let () =
  let n = 3 and d = 2000 and u = 500 in
  let eps = Core.Params.optimal_eps ~n ~u in
  let x_max = d + eps - u in
  let run x = Gen.run ~n ~d ~u ~eps ~x ~ops:240 ~mix:(50, 50, 0) ~seed:11 () in
  let at_zero = run 0 in
  let at_max = run x_max in
  Format.printf "%a@.@.%a@.@." Runtime.Loadgen.pp_report at_zero
    Runtime.Loadgen.pp_report at_max;
  let p50 r name =
    let c = List.find (fun (c : Runtime.Loadgen.class_report) ->
        String.equal c.class_name name) r.Runtime.Loadgen.classes
    in
    Runtime.Histogram.percentile c.hist 50.
  in
  Format.printf
    "X: 0 → %d shifts the p50s: increments (MOP) %dµs → %dµs, reads (AOP) \
     %dµs → %dµs@."
    x_max (p50 at_zero "MOP") (p50 at_max "MOP") (p50 at_zero "AOP")
    (p50 at_max "AOP");
  if not Runtime.Loadgen.(is_linearizable at_zero && is_linearizable at_max)
  then begin
    print_endline "a run was not linearizable!";
    exit 1
  end
