type report = {
  run : Runtime.Loadgen.report;
  plan : Fault_plan.t;
  events : Chaos_transport.event list;
  canonical : string list;
  injected : int * int * int;
  violations : Assumption_monitor.violation list;
  assessment : Assumption_monitor.assessment;
}

let ok r =
  match r.assessment with
  | Assumption_monitor.Genuine _ -> false
  | Assumption_monitor.Safety_held _ | Assumption_monitor.Excused _
  | Assumption_monitor.Inconclusive _ ->
      true

let run ~workload:(module L : Runtime.Workloads.LIVE) ~n ~d ~u ?eps ?x ?slack
    ?workers ?round ?mix ?(recovery = false) ?fallback ?sync ~plan ~ops ~seed
    () =
  let module G = Runtime.Loadgen.Make (L) in
  let chaos = Chaos_transport.create plan in
  let skews = Fault_plan.skews plan ~n in
  let fault_windows =
    List.map (fun (_, f, u) -> (f, u)) (Fault_plan.windows plan)
  in
  (* The fallback needs the crash schedule too: a permanent kill
     ([restart_at = max_int]) is exactly the fault the degraded mode is
     for, so it must actually be realised against the replicas. *)
  let crashes =
    if recovery || fallback <> None then Fault_plan.crash_schedule plan
    else []
  in
  let run =
    G.run ~n ~d ~u ?eps ?x ?slack ?workers ?round ?mix ~skews
      ~fault:(Chaos_transport.decide chaos)
      ~fault_windows ~recovery ~crashes ?fallback ?sync ~ops ~seed ()
  in
  let violations =
    Assumption_monitor.violations ~recovery ~plan
      ~params:run.Runtime.Loadgen.params ~net_d:d
      ~offsets:run.Runtime.Loadgen.offsets ()
  in
  let assessment =
    Assumption_monitor.assess ~violations ~cuts:run.Runtime.Loadgen.cuts
      ~verdict:run.Runtime.Loadgen.verdict
  in
  {
    run;
    plan;
    events = Chaos_transport.events chaos;
    canonical = Chaos_transport.canonical_log chaos;
    injected = Chaos_transport.injected chaos;
    violations;
    assessment;
  }

let pp_report fmt r =
  let drops, dups, delays = r.injected in
  Format.fprintf fmt "@[<v>%a@,%a@,injected: %d dropped, %d duplicated, %d delayed@,"
    Fault_plan.pp r.plan Runtime.Loadgen.pp_report r.run drops dups delays;
  (* Availability under the fallback: when did the cluster first degrade
     relative to the first planned kill (time-to-switch), and did it get
     back to the fast path? *)
  (match r.run.Runtime.Loadgen.mode_switches with
  | [] -> ()
  | switches ->
      let entered = List.filter (fun (_, q, _) -> q) switches in
      let first_crash =
        List.fold_left
          (fun acc (_, crash_at, _) -> min acc crash_at)
          max_int
          (Fault_plan.crash_schedule r.plan)
      in
      Format.fprintf fmt "availability: %d mode switch%s" (List.length switches)
        (if List.length switches = 1 then "" else "es");
      (match (entered, first_crash) with
      | (at, _, _) :: _, c when c < max_int && at >= c ->
          Format.fprintf fmt "; first quorum entry %dµs after the kill"
            (at - c)
      | (at, _, _) :: _, _ ->
          Format.fprintf fmt "; first quorum entry at t=%dµs" at
      | [], _ -> ());
      let last_fast =
        match List.rev switches with (_, q, _) :: _ -> not q | [] -> false
      in
      if last_fast then Format.fprintf fmt "; fast path re-entered";
      Format.fprintf fmt "@,");
  (match r.violations with
  | [] -> Format.fprintf fmt "assumption violations: none@,"
  | vs ->
      Format.fprintf fmt "assumption violations:@,";
      List.iter
        (fun v -> Format.fprintf fmt "  %a@," Assumption_monitor.pp_violation v)
        vs);
  Format.fprintf fmt "chaos verdict: %a@]" Assumption_monitor.pp_assessment
    r.assessment
