(** One seeded chaos experiment against the in-process cluster: compile a
    plan, run {!Runtime.Loadgen} under a {!Chaos_transport}, and correlate
    the linearizability verdict with the assumption-violation windows via
    {!Assumption_monitor}.

    Crash/restart rules are realised in-process as total network isolation
    of the replica during the outage (see {!Fault_plan}); the real
    SIGKILL-and-respawn variant lives in [Shard.Cluster].

    [ok r] is the chaos harness's pass criterion: the run is acceptable
    unless the monitor found a {e genuine} violation — one whose segment
    completed before any assumption was broken.  Linearizable, excused and
    inconclusive runs all pass (the CLI exits 0 for them). *)

type report = {
  run : Runtime.Loadgen.report;
  plan : Fault_plan.t;
  events : Chaos_transport.event list;  (** injected faults, in order *)
  canonical : string list;  (** {!Chaos_transport.canonical_log} *)
  injected : int * int * int;  (** drops, duplicates, delays *)
  violations : Assumption_monitor.violation list;
  assessment : Assumption_monitor.assessment;
}

val ok : report -> bool

val run :
  workload:(module Runtime.Workloads.LIVE) ->
  n:int ->
  d:int ->
  u:int ->
  ?eps:int ->
  ?x:int ->
  ?slack:int ->
  ?workers:int ->
  ?round:int ->
  ?mix:int * int * int ->
  ?recovery:bool ->
  ?fallback:Quorum.Config.t ->
  ?sync:Sync.Config.t ->
  plan:Fault_plan.t ->
  ops:int ->
  seed:int ->
  unit ->
  report
(** Parameters mirror {!Runtime.Loadgen.Make.run}; the plan supplies the
    skews, the transport wrapper and the fault windows.  [seed] drives the
    load generator; the plan carries its own seed.

    [recovery] (default false) arms the replicas' durable-recovery
    machinery: the plan's crash/restart instants additionally freeze and
    thaw the replica itself (not just its links), workers retry
    idempotently, and the monitor labels crash windows with their
    recovery deadline.  A crash/restart plan that is merely [Excused]
    without recovery is expected to come back [Safety_held] with it.

    [fallback] arms the adaptive quorum fallback on every replica (see
    {!Runtime.Loadgen.Make.run}).  Unlike [recovery] alone, the plan's
    {e permanent} kills ([restart_at = max_int]) are then realised too —
    the surviving majority degrades to quorum mode and the run is expected
    to stay linearizable and complete.  [pp_report] prints the resulting
    availability line (mode switches, time-to-switch after the kill).

    [sync] arms live clock synchronization on every replica (see
    {!Runtime.Loadgen.Make.run}): a plan's [skew] rules then inject
    exactly the clock error the estimator must measure — cut peers'
    achieved ε widens with sample age under a partition while the
    majority's stays tight. *)

val pp_report : Format.formatter -> report -> unit
