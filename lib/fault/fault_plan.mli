(** Deterministic, seed-driven fault schedules.

    A plan is compiled from a small declarative spec and an integer seed.
    Every probabilistic choice (does rule [r] drop message [k] on link
    [i → j]?) is a {e stateless} hash of [(seed, rule, src, dst, index)] —
    not a stateful RNG stream — so a decision does not depend on the wall
    clock, on the order links are asked in, or on how many other links
    exist.  Same seed ⇒ same per-link fault sequence, which is what makes a
    chaos run reproducible (the acceptance bar for the whole layer).

    {2 Spec grammar}

    {v
    plan    := rule (';' rule)*
    rule    := name '(' args ')' [ '/' link ] [ '%' shard ] [ '@' window ]
    name    := drop | dup | spike | jitter | partition | crash | restart
             | skew | flood
    link    := src '>' dst          src, dst := pid | '*'
    shard   := shard id (sharded hosts only; see {!for_shard})
    window  := time [ '-' time ]    time := number ['us'|'ms'|'s']
    v}

    - [drop(P)] — lose each matching message with probability P % ;
    - [dup(P)] — deliver a second copy with probability P % ;
    - [spike(E)] — add E µs of delay to every matching message (E > 0
      breaks the [≤ d] bound by construction);
    - [jitter(M)] — add a hash-uniform delay in [[0, M]] µs (reorders
      messages across a link, and breaks [≤ d] when it fires > 0);
    - [partition(a,b|c,d)] — drop every message between the two replica
      groups (both directions);
    - [crash(P)] — replica P crashes at the window start.  In-process
      runs realise this as total isolation (every message to or from
      P is dropped) until the matching [restart(P)]; the process cluster
      SIGKILLs the replica's OS process;
    - [restart(P)] — replica P comes back at the window start (supervised
      respawn in the process cluster, end of isolation in-process);
    - [skew(P,O)] — add O µs to replica P's clock offset for the whole run
      (windows are ignored: clocks do not jump in the model);
    - [flood(K)] — deliver K copies of {e every} matching message while the
      window is active: a deterministic K× saturation attack (not a coin
      flip) on the receiver's links, mailbox and admission budget.  The
      overload-protection layer must keep control traffic (heartbeats, sync
      probes) flowing and shed data visibly — see DESIGN.md §15.

    A rule without [@window] is active for the whole run; [@t] alone marks
    an instant (used by crash/restart).  Times are run-relative µs. *)

type link_filter = { from_ : int option; to_ : int option }
(** [None] = any endpoint. *)

type kind =
  | Drop of int  (** percent *)
  | Duplicate of int  (** percent *)
  | Delay_spike of int  (** extra µs added to every matching message *)
  | Jitter of int  (** extra µs drawn hash-uniformly in [[0, max]] *)
  | Partition of int list * int list
  | Crash of int  (** replica pid *)
  | Restart of int  (** replica pid *)
  | Skew of int * int  (** pid, extra clock offset µs *)
  | Flood of int  (** amplification factor K ≥ 1; every message ×K *)

type rule = {
  id : int;  (** position in the spec, part of the hash salt *)
  kind : kind;
  link : link_filter;
  shard : int option;
      (** [%k] scope: the rule only applies to shard [k]'s sends on a
          sharded host; [None] = every shard (and every unsharded run) *)
  from_us : int;
  until_us : int;  (** [max_int] = open-ended *)
}

type t
(** A compiled plan: rules + seed (+ the crash/restart pairing). *)

val parse : string -> (rule list, string) result
(** Parse a spec; never raises.  The empty string is the empty plan. *)

val compile : seed:int -> spec:string -> (t, string) result
val empty : seed:int -> t

val seed : t -> int
val spec_text : t -> string
val rules : t -> rule list
val is_empty : t -> bool

val rule_label : rule -> string
(** Short stable label, e.g. ["drop(30%)#0"] — used in fault logs and
    violation windows. *)

val for_shard : t -> int -> t
(** The plan as seen by shard [k] of a sharded host: unscoped rules plus
    those scoped [%k], with rule ids (the hash salt) preserved so the
    surviving rules flip the same per-message coins as in the full plan.
    A sharded host decides shard [k]'s sends with
    [Chaos_transport.create (for_shard plan k)] — and skips the decision
    entirely when the projection {!is_empty}. *)

type decision = {
  drop : string option;  (** [Some label] when the message must be lost *)
  extra_us : int;  (** total injected extra delay (0 = on time) *)
  copies : int;  (** ≥ 1; > 1 when a duplication rule fired *)
}

val deliver : decision
(** The no-fault decision. *)

val decide : t -> now_us:int -> src:int -> dst:int -> index:int -> decision
(** What happens to the [index]-th message ever offered on link
    [src → dst] at run time [now_us].  Pure: same arguments ⇒ same
    decision. *)

val skews : t -> n:int -> int array
(** Per-replica injected clock offsets (sum of matching [skew] rules). *)

val crash_schedule : t -> (int * int * int) list
(** [(pid, crash_at, restart_at)] per crash rule, in crash order;
    [restart_at = max_int] when no later [restart(pid)] exists. *)

val windows : t -> (string * int * int) list
(** Every rule's activity window as [(label, from, until)] — delay rules
    are extended by their injected maximum so a message {e sent} at the
    window edge is still attributed to it.  Feed these to
    [Runtime.Loadgen]'s [fault_windows] and to the assumption monitor. *)

val pp : Format.formatter -> t -> unit
