type verdict = Within | Violated of int | Excused of string | Incomplete
type checked = { span : Span.t; bound_us : int; verdict : verdict }

type class_stats = {
  cls : int;
  bound_us : int;
  count : int;
  complete : int;
  p50_us : int;
  p99_us : int;
  max_us : int;
  mean_us : float;
  mean_hold_us : float;
  mean_wire_us : float option;
  mean_rqueue_us : float option;
  max_overshoot_us : int;
  violations : int;
  excused : int;
}

type report = {
  params : Core.Params.t;
  grace_us : int;
  spans : checked list;
  classes : class_stats list;
  total : int;
  incomplete : int;
  violations : int;
  excused : int;
  ring_drops : int;
  faults : int;
  mode_switches : int;
  suspect_transitions : int;
  quorum_spans : int;
  sync_rounds : int;
  measured_eps_us : int option;
  sheds : (string * int) list;
  shed_spans : int;
  lane_hwm : (string * int) list;
}

let bound_us (p : Core.Params.t) cls =
  if cls = Event.class_mutator then p.timing.mutator_wait
  else if cls = Event.class_accessor then p.timing.accessor_wait
  else p.d + p.eps

(* The same three formulas with a measured skew substituted for the
   configured ε — what the sync subsystem's [Sync_eps] stream attributes
   against.  The waits in [p.timing] are ε-affine (mutator ε + X,
   accessor d + ε − X), so substituting is a constant shift. *)
let bound_with_eps (p : Core.Params.t) cls eps =
  if cls = Event.class_mutator then p.timing.mutator_wait - p.eps + eps
  else if cls = Event.class_accessor then p.timing.accessor_wait - p.eps + eps
  else p.d + eps

(* Per-pid achieved-ε timelines from the [Sync_eps] stream: each replica
   publishes one sample per sync round; the checker interpolates between
   adjacent samples to price the skew at a span's invocation instant. *)
let sync_eps_timelines events =
  let tbl : (int, (int * int) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Event.t) ->
      if e.kind = Event.Sync_eps then
        let prev = try Hashtbl.find tbl e.pid with Not_found -> [] in
        Hashtbl.replace tbl e.pid ((e.t_us, e.a) :: prev))
    events;
  Hashtbl.fold
    (fun pid samples acc ->
      let arr = Array.of_list samples in
      Array.sort compare arr;
      (pid, arr) :: acc)
    tbl []
  |> List.sort compare

let measured_eps_at timelines ~pid ~t_us =
  match List.assoc_opt pid timelines with
  | None -> None
  | Some samples when Array.length samples = 0 -> None
  | Some samples ->
      let n = Array.length samples in
      let t0, e0 = samples.(0) and tn, en = samples.(n - 1) in
      if t_us <= t0 then Some e0
      else if t_us >= tn then Some en
      else begin
        (* Largest index with sample time ≤ t_us (n ≥ 2 here). *)
        let lo = ref 0 and hi = ref (n - 1) in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if fst samples.(mid) <= t_us then lo := mid else hi := mid
        done;
        let ta, ea = samples.(!lo) and tb, eb = samples.(!hi) in
        if tb = ta then Some ea
        else Some (ea + ((eb - ea) * (t_us - ta) / (tb - ta)))
      end

(* In quorum mode every operation costs two round trips — forward to the
   sequencer plus propose/ack — so the expectation is 4δ (δ ≤ d while the
   link bound holds), not the paper's fast-path bounds. *)
let quorum_bound_us (p : Core.Params.t) = (4 * p.d) + p.eps

(* Intervals during which the recording replicas ran in quorum mode,
   reconstructed from [Mode_switch] events.  Any replica being in quorum
   mode opens the window: spans route through the sequencer then, whatever
   pid recorded their invocation. *)
let quorum_windows events =
  let switches =
    List.filter (fun (e : Event.t) -> e.kind = Event.Mode_switch) events
    |> List.sort (fun (a : Event.t) b -> compare a.t_us b.t_us)
  in
  let rec go depth opened acc = function
    | [] -> if depth > 0 then List.rev ((opened, max_int) :: acc) else List.rev acc
    | (e : Event.t) :: rest ->
        if e.a = 1 then
          go (depth + 1) (if depth = 0 then e.t_us else opened) acc rest
        else if depth > 1 then go (depth - 1) opened acc rest
        else if depth = 1 then go 0 0 ((opened, e.t_us) :: acc) rest
        else go 0 0 acc rest
  in
  go 0 0 [] switches

let overlaps ~t_inv ~t_resp (_, from_us, until_us) =
  t_inv <= until_us && t_resp >= from_us

(* Traces that were shed at least once: the op still completed (the client
   replayed it), but its interval includes refusal round-trips and backoff
   the model's bounds never priced in — the lateness is the protection
   layer working, not a timing violation.  The sheds themselves are counted
   separately in the report, so nothing is silently dropped. *)
let shed_traces events =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (e : Event.t) ->
      if e.kind = Event.Shed && e.trace <> 0 then
        Hashtbl.replace tbl e.trace ())
    events;
  tbl

let check_span ~params ~grace_us ~windows ~qwindows ~timelines ~shed (s : Span.t)
    =
  let inside (from_us, until_us) = s.t_inv >= from_us && s.t_inv <= until_us in
  let in_quorum = List.exists inside qwindows in
  (* Measured skew takes precedence over the configured ε whenever the
     origin replica published sync rounds; replicas without sync events
     (sync off, or a pre-v6 trace) keep the configured bound. *)
  let eps =
    match measured_eps_at timelines ~pid:s.origin ~t_us:s.t_inv with
    | Some e -> e
    | None -> params.Core.Params.eps
  in
  let bound =
    if in_quorum then quorum_bound_us { params with Core.Params.eps }
    else bound_with_eps params s.cls eps
  in
  let verdict =
    match (s.t_resp, s.latency_us) with
    | None, _ | _, None -> Incomplete
    | Some t_resp, Some lat ->
        if lat <= bound + grace_us then Within
        else if
          (* A span that straddles a mode boundary paid the switch barrier
             (drain + re-route); neither mode's bound applies to it. *)
          (not in_quorum)
          && List.exists
               (fun (from_us, until_us) ->
                 t_resp >= from_us && s.t_inv <= until_us)
               qwindows
        then Excused "mode switch"
        else (
          match
            List.find_opt (overlaps ~t_inv:s.t_inv ~t_resp) windows
          with
          | Some (label, _, _) -> Excused label
          | None ->
              if Hashtbl.mem shed s.trace then Excused "shed"
              else Violated (lat - bound - grace_us))
  in
  { span = s; bound_us = bound; verdict }

let nearest_rank p sorted =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n /. 100.)))

let mean_opt = function
  | [] -> None
  | xs ->
      Some
        (float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs))

let class_stats_of cls checked =
  let mine = List.filter (fun c -> c.span.Span.cls = cls) checked in
  let complete = List.filter (fun c -> Span.complete c.span) mine in
  let lats =
    List.filter_map (fun c -> c.span.Span.latency_us) complete
    |> List.sort compare |> Array.of_list
  in
  let holds = List.map (fun c -> c.span.Span.hold_us) complete in
  let legs = List.concat_map (fun c -> c.span.Span.legs) complete in
  let bound = match mine with c :: _ -> c.bound_us | [] -> 0 in
  {
    cls;
    bound_us = bound;
    count = List.length mine;
    complete = List.length complete;
    p50_us = nearest_rank 50. lats;
    p99_us = nearest_rank 99. lats;
    max_us = (if Array.length lats = 0 then 0 else lats.(Array.length lats - 1));
    mean_us = Option.value ~default:0. (mean_opt (Array.to_list lats));
    mean_hold_us = Option.value ~default:0. (mean_opt holds);
    mean_wire_us = mean_opt (List.filter_map Span.wire_us legs);
    mean_rqueue_us = mean_opt (List.filter_map Span.remote_queue_us legs);
    max_overshoot_us =
      List.fold_left
        (fun acc c ->
          match c.span.Span.latency_us with
          | Some l -> max acc (l - c.span.Span.hold_us)
          | None -> acc)
        0 complete;
    violations =
      List.length
        (List.filter (fun c -> match c.verdict with Violated _ -> true | _ -> false) mine);
    excused =
      List.length
        (List.filter (fun c -> match c.verdict with Excused _ -> true | _ -> false) mine);
  }

let check ~params ?(grace_us = 0) ?(windows = []) events =
  let spans = Span.assemble events in
  let qwindows = quorum_windows events in
  let timelines = sync_eps_timelines events in
  let shed = shed_traces events in
  let checked =
    List.map
      (check_span ~params ~grace_us ~windows ~qwindows ~timelines ~shed)
      spans
  in
  let classes =
    List.sort_uniq compare (List.map (fun (s : Span.t) -> s.cls) spans)
    |> List.map (fun cls -> class_stats_of cls checked)
  in
  let count f = List.length (List.filter f checked) in
  {
    params;
    grace_us;
    spans = checked;
    classes;
    total = List.length checked;
    incomplete = count (fun c -> c.verdict = Incomplete);
    violations =
      count (fun c -> match c.verdict with Violated _ -> true | _ -> false);
    excused =
      count (fun c -> match c.verdict with Excused _ -> true | _ -> false);
    ring_drops =
      List.fold_left
        (fun acc (e : Event.t) ->
          if e.kind = Event.Drops then acc + e.a else acc)
        0 events;
    faults =
      List.length
        (List.filter (fun (e : Event.t) -> e.kind = Event.Fault) events);
    mode_switches =
      List.length
        (List.filter (fun (e : Event.t) -> e.kind = Event.Mode_switch) events);
    suspect_transitions =
      List.length
        (List.filter (fun (e : Event.t) -> e.kind = Event.Suspect) events);
    quorum_spans =
      List.length
        (List.filter
           (fun (c : checked) ->
             List.exists
               (fun (from_us, until_us) ->
                 c.span.Span.t_inv >= from_us && c.span.Span.t_inv <= until_us)
               qwindows)
           checked);
    sync_rounds =
      List.length
        (List.filter (fun (e : Event.t) -> e.kind = Event.Sync_eps) events);
    measured_eps_us =
      List.fold_left
        (fun acc (_, samples) ->
          Array.fold_left
            (fun acc (_, e) ->
              match acc with None -> Some e | Some m -> Some (max m e))
            acc samples)
        None timelines;
    sheds =
      (let per_reason = Array.make 3 0 in
       List.iter
         (fun (e : Event.t) ->
           if e.kind = Event.Shed then
             let r = if e.a >= 0 && e.a < 3 then e.a else 2 in
             per_reason.(r) <- per_reason.(r) + 1)
         events;
       List.filter_map
         (fun r ->
           if per_reason.(r) = 0 then None
           else Some (Event.shed_reason_name r, per_reason.(r)))
         [ 0; 1; 2 ]);
    shed_spans =
      List.length (List.filter (fun c -> c.verdict = Excused "shed") checked);
    lane_hwm =
      (let hwm = Array.make 2 0 in
       List.iter
         (fun (e : Event.t) ->
           if e.kind = Event.Queue_depth then
             let l = if e.a = Event.lane_ctrl then 0 else 1 in
             hwm.(l) <- max hwm.(l) e.b)
         events;
       List.filter_map
         (fun l ->
           if hwm.(l) = 0 then None else Some (Event.lane_name l, hwm.(l)))
         [ 0; 1 ]);
  }

let pp_verdict ppf = function
  | Within -> Format.pp_print_string ppf "ok"
  | Violated ex -> Format.fprintf ppf "VIOLATED(+%dus)" ex
  | Excused label -> Format.fprintf ppf "excused(%s)" label
  | Incomplete -> Format.pp_print_string ppf "incomplete"

let pp_checked ppf c =
  let s = c.span in
  Format.fprintf ppf
    "@[trace=%x p%d %-8s inv=%dus lat=%s hold=%dus legs=%d bound=%dus %a@]"
    s.Span.trace s.Span.origin
    (Event.class_name s.Span.cls)
    s.Span.t_inv
    (match s.Span.latency_us with Some l -> string_of_int l ^ "us" | None -> "-")
    s.Span.hold_us (List.length s.Span.legs) c.bound_us pp_verdict c.verdict

let pp_f_opt ppf = function
  | Some f -> Format.fprintf ppf "%7.0fus" f
  | None -> Format.fprintf ppf "%7s  " "-"

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>trace report: %d ops (%d incomplete), %d unexcused violation%s, %d \
     excused, %d ring-dropped event%s, %d fault injection%s@,\
     grace %dus on top of each bound (scheduler jitter allowance)@,"
    r.total r.incomplete r.violations
    (if r.violations = 1 then "" else "s")
    r.excused r.ring_drops
    (if r.ring_drops = 1 then "" else "s")
    r.faults
    (if r.faults = 1 then "" else "s")
    r.grace_us;
  if r.mode_switches > 0 then
    Format.fprintf ppf
      "quorum fallback: %d mode switch%s, %d suspicion transition%s, %d \
       op%s checked against the 4d+eps quorum bound@,"
      r.mode_switches
      (if r.mode_switches = 1 then "" else "es")
      r.suspect_transitions
      (if r.suspect_transitions = 1 then "" else "s")
      r.quorum_spans
      (if r.quorum_spans = 1 then "" else "s");
  (if r.sheds <> [] || r.lane_hwm <> [] then
     let total = List.fold_left (fun k (_, c) -> k + c) 0 r.sheds in
     Format.fprintf ppf
       "overload: %d shed event%s (%s)%s; %d completed span%s excused as \
        shed-then-retried@,"
       total
       (if total = 1 then "" else "s")
       (String.concat ", "
          (List.map (fun (w, c) -> Printf.sprintf "%s=%d" w c) r.sheds))
       (match r.lane_hwm with
       | [] -> ""
       | hwm ->
           "; lane hwm "
           ^ String.concat ", "
               (List.map (fun (l, d) -> Printf.sprintf "%s=%d" l d) hwm))
       r.shed_spans
       (if r.shed_spans = 1 then "" else "s"));
  (match r.measured_eps_us with
  | None -> ()
  | Some m ->
      Format.fprintf ppf
        "clock sync: %d round%s, measured eps max=%dus (configured %dus); \
         bounds attributed against the measured skew@,"
        r.sync_rounds
        (if r.sync_rounds = 1 then "" else "s")
        m r.params.Core.Params.eps;
      if m > r.params.Core.Params.eps then
        Format.fprintf ppf
          "WARNING: measured eps exceeds the configured bound — the \
           cluster ran outside its admissibility assumption@,");
  Format.fprintf ppf
    "  %-9s %5s %9s %8s %8s %8s %9s %9s %10s %10s %5s %7s@," "class" "ops"
    "bound" "p50" "p99" "max" "hold" "wire" "rqueue" "overshoot" "viol"
    "excused";
  List.iter
    (fun c ->
      Format.fprintf ppf
        "  %-9s %5d %7dus %6dus %6dus %6dus %7.0fus %a %a %8dus %5d %7d@,"
        (Event.class_name c.cls) c.count c.bound_us c.p50_us c.p99_us c.max_us
        c.mean_hold_us pp_f_opt c.mean_wire_us pp_f_opt c.mean_rqueue_us
        c.max_overshoot_us c.violations c.excused)
    r.classes;
  Format.fprintf ppf "@]"
