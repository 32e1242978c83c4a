type t = {
  dir : string;
  fsync : Wal.fsync;
  mutable wal : Wal.t;
  mutable generation : int;
  mutable closed : bool;
}

type recovered = {
  r_snapshot : string option;
  r_records : string list;
  r_generation : int;
  r_fresh : bool;
}

let wal_path dir g = Filename.concat dir (Printf.sprintf "wal-%d.log" g)
let snap_path dir g = Filename.concat dir (Printf.sprintf "snap-%d.snap" g)
let meta_path dir = Filename.concat dir "META"

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* Parse "wal-<g>.log" / "snap-<g>.snap" names; anything else is ignored
   (the .tmp of an interrupted snapshot in particular). *)
let generations dir =
  let scan prefix suffix name =
    let plen = String.length prefix and slen = String.length suffix in
    if
      String.length name > plen + slen
      && String.sub name 0 plen = prefix
      && String.sub name (String.length name - slen) slen = suffix
    then int_of_string_opt (String.sub name plen (String.length name - plen - slen))
    else None
  in
  let wals = ref [] and snaps = ref [] in
  (match Sys.readdir dir with
  | names ->
      Array.iter
        (fun name ->
          (match scan "wal-" ".log" name with
          | Some g -> wals := g :: !wals
          | None -> ());
          match scan "snap-" ".snap" name with
          | Some g -> snaps := g :: !snaps
          | None -> ())
        names
  | exception Sys_error _ -> ());
  (List.sort compare !wals, List.sort compare !snaps)

let read_meta dir =
  match
    let ic = open_in_bin (meta_path dir) in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> Some (String.trim contents)
  | exception Sys_error _ -> None

let write_meta dir meta =
  let tmp = meta_path dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (meta ^ "\n");
  close_out oc;
  Unix.rename tmp (meta_path dir)

(* Recovery plan: highest generation with a valid snapshot (validity means
   [Snapshot.read] accepts it), then every WAL generation >= it, in
   order.  With no valid snapshot, replay every WAL from generation 0. *)
let recover_view dir =
  let wals, snaps = generations dir in
  let snap =
    List.fold_left
      (fun best g ->
        match Snapshot.read (snap_path dir g) with
        | Some payload -> Some (g, payload)
        | None -> best)
      None snaps
  in
  let base = match snap with Some (g, _) -> g | None -> 0 in
  let records =
    wals
    |> List.filter (fun g -> g >= base)
    |> List.concat_map (fun g -> Wal.read_file (wal_path dir g))
  in
  let top = List.fold_left max base wals in
  {
    r_snapshot = Option.map snd snap;
    r_records = records;
    r_generation = top;
    r_fresh = false;
  }

let open_ ~dir ~meta ~fsync =
  mkdir_p dir;
  match read_meta dir with
  | Some existing when not (String.equal existing meta) ->
      Error
        (Printf.sprintf
           "durable dir %s belongs to %S, refusing to open as %S" dir existing
           meta)
  | existing ->
      if existing = None then write_meta dir meta;
      let view = { (recover_view dir) with r_fresh = existing = None } in
      let wal = Wal.create ~path:(wal_path dir view.r_generation) ~fsync in
      Ok
        ( {
            dir;
            fsync;
            wal;
            generation = view.r_generation;
            closed = false;
          },
          view )

let append t record = Wal.append t.wal record
let append_with t write = Wal.append_with t.wal write

let snapshot t payload =
  if not t.closed then begin
    (* Order matters: open the next generation first so every record not
       covered by [payload] lands in a file the GC spares, then
       checkpoint, then GC.  A crash at any point loses no acked record —
       at worst it leaves an extra WAL to replay. *)
    Wal.close t.wal;
    let g = t.generation + 1 in
    t.wal <- Wal.create ~path:(wal_path t.dir g) ~fsync:t.fsync;
    t.generation <- g;
    Snapshot.write ~path:(snap_path t.dir g) payload;
    let wals, snaps = generations t.dir in
    List.iter
      (fun k -> if k < g then try Sys.remove (wal_path t.dir k) with Sys_error _ -> ())
      wals;
    List.iter
      (fun k -> if k < g then try Sys.remove (snap_path t.dir k) with Sys_error _ -> ())
      snaps
  end

let generation t = t.generation
let records_since_snapshot t = Wal.records_written t.wal
let sync t = if not t.closed then Wal.sync t.wal

let close t =
  if not t.closed then begin
    t.closed <- true;
    Wal.close t.wal
  end

let inspect ~dir =
  match read_meta dir with
  | None -> Error (Printf.sprintf "%s: no META (not a durable dir)" dir)
  | Some meta -> Ok (meta, recover_view dir)
