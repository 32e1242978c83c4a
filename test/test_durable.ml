(* Durability layer: WAL corruption discipline, snapshot atomicity, store
   rotation/GC/identity, and the typed persistence formats above them.

   The central property is longest-clean-prefix: however the on-disk bytes
   are damaged — truncation at any offset, a single flipped bit anywhere —
   the WAL reader returns a prefix of the records that were appended and
   never raises.  That is what makes crash recovery total. *)

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tb-durable-%d-%d" (Unix.getpid ()) !counter)
    in
    dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_dir f =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---- WAL: encode/decode and the corruption qcheck suite ---- *)

let encode_all records =
  let b = Buffer.create 256 in
  List.iter (Durable.Wal.encode_record b) records;
  Buffer.contents b

let is_prefix shorter longer =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> String.equal x y && go (xs, ys)
  in
  go (shorter, longer)

let records_gen =
  QCheck.Gen.(list_size (1 -- 12) (string_size (0 -- 40) ~gen:char))

let records_arb = QCheck.make ~print:(fun l -> String.concat "|" l) records_gen

let wal_roundtrip =
  QCheck.Test.make ~count:100 ~name:"wal: clean log reads back exactly"
    records_arb (fun records ->
      Durable.Wal.of_string (encode_all records) = records)

(* Truncate at EVERY byte offset: the reader must return a prefix of the
   original records at each cut, never raise.  A cut inside record k's
   encoding loses k and everything after; a cut between records loses
   only the suffix. *)
let wal_truncation =
  QCheck.Test.make ~count:60
    ~name:"wal: truncation at any offset yields a clean prefix" records_arb
    (fun records ->
      let blob = encode_all records in
      let ok = ref true in
      for cut = 0 to String.length blob do
        let got = Durable.Wal.of_string (String.sub blob 0 cut) in
        if not (is_prefix got records) then ok := false
      done;
      !ok)

(* Flip every single bit of the encoding in turn.  CRC-32 detects all
   1-bit errors in a payload; flips in the length or CRC fields break
   framing; all paths must degrade to a clean prefix. *)
let wal_bit_flips =
  QCheck.Test.make ~count:25
    ~name:"wal: any single-bit flip yields a clean prefix" records_arb
    (fun records ->
      let blob = encode_all records in
      let ok = ref true in
      for byte = 0 to String.length blob - 1 do
        for bit = 0 to 7 do
          let b = Bytes.of_string blob in
          Bytes.set b byte
            (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
          let got = Durable.Wal.of_string (Bytes.to_string b) in
          if not (is_prefix got records) then ok := false
        done
      done;
      !ok)

let test_wal_file_roundtrip_all_policies () =
  List.iter
    (fun fsync ->
      with_dir (fun dir ->
          Unix.mkdir dir 0o755;
          let path = Filename.concat dir "w.log" in
          let w = Durable.Wal.create ~path ~fsync in
          List.iter (Durable.Wal.append w) [ "a"; ""; "ccc" ];
          Alcotest.(check int)
            "records_written counts appends" 3
            (Durable.Wal.records_written w);
          Durable.Wal.close w;
          Alcotest.(check (list string))
            (Printf.sprintf "file roundtrip under %s"
               (Durable.Wal.fsync_to_string fsync))
            [ "a"; ""; "ccc" ]
            (Durable.Wal.read_file path)))
    [ Durable.Wal.Always; Durable.Wal.Interval 5_000; Durable.Wal.Never ]

let test_wal_missing_file_is_empty () =
  Alcotest.(check (list string))
    "missing file reads as empty log" []
    (Durable.Wal.read_file "/nonexistent/definitely/absent.log")

let test_fsync_of_string () =
  let ok s exp =
    match Durable.Wal.fsync_of_string s with
    | Ok f -> Alcotest.(check string) s exp (Durable.Wal.fsync_to_string f)
    | Error e -> Alcotest.failf "%s must parse, got %s" s e
  in
  ok "always" "always";
  ok "never" "never";
  ok "interval:250" "interval:250";
  (match Durable.Wal.fsync_of_string "sometimes" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk policy must be rejected")

(* ---- snapshots ---- *)

let test_snapshot_roundtrip () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "s.snap" in
      Durable.Snapshot.write ~path "the checkpoint";
      (match Durable.Snapshot.read path with
      | Some p -> Alcotest.(check string) "payload survives" "the checkpoint" p
      | None -> Alcotest.fail "fresh snapshot must read back");
      (* overwrite is atomic: the new payload replaces the old *)
      Durable.Snapshot.write ~path "v2";
      match Durable.Snapshot.read path with
      | Some p -> Alcotest.(check string) "overwrite wins" "v2" p
      | None -> Alcotest.fail "overwritten snapshot must read back")

let snapshot_corruption =
  QCheck.Test.make ~count:40
    ~name:"snapshot: any single-byte corruption reads as absent"
    QCheck.(string_of_size Gen.(1 -- 80))
    (fun payload ->
      with_dir (fun dir ->
          Unix.mkdir dir 0o755;
          let path = Filename.concat dir "s.snap" in
          Durable.Snapshot.write ~path payload;
          let blob =
            In_channel.with_open_bin path (fun ic ->
                really_input_string ic (in_channel_length ic))
          in
          let ok = ref true in
          for byte = 0 to String.length blob - 1 do
            let b = Bytes.of_string blob in
            Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor 0x40));
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_bytes oc b);
            if Durable.Snapshot.read path <> None then ok := false
          done;
          (* truncations too *)
          for cut = 0 to String.length blob - 1 do
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc (String.sub blob 0 cut));
            if Durable.Snapshot.read path <> None then ok := false
          done;
          !ok))

(* ---- store: identity, rotation, GC, recovery ---- *)

let meta = "timebounds replica=1 obj=3 n=3"

let open_store dir =
  match Durable.Store.open_ ~dir ~meta ~fsync:Durable.Wal.Always with
  | Ok (t, view) -> (t, view)
  | Error e -> Alcotest.failf "store open: %s" e

let test_store_fresh_then_restart () =
  with_dir (fun dir ->
      let t, view = open_store dir in
      Alcotest.(check bool) "first open is fresh" true
        view.Durable.Store.r_fresh;
      Alcotest.(check (list string)) "fresh store has no records" []
        view.Durable.Store.r_records;
      List.iter (Durable.Store.append t) [ "r0"; "r1"; "r2" ];
      Durable.Store.close t;
      let t2, view2 = open_store dir in
      Alcotest.(check bool) "reopen is a restart" false
        view2.Durable.Store.r_fresh;
      Alcotest.(check (list string))
        "appends survive close/reopen in order" [ "r0"; "r1"; "r2" ]
        view2.Durable.Store.r_records;
      Durable.Store.close t2)

let test_store_meta_mismatch_refused () =
  with_dir (fun dir ->
      let t, _ = open_store dir in
      Durable.Store.close t;
      match
        Durable.Store.open_ ~dir ~meta:"timebounds replica=2 obj=3 n=3"
          ~fsync:Durable.Wal.Always
      with
      | Error _ -> ()
      | Ok (t, _) ->
          Durable.Store.close t;
          Alcotest.fail "a different identity must refuse to open")

let test_store_rotation_and_gc () =
  with_dir (fun dir ->
      let t, _ = open_store dir in
      List.iter (Durable.Store.append t) [ "a"; "b" ];
      Durable.Store.snapshot t "snap covering a,b";
      Alcotest.(check int) "rotation bumps the generation" 1
        (Durable.Store.generation t);
      Alcotest.(check int) "rotation resets the cadence counter" 0
        (Durable.Store.records_since_snapshot t);
      List.iter (Durable.Store.append t) [ "c" ];
      Durable.Store.close t;
      (* old generation files are gone *)
      let files = Array.to_list (Sys.readdir dir) in
      Alcotest.(check bool) "wal-0 GC'd" false (List.mem "wal-0.log" files);
      let t2, view = open_store dir in
      (match view.Durable.Store.r_snapshot with
      | Some p ->
          Alcotest.(check string) "snapshot recovered" "snap covering a,b" p
      | None -> Alcotest.fail "snapshot must be recovered");
      Alcotest.(check (list string))
        "only the post-snapshot tail replays" [ "c" ]
        view.Durable.Store.r_records;
      Durable.Store.close t2)

let test_store_inspect () =
  with_dir (fun dir ->
      (match Durable.Store.inspect ~dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "inspect of a non-durable dir must fail");
      let t, _ = open_store dir in
      Durable.Store.append t "x";
      Durable.Store.close t;
      match Durable.Store.inspect ~dir with
      | Ok (m, view) ->
          Alcotest.(check string) "META round-trips" meta m;
          Alcotest.(check (list string)) "records visible" [ "x" ]
            view.Durable.Store.r_records
      | Error e -> Alcotest.failf "inspect: %s" e)

(* A torn final append (crash mid-write) must cost only the torn record. *)
let test_store_torn_tail () =
  with_dir (fun dir ->
      let t, _ = open_store dir in
      List.iter (Durable.Store.append t) [ "keep-1"; "keep-2" ];
      Durable.Store.close t;
      let wal = Filename.concat dir "wal-0.log" in
      let blob =
        In_channel.with_open_bin wal (fun ic ->
            really_input_string ic (in_channel_length ic))
      in
      Out_channel.with_open_bin wal (fun oc ->
          Out_channel.output_string oc blob;
          (* a torn append: length header promising more than is there *)
          Out_channel.output_string oc "\x20partial");
      let t2, view = open_store dir in
      Alcotest.(check (list string))
        "clean prefix survives the torn tail" [ "keep-1"; "keep-2" ]
        view.Durable.Store.r_records;
      Durable.Store.close t2)

(* ---- typed layer: Persist records and snapshots ---- *)

module P = Net.Persist.Make (Net.Wire.Kv_codec)

let test_persist_record_roundtrip () =
  let a =
    {
      P.op = Spec.Kv_map.Put (3, 44);
      time = 12_345;
      pid = 2;
      op_id = 99;
      result = Spec.Kv_map.Ack;
    }
  in
  (match P.decode_record (P.encode_record a) with
  | Some a' -> Alcotest.(check bool) "record round-trips" true (a = a')
  | None -> Alcotest.fail "clean record must decode");
  Alcotest.(check bool) "corrupt record decodes to None" true
    (P.decode_record "garbage \xff\xfe" = None);
  Alcotest.(check bool) "trailing bytes rejected" true
    (P.decode_record (P.encode_record a ^ "x") = None)

let test_persist_snapshot_and_replay () =
  let mk op time op_id =
    let result = snd (Spec.Kv_map.apply Spec.Kv_map.initial op) in
    { P.op; time; pid = 0; op_id; result }
  in
  let r1 = mk (Spec.Kv_map.Put (1, 10)) 100 7 in
  let r2 = mk (Spec.Kv_map.Put (2, 20)) 200 8 in
  let snap, _, _ = P.replay P.empty_snapshot [ P.encode_record r1 ] in
  Alcotest.(check int) "hwm follows replay" 100 snap.P.s_hwm_time;
  (* records at or below the base hwm are skipped; later ones apply *)
  let snap2, folded, skipped =
    P.replay snap [ P.encode_record r1; P.encode_record r2; "corrupt" ]
  in
  Alcotest.(check int) "replay advances past the base" 200 snap2.P.s_hwm_time;
  Alcotest.(check int) "duplicate below hwm skipped, corrupt tail stops" 2
    (List.length snap2.P.s_applied);
  Alcotest.(check (pair int int)) "one folded, one skipped" (1, 1)
    (folded, skipped);
  let encoded = P.encode_snapshot snap2 in
  match P.decode_snapshot encoded with
  | Some s ->
      Alcotest.(check bool) "snapshot round-trips" true (s = snap2);
      Alcotest.(check bool) "another object's payload rejected" true
        (let module PR = Net.Persist.Make (Net.Wire.Register_codec) in
         PR.decode_snapshot encoded = None)
  | None -> Alcotest.fail "clean snapshot must decode"

(* A WAL whose writer stamped one record below an earlier one — what a
   rerun that restarted its clock at 0 left behind: recovery folds the
   others and reports the one it skipped. *)
let test_persist_recover_counts_skipped () =
  with_dir (fun dir ->
      let t, _ = open_store dir in
      List.iter
        (fun (key, time) ->
          Durable.Store.append t
            (P.encode_record
               {
                 P.op = Spec.Kv_map.Put (key, key * 10);
                 time;
                 pid = 0;
                 op_id = 0;
                 result = Spec.Kv_map.Ack;
               }))
        [ (1, 200); (2, 100); (3, 300) ];
      Durable.Store.close t;
      let _, view = open_store dir in
      let snap, folded, skipped = P.recover view in
      Alcotest.(check (pair int int)) "two folded, one skipped" (2, 1)
        (folded, skipped);
      Alcotest.(check int) "the mark is the last folded stamp" 300
        snap.P.s_hwm_time;
      Alcotest.(check bool) "the skipped write is not in the object" true
        (Spec.Kv_map.apply snap.P.s_obj (Spec.Kv_map.Get 2)
        |> snd = Spec.Kv_map.Absent))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "durable"
    [
      ( "wal",
        qsuite [ wal_roundtrip; wal_truncation; wal_bit_flips ]
        @ [
            Alcotest.test_case "file roundtrip, all fsync policies" `Quick
              test_wal_file_roundtrip_all_policies;
            Alcotest.test_case "missing file is the empty log" `Quick
              test_wal_missing_file_is_empty;
            Alcotest.test_case "fsync policy parsing" `Quick
              test_fsync_of_string;
          ] );
      ( "snapshot",
        qsuite [ snapshot_corruption ]
        @ [
            Alcotest.test_case "write/read/overwrite" `Quick
              test_snapshot_roundtrip;
          ] );
      ( "store",
        [
          Alcotest.test_case "fresh boot vs restart" `Quick
            test_store_fresh_then_restart;
          Alcotest.test_case "identity mismatch refused" `Quick
            test_store_meta_mismatch_refused;
          Alcotest.test_case "rotation, checkpoint, GC" `Quick
            test_store_rotation_and_gc;
          Alcotest.test_case "offline inspect" `Quick test_store_inspect;
          Alcotest.test_case "torn tail costs only the tail" `Quick
            test_store_torn_tail;
        ] );
      ( "persist",
        [
          Alcotest.test_case "typed record roundtrip" `Quick
            test_persist_record_roundtrip;
          Alcotest.test_case "snapshot encode/decode + replay" `Quick
            test_persist_snapshot_and_replay;
          Alcotest.test_case "recovery counts records below the mark" `Quick
            test_persist_recover_counts_skipped;
        ] );
    ]
