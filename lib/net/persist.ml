(** See the interface.  Both encodings reuse the codec's payload
    primitives (zigzag varints via {!Codec.Wr}/{!Codec.Rd}) and the
    per-object serialisers, so the durable format evolves with the wire
    format's object codecs and needs no parallel machinery. *)

module Make (O : Codec.OBJ_CODEC) = struct
  type applied = {
    op : O.D.op;
    time : int;
    pid : int;
    op_id : int;
    result : O.D.result;
  }

  type snapshot = {
    s_obj : O.D.state;
    s_hwm_time : int;
    s_hwm_pid : int;
    s_applied : applied list;
  }

  let empty_snapshot =
    { s_obj = O.D.initial; s_hwm_time = -1; s_hwm_pid = 0; s_applied = [] }

  let write_record b ~op ~time ~pid ~op_id ~result =
    O.write_op b op;
    Codec.Wr.int b time;
    Codec.Wr.int b pid;
    Codec.Wr.int b op_id;
    O.write_result b result

  let write_applied b a =
    write_record b ~op:a.op ~time:a.time ~pid:a.pid ~op_id:a.op_id
      ~result:a.result

  let read_applied r =
    let op = O.read_op r in
    let time = Codec.Rd.int r in
    let pid = Codec.Rd.int r in
    let op_id = Codec.Rd.int r in
    let result = O.read_result r in
    { op; time; pid; op_id; result }

  let encode_record a =
    let b = Buffer.create 32 in
    write_applied b a;
    Buffer.contents b

  let decode_record s =
    match
      let r = Codec.Rd.of_string s in
      let a = read_applied r in
      if Codec.Rd.at_end r then Some a else None
    with
    | v -> v
    | exception Codec.Bad_payload _ -> None

  let encode_snapshot s =
    let b = Buffer.create 256 in
    Codec.Wr.int b O.obj_tag;
    O.write_state b s.s_obj;
    Codec.Wr.int b s.s_hwm_time;
    Codec.Wr.int b s.s_hwm_pid;
    Codec.Wr.int b (List.length s.s_applied);
    List.iter (write_applied b) s.s_applied;
    Buffer.contents b

  let decode_snapshot s =
    match
      let r = Codec.Rd.of_string s in
      let tag = Codec.Rd.int r in
      if tag <> O.obj_tag then None
      else
        let s_obj = O.read_state r in
        let s_hwm_time = Codec.Rd.int r in
        let s_hwm_pid = Codec.Rd.int r in
        let count = Codec.Rd.int r in
        if count < 0 then None
        else begin
          let acc = ref [] in
          for _ = 1 to count do
            acc := read_applied r :: !acc
          done;
          if Codec.Rd.at_end r then
            Some
              { s_obj; s_hwm_time; s_hwm_pid; s_applied = List.rev !acc }
          else None
        end
    with
    | v -> v
    | exception Codec.Bad_payload _ -> None

  (* Fold the WAL tail into the checkpoint.  Records at or below the
     mark reached so far are skipped and counted — the count says when a
     writer stamped below what it had already logged — and the fold stops
     at the first undecodable record, extending the WAL layer's
     longest-clean-prefix discipline to the typed layer. *)
  let replay base records =
    let after_hwm s a =
      a.time > s.s_hwm_time || (a.time = s.s_hwm_time && a.pid > s.s_hwm_pid)
    in
    let rec go s rev_extra skipped = function
      | [] -> (s, rev_extra, skipped)
      | raw :: rest -> (
          match decode_record raw with
          | None -> (s, rev_extra, skipped)
          | Some a ->
              if after_hwm s a then
                let obj, _ = O.D.apply s.s_obj a.op in
                go
                  {
                    s with
                    s_obj = obj;
                    s_hwm_time = a.time;
                    s_hwm_pid = a.pid;
                  }
                  (a :: rev_extra) skipped rest
              else go s rev_extra (skipped + 1) rest)
    in
    let s, rev_extra, skipped = go base [] 0 records in
    ( { s with s_applied = s.s_applied @ List.rev rev_extra },
      List.length rev_extra,
      skipped )

  let recover (r : Durable.Store.recovered) =
    let base =
      match r.Durable.Store.r_snapshot with
      | None -> empty_snapshot
      | Some payload -> (
          match decode_snapshot payload with
          | Some s -> s
          | None -> empty_snapshot)
    in
    replay base r.Durable.Store.r_records

  let recovered_of r =
    let s, _, _ = recover r in
    s
end
