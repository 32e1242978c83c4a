(** See the interface for the record format.  The length prefix is an
    {e unsigned} LEB128 (lengths are never negative, and an unsigned
    varint cannot alias a plausible huge value through zigzag folding);
    the CRC is fixed-width so a flipped bit in the checksum itself is as
    detectable as one in the payload. *)

type fsync = Always | Interval of int | Never

let default_interval_us = 5_000

let fsync_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "interval" -> Ok (Interval default_interval_us)
  | s -> (
      match String.index_opt s ':' with
      | Some i
        when String.sub s 0 i = "interval" -> (
          let v = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt v with
          | Some n when n > 0 -> Ok (Interval n)
          | _ -> Error (Printf.sprintf "bad fsync interval %S" v))
      | _ ->
          Error
            (Printf.sprintf
               "bad fsync policy %S (want always|interval[:US]|never)" s))

let fsync_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval n -> Printf.sprintf "interval:%d" n

(* A record longer than this is damage, not data: the length prefix of a
   real record is bounded by what [append] accepts. *)
let max_record = 1 lsl 24

let put_uleb buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let byte = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (byte lor 0x80))
  done

let get_uleb s ~pos =
  let len = String.length s in
  let rec go pos shift acc =
    if pos >= len || shift > 56 then None
    else
      let byte = Char.code s.[pos] in
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 = 0 then Some (acc, pos + 1) else go (pos + 1) (shift + 7) acc
  in
  go pos 0 0

let encode_record buf payload =
  put_uleb buf (String.length payload);
  let crc = Prelude.Crc32.string payload in
  Buffer.add_char buf (Char.chr ((crc lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((crc lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((crc lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (crc land 0xff));
  Buffer.add_string buf payload

(* ---- writer ---- *)

type t = {
  fd : Unix.file_descr;
  policy : fsync;
  mutable dirty : bool;  (** bytes written since the last fsync *)
  mutable last_sync_us : int;
  mutable written : int;
  mutable closed : bool;
  payload : Buffer.t;  (** the record being appended, reused *)
  mutable frame : Bytes.t;  (** its on-disk encoding, reused *)
}

let create ~path ~fsync =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  {
    fd;
    policy = fsync;
    dirty = false;
    last_sync_us = 0;
    written = 0;
    closed = false;
    payload = Buffer.create 64;
    frame = Bytes.create 80;
  }

let do_sync t =
  if t.dirty then begin
    Unix.fsync t.fd;
    t.dirty <- false;
    t.last_sync_us <- Prelude.Mclock.now_us ()
  end

let sync t = if not t.closed then do_sync t

let write_all fd b len =
  let rec go off = if off < len then go (off + Unix.write fd b off (len - off)) in
  go 0

let rec uleb_len n = if n < 0x80 then 1 else 1 + uleb_len (n lsr 7)

let rec put_uleb_bytes b pos n =
  if n < 0x80 then Bytes.unsafe_set b pos (Char.unsafe_chr n)
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    put_uleb_bytes b (pos + 1) (n lsr 7)
  end

(* Frame [t.payload] into [t.frame] — length, CRC, payload, as
   {!encode_record} lays it out — and write it with one call. *)
let write_payload t =
  let len = Buffer.length t.payload in
  if len > max_record then invalid_arg "Wal.append: record too large";
  let hdr = uleb_len len + 4 in
  if Bytes.length t.frame < hdr + len then
    t.frame <- Bytes.create (2 * (hdr + len));
  put_uleb_bytes t.frame 0 len;
  Buffer.blit t.payload 0 t.frame hdr len;
  let crc = Prelude.Crc32.sub (Bytes.unsafe_to_string t.frame) ~pos:hdr ~len in
  Bytes.set_int32_be t.frame (hdr - 4) (Int32.of_int crc);
  write_all t.fd t.frame (hdr + len)

let append_with t write =
  if t.closed then invalid_arg "Wal.append: closed";
  Buffer.clear t.payload;
  write t.payload;
  write_payload t;
  t.written <- t.written + 1;
  t.dirty <- true;
  match t.policy with
  | Always -> do_sync t
  | Never -> ()
  | Interval us ->
      if Prelude.Mclock.now_us () - t.last_sync_us >= us then do_sync t

let append t payload = append_with t (fun b -> Buffer.add_string b payload)
let records_written t = t.written

let close t =
  if not t.closed then begin
    (match t.policy with Never -> () | Always | Interval _ -> do_sync t);
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* ---- reader ---- *)

let of_string s =
  let len = String.length s in
  let rec go pos acc =
    if pos >= len then List.rev acc
    else
      match get_uleb s ~pos with
      | None -> List.rev acc
      | Some (rlen, pos) ->
          if rlen < 0 || rlen > max_record || pos + 4 + rlen > len then
            List.rev acc
          else
            let crc =
              (Char.code s.[pos] lsl 24)
              lor (Char.code s.[pos + 1] lsl 16)
              lor (Char.code s.[pos + 2] lsl 8)
              lor Char.code s.[pos + 3]
            in
            if Prelude.Crc32.sub s ~pos:(pos + 4) ~len:rlen <> crc then
              List.rev acc
            else go (pos + 4 + rlen) (String.sub s (pos + 4) rlen :: acc)
  in
  go 0 []

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> of_string contents
  | exception Sys_error _ -> []
