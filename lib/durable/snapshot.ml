(* Layout: 8-byte magic, 4-byte big-endian CRC-32 of the payload, 4-byte
   big-endian payload length, payload.  The explicit length (rather than
   "rest of file") catches truncation without relying on the CRC alone. *)

(* Version 2: the payload's history is a dedup window, not every
   applied entry.  A version-1 payload (the whole history) still reads as
   a valid, wider window, so both are accepted. *)
let magic = "TBSNAP2\n"
let magic_v1 = "TBSNAP1\n"

let u32_be_put buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let u32_be_get s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let write ~path payload =
  let buf = Buffer.create (String.length payload + 16) in
  Buffer.add_string buf magic;
  u32_be_put buf (Prelude.Crc32.string payload);
  u32_be_put buf (String.length payload);
  Buffer.add_string buf payload;
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let s = Buffer.contents buf in
      let b = Bytes.unsafe_of_string s in
      let rec go off =
        if off < String.length s then
          go (off + Unix.write fd b off (String.length s - off))
      in
      go 0;
      Unix.fsync fd);
  Unix.rename tmp path

let read path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> None
  | contents ->
      let hdr = String.length magic + 8 in
      if String.length contents < hdr then None
      else if
        not
          (List.mem (String.sub contents 0 (String.length magic)) [ magic; magic_v1 ])
      then None
      else
        let crc = u32_be_get contents (String.length magic) in
        let len = u32_be_get contents (String.length magic + 4) in
        if len < 0 || String.length contents < hdr + len then None
        else
          if Prelude.Crc32.sub contents ~pos:hdr ~len <> crc then None
          else Some (String.sub contents hdr len)
