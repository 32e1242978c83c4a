(* Slicing-by-8: [tables] holds eight 256-entry tables back to back.
   Table 0 is the byte-wise table; entry [b] of table [k] is the register
   after feeding [b] and then [k] zero bytes, so the eight bytes of a
   block are looked up independently and their entries xor-ed. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let c = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(c land 0xff) lxor (c lsr 8)
    done
  done;
  t

external get32u : string -> int -> int32 = "%caml_string_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* The 4 bytes from [i], little-endian, unchecked. *)
let[@inline] le32 s i =
  let v = get32u s i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xffffffff

(* One range check, then unchecked reads: every table index is masked to
   a byte and offset by its table's base. *)
let update r s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update";
  let t = tables in
  let r = ref r and i = ref pos in
  let blocks_end = pos + (len land lnot 7) and stop = pos + len in
  while !i < blocks_end do
    let lo = !r lxor le32 s !i and hi = le32 s (!i + 4) in
    r :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + ((lo lsr 24) land 0xff))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xff))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    r :=
      Array.unsafe_get t ((!r lxor Char.code (String.unsafe_get s !i)) land 0xff)
      lxor (!r lsr 8);
    incr i
  done;
  !r

let sub s ~pos ~len = update 0xffffffff s ~pos ~len lxor 0xffffffff
let string s = sub s ~pos:0 ~len:(String.length s)
