let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* One range check, then unchecked reads: the table index is masked to a
   byte. *)
let update r s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update";
  let r = ref r in
  for i = pos to pos + len - 1 do
    r :=
      Array.unsafe_get table ((!r lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!r lsr 8)
  done;
  !r

let sub s ~pos ~len = update 0xffffffff s ~pos ~len lxor 0xffffffff
let string s = sub s ~pos:0 ~len:(String.length s)
