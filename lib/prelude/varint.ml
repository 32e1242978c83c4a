let rec add_uint b n =
  if n land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr n)
  else begin
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    add_uint b (n lsr 7)
  end

let add_int b i = add_uint b ((i lsl 1) lxor (i asr 62))

let rec uint_size n = if n land lnot 0x7f = 0 then 1 else 1 + uint_size (n lsr 7)

let rec set_uint b pos n =
  if n land lnot 0x7f = 0 then Bytes.set b pos (Char.unsafe_chr n)
  else begin
    Bytes.set b pos (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    set_uint b (pos + 1) (n lsr 7)
  end

exception Malformed of string

type reader = { src : string; mutable pos : int }

(* Top-level, not a local closure: a read allocates nothing.  Shifts are
   multiples of 7, so 56 is the last one an [int] has bits for. *)
let rec uint_from r shift acc =
  if shift > 56 then raise (Malformed "varint overflow")
  else if r.pos >= String.length r.src then
    raise (Malformed "truncated payload")
  else
    let c = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then acc else uint_from r (shift + 7) acc

let get_uint r = uint_from r 0 0

let get_int r =
  let n = get_uint r in
  (n lsr 1) lxor (-(n land 1))
