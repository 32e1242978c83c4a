(* Unit and property tests for the prelude: time, timestamps, the leftist
   heap, the deterministic PRNG, and the enumeration helpers. *)

module H = Prelude.Heap.Make (Int)

let test_ticks () =
  Alcotest.(check int) "add" 30 Prelude.Ticks.(10 + 20);
  Alcotest.(check int) "sub" (-10) Prelude.Ticks.(10 - 20);
  Alcotest.(check bool) "lt" true Prelude.Ticks.(3 < 4);
  Alcotest.(check bool) "ge" true Prelude.Ticks.(4 >= 4);
  Alcotest.(check bool) "infinity dominates" true
    Prelude.Ticks.(1_000_000_000 < Prelude.Ticks.infinity);
  Alcotest.(check string) "pp" "42t" (Prelude.Ticks.to_string 42)

let stamp t pid = Prelude.Stamp.make ~time:t ~pid

let test_stamp_order () =
  Alcotest.(check bool) "time dominates" true Prelude.Stamp.(stamp 1 9 < stamp 2 0);
  Alcotest.(check bool) "pid breaks ties" true Prelude.Stamp.(stamp 5 1 < stamp 5 2);
  Alcotest.(check bool) "equal" true (Prelude.Stamp.equal (stamp 5 1) (stamp 5 1));
  Alcotest.(check bool) "le reflexive" true Prelude.Stamp.(stamp 5 1 <= stamp 5 1)

let test_heap_basics () =
  let h = H.of_list [ 5; 3; 8; 1; 9; 2 ] in
  Alcotest.(check int) "size" 6 (H.size h);
  Alcotest.(check (option int)) "min" (Some 1) (H.find_min h);
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 8; 9 ] (H.to_sorted_list h);
  Alcotest.(check bool) "empty" true (H.is_empty H.empty);
  Alcotest.(check (option int)) "empty min" None (H.find_min H.empty)

let test_heap_pop_while () =
  let h = H.of_list [ 5; 3; 8; 1 ] in
  let popped, rest = H.pop_while (fun x -> x < 5) h in
  Alcotest.(check (list int)) "popped ascending" [ 1; 3 ] popped;
  Alcotest.(check (list int)) "rest" [ 5; 8 ] (H.to_sorted_list rest);
  let all, empty = H.pop_while (fun _ -> true) h in
  Alcotest.(check (list int)) "pop all" [ 1; 3; 5; 8 ] all;
  Alcotest.(check bool) "emptied" true (H.is_empty empty)

let heap_sorted_prop =
  QCheck.Test.make ~name:"heap to_sorted_list sorts any list" ~count:200
    QCheck.(list int)
    (fun xs -> H.to_sorted_list (H.of_list xs) = List.sort compare xs)

let heap_delete_min_prop =
  QCheck.Test.make ~name:"heap delete_min returns the minimum" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) int)
    (fun xs ->
      match H.delete_min (H.of_list xs) with
      | Some (m, rest) ->
          m = List.fold_left min (List.hd xs) xs && H.size rest = List.length xs - 1
      | None -> false)

let test_rng_determinism () =
  let a = Prelude.Rng.make 42 and b = Prelude.Rng.make 42 in
  let xs g = List.init 20 (fun _ -> Prelude.Rng.int g 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (xs a) (xs b)

let rng_bounds_prop =
  QCheck.Test.make ~name:"rng int_in stays in range" ~count:500
    QCheck.(pair small_int (pair small_int small_nat))
    (fun (seed, (lo, width)) ->
      let g = Prelude.Rng.make seed in
      let v = Prelude.Rng.int_in g ~lo ~hi:(lo + width) in
      v >= lo && v <= lo + width)

let shuffle_perm_prop =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list int))
    (fun (seed, xs) ->
      let g = Prelude.Rng.make seed in
      List.sort compare (Prelude.Rng.shuffle g xs) = List.sort compare xs)

(* The byte-wise register update, straight from the polynomial. *)
let crc_reference r s ~pos ~len =
  let r = ref r in
  for i = pos to pos + len - 1 do
    r := !r lxor Char.code s.[i];
    for _ = 0 to 7 do
      r := if !r land 1 = 1 then 0xedb88320 lxor (!r lsr 1) else !r lsr 1
    done
  done;
  !r

let test_crc32_vectors () =
  Alcotest.(check int) "check value" 0xcbf43926 (Prelude.Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Prelude.Crc32.string "");
  Alcotest.(check int) "a 4 KiB block"
    (crc_reference 0xffffffff (String.make 4096 'x') ~pos:0 ~len:4096
    lxor 0xffffffff)
    (Prelude.Crc32.string (String.make 4096 'x'));
  Alcotest.check_raises "a range past the end" (Invalid_argument "Crc32.update")
    (fun () -> ignore (Prelude.Crc32.sub "abc" ~pos:2 ~len:2))

(* Any string up to 64 KiB, any range of it (so unaligned starts and
   ragged tails), folded in two pieces from any register. *)
let crc32_reference_prop =
  let gen =
    QCheck.Gen.(
      string_size ~gen:char (int_range 0 65536) >>= fun s ->
      let n = String.length s in
      int_range 0 n >>= fun pos ->
      int_range 0 (n - pos) >>= fun len ->
      int_range 0 len >>= fun cut ->
      int_range 0 0xffffffff >|= fun r -> (s, pos, len, cut, r))
  in
  let print (s, pos, len, cut, r) =
    Printf.sprintf "%d bytes, pos %d, len %d, cut %d, register %#x"
      (String.length s) pos len cut r
  in
  QCheck.Test.make ~name:"slicing-by-8 matches the byte-wise update" ~count:300
    (QCheck.make ~print gen)
    (fun (s, pos, len, cut, r) ->
      let open Prelude.Crc32 in
      let two =
        update (update r s ~pos ~len:cut) s ~pos:(pos + cut) ~len:(len - cut)
      in
      update r s ~pos ~len = crc_reference r s ~pos ~len
      && two = crc_reference r s ~pos ~len)

let test_permutations () =
  let p = Prelude.Combinatorics.permutations [ 1; 2; 3 ] in
  Alcotest.(check int) "3! perms" 6 (List.length p);
  Alcotest.(check int) "all distinct" 6 (List.length (List.sort_uniq compare p));
  List.iter
    (fun perm ->
      Alcotest.(check (list int)) "is permutation" [ 1; 2; 3 ] (List.sort compare perm))
    p;
  Alcotest.(check (list (list int))) "empty" [ [] ] (Prelude.Combinatorics.permutations [])

let test_combinations () =
  let c = Prelude.Combinatorics.combinations 2 [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "C(4,2)" 6 (List.length c);
  Alcotest.(check bool) "contains [1;3]" true (List.mem [ 1; 3 ] c);
  Alcotest.(check (list (list int))) "k=0" [ [] ] (Prelude.Combinatorics.combinations 0 [ 1 ]);
  Alcotest.(check (list (list int))) "k too big" [] (Prelude.Combinatorics.combinations 3 [ 1; 2 ])

let test_ordered_pairs () =
  Alcotest.(check int) "cartesian size" 6
    (List.length (Prelude.Combinatorics.ordered_pairs [ 1; 2 ] [ 'a'; 'b'; 'c' ]))

(* ---- Os.poll ---- *)

let pairs k =
  Array.init k (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)

let close_pairs ps =
  Array.iter
    (fun (a, b) ->
      Unix.close a;
      Unix.close b)
    ps

let poll_of fds ~events ~timeout_ns =
  let revents = Array.make (Array.length fds) (-1) in
  let r =
    Prelude.Os.poll fds ~events ~revents ~count:(Array.length fds) ~timeout_ns
  in
  (r, revents)

let test_poll_per_fd () =
  let ps = pairs 4 in
  let reads = Array.map fst ps in
  List.iter
    (fun i -> ignore (Unix.write_substring (snd ps.(i)) "x" 0 1))
    [ 0; 2; 3 ];
  let events = Array.make 4 Prelude.Os.pollin in
  let r, rev = poll_of reads ~events ~timeout_ns:0 in
  Alcotest.(check int) "three ready" 3 r;
  Array.iteri
    (fun i re ->
      Alcotest.(check bool)
        (Printf.sprintf "fd %d readiness" i)
        (i <> 1)
        (re land Prelude.Os.pollin <> 0))
    rev;
  (* events = 0 asks for nothing: a readable fd is not reported *)
  events.(0) <- 0;
  let r, rev = poll_of reads ~events ~timeout_ns:0 in
  Alcotest.(check int) "only what was asked" 2 r;
  Alcotest.(check int) "fd 0 silent" 0 rev.(0);
  (* a closed peer reads as readable (EOF) and as an error *)
  Unix.close (snd ps.(1));
  let r, rev = poll_of [| reads.(1) |] ~events:[| Prelude.Os.pollin |] ~timeout_ns:0 in
  Alcotest.(check int) "hang-up is ready" 1 r;
  Alcotest.(check bool) "hang-up reads" true (rev.(0) land Prelude.Os.pollin <> 0);
  Unix.close reads.(1);
  Array.iteri (fun i (a, b) -> if i <> 1 then (Unix.close a; Unix.close b)) ps

let test_poll_pollout_full () =
  let ps = pairs 1 in
  let a, b = ps.(0) in
  Unix.set_nonblock a;
  let chunk = Bytes.make 4096 'z' in
  let rec fill () =
    match Unix.write a chunk 0 4096 with
    | _ -> fill ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  fill ();
  let r, rev = poll_of [| a |] ~events:[| Prelude.Os.pollout |] ~timeout_ns:0 in
  Alcotest.(check int) "full buffer is not writable" 0 r;
  Alcotest.(check int) "no readiness reported" 0 rev.(0);
  Unix.set_nonblock b;
  let rec drain () =
    match Unix.read b chunk 0 4096 with
    | 0 -> ()
    | _ -> drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  drain ();
  let r, rev =
    poll_of [| a |] ~events:[| Prelude.Os.pollout |] ~timeout_ns:1_000_000_000
  in
  Alcotest.(check int) "drained buffer is writable" 1 r;
  Alcotest.(check bool) "POLLOUT reported" true
    (rev.(0) land Prelude.Os.pollout <> 0);
  close_pairs ps

let test_poll_timeout () =
  let ps = pairs 3 in
  let reads = Array.map fst ps in
  let events = Array.make 3 Prelude.Os.pollin in
  List.iter
    (fun ms ->
      let t0 = Prelude.Mclock.now_us () in
      let r, _ = poll_of reads ~events ~timeout_ns:(ms * 1_000_000) in
      let took = Prelude.Mclock.now_us () - t0 in
      Alcotest.(check int) "timed out" 0 r;
      Alcotest.(check bool)
        (Printf.sprintf "waited the full %d ms (took %d us)" ms took)
        true
        (took >= ms * 1000))
    [ 1; 20; 60 ];
  (* a write mid-wait ends it early *)
  let writer =
    Thread.create
      (fun () ->
        Prelude.Mclock.sleep_us 30_000;
        ignore (Unix.write_substring (snd ps.(2)) "x" 0 1))
      ()
  in
  let t0 = Prelude.Mclock.now_us () in
  let r, rev = poll_of reads ~events ~timeout_ns:5_000_000_000 in
  let took = Prelude.Mclock.now_us () - t0 in
  Thread.join writer;
  Alcotest.(check int) "woken by data" 1 r;
  Alcotest.(check bool) "the written fd" true (rev.(2) land Prelude.Os.pollin <> 0);
  Alcotest.(check bool) "well before the timeout" true (took < 2_000_000);
  close_pairs ps

(* A signal ends the wait at once and its OCaml handler has already run
   when [poll] returns — what lets [serve] stop on SIGINT within a cycle.
   The sending thread blocks the signal, so the kernel delivers it to the
   polling thread. *)
let test_poll_signal () =
  let got = Atomic.make false in
  let old =
    Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> Atomic.set got true))
  in
  let ps = pairs 1 in
  let killer =
    Thread.create
      (fun () ->
        ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigusr1 ]);
        Prelude.Mclock.sleep_us 50_000;
        Unix.kill (Unix.getpid ()) Sys.sigusr1)
      ()
  in
  let t0 = Prelude.Mclock.now_us () in
  let r, _ =
    poll_of [| fst ps.(0) |] ~events:[| Prelude.Os.pollin |]
      ~timeout_ns:10_000_000_000
  in
  let took = Prelude.Mclock.now_us () - t0 in
  Thread.join killer;
  Sys.set_signal Sys.sigusr1 old;
  close_pairs ps;
  Alcotest.(check int) "interrupted" (-1) r;
  Alcotest.(check bool) "handler ran before return" true (Atomic.get got);
  Alcotest.(check bool)
    (Printf.sprintf "returned promptly (%d us)" took)
    true (took < 2_000_000)

(* While one thread waits, another may run a minor collection that moves
   the caller's young arrays: the readiness must land in the arrays the
   caller holds, not where they were before the collection. *)
let test_poll_gc_mid_wait () =
  let ps = pairs 1 in
  let a, b = ps.(0) in
  let byte = Bytes.create 1 in
  for round = 1 to 10 do
    let fds = Array.make 1 a
    and events = Array.make 1 Prelude.Os.pollin
    and revents = Array.make 1 0 in
    let writer =
      Thread.create
        (fun () ->
          Prelude.Mclock.sleep_us 5_000;
          Gc.minor ();
          ignore (Unix.write_substring b "x" 0 1))
        ()
    in
    let r =
      Prelude.Os.poll fds ~events ~revents ~count:1 ~timeout_ns:5_000_000_000
    in
    Thread.join writer;
    ignore (Unix.read a byte 0 1);
    Alcotest.(check int) (Printf.sprintf "round %d: one ready" round) 1 r;
    Alcotest.(check bool)
      (Printf.sprintf "round %d: readiness in the caller's array" round)
      true
      (revents.(0) land Prelude.Os.pollin <> 0)
  done;
  close_pairs ps

(* The caller owns the arrays: a call allocates nothing on the heap. *)
let test_poll_no_alloc () =
  let ps = pairs 3 in
  let fds = Array.map fst ps in
  let events = Array.make 3 Prelude.Os.pollin and revents = Array.make 3 0 in
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Prelude.Os.poll fds ~events ~revents ~count:3 ~timeout_ns:0)
  done;
  let words = Gc.minor_words () -. before in
  close_pairs ps;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words over %d calls" words calls)
    true (words < 64.)

(* ---- varints ---- *)

let uint_bytes n =
  let b = Buffer.create 10 in
  Prelude.Varint.add_uint b n;
  Buffer.contents b

let int_bytes i =
  let b = Buffer.create 10 in
  Prelude.Varint.add_int b i;
  Buffer.contents b

let reads s = { Prelude.Varint.src = s; pos = 0 }

let test_varint_bytes () =
  Alcotest.(check string) "300 unsigned" "\xac\x02" (uint_bytes 300);
  Alcotest.(check string) "-1 zigzag" "\x01" (int_bytes (-1));
  Alcotest.(check string) "64 zigzag" "\x80\x01" (int_bytes 64);
  Alcotest.(check string) "min_int: nine bytes"
    "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" (int_bytes min_int);
  List.iter
    (fun i ->
      let s = int_bytes i in
      let r = reads s in
      Alcotest.(check int) (Printf.sprintf "%d reads back" i) i
        (Prelude.Varint.get_int r);
      Alcotest.(check int) "read to the end" (String.length s) r.pos;
      let u = uint_bytes i in
      Alcotest.(check int) "uint_size" (String.length u)
        (Prelude.Varint.uint_size i);
      let b = Bytes.make (String.length u) ' ' in
      Prelude.Varint.set_uint b 0 i;
      Alcotest.(check string) "set_uint writes add_uint's bytes" u
        (Bytes.to_string b))
    [ 0; 1; -1; 63; -64; 64; 127; 128; 300; 1 lsl 40; -(1 lsl 40); max_int;
      min_int ]

(* Nine bytes carry every bit of an int, so a tenth is over-long.  The
   wire codec, the trace-event codec and the WAL's record lengths all read
   through {!Prelude.Varint} and agree on that limit. *)
let test_varint_overlong () =
  let nine = String.make 8 '\xff' ^ "\x7f" in
  let ten = String.make 9 '\x80' ^ "\x00" in
  let malformed s =
    match Prelude.Varint.get_uint (reads s) with
    | _ -> None
    | exception Prelude.Varint.Malformed m -> Some m
  in
  Alcotest.(check (option string)) "nine bytes read" None (malformed nine);
  Alcotest.(check (option string)) "ten bytes overflow"
    (Some "varint overflow") (malformed ten);
  Alcotest.(check (option string)) "cut short"
    (Some "truncated payload") (malformed "\x80\x80");
  let codec s =
    match Net.Codec.Rd.int (Net.Codec.Rd.of_string s) with
    | _ -> true
    | exception Net.Codec.Bad_payload _ -> false
  in
  Alcotest.(check bool) "codec reads nine" true (codec nine);
  Alcotest.(check bool) "codec rejects ten" false (codec ten);
  (* a trace event: kind byte, then five varints *)
  let event first =
    let b = Buffer.create 32 in
    Obs.Event.encode b
      { Obs.Event.t_us = 0; pid = 0; kind = Obs.Event.Recv; trace = 0; a = 0;
        b = 0 };
    let s = Buffer.contents b in
    Obs.Event.decode (String.sub s 0 1 ^ first ^ String.sub s 2 4) ~pos:0
    <> None
  in
  Alcotest.(check bool) "event reads nine" true (event nine);
  Alcotest.(check bool) "event rejects ten" false (event ten);
  (* a WAL record: length, CRC-32, payload *)
  let record len_bytes =
    let crc = Prelude.Crc32.string "" in
    let c = Bytes.create 4 in
    Bytes.set_int32_be c 0 (Int32.of_int crc);
    Durable.Wal.of_string (len_bytes ^ Bytes.to_string c)
  in
  Alcotest.(check int) "wal reads an over-wide zero length" 1
    (List.length (record (String.make 8 '\x80' ^ "\x00")));
  Alcotest.(check int) "wal rejects ten bytes" 0 (List.length (record ten))

let () =
  Alcotest.run "prelude"
    [
      ("ticks", [ Alcotest.test_case "arithmetic" `Quick test_ticks ]);
      ("stamp", [ Alcotest.test_case "ordering" `Quick test_stamp_order ]);
      ( "varint",
        [
          Alcotest.test_case "bytes and round trips" `Quick test_varint_bytes;
          Alcotest.test_case "over-long rejected by every reader" `Quick
            test_varint_overlong;
        ] );
      ( "heap",
        Alcotest.test_case "basics" `Quick test_heap_basics
        :: Alcotest.test_case "pop_while" `Quick test_heap_pop_while
        :: List.map QCheck_alcotest.to_alcotest [ heap_sorted_prop; heap_delete_min_prop ] );
      ( "rng",
        Alcotest.test_case "determinism" `Quick test_rng_determinism
        :: List.map QCheck_alcotest.to_alcotest [ rng_bounds_prop; shuffle_perm_prop ] );
      ( "crc32",
        Alcotest.test_case "known values" `Quick test_crc32_vectors
        :: List.map QCheck_alcotest.to_alcotest [ crc32_reference_prop ] );
      ( "combinatorics",
        [
          Alcotest.test_case "permutations" `Quick test_permutations;
          Alcotest.test_case "combinations" `Quick test_combinations;
          Alcotest.test_case "ordered pairs" `Quick test_ordered_pairs;
        ] );
      ( "os-poll",
        [
          Alcotest.test_case "readiness per fd" `Quick test_poll_per_fd;
          Alcotest.test_case "POLLOUT on a full buffer" `Quick
            test_poll_pollout_full;
          Alcotest.test_case "never early without a ready fd" `Quick
            test_poll_timeout;
          Alcotest.test_case "a signal ends the wait" `Quick test_poll_signal;
          Alcotest.test_case "allocation-free" `Quick test_poll_no_alloc;
          Alcotest.test_case "a GC mid-wait moves no result" `Quick
            test_poll_gc_mid_wait;
        ] );
    ]
