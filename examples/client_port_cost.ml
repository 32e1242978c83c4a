(* What one reply costs the client port: [replies] Result frames pushed
   through [Net.Client.recv] over a loopback connection, one write and one
   read each, while the caller keeps every reply in a growing history as
   a load driver does.  Prints wall µs per reply and, from the GC's own
   counters (which hypervisor steal does not move), minor words, major
   words and major collections per reply.

     dune exec examples/client_port_cost.exe [-- replies]   (default 500000) *)

module Cl = Net.Client.Make (Net.Wire.Kv_wired)

let () =
  let replies =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 500_000
  in
  let listener = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let cl =
    match Cl.connect ~host:"127.0.0.1" ~port:listener.Net.Tcp_transport.port () with
    | Ok c -> c
    | Error e -> failwith e
  in
  let server, _ = Unix.accept listener.Net.Tcp_transport.listen_fd in
  let frame =
    Bytes.of_string (Cl.C.encode (Cl.C.Result { result = Spec.Kv_map.Ack; shard = 0 }))
  in
  let history = ref [] in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  for i = 1 to replies do
    ignore (Unix.write server frame 0 (Bytes.length frame));
    match Cl.recv cl with
    | Ok m -> history := (i, m) :: !history
    | Error e -> failwith e
  done;
  let took = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let per x = x /. float_of_int replies in
  Printf.printf
    "%d replies (%d kept): %.2f us/reply, %.1f minor words, %.1f major words, \
     %.5f major collections per reply (%d in all)\n"
    replies (List.length !history)
    (per (took *. 1e6))
    (per (g1.Gc.minor_words -. g0.Gc.minor_words))
    (per (g1.Gc.major_words -. g0.Gc.major_words))
    (per (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)))
    (g1.Gc.major_collections - g0.Gc.major_collections);
  Cl.close cl;
  Unix.close server;
  Unix.close listener.Net.Tcp_transport.listen_fd
