(* How late a timed wait returns on this machine, and what waking early
   costs: for each sleep length, [rounds] idle waits through a bare
   [ppoll] (Prelude.Os.poll) and through a socket set's early-waking
   [Net.Tcp_transport.poll], both with timer slack 1 ns as a host loop
   sets it.  Prints each one's lateness p50/p90 and CPU per wait; the
   early-waking poll's lateness counts from its Mclock deadline.

     dune exec examples/timer_precision.exe [-- rounds] *)

let percentile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))))

let cpu_us () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e6

(* Run [wait] [rounds] times, returning each lateness in µs and the CPU
   µs per wait. *)
let measure rounds wait =
  let c0 = cpu_us () in
  let lates = List.init rounds (fun _ -> wait ()) in
  (lates, (cpu_us () -. c0) /. float_of_int rounds)

let () =
  let rounds = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 400 in
  Prelude.Os.set_timer_slack_ns 1;
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let fds = [| r |] and events = [| Prelude.Os.pollin |] and revents = [| 0 |] in
  let listener = Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0 in
  let set =
    Net.Tcp_transport.create ~me:0
      ~addrs:[| ("127.0.0.1", listener.Net.Tcp_transport.port) |]
      ~listener ~hello:""
      ~classify_hello:(fun _ -> Net.Tcp_transport.Client)
      ~decode_peer:(fun ~src:_ _ -> None)
      ~encode_peer:(fun () -> "")
      ()
  in
  Printf.printf "%d waits per length, timer slack 1 ns\n" rounds;
  Printf.printf "%-9s  %-22s  %-22s  %s\n" "sleep" "ppoll late p50/p90"
    "early-wake late p50/p90" "CPU/wait ppoll → early";
  List.iter
    (fun wait_us ->
      let plain, plain_cpu =
        measure rounds (fun () ->
            let t0 = Prelude.Os.monotonic_ns () in
            ignore
              (Prelude.Os.poll fds ~events ~revents ~count:1
                 ~timeout_ns:(wait_us * 1000));
            (Prelude.Os.monotonic_ns () - t0 - (wait_us * 1000)) / 1000)
      in
      let early, early_cpu =
        measure rounds (fun () ->
            let deadline_us = Prelude.Mclock.now_us () + wait_us in
            Net.Tcp_transport.poll set ~deadline_us;
            Prelude.Mclock.now_us () - deadline_us)
      in
      Printf.printf "%6d µs  %8d / %-11d  %8d / %-11d  %.1f → %.1f µs\n" wait_us
        (percentile plain 0.5) (percentile plain 0.9) (percentile early 0.5)
        (percentile early 0.9) plain_cpu early_cpu)
    [ 100; 1_000; 2_500; 12_500 ];
  Net.Tcp_transport.close set;
  Unix.close r;
  Unix.close w
