(* Algorithm 1 over real sockets, without the CLI.

     dune exec examples/tcp_cluster.exe

   Three one-shard hosts — TCP transport, replica node, client port — run
   in this one process on ephemeral loopback ports (the same building
   block [timebounds serve] runs one-per-OS-process; see [timebounds
   cluster] for the forked version).  A client connects to each replica and drives a
   small key-value workload; because the stacks speak the length-prefixed
   wire format through the kernel's TCP stack, every broadcast entry here
   really is encoded, CRC'd, written to a socket, read back and decoded.

   The printed per-class latencies are client-observed wall-clock times
   against the paper's targets: puts (pure mutators) respond in ≈ ε + X,
   gets (pure accessors) in ≈ d + ε − X, swaps (others) in ≤ d + ε — where
   d and u are the *assumed* bounds the replicas run with, inflated by a
   slack over the loopback's real delay to absorb scheduling jitter. *)

module H = Shard.Host.Make (Net.Wire.Kv_wired)
module Cl = Net.Client.Make (Net.Wire.Kv_wired)

let () =
  let n = 3 and d = 7000 and u = 5500 in
  let eps = Core.Params.optimal_eps ~n ~u in
  let params = Core.Params.make ~n ~d ~u ~eps ~x:0 () in
  (* Bind first so every stack knows all the (ephemeral) ports. *)
  let listeners =
    Array.init n (fun _ -> Net.Tcp_transport.listen ~host:"127.0.0.1" ~port:0)
  in
  let addrs =
    Array.map
      (fun (l : Net.Tcp_transport.listener) -> ("127.0.0.1", l.port))
      listeners
  in
  Array.iteri
    (fun pid (host, port) ->
      Format.printf "replica %d: %s:%d@." pid host port)
    addrs;
  (* Replica clocks read the shared clock plus their offset, so the
     offsets below are the *entire* inter-replica skew, as ε assumes. *)
  let rng = Prelude.Rng.make 42 in
  let handles =
    Array.init n (fun pid ->
        H.start ~listener:listeners.(pid)
          {
            Shard.Host.pid;
            shards = 1;
            addrs;
            params;
            offset = (if pid = 0 then 0 else Prelude.Rng.int rng eps);
            start_us = None;
            trace = None;
            durable = None;
            fsync = Durable.Wal.Never;
            snapshot_every = 0;
            chaos = None;
            fallback = None;
            sync = None;
            log = (fun _ -> ());
          })
  in
  let conns =
    Array.map
      (fun (_, port) ->
        match Cl.connect ~host:"127.0.0.1" ~port () with
        | Ok c -> c
        | Error e -> failwith e)
      addrs
  in
  let hist = [| Runtime.Histogram.create (); Runtime.Histogram.create ();
                Runtime.Histogram.create () |] in
  let timed slot conn op =
    let t0 = Prelude.Mclock.now_us () in
    let r = Cl.invoke conn op in
    Runtime.Histogram.add hist.(slot) (Prelude.Mclock.now_us () - t0);
    match r with Ok r -> r | Error e -> failwith e
  in
  let ops = 60 in
  for i = 1 to ops do
    let conn = conns.(i mod n) in
    let k = i mod 8 in
    match i mod 5 with
    | 0 | 1 -> ignore (timed 0 conn (Spec.Kv_map.Put (k, i)))
    | 2 | 3 -> ignore (timed 1 conn (Spec.Kv_map.Get k))
    | _ -> ignore (timed 2 conn (Spec.Kv_map.Swap (k, i)))
  done;
  let t = params.Core.Params.timing in
  List.iteri
    (fun slot (name, rel, target) ->
      Format.printf "  %-4s %a  (target %s %dµs)@." name Runtime.Histogram.pp
        hist.(slot) rel target)
    [
      ("MOP", "≈", t.Core.Params.mutator_wait);
      ("AOP", "≈", t.Core.Params.accessor_wait);
      ("OOP", "≤", params.Core.Params.d + params.Core.Params.eps);
    ];
  (* The transport really moved bytes — ask replica 0 over its client port. *)
  (match Cl.stats conns.(0) with
  | Ok s -> Format.printf "replica 0 transport: %a@." Runtime.Transport_intf.pp_stats s
  | Error e -> failwith e);
  Array.iter Cl.close conns;
  let total =
    Array.fold_left (fun acc h -> acc + (fst (H.stop h)).(0)) 0 handles
  in
  Format.printf "%d ops answered across %d replicas@." total n;
  if total <> ops then exit 1
