(* Host-time probes of the traced run: nanoseconds per call into one layer
   function, each on a small dedicated fixture so the number moves only
   when that layer's code does.  Every probe is repeated three times and
   reports the median. *)

module Sim = Tell_sim
module Kv = Tell_kv
open Tell_core
module Tpcc = Tell_tpcc

let host_ns = Workload.host_ns

let median3 f = Workload.median_float [ f (); f (); f () ]

(* Fibers in a spawn/sleep loop: the event heap and effect handlers. *)
let engine_sleep ~scale () =
  let engine = Sim.Engine.create () in
  let fibers = 64 and per = 50 * scale in
  for _ = 1 to fibers do
    Sim.Engine.spawn engine (fun () ->
        for _ = 1 to per do
          Sim.Engine.sleep engine 1_000
        done)
  done;
  let t0 = host_ns () in
  Sim.Engine.run engine ();
  Workload.fi (host_ns () - t0) /. Workload.fi (fibers * per)

(* Identity-carrying sends on a fault-free fabric. *)
let net_send ~scale () =
  let engine = Sim.Engine.create () in
  let net = Sim.Net.create engine (Sim.Rng.make 1) Sim.Net.infiniband in
  let fibers = 16 and per = 200 * scale in
  for i = 1 to fibers do
    let src = Printf.sprintf "pn%d" i in
    Sim.Engine.spawn engine (fun () ->
        for _ = 1 to per do
          ignore (Sim.Net.send net ~src ~dst:"sn0" ~bytes:256)
        done)
  done;
  let t0 = host_ns () in
  Sim.Engine.run engine ();
  Workload.fi (host_ns () - t0) /. Workload.fi (fibers * per)

let storage_node engine =
  let c = Kv.Cluster.default_config in
  Kv.Storage_node.create engine ~id:0 ~cores:c.sn_cores ~capacity_bytes:c.sn_capacity_bytes
    ~base_service_ns:c.base_service_ns ~per_byte_service_ns:c.per_byte_service_ns

let probe_keys n = Array.init n (fun i -> Printf.sprintf "r/probe/%08d" i)
let payload = String.make 200 'x'

(* [ops] storage-node operations from 4 client fibers, timed. *)
let sn_ops engine sn ops =
  let n = Array.length ops in
  for f = 0 to 3 do
    Sim.Engine.spawn engine (fun () ->
        let i = ref f in
        while !i < n do
          ignore (Kv.Storage_node.apply sn ops.(!i));
          i := !i + 4
        done)
  done;
  let t0 = host_ns () in
  Sim.Engine.run engine ();
  Workload.fi (host_ns () - t0) /. Workload.fi n

let sn_put ~scale () =
  let engine = Sim.Engine.create () in
  let sn = storage_node engine in
  sn_ops engine sn (Array.map (fun k -> Kv.Op.Put (k, payload)) (probe_keys (1000 * scale)))

let sn_get ~scale () =
  let engine = Sim.Engine.create () in
  let sn = storage_node engine in
  let keys = probe_keys (1000 * scale) in
  ignore (sn_ops engine sn (Array.map (fun k -> Kv.Op.Put (k, payload)) keys));
  sn_ops engine sn (Array.map (fun k -> Kv.Op.Get k) keys)

(* The bulk-copy source side of re-replication: one full dump. *)
let sn_snapshot_per_cell ~scale () =
  let engine = Sim.Engine.create () in
  let sn = storage_node engine in
  let keys = probe_keys (2000 * scale) in
  ignore (sn_ops engine sn (Array.map (fun k -> Kv.Op.Put (k, payload)) keys));
  let t0 = host_ns () in
  let cells = Kv.Storage_node.snapshot sn in
  Workload.fi (host_ns () - t0) /. Workload.fi (List.length cells)

let customer_like =
  Array.init 21 (fun i ->
      match i mod 3 with
      | 0 -> Value.Int (i * 1_000)
      | 1 -> Value.Float (float_of_int i *. 3.25)
      | _ -> Value.Str (String.make 16 (Char.chr (97 + i))))

let record_decode ~scale () =
  let versions =
    List.init 3 (fun v -> { Record.version = 3 - v; payload = Record.Tuple customer_like })
  in
  let cell = Record.encode (Record.of_versions versions) in
  let n = 2000 * scale in
  let t0 = host_ns () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Record.decode cell))
  done;
  Workload.fi (host_ns () - t0) /. Workload.fi n

(* Primary-key lookups through the transaction API on a one-warehouse
   deployment: B+tree descent with cached inner nodes, leaf fetch, buffer
   merge.  Background fibers of the deployment run in between, as in the
   real thing. *)
let btree_lookup () =
  let d = Workload.setup ~seed:7 ~warehouses:1 in
  let pn = List.hd d.pns in
  let keys =
    List.init 10 (fun d_id ->
        List.init 30 (fun c ->
            Codec.encode_key [ Value.Int 1; Value.Int (d_id + 1); Value.Int ((c * 5) + 1) ]))
    |> List.concat
  in
  let timings = ref [] in
  let finished = ref false in
  Sim.Engine.spawn d.engine ~group:(Pn.group pn) (fun () ->
      let txn = Txn.begin_txn pn in
      let pass () = List.iter (fun key -> ignore (Txn.index_lookup txn ~index:"pk_customer" ~key)) keys in
      pass ();
      for _ = 1 to 3 do
        let t0 = host_ns () in
        pass ();
        timings := (Workload.fi (host_ns () - t0) /. Workload.fi (List.length keys)) :: !timings
      done;
      Txn.abort txn;
      finished := true);
  while not !finished do
    Sim.Engine.run d.engine ~until:(Sim.Engine.now d.engine + 1_000_000) ()
  done;
  Workload.median_float !timings

let run ~scale =
  let m name unit value = { Workload.name; value; unit } in
  [
    m "probe.engine.sleep_ns" "ns/op" (median3 (engine_sleep ~scale));
    m "probe.net.send_ns" "ns/op" (median3 (net_send ~scale));
    m "probe.sn.put_ns" "ns/op" (median3 (sn_put ~scale));
    m "probe.sn.get_ns" "ns/op" (median3 (sn_get ~scale));
    m "probe.sn.snapshot_ns_per_cell" "ns/cell" (median3 (sn_snapshot_per_cell ~scale));
    m "probe.record.decode_ns" "ns/op" (median3 (record_decode ~scale));
    m "probe.btree.lookup_ns" "ns/op" (btree_lookup ());
  ]
