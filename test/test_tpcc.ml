(* TPC-C integration: load a small population, run concurrent terminals,
   then verify the TPC-C consistency conditions — the strongest oracle we
   have that distributed snapshot isolation, conflict detection, rollback,
   and index maintenance interact correctly under real contention. *)

module Sim = Tell_sim
module Kv = Tell_kv
open Tell_core
module Tpcc = Tell_tpcc

let tiny_scale =
  {
    Tpcc.Spec.warehouses = 2;
    districts_per_wh = 4;
    customers_per_district = 30;
    items = 100;
    stock_per_wh = 100;
    initial_orders_per_district = 30;
  }

let build_engine ?(n_pns = 2) ?(rf = 1) ?(scale = tiny_scale) () =
  let engine = Sim.Engine.create () in
  let config =
    { Kv.Cluster.default_config with n_storage_nodes = 3; replication_factor = rf }
  in
  let db = Database.create engine ~kv_config:config () in
  let pns = List.init n_pns (fun _ -> Database.add_pn db ()) in
  let loaded = Tpcc.Loader.load (Database.cluster db) ~scale ~seed:11 in
  Alcotest.(check bool) "population loaded" true (loaded > 0);
  let tell = Tpcc.Tell_engine.create db ~pns ~scale in
  (engine, db, pns, tell)

let test_load_and_read () =
  let engine, _db, pns, _tell = build_engine () in
  let done_ = ref false in
  Sim.Engine.spawn engine (fun () ->
      let pn = List.nth pns 0 in
      Database.with_txn pn (fun txn ->
          (* Every warehouse and district row must be loaded and visible. *)
          for w = 1 to tiny_scale.warehouses do
            (match
               Txn.index_lookup txn ~index:"pk_warehouse" ~key:(Codec.encode_key [ Value.Int w ])
             with
            | [ rid ] -> (
                match Txn.read txn ~table:"warehouse" ~rid with
                | Some tuple -> Alcotest.(check int) "w_id" w (Value.as_int tuple.(0))
                | None -> Alcotest.fail "warehouse row invisible")
            | _ -> Alcotest.fail "warehouse pk lookup failed");
            for d = 1 to tiny_scale.districts_per_wh do
              match
                Txn.index_lookup txn ~index:"pk_district"
                  ~key:(Codec.encode_key [ Value.Int w; Value.Int d ])
              with
              | [ _ ] -> ()
              | _ -> Alcotest.failf "district %d/%d pk lookup failed" w d
            done
          done);
      done_ := true);
  Sim.Engine.run engine ~until:10_000_000_000 ();
  Alcotest.(check bool) "completed" true !done_

let run_mix ?(rf = 1) ?(terminals = 8) mix =
  let engine, _db, pns, tell = build_engine ~rf () in
  let config =
    { Tpcc.Driver.terminals; warmup_ns = 50_000_000; measure_ns = 400_000_000; seed = 3 }
  in
  let report =
    Tpcc.Driver.run
      (module Tpcc.Tell_engine : Tpcc.Engine_intf.ENGINE
        with type t = Tpcc.Tell_engine.t
         and type conn = Tpcc.Tell_engine.conn)
      tell ~engine ~scale:tiny_scale ~mix ~config ()
  in
  (engine, pns, report)

let test_standard_mix_runs () =
  let _, _, report = run_mix Tpcc.Spec.standard_mix in
  Alcotest.(check bool) "committed some transactions" true (report.committed > 50);
  Alcotest.(check bool) "made new orders" true (report.new_order_commits > 10);
  Alcotest.(check bool)
    (Printf.sprintf "abort rate sane (%.1f%%)" (Tpcc.Driver.abort_rate report))
    true
    (Tpcc.Driver.abort_rate report < 60.0)

let test_consistency_after_run () =
  let engine, pns, report = run_mix Tpcc.Spec.standard_mix in
  Alcotest.(check bool) "ran" true (report.committed > 0);
  (* Quiesce, then check the TPC-C consistency conditions. *)
  let violations = ref None in
  Sim.Engine.spawn engine (fun () ->
      violations := Some (Tpcc.Consistency.check_all (List.nth pns 0) ~scale:tiny_scale));
  Sim.Engine.run engine ~until:(Sim.Engine.now engine + 30_000_000_000) ();
  match !violations with
  | None -> Alcotest.fail "consistency check did not finish"
  | Some [] -> ()
  | Some violations -> Alcotest.failf "violations:\n%s" (String.concat "\n" violations)

let test_read_intensive_mix () =
  let _, _, report = run_mix Tpcc.Spec.read_intensive_mix in
  Alcotest.(check bool) "committed" true (report.committed > 50);
  (* Read-heavy mix: aborts should be much rarer than the write mix. *)
  Alcotest.(check bool)
    (Printf.sprintf "low abort rate (%.2f%%)" (Tpcc.Driver.abort_rate report))
    true
    (Tpcc.Driver.abort_rate report < 10.0)

let test_determinism () =
  (* The whole stack — engine, store, MVCC, B+tree, driver — must be a
     deterministic function of the seed. *)
  let run () =
    let _, _, report = run_mix Tpcc.Spec.standard_mix in
    (report.committed, report.aborted, report.user_aborts, report.new_order_commits)
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool)
    (Printf.sprintf "identical outcomes (%d,%d,%d,%d)"
       (match a with c, _, _, _ -> c)
       (match a with _, x, _, _ -> x)
       (match a with _, _, u, _ -> u)
       (match a with _, _, _, n -> n))
    true (a = b)

(* The bulk install creates each storage node's table at its final size.
   Iteration order is observable (scans before sorting, snapshots that
   seed re-replication, ownership pruning), so it must equal that of
   installing the same cells one at a time, also as later writes keep
   landing in the tables. *)
let test_bulk_install_matches_incremental () =
  let engine = Sim.Engine.create () in
  let config = { Kv.Cluster.default_config with n_storage_nodes = 7; replication_factor = 3 } in
  let bulk = Kv.Cluster.create engine config and one_by_one = Kv.Cluster.create engine config in
  let cells, _ = Tpcc.Loader.cells ~scale:(Tpcc.Spec.sim_scale ~warehouses:2) ~seed:3 in
  Kv.Cluster.install_cells bulk cells;
  Seq.iter (fun (key, data) -> Kv.Cluster.poke one_by_one ~key ~data) cells;
  let same_nodes what =
    Array.iteri
      (fun i a ->
        let b = Kv.Cluster.node one_by_one i in
        Alcotest.(check int) (Printf.sprintf "%s: sn%d bytes_stored" what i)
          (Kv.Storage_node.bytes_stored b) (Kv.Storage_node.bytes_stored a);
        Alcotest.(check bool) (Printf.sprintf "%s: sn%d snapshot, in order" what i) true
          (Kv.Storage_node.snapshot a = Kv.Storage_node.snapshot b))
      (Kv.Cluster.nodes bulk)
  in
  (* Large enough that the one-at-a-time tables resized several times. *)
  Array.iter
    (fun sn ->
      Alcotest.(check bool) "node outgrew the initial table" true
        (List.length (Kv.Storage_node.snapshot sn) > 4 * 4096))
    (Kv.Cluster.nodes bulk);
  same_nodes "after load";
  let puts cluster =
    Sim.Engine.spawn engine (fun () ->
        for i = 1 to 400 do
          (* New keys, interleaved with overwrites of loaded cells. *)
          let key = if i mod 3 = 0 then Keys.record ~table:"item" ~rid:i else Printf.sprintf "x/%d" i in
          Array.iter
            (fun sn -> ignore (Kv.Storage_node.apply_replica sn (Kv.Op.Put (key, string_of_int i)) Kv.Op.Done))
            (Kv.Cluster.nodes cluster)
        done)
  in
  puts bulk;
  puts one_by_one;
  Sim.Engine.run engine ~until:1_000_000_000 ();
  same_nodes "after 400 puts"

let () =
  Alcotest.run "tpcc"
    [
      ( "tell",
        [
          Alcotest.test_case "load and read population" `Quick test_load_and_read;
          Alcotest.test_case "bulk install matches one-at-a-time installs" `Quick
            test_bulk_install_matches_incremental;
          Alcotest.test_case "standard mix runs" `Quick test_standard_mix_runs;
          Alcotest.test_case "consistency after concurrent run" `Quick test_consistency_after_run;
          Alcotest.test_case "read-intensive mix" `Quick test_read_intensive_mix;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
    ]
