(* The pipelined read path: fused index→record batched reads must be
   observably equivalent to their sequential counterparts (same rows,
   same conflicts, same serializable read tokens, same recorded history),
   the B+tree multi-lookup must survive stale cached separators under a
   concurrent split, and the begin-window coalescer must hand out unique
   tids over one start RPC and fail every waiter cleanly — with no leaked
   tid claims — when the commit manager dies mid-window. *)

module Sim = Tell_sim
module Kv = Tell_kv
open Tell_core
module Hist = Tell_histcheck

let run_sim f =
  let engine = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn engine (fun () -> result := Some (f engine));
  Sim.Engine.run engine ~until:60_000_000_000 ();
  match !result with Some r -> r | None -> Alcotest.fail "did not finish"

let make_db ?begin_window_ns engine =
  let kv_config =
    { Kv.Cluster.default_config with n_storage_nodes = 3; replication_factor = 1 }
  in
  let db = Database.create engine ~kv_config () in
  (db, Database.add_pn db ?begin_window_ns ())

let setup pn rows =
  ignore (Database.exec pn "CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))");
  List.iter
    (fun (id, v) -> ignore (Database.exec pn (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" id v)))
    rows

let pk id = Codec.encode_key [ Value.Int id ]

let value_of pn id =
  match Database.exec pn (Printf.sprintf "SELECT v FROM t WHERE id = %d" id) with
  | Sql_plan.Rows { rows = [ [| Value.Int v |] ]; _ } -> v
  | _ -> Alcotest.fail "read failed"

(* Sequential reference: one index traversal plus one record read. *)
let sequential_read txn id =
  match Txn.index_lookup txn ~index:"pk_t" ~key:(pk id) with
  | [] -> None
  | rid :: _ -> (
      match Txn.read txn ~table:"t" ~rid with Some row -> Some (rid, row) | None -> None)

let value_testable =
  Alcotest.testable (fun fmt v -> Format.fprintf fmt "%s" (Value.to_string v)) ( = )

let check_opt_row = Alcotest.(check (option (pair int (array value_testable))))

let test_batched_equals_sequential () =
  run_sim (fun engine ->
      let _, pn = make_db engine in
      setup pn (List.init 8 (fun i -> (i + 1, 10 * (i + 1))));
      ignore (Database.exec pn "DELETE FROM t WHERE id = 6");
      Database.with_txn pn (fun txn ->
          let ids = [ 3; 1; 42; 6; 8; 1 ] in
          (* 42 was never inserted; 6 is deleted; 1 repeats. *)
          let batched = Txn.read_by_pk_many txn ~table:"t" ~index:"pk_t" ~keys:(List.map pk ids) in
          let sequential = List.map (sequential_read txn) ids in
          List.iteri
            (fun i (b, s) -> check_opt_row (Printf.sprintf "row %d" i) s b)
            (List.combine batched sequential);
          (* Batched exact-key index lookups agree with one-at-a-time. *)
          let keys = List.map pk [ 2; 42; 7 ] in
          let many = Txn.index_read_many txn ~index:"pk_t" ~keys in
          List.iter2
            (fun key (key', rids) ->
              Alcotest.(check string) "key echoed" key key';
              Alcotest.(check (list int)) "rids" (Txn.index_lookup txn ~index:"pk_t" ~key) rids)
            keys many))

let test_batched_sees_own_writes () =
  run_sim (fun engine ->
      let _, pn = make_db engine in
      setup pn [ (1, 10); (2, 20) ];
      Database.with_txn pn (fun txn ->
          (* Buffered update, buffered insert, buffered delete: the fused
             path must merge all three exactly like the sequential path. *)
          ignore (Database.exec_in txn "UPDATE t SET v = 11 WHERE id = 1");
          ignore (Database.exec_in txn "INSERT INTO t VALUES (9, 90)");
          ignore (Database.exec_in txn "DELETE FROM t WHERE id = 2");
          let ids = [ 1; 9; 2 ] in
          let batched = Txn.read_by_pk_many txn ~table:"t" ~index:"pk_t" ~keys:(List.map pk ids) in
          let sequential = List.map (sequential_read txn) ids in
          List.iteri
            (fun i (b, s) -> check_opt_row (Printf.sprintf "own write %d" i) s b)
            (List.combine batched sequential);
          (match batched with
          | [ Some (_, row1); Some (_, row9); None ] ->
              Alcotest.(check int) "own update visible" 11 (Value.as_int row1.(1));
              Alcotest.(check int) "own insert visible" 90 (Value.as_int row9.(1))
          | _ -> Alcotest.fail "unexpected batched shape")))

let test_async_reads_equal_sync () =
  run_sim (fun engine ->
      let _, pn = make_db engine in
      setup pn [ (1, 10); (2, 20); (3, 30) ];
      Database.with_txn pn (fun txn ->
          let rid_of id =
            match Txn.index_lookup txn ~index:"pk_t" ~key:(pk id) with
            | rid :: _ -> rid
            | [] -> Alcotest.fail "pk lookup"
          in
          let r1 = rid_of 1 and r2 = rid_of 2 and r3 = rid_of 3 in
          let f1 = Txn.read_async txn ~table:"t" ~rid:r1 in
          let f2 = Txn.read_async txn ~table:"t" ~rid:r2 in
          let f3 = Txn.read_async txn ~table:"t" ~rid:r3 in
          (* Awaiting any future flushes the whole registration set. *)
          List.iter2
            (fun fut rid ->
              check_opt_row "async = sync"
                (Option.map (fun row -> (rid, row)) (Txn.read txn ~table:"t" ~rid))
                (Option.map (fun row -> (rid, row)) (Txn.await txn fut)))
            [ f2; f1; f3 ] [ r2; r1; r3 ]))

let test_batched_conflict_parity () =
  run_sim (fun engine ->
      let _, pn = make_db engine in
      setup pn [ (1, 100); (2, 200) ];
      (* Lost-update race through the fused read path: both read id 1
         batched, both write it; SI must still abort exactly one. *)
      let attempt () =
        let txn = Txn.begin_txn pn in
        match Txn.read_by_pk_many txn ~table:"t" ~index:"pk_t" ~keys:[ pk 1; pk 2 ] with
        | [ Some (rid, row); Some _ ] ->
            Txn.update txn ~table:"t" ~rid [| row.(0); Value.Int (Value.as_int row.(1) + 1) |];
            txn
        | _ -> Alcotest.fail "batched read failed"
      in
      let t1 = attempt () in
      let t2 = attempt () in
      let commits = ref 0 in
      (try Txn.commit t1; incr commits with Txn.Conflict _ -> ());
      (try Txn.commit t2; incr commits with Txn.Conflict _ -> ());
      Alcotest.(check int) "exactly one increment survived" 1 !commits;
      Alcotest.(check int) "value" 101 (value_of pn 1);
      (* And no false conflicts: batch-reading a row a concurrent writer
         updated is fine under SI as long as the write sets are disjoint. *)
      let reader = Txn.begin_txn pn in
      (match Txn.read_by_pk_many reader ~table:"t" ~index:"pk_t" ~keys:[ pk 1; pk 2 ] with
      | [ Some _; Some (rid2, row2) ] ->
          ignore (Database.exec pn "UPDATE t SET v = 999 WHERE id = 1");
          Txn.update reader ~table:"t" ~rid:rid2 [| row2.(0); Value.Int 7 |]
      | _ -> Alcotest.fail "batched read failed");
      (match Txn.commit reader with
      | () -> ()
      | exception Txn.Conflict _ -> Alcotest.fail "disjoint write sets must not conflict");
      Alcotest.(check int) "disjoint update applied" 7 (value_of pn 2))

let test_batched_serializable_tokens () =
  run_sim (fun engine ->
      let _, pn = make_db engine in
      setup pn [ (1, 10); (2, 20) ];
      (* A serializable transaction whose only read of id 2 went through
         the fused path must still fail validation when id 2 changes
         under it — i.e. the batch recorded the read token. *)
      let t = Txn.begin_txn ~isolation:Txn.Serializable pn in
      (match Txn.read_by_pk_many t ~table:"t" ~index:"pk_t" ~keys:[ pk 1; pk 2 ] with
      | [ Some (rid1, row1); Some _ ] ->
          Txn.update t ~table:"t" ~rid:rid1 [| row1.(0); Value.Int 111 |]
      | _ -> Alcotest.fail "batched read failed");
      ignore (Database.exec pn "UPDATE t SET v = 999 WHERE id = 2");
      (match Txn.commit t with
      | () -> Alcotest.fail "stale batched read must fail serializable validation"
      | exception Txn.Conflict _ -> ());
      Alcotest.(check int) "write rolled back" 10 (value_of pn 1);
      (* Control: with no interference the same shape commits. *)
      let t2 = Txn.begin_txn ~isolation:Txn.Serializable pn in
      (match Txn.read_by_pk_many t2 ~table:"t" ~index:"pk_t" ~keys:[ pk 1; pk 2 ] with
      | [ Some (rid1, row1); Some _ ] ->
          Txn.update t2 ~table:"t" ~rid:rid1 [| row1.(0); Value.Int 5 |]
      | _ -> Alcotest.fail "batched read failed");
      Txn.commit t2;
      Alcotest.(check int) "quiet serializable commit applied" 5 (value_of pn 1))

let test_batched_history_is_clean () =
  run_sim (fun engine ->
      let _, pn = make_db engine in
      (* Record from before the setup writes so every later read resolves
         to a version the history knows about. *)
      History.start ();
      setup pn [ (1, 10); (2, 20); (3, 30) ];
      let workers = 4 and finished = ref 0 in
      for w = 1 to workers do
        Sim.Engine.spawn engine (fun () ->
            for round = 1 to 5 do
              (try
                 Database.with_txn pn (fun txn ->
                     match
                       Txn.read_by_pk_many txn ~table:"t" ~index:"pk_t"
                         ~keys:[ pk 1; pk 2; pk 3 ]
                     with
                     | [ Some (r1, row1); Some _; Some _ ] ->
                         if (w + round) mod 2 = 0 then
                           Txn.update txn ~table:"t" ~rid:r1
                             [| row1.(0); Value.Int (Value.as_int row1.(1) + 1) |]
                     | _ -> Alcotest.fail "batched read failed")
               with Txn.Conflict _ -> ());
              Sim.Engine.sleep engine 20_000
            done;
            incr finished)
      done;
      while !finished < workers do
        Sim.Engine.sleep engine 1_000_000
      done;
      let events = History.stop () in
      Alcotest.(check bool) "history captured" true (List.length events > 0);
      Alcotest.(check (list string)) "no SI anomalies" [] (Hist.Checker.check events))

(* --- B+tree multi-lookup under a concurrent split ------------------------------- *)

let test_lookup_many_stale_leaf_fallback () =
  run_sim (fun engine ->
      let cluster =
        Kv.Cluster.create engine { Kv.Cluster.default_config with n_storage_nodes = 3 }
      in
      let client () =
        Kv.Client.create cluster ~group:(Sim.Engine.root_group engine)
      in
      let kv1 = client () and kv2 = client () in
      Btree.create kv1 ~name:"idx";
      let t1 = Btree.attach kv1 ~name:"idx" in
      let t2 = Btree.attach kv2 ~name:"idx" in
      let key i = Printf.sprintf "key%05d" i in
      for i = 1 to 40 do
        Btree.insert_many t2 ~entries:[ (key i, i) ]
      done;
      (* Warm t1's inner-node cache so it memoises today's separators. *)
      List.iter (fun i -> Alcotest.(check (list int)) "warm" [ i ] (Btree.lookup t1 ~key:(key i)))
        [ 1; 20; 40 ];
      (* Split the leaves out from under the cache through the other
         handle: enough inserts to force leaf (and inner) splits. *)
      for i = 41 to 2_000 do
        Btree.insert_many t2 ~entries:[ (key i, i) ]
      done;
      (* t1's multi-lookup must still be correct everywhere: keys whose
         cached leaf is still authoritative take the fast path, moved keys
         fall back to the full traversal. *)
      let ids = List.init 200 (fun i -> (i * 10) + 1) in
      let results = Btree.lookup_many t1 ~keys:(List.map key ids) in
      List.iter2
        (fun i (k, rids) ->
          Alcotest.(check string) "key echoed" (key i) k;
          Alcotest.(check (list int)) (Printf.sprintf "rids for %d" i) [ i ] rids)
        ids results;
      Btree.check_invariants t2)

(* --- Begin-window coalescing ---------------------------------------------------- *)

let test_begin_coalescing_shares_one_rpc () =
  run_sim (fun engine ->
      let _, pn = make_db ~begin_window_ns:100_000 engine in
      setup pn [ (1, 10) ];
      let begins0, rpcs0 = Pn.begin_stats pn in
      let n = 6 in
      let txns = ref [] and finished = ref 0 in
      for _ = 1 to n do
        Sim.Engine.spawn engine (fun () ->
            let txn = Txn.begin_txn pn in
            txns := txn :: !txns;
            incr finished)
      done;
      while !finished < n do
        Sim.Engine.sleep engine 100_000
      done;
      let txns = !txns in
      (* Unique tids, all claimed, all sharing the window's snapshot. *)
      let tids = List.sort_uniq compare (List.map Txn.tid txns) in
      Alcotest.(check int) "distinct tids" n (List.length tids);
      List.iter
        (fun tid -> Alcotest.(check bool) "tid claimed" true (Pn.claims pn ~tid))
        tids;
      (match txns with
      | first :: rest ->
          List.iter
            (fun txn ->
              Alcotest.(check bool) "shared window snapshot" true
                (Version_set.equal (Txn.snapshot first) (Txn.snapshot txn)))
            rest
      | [] -> Alcotest.fail "no transactions");
      let begins1, rpcs1 = Pn.begin_stats pn in
      Alcotest.(check int) "begins counted" n (begins1 - begins0);
      Alcotest.(check int) "one coalesced start RPC" 1 (rpcs1 - rpcs0);
      List.iter Txn.commit txns;
      (* Sequential begins coalesce nothing: each pays its own RPC. *)
      let _, rpcs2 = Pn.begin_stats pn in
      Database.with_txn pn (fun _ -> ());
      Database.with_txn pn (fun _ -> ());
      let _, rpcs3 = Pn.begin_stats pn in
      Alcotest.(check int) "sequential begins pay per-RPC" 2 (rpcs3 - rpcs2))

let test_begin_window_cm_crash () =
  run_sim (fun engine ->
      let db, pn = make_db ~begin_window_ns:100_000 engine in
      setup pn [ (1, 10) ];
      let cm = List.hd (Database.commit_managers db) in
      let begins0, rpcs0 = Pn.begin_stats pn in
      let n = 4 in
      let unavailable = ref 0 and started = ref 0 and finished = ref 0 in
      for _ = 1 to n do
        Sim.Engine.spawn engine (fun () ->
            (match Txn.begin_txn pn with
            | _ -> incr started
            | exception Kv.Op.Unavailable _ -> incr unavailable);
            incr finished)
      done;
      (* Kill the manager while the window is still open (10 µs into the
         100 µs window): the leader's batched start bounces and every
         waiter must see the failure. *)
      Sim.Engine.spawn engine (fun () ->
          Sim.Engine.sleep engine 10_000;
          Commit_manager.crash cm);
      while !finished < n do
        Sim.Engine.sleep engine 100_000
      done;
      Alcotest.(check int) "no transaction started" 0 !started;
      Alcotest.(check int) "every waiter saw Unavailable" n !unavailable;
      let begins1, rpcs1 = Pn.begin_stats pn in
      Alcotest.(check int) "begins counted" n (begins1 - begins0);
      Alcotest.(check int) "single failed RPC" 1 (rpcs1 - rpcs0);
      (* No leaked tid claims for the reclamation sweep to trip over: the
         failed window claimed nothing. *)
      for tid = 0 to 5_000 do
        if Pn.claims pn ~tid then
          Alcotest.failf "leaked claim for tid %d after failed begin window" tid
      done)

let () =
  Alcotest.run "read_pipeline"
    [
      ( "batched reads",
        [
          Alcotest.test_case "batched = sequential" `Quick test_batched_equals_sequential;
          Alcotest.test_case "batched sees own writes" `Quick test_batched_sees_own_writes;
          Alcotest.test_case "async reads = sync reads" `Quick test_async_reads_equal_sync;
          Alcotest.test_case "conflict parity" `Quick test_batched_conflict_parity;
          Alcotest.test_case "serializable read tokens" `Quick test_batched_serializable_tokens;
          Alcotest.test_case "history is anomaly-free" `Quick test_batched_history_is_clean;
        ] );
      ( "btree",
        [
          Alcotest.test_case "lookup_many stale-leaf fallback" `Quick
            test_lookup_many_stale_leaf_fallback;
        ] );
      ( "begin coalescing",
        [
          Alcotest.test_case "one RPC per window" `Quick test_begin_coalescing_shares_one_rpc;
          Alcotest.test_case "cm crash mid-window" `Quick test_begin_window_cm_crash;
        ] );
    ]
