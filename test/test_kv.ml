(* The record store: LL/SC semantics, batching, replication, capacity
   accounting, and fail-over behaviour. *)

module Sim = Tell_sim
module Kv = Tell_kv

let run_cluster ?(config = { Kv.Cluster.default_config with n_storage_nodes = 3 }) f =
  let engine = Sim.Engine.create () in
  let cluster = Kv.Cluster.create engine config in
  Kv.Cluster.start_failure_detector cluster;
  let result = ref None in
  Sim.Engine.spawn engine (fun () ->
      let client = Kv.Client.create cluster ~group:(Sim.Engine.root_group engine) in
      result := Some (f engine cluster client));
  Sim.Engine.run engine ~until:60_000_000_000 ();
  match !result with Some r -> r | None -> Alcotest.fail "did not finish"

let test_llsc_aba () =
  run_cluster (fun _ _ client ->
      (* The ABA scenario: value returns to its original content, yet the
         conditional write must still fail (tokens count writes). *)
      Kv.Client.put client "x" "a";
      let token0 =
        match Kv.Client.get client "x" with Some (_, tok) -> tok | None -> assert false
      in
      Kv.Client.put client "x" "b";
      Kv.Client.put client "x" "a";
      (match Kv.Client.put_if client "x" (Some token0) "c" with
      | `Conflict -> ()
      | `Ok _ -> Alcotest.fail "ABA must be detected");
      Alcotest.(check string) "value unchanged" "a"
        (match Kv.Client.get client "x" with Some (v, _) -> v | None -> "?"))

let test_conditional_insert_delete () =
  run_cluster (fun _ _ client ->
      (match Kv.Client.put_if client "fresh" None "v1" with
      | `Ok _ -> ()
      | `Conflict -> Alcotest.fail "insert of absent key must succeed");
      (match Kv.Client.put_if client "fresh" None "v2" with
      | `Conflict -> ()
      | `Ok _ -> Alcotest.fail "second insert must conflict");
      let token =
        match Kv.Client.get client "fresh" with Some (_, t) -> t | None -> assert false
      in
      (match Kv.Client.remove_if client "fresh" (Some (token + 1)) with
      | `Conflict -> ()
      | `Ok -> Alcotest.fail "stale-token delete must conflict");
      (match Kv.Client.remove_if client "fresh" (Some token) with
      | `Ok -> ()
      | `Conflict -> Alcotest.fail "fresh-token delete must succeed");
      Alcotest.(check (option (pair string int))) "gone" None (Kv.Client.get client "fresh"))

let test_batching_counts () =
  run_cluster (fun _ _ client ->
      let keys = List.init 64 (fun i -> Printf.sprintf "key%03d" i) in
      List.iter (fun k -> Kv.Client.put client k k) keys;
      let before = Kv.Client.requests_sent client in
      let values = Kv.Client.multi_get client keys in
      let requests = Kv.Client.requests_sent client - before in
      Alcotest.(check int) "all values returned" 64
        (List.length (List.filter Option.is_some values));
      (* 64 gets over 3 storage nodes: far fewer requests than operations. *)
      Alcotest.(check bool)
        (Printf.sprintf "batched (%d requests for 64 ops)" requests)
        true (requests <= 12))

let test_replication_preserves_data () =
  let config =
    { Kv.Cluster.default_config with n_storage_nodes = 4; replication_factor = 3 }
  in
  run_cluster ~config (fun engine cluster client ->
      for i = 1 to 200 do
        Kv.Client.put client (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i)
      done;
      (* Kill two of four nodes: RF3 must survive any two failures. *)
      Kv.Cluster.crash_node cluster 0;
      Sim.Engine.sleep engine 2_000_000;
      Kv.Cluster.crash_node cluster 2;
      Sim.Engine.sleep engine 2_000_000;
      let alive = ref 0 in
      for i = 1 to 200 do
        match Kv.Client.get client (Printf.sprintf "k%d" i) with
        | Some (v, _) when v = Printf.sprintf "v%d" i -> incr alive
        | Some _ | None -> ()
      done;
      Alcotest.(check int) "no data lost after two failures" 200 !alive)

let test_writes_after_failover () =
  let config =
    { Kv.Cluster.default_config with n_storage_nodes = 3; replication_factor = 2 }
  in
  run_cluster ~config (fun engine cluster client ->
      Kv.Client.put client "stable" "before";
      Kv.Cluster.crash_node cluster 1;
      Sim.Engine.sleep engine 2_000_000;
      (* The store stays writable through fail-over. *)
      Kv.Client.put client "stable" "after";
      for i = 1 to 50 do
        Kv.Client.put client (Printf.sprintf "new%d" i) "x"
      done;
      Alcotest.(check string) "updated value" "after"
        (match Kv.Client.get client "stable" with Some (v, _) -> v | None -> "?");
      Alcotest.(check int) "replication factor restored" 2
        (List.length
           (Kv.Directory.replicas (Kv.Cluster.directory cluster)
              (Kv.Directory.partition_of_key (Kv.Cluster.directory cluster) "stable"))))

let test_capacity_limit () =
  let config =
    {
      Kv.Cluster.default_config with
      n_storage_nodes = 2;
      sn_capacity_bytes = 64 * 1024;
    }
  in
  run_cluster ~config (fun _ _ client ->
      match
        for i = 1 to 10_000 do
          Kv.Client.put client (Printf.sprintf "big%05d" i) (String.make 64 'x')
        done
      with
      | () -> Alcotest.fail "expected Capacity_exceeded"
      | exception Kv.Op.Capacity_exceeded _ -> ())

let test_increment_is_atomic () =
  run_cluster (fun engine _ client ->
      (* Concurrent incrementers must produce a dense, unique range. *)
      let seen = Hashtbl.create 64 in
      let finished = ref 0 in
      let workers = 8 and per_worker = 25 in
      for _ = 1 to workers do
        Sim.Engine.spawn engine (fun () ->
            for _ = 1 to per_worker do
              let v = Kv.Client.increment client "ctr" 1 in
              Alcotest.(check bool) "unique" false (Hashtbl.mem seen v);
              Hashtbl.replace seen v ()
            done;
            incr finished)
      done;
      while !finished < workers do
        Sim.Engine.sleep engine 1_000_000
      done;
      Alcotest.(check int) "final counter value" (workers * per_worker)
        (Kv.Client.increment client "ctr" 0))

(* The replay cache is a bounded FIFO ([Storage_node.replay_cap]): filling
   it to the bound must not evict an in-flight retry's verdict — that is
   the exactly-once contract — while the entry past the bound evicts the
   oldest, which is the (documented) hazard the cap is sized to keep out
   of any real retry window. *)
let test_replay_cache_bound () =
  run_cluster (fun _ cluster _client ->
      let node = Kv.Cluster.node cluster 0 in
      (* Ops are applied below the client layer, so the key must belong
         to a partition node 0 actually masters — any other partition
         would (correctly) bounce with [Wrong_master_reply]. *)
      let dir = Kv.Cluster.directory cluster in
      let rec owned i =
        let k = Printf.sprintf "rk%d" i in
        if Kv.Directory.master dir (Kv.Directory.partition_of_key dir k) = 0 then k
        else owned (i + 1)
      in
      let rk = owned 0 in
      (* The client-side protocol, inlined at the node level: consult the
         cache first, apply + record on a miss. *)
      let send ~client ~op_id op =
        match Kv.Storage_node.find_replay node ~client ~op_id with
        | Some r -> r
        | None ->
            let r = Kv.Storage_node.apply node op in
            Kv.Storage_node.record_replay node ~client ~op_id r;
            r
      in
      let op = Kv.Op.Put_if (rk, None, "v1") in
      (* First attempt applies; pretend its reply was lost. *)
      let first = send ~client:1 ~op_id:0 op in
      let token =
        match first with
        | Kv.Op.Token t -> t
        | _ -> Alcotest.fail "first attempt must apply"
      in
      (* The retry replays the original verdict instead of conflicting
         with its own write... *)
      Alcotest.(check bool) "retry replays the verdict" true (send ~client:1 ~op_id:0 op = first);
      (* ...and did not double-apply: the cell still carries the first
         attempt's token. *)
      Alcotest.(check (option (pair string int))) "no double apply"
        (Some ("v1", token))
        (Kv.Storage_node.find node rk);
      (* Fill the FIFO to its bound with other clients' verdicts: the
         in-flight entry is the oldest but must survive at the cap. *)
      for i = 1 to Kv.Storage_node.replay_cap - 1 do
        Kv.Storage_node.record_replay node ~client:2 ~op_id:i Kv.Op.Conflict
      done;
      Alcotest.(check bool) "still replayed at the bound" true (send ~client:1 ~op_id:0 op = first);
      Alcotest.(check (option (pair string int))) "still exactly once"
        (Some ("v1", token))
        (Kv.Storage_node.find node rk);
      (* One entry past the bound evicts it; the retry now re-executes
         and self-conflicts.  This is the failure mode [replay_cap] keeps
         outside every real retry window — pin it so a cache rewrite that
         silently drops entries *early* fails the assertions above. *)
      Kv.Storage_node.record_replay node ~client:2 ~op_id:Kv.Storage_node.replay_cap
        Kv.Op.Conflict;
      Alcotest.(check bool) "evicted past the bound" true
        (Kv.Storage_node.find_replay node ~client:1 ~op_id:0 = None);
      (match send ~client:1 ~op_id:0 op with
      | Kv.Op.Conflict -> ()
      | _ -> Alcotest.fail "post-eviction retry re-executes");
      (* Even then the stored value is untouched — eviction can cost a
         spurious abort, never a lost or doubled write. *)
      Alcotest.(check (option (pair string int))) "value untouched"
        (Some ("v1", token))
        (Kv.Storage_node.find node rk))

(* Each batch's backup fan-out runs in its own fiber, so two increment
   batches can reach a backup out of order.  The replica install must
   keep the newer outcome (master tokens decide, as for conditional
   writes): a counter stepped backwards on a backup re-issues allocation
   ranges — tids, rids — after a fail-over promotes it. *)
let test_increment_replica_monotone () =
  run_cluster (fun _ cluster _client ->
      let node = Kv.Cluster.node cluster 0 in
      let newer = Kv.Op.Count (128, 7) and older = Kv.Op.Count (64, 6) in
      ignore (Kv.Storage_node.apply_replica node (Kv.Op.Increment ("ctr", 64)) newer);
      ignore (Kv.Storage_node.apply_replica node (Kv.Op.Increment ("ctr", 64)) older);
      match Kv.Storage_node.find node "ctr" with
      | Some (data, token) ->
          Alcotest.(check int) "newer value kept" 128
            (Int64.to_int (String.get_int64_le data 0));
          Alcotest.(check int) "master token kept" 7 token
      | None -> Alcotest.fail "counter missing")

let test_scan_prefix () =
  run_cluster (fun _ _ client ->
      List.iter (fun k -> Kv.Client.put client k k)
        [ "a/1"; "a/2"; "a/3"; "b/1"; "ab"; "a" ];
      let hits = Kv.Client.scan_all client ~prefix:"a/" in
      Alcotest.(check (list string)) "prefix scan" [ "a/1"; "a/2"; "a/3" ]
        (List.map (fun (k, _, _) -> k) hits))

(* An RF3 cluster without the failure detector (a slow or cut link must
   not be repaired under the test), and [n] keys of one partition with
   its master and backups. *)
let run_rf3 f =
  let engine = Sim.Engine.create () in
  let cluster =
    Kv.Cluster.create engine
      { Kv.Cluster.default_config with n_storage_nodes = 4; replication_factor = 3 }
  in
  let result = ref None in
  Sim.Engine.spawn engine (fun () ->
      let client = Kv.Client.create cluster ~group:(Sim.Engine.root_group engine) in
      let dir = Kv.Cluster.directory cluster in
      let p = Kv.Directory.partition_of_key dir "rf3" in
      let keys n =
        let rec go i acc =
          if List.length acc = n then List.rev acc
          else
            let k = Printf.sprintf "rf3/%d" i in
            go (i + 1) (if Kv.Directory.partition_of_key dir k = p then k :: acc else acc)
        in
        go 0 []
      in
      result :=
        Some
          (f engine cluster client ~keys ~master:(Kv.Directory.master dir p)
             ~backups:(Kv.Directory.backups dir p)));
  Sim.Engine.run engine ~until:60_000_000_000 ();
  match !result with Some r -> r | None -> Alcotest.fail "did not finish"

(* The backups of one batch are written in parallel: a batch of n writes
   pays about n x [replication_latency_ns] of replication time, as one
   backup would, not 2n as a chain of two. *)
let test_backups_written_in_parallel () =
  run_rf3 (fun engine cluster client ~keys ~master:_ ~backups ->
      Alcotest.(check int) "two backups" 2 (List.length backups);
      let n = 40 in
      let keys = keys n in
      let started = Sim.Engine.now engine in
      ignore (Kv.Client.multi_write client (List.map (fun k -> Kv.Op.Put (k, "v")) keys));
      let elapsed = Sim.Engine.now engine - started in
      let per_backup = n * (Kv.Cluster.config cluster).replication_latency_ns in
      Alcotest.(check bool)
        (Printf.sprintf "%d ns in [%d, %d)" elapsed per_backup (3 * per_backup / 2))
        true
        (elapsed >= per_backup && elapsed < 3 * per_backup / 2);
      List.iter
        (fun b ->
          Alcotest.(check bool) "every backup holds the batch" true
            (List.for_all
               (fun k -> Kv.Storage_node.find (Kv.Cluster.node cluster b) k <> None)
               keys))
        backups)

(* One master->backup link is cut and every message is slowed, so the
   cut backup's fiber gives up before the healthy one has installed.  The
   batch may raise [Unavailable] only once the healthy backup's fiber has
   settled too: afterwards no straggler installs anything on either
   backup (a replica write landing after the caller saw the failure
   could resurrect a write that recovery rolled back). *)
let test_backup_failure_joins_every_backup () =
  run_rf3 (fun engine cluster client ~keys ~master ~backups ->
      let key = List.hd (keys 1) in
      let cut, healthy =
        match backups with [ a; b ] -> (a, b) | _ -> Alcotest.fail "expected two backups"
      in
      let net = Kv.Cluster.net cluster in
      Sim.Net.cut net ~name:"m->b" ~from_:[ Kv.Cluster.sn_endpoint master ]
        ~to_:[ Kv.Cluster.sn_endpoint cut ] ~symmetric:false;
      let config = Kv.Cluster.config cluster in
      let slow = ((Kv.Client.max_retries + 2) * config.client_timeout_ns) in
      let now = Sim.Engine.now engine in
      Sim.Net.inject_fault net ~from_ns:now ~until_ns:(now + 1_000_000_000) ~extra_ns:slow ();
      let find b = Kv.Storage_node.find (Kv.Cluster.node cluster b) key in
      (match Kv.Client.put client key "v" with
      | () -> Alcotest.fail "a cut backup link must fail the write"
      | exception Kv.Op.Unavailable _ -> ());
      let at_raise = (find cut, find healthy) in
      Alcotest.(check bool) "the cut backup holds nothing" true (fst at_raise = None);
      Alcotest.(check bool) "the healthy backup installed" true (snd at_raise <> None);
      Sim.Engine.sleep engine (10 * slow);
      Alcotest.(check bool) "nothing installed after the raise" true
        ((find cut, find healthy) = at_raise))

let () =
  Alcotest.run "kv"
    [
      ( "llsc",
        [
          Alcotest.test_case "ABA detection" `Quick test_llsc_aba;
          Alcotest.test_case "conditional insert/delete" `Quick test_conditional_insert_delete;
          Alcotest.test_case "atomic increment" `Quick test_increment_is_atomic;
          Alcotest.test_case "replay cache bound" `Quick test_replay_cache_bound;
          Alcotest.test_case "increment replica install is monotone" `Quick
            test_increment_replica_monotone;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "request batching" `Quick test_batching_counts;
          Alcotest.test_case "RF3 survives two failures" `Quick test_replication_preserves_data;
          Alcotest.test_case "writes during failover + RF restore" `Quick test_writes_after_failover;
          Alcotest.test_case "capacity limit" `Quick test_capacity_limit;
          Alcotest.test_case "prefix scan" `Quick test_scan_prefix;
        ] );
      ( "replication",
        [
          Alcotest.test_case "backups written in parallel" `Quick
            test_backups_written_in_parallel;
          Alcotest.test_case "a failed backup joins every backup" `Quick
            test_backup_failure_joins_every_backup;
        ] );
    ]
