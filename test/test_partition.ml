(* Partition tolerance and zombie fencing (§4.4, DESIGN.md §6): the
   link-level fault plan of the network model, the epoch fence that stops
   a falsely-declared-dead PN from writing after the partition heals, the
   commit-manager replacement failure path when the store is unreachable,
   retry-backoff jitter bounds, and a smoke pass over the harness's
   partition scenarios. *)

module Sim = Tell_sim
module Kv = Tell_kv
open Tell_core
module Check = Tell_harness.Check

let run_sim ?(until = 60_000_000_000) f =
  let engine = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn engine (fun () -> result := Some (f engine));
  Sim.Engine.run engine ~until ();
  match !result with Some r -> r | None -> Alcotest.fail "did not finish"

(* --- link-level fault plan -------------------------------------------------------- *)

let test_net_cuts () =
  run_sim ~until:1_000_000_000 (fun engine ->
      let net = Sim.Net.create engine (Sim.Rng.make 5) Sim.Net.infiniband in
      let send src dst = Sim.Net.send net ~src ~dst ~bytes:64 in
      Alcotest.(check bool) "clean link delivers" true (send "a" "b" = `Delivered);
      Sim.Net.cut net ~name:"oneway" ~from_:[ "a" ] ~to_:[ "b" ] ~symmetric:false;
      Alcotest.(check bool) "one-way cut drops a->b" true (send "a" "b" = `Dropped);
      Alcotest.(check bool) "one-way cut spares b->a" true (send "b" "a" = `Delivered);
      Sim.Net.cut net ~name:"full" ~from_:[ "c" ] ~to_:[ "d"; "e" ] ~symmetric:true;
      Alcotest.(check bool) "symmetric cut drops c->d" true (send "c" "d" = `Dropped);
      Alcotest.(check bool) "symmetric cut drops e->c" true (send "e" "c" = `Dropped);
      Alcotest.(check bool) "cut is per-link" true (send "d" "e" = `Delivered);
      Alcotest.(check (list string))
        "active cuts listed" [ "full"; "oneway" ]
        (List.sort String.compare (Sim.Net.active_cuts net));
      Sim.Net.heal net ~name:"oneway";
      Alcotest.(check bool) "healed link delivers" true (send "a" "b" = `Delivered);
      Sim.Net.heal net ~name:"full";
      Alcotest.(check (list string)) "all cuts healed" [] (Sim.Net.active_cuts net);
      let sent, dropped, _ = Sim.Net.link_counts net ~src:"a" ~dst:"b" in
      Alcotest.(check int) "a->b sent counter" 3 sent;
      Alcotest.(check int) "a->b dropped counter" 1 dropped)

let test_net_loss () =
  run_sim ~until:1_000_000_000 (fun engine ->
      let net = Sim.Net.create engine (Sim.Rng.make 6) Sim.Net.infiniband in
      let send () = Sim.Net.send net ~src:"a" ~dst:"b" ~bytes:64 in
      Sim.Net.set_loss net ~src:"a" ~dst:"b" ~drop:1.0 ();
      Alcotest.(check bool) "drop=1 loses everything" true (send () = `Dropped);
      Sim.Net.set_loss net ~src:"a" ~dst:"b" ~dup:1.0 ();
      Alcotest.(check bool) "dup=1 still delivers" true (send () = `Delivered);
      Alcotest.(check bool) "duplication counted" true (Sim.Net.messages_duplicated net > 0);
      Sim.Net.clear_loss net ~src:"a" ~dst:"b";
      let before = Sim.Net.messages_dropped net in
      Sim.Net.set_loss net ~src:"a" ~dst:"b" ~drop:0.3 ();
      let lost = ref 0 in
      for _ = 1 to 200 do
        if send () = `Dropped then incr lost
      done;
      Alcotest.(check bool) "probabilistic loss drops some" true (!lost > 0);
      Alcotest.(check bool) "probabilistic loss delivers some" true (!lost < 200);
      Alcotest.(check int) "drop counter tracks" (before + !lost) (Sim.Net.messages_dropped net);
      Sim.Net.clear_loss net ~src:"a" ~dst:"b";
      Alcotest.(check bool) "cleared link delivers" true (send () = `Delivered))

(* --- zombie fencing --------------------------------------------------------------- *)

let setup pn rows =
  ignore (Database.exec pn "CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))");
  List.iter
    (fun (id, v) ->
      ignore (Database.exec pn (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" id v)))
    rows

let rid_of pn id =
  Database.with_txn pn (fun txn ->
      match Txn.index_lookup txn ~index:"pk_t" ~key:(Codec.encode_key [ Value.Int id ]) with
      | [ rid ] -> rid
      | _ -> Alcotest.fail "pk lookup")

let value_of pn id =
  match Database.exec pn (Printf.sprintf "SELECT v FROM t WHERE id = %d" id) with
  | Sql_plan.Rows { rows = [ [| Value.Int v |] ]; _ } -> v
  | _ -> Alcotest.fail "read failed"

(* A PN is fully partitioned with a commit in flight, falsely declared
   dead behind the cut, and the partition heals: the stuck commit's next
   retry must bounce off the epoch fence ([Fenced]), the node must poison
   itself, and none of its writes may survive. *)
let test_zombie_fence () =
  let engine = Sim.Engine.create () in
  let kv_config =
    { Kv.Cluster.default_config with n_storage_nodes = 3; replication_factor = 2 }
  in
  let db = Database.create engine ~kv_config () in
  let pn = Database.add_pn db () in
  let pn2 = Database.add_pn db () in
  let cluster = Database.cluster db in
  let net = Kv.Cluster.net cluster in
  let outcome = ref `Pending in
  let epoch_before = ref (-1) and rolled = ref (-1) and survivor_view = ref (-1) in
  Sim.Engine.spawn engine ~group:(Pn.group pn) (fun () ->
      setup pn [ (1, 100) ];
      let rid = rid_of pn 1 in
      Sim.Engine.sleep engine 1_000_000;
      match
        Database.with_txn pn (fun txn ->
            (match Txn.read txn ~table:"t" ~rid with
            | Some row -> Txn.update txn ~table:"t" ~rid [| row.(0); Value.Int 999 |]
            | None -> Alcotest.fail "row missing");
            (* Hold the transaction open across the cut installed at
               t=2ms: the commit fires at t=3ms into the partition and
               spends its retry budget against silence. *)
            Sim.Engine.sleep engine 2_000_000)
      with
      | () -> outcome := `Committed
      | exception Kv.Op.Fenced _ -> outcome := `Fenced
      | exception _ -> outcome := `Other);
  Sim.Engine.spawn engine ~group:(Kv.Cluster.mgmt_group cluster) (fun () ->
      Sim.Engine.sleep engine 2_000_000;
      epoch_before := Kv.Cluster.current_epoch cluster;
      let fabric =
        List.init 3 Kv.Cluster.sn_endpoint
        @ List.map Commit_manager.endpoint (Database.commit_managers db)
        @ [ Kv.Cluster.mgmt_endpoint ]
      in
      Sim.Net.cut net ~name:"zombie" ~from_:[ Pn.endpoint pn ] ~to_:fabric ~symmetric:true;
      Sim.Engine.sleep engine 2_000_000;
      (* Declared dead behind the cut: the epoch fence lands on every
         storage node while the victim cannot see any of it. *)
      rolled := Database.declare_pn_dead db pn;
      Sim.Engine.sleep engine 1_000_000;
      Sim.Net.heal net ~name:"zombie";
      (* Well after the zombie's retries have bounced: read through the
         surviving PN. *)
      Sim.Engine.sleep engine 20_000_000;
      survivor_view := value_of pn2 1);
  Sim.Engine.run engine ~until:1_000_000_000 ();
  Alcotest.(check bool) "commit bounced with Fenced" true (!outcome = `Fenced);
  Alcotest.(check bool) "zombie poisoned itself" true (Pn.was_fenced pn);
  Alcotest.(check bool) "zombie no longer serves" false (Pn.alive pn);
  Alcotest.(check bool) "declaration bumped the epoch" true
    (Kv.Cluster.current_epoch cluster > !epoch_before);
  Alcotest.(check bool) "storage nodes bounced fenced writes" true
    (Array.fold_left
       (fun acc sn -> acc + Kv.Storage_node.fenced_rejects sn)
       0
       (Kv.Cluster.nodes cluster)
    > 0);
  Alcotest.(check int) "no committed work was rolled back" 0 !rolled;
  Alcotest.(check int) "the zombie's write never became visible" 100 !survivor_view

(* --- commit-manager replacement failure path -------------------------------------- *)

(* Standing up a replacement while the dead manager's identity cannot
   reach the store must fail cleanly: [replace_commit_manager] raises
   [Unavailable], registers nothing, and a retry after the heal
   succeeds.  [fence_senders] must return even though its fence
   installation messages race the same conditions. *)
let test_replace_cm_unreachable () =
  run_sim (fun engine ->
      let kv_config =
        { Kv.Cluster.default_config with n_storage_nodes = 3; replication_factor = 2 }
      in
      let db = Database.create engine ~kv_config ~n_commit_managers:2 () in
      let pn = Database.add_pn db () in
      setup pn [ (1, 100) ];
      let cluster = Database.cluster db in
      let net = Kv.Cluster.net cluster in
      let dead = List.nth (Database.commit_managers db) 1 in
      Commit_manager.crash dead;
      (* The replacement inherits the dead instance's identity ("cm1"),
         so this cut starves its log-recovery reads. *)
      Sim.Net.cut net ~name:"cm-isolated"
        ~from_:[ Commit_manager.endpoint dead ]
        ~to_:(List.init 3 Kv.Cluster.sn_endpoint)
        ~symmetric:true;
      (match Database.replace_commit_manager db ~dead with
      | _ -> Alcotest.fail "replacement recovered through a cut"
      | exception Kv.Op.Unavailable _ -> ());
      Alcotest.(check bool) "failed replacement registers nothing" true
        (List.memq dead (Database.commit_managers db));
      (* The fence landed regardless (it is installed node-locally even
         when its notification messages are lost) and returned promptly
         despite the turbulence. *)
      let epoch = Kv.Cluster.fence_senders cluster ~senders:[ "nobody" ] in
      Alcotest.(check bool) "fence_senders returns under partition" true (epoch > 0);
      Sim.Net.heal net ~name:"cm-isolated";
      let fresh = Database.replace_commit_manager db ~dead in
      Alcotest.(check bool) "post-heal replacement is live" true (Commit_manager.alive fresh);
      Alcotest.(check bool) "replacement took the dead slot" true
        (List.memq fresh (Database.commit_managers db)
        && not (List.memq dead (Database.commit_managers db)));
      (* The deployment still commits transactions through the fresh manager. *)
      let rid = rid_of pn 1 in
      Database.with_txn pn (fun txn ->
          match Txn.read txn ~table:"t" ~rid with
          | Some row -> Txn.update txn ~table:"t" ~rid [| row.(0); Value.Int 101 |]
          | None -> Alcotest.fail "row missing");
      Alcotest.(check int) "writes commit after the repair" 101 (value_of pn 1))

(* --- index scans during an in-flight commit ------------------------------------- *)

(* A commit's stripe append can land before its record Put_if, which
   rides the same multi-write to another storage node.  Cut the inserting
   PN's link to the record's node so the append lands and the record
   write retries against silence, scan the index from another PN while
   the entry has no record behind it, then heal: the committed row must
   still be reachable through the index.  A scan that retires an entry
   on one "no matching version" sighting deletes it for good here. *)
let test_index_scan_keeps_in_flight_entry () =
  run_sim (fun engine ->
      let kv_config =
        { Kv.Cluster.default_config with n_storage_nodes = 3; replication_factor = 1 }
      in
      let db = Database.create engine ~kv_config () in
      let pn1 = Database.add_pn db () and pn2 = Database.add_pn db () in
      let cluster = Database.cluster db in
      let dir = Kv.Cluster.directory cluster in
      let sn_of key = Kv.Directory.master dir (Kv.Directory.partition_of_key dir key) in
      ignore (Database.exec pn1 "CREATE TABLE people (id INT, name TEXT, city TEXT, PRIMARY KEY (id))");
      ignore (Database.exec pn1 "CREATE INDEX idx_city ON people (city)");
      ignore (Database.exec pn1 "INSERT INTO people VALUES (1, 'ann', 'zurich')");
      let zurich_names pn =
        match
          Database.exec pn "SELECT name FROM people WHERE city = 'zurich' ORDER BY name"
        with
        | Sql_plan.Rows { rows; _ } ->
            List.map (function [| Value.Str s |] -> s | _ -> Alcotest.fail "row shape") rows
        | _ -> Alcotest.fail "select failed"
      in
      let stripe_sn = sn_of (Keys.index_buffer ~index:"idx_city" ~stripe:0) in
      (* Open inserts until the record, the stripe cell and the log entry
         sit on three different storage nodes; abandon the others. *)
      let rec open_insert id =
        let txn = Txn.begin_txn pn1 in
        ignore
          (Database.exec_in txn
             (Printf.sprintf "INSERT INTO people VALUES (%d, 'zed%d', 'zurich')" id id));
        let rid =
          match Txn.index_range txn ~index:"idx_city" ~lo:"" ~hi:"\xff" with
          | entries -> List.fold_left (fun acc (_, rid) -> max acc rid) 0 entries
        in
        let record_sn = sn_of (Keys.record ~table:"people" ~rid) in
        let log_sn = sn_of (Keys.log_entry ~tid:(Txn.tid txn)) in
        if record_sn <> stripe_sn && record_sn <> log_sn then (txn, id, record_sn)
        else begin
          Txn.abort txn;
          open_insert (id + 1)
        end
      in
      let txn, id, record_sn = open_insert 2 in
      let net = Kv.Cluster.net cluster in
      Sim.Net.cut net ~name:"record" ~from_:[ Pn.endpoint pn1 ]
        ~to_:[ Kv.Cluster.sn_endpoint record_sn ] ~symmetric:true;
      let committed = ref false in
      Sim.Engine.spawn engine ~group:(Pn.group pn1) (fun () ->
          Txn.commit txn;
          Notifier.drain (Pn.notifier pn1);
          committed := true);
      Sim.Engine.sleep engine 1_000_000;
      Alcotest.(check bool) "commit stalled behind the cut" false !committed;
      Alcotest.(check (list string)) "in-flight row not visible yet" [ "ann" ] (zurich_names pn2);
      Sim.Net.heal net ~name:"record";
      while not !committed do
        Sim.Engine.sleep engine 1_000_000
      done;
      Alcotest.(check (list string))
        "committed row found through the index"
        [ "ann"; Printf.sprintf "zed%d" id ]
        (zurich_names pn2))

(* --- retry-backoff jitter ---------------------------------------------------------- *)

let test_backoff_jitter () =
  run_sim (fun engine ->
      let kv_config =
        { Kv.Cluster.default_config with n_storage_nodes = 2; replication_factor = 1 }
      in
      let db = Database.create engine ~kv_config () in
      let pn = Database.add_pn db () in
      let client = Pn.kv pn in
      let mean samples = List.fold_left ( + ) 0 samples / List.length samples in
      let sample attempts =
        List.init 200 (fun _ -> Kv.Client.backoff_ns client ~attempts)
      in
      let late = sample 1 and early = sample Kv.Client.max_retries in
      List.iter
        (fun samples ->
          let lo = List.fold_left min max_int samples
          and hi = List.fold_left max 0 samples in
          Alcotest.(check bool) "jitter stays within [base/2, 3*base/2)" true (hi < 3 * lo);
          Alcotest.(check bool) "pauses are jittered, not constant" true (hi > lo))
        [ early; late ];
      (* Exponential shape: each burned retry doubles the base pause. *)
      let ratio = float_of_int (mean late) /. float_of_int (mean early) in
      let expected = float_of_int (1 lsl (Kv.Client.max_retries - 1)) in
      Alcotest.(check bool) "backoff doubles per burned retry" true
        (ratio > 0.8 *. expected && ratio < 1.2 *. expected))

(* --- harness partition scenarios --------------------------------------------------- *)

let run_scenario seed scenario =
  let o = Check.run_one ~seed ~scenario () in
  Alcotest.(check (list string))
    (Printf.sprintf "seed %d %s: no violations" seed (Check.scenario_name scenario))
    [] o.Check.o_violations;
  Alcotest.(check bool)
    (Printf.sprintf "seed %d %s: made progress" seed (Check.scenario_name scenario))
    true
    (o.Check.o_committed > 0)

let test_partition_scenarios () =
  run_scenario 201 Check.Pn_cut;
  run_scenario 202 Check.Pn_cm_asym;
  run_scenario 203 Check.Flaky;
  run_scenario 204 Check.Recovery_partition;
  run_scenario 205 Check.Zombie

(* Regression pin (DESIGN.md §6, bug 11): seed 15 under pn-cut is the
   schedule where a partition delayed the notifier's log flush long
   enough for the tid-reclamation sweep to read an acknowledged commit's
   unflagged entry as an abort and roll its versions back.  The exact
   harness repro is `tell_check --seed 15 --scenario pn-cut`; keep this
   seed green. *)
let test_pn_cut_seed15_pin () = run_scenario 15 Check.Pn_cut

let () =
  Alcotest.run "partition"
    [
      ( "partitions",
        [
          Alcotest.test_case "link cuts: one-way, symmetric, heal" `Quick test_net_cuts;
          Alcotest.test_case "link loss and duplication" `Quick test_net_loss;
          Alcotest.test_case "zombie bounces off the epoch fence" `Quick test_zombie_fence;
          Alcotest.test_case "cm replacement fails cleanly when unreachable" `Quick
            test_replace_cm_unreachable;
          Alcotest.test_case "retry backoff is jittered exponential" `Quick
            test_backoff_jitter;
          Alcotest.test_case "harness partition scenarios" `Slow test_partition_scenarios;
          Alcotest.test_case "pin: pn-cut seed 15 (bug 11)" `Slow test_pn_cut_seed15_pin;
          Alcotest.test_case "index scan keeps an in-flight commit's entry" `Quick
            test_index_scan_keeps_in_flight_entry;
        ] );
    ]
