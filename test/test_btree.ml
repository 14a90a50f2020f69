(* The latch-free B+tree: model-based random testing against a reference
   map, bulk construction, concurrent insertions from several processing
   nodes, and structural invariants (§5.3). *)

module Sim = Tell_sim
module Kv = Tell_kv
open Tell_core

module Entry_set = Set.Make (struct
  type t = string * int

  let compare = compare
end)

let with_cluster f =
  let engine = Sim.Engine.create () in
  let cluster =
    Kv.Cluster.create engine { Kv.Cluster.default_config with n_storage_nodes = 3 }
  in
  let result = ref None in
  Sim.Engine.spawn engine (fun () -> result := Some (f engine cluster));
  Sim.Engine.run engine ~until:120_000_000_000 ();
  match !result with Some r -> r | None -> Alcotest.fail "simulation did not finish"

let client cluster = Kv.Client.create cluster ~group:(Sim.Engine.root_group (Kv.Cluster.engine cluster))

(* Random operation sequence checked against a set model. *)
let test_model_random () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"model";
      let tree = Btree.attach kv ~name:"model" in
      let rng = Random.State.make [| 1234 |] in
      let model = ref Entry_set.empty in
      for _step = 1 to 1_500 do
        let key = Printf.sprintf "k%03d" (Random.State.int rng 200) in
        let rid = Random.State.int rng 5 in
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            Btree.insert_many tree ~entries:[ (key, rid) ];
            model := Entry_set.add (key, rid) !model
        | 6 | 7 ->
            Btree.remove_many tree ~entries:[ (key, rid) ];
            model := Entry_set.remove (key, rid) !model
        | 8 ->
            let expected =
              Entry_set.elements (Entry_set.filter (fun (k, _) -> k = key) !model)
              |> List.map snd
            in
            Alcotest.(check (list int)) ("lookup " ^ key) expected (Btree.lookup tree ~key)
        | _ ->
            let lo = Printf.sprintf "k%03d" (Random.State.int rng 200) in
            let hi = Printf.sprintf "k%03d" (Random.State.int rng 200) in
            let lo, hi = if lo <= hi then (lo, hi) else (hi, lo) in
            let expected =
              Entry_set.elements (Entry_set.filter (fun (k, _) -> lo <= k && k < hi) !model)
            in
            Alcotest.(check (list (pair string int)))
              (Printf.sprintf "range [%s,%s)" lo hi)
              expected (Btree.range tree ~lo ~hi)
      done;
      Btree.check_invariants tree;
      (* Final full-range sweep. *)
      let all = Btree.range tree ~lo:"" ~hi:"\xff" in
      Alcotest.(check (list (pair string int))) "final contents" (Entry_set.elements !model) all)

(* Enough sequential insertions to force leaf, inner, and root splits. *)
let test_many_inserts_split () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"big";
      let tree = Btree.attach kv ~name:"big" in
      let n = 5_000 in
      for i = 1 to n do
        Btree.insert_many tree ~entries:[ (Printf.sprintf "key%06d" i, i) ]
      done;
      Btree.check_invariants tree;
      Alcotest.(check int) "all entries present" n
        (List.length (Btree.range tree ~lo:"" ~hi:"\xff"));
      (* Point lookups across the range. *)
      for i = 1 to n do
        if i mod 137 = 0 then
          Alcotest.(check (list int))
            (Printf.sprintf "lookup %d" i)
            [ i ]
            (Btree.lookup tree ~key:(Printf.sprintf "key%06d" i))
      done)

(* Concurrent inserters on separate clients (PNs): all entries must end up
   present, without latches, through LL/SC retries alone. *)
let test_concurrent_inserts () =
  with_cluster (fun engine cluster ->
      let kv0 = client cluster in
      Btree.create kv0 ~name:"conc";
      let n_workers = 6 in
      let per_worker = 300 in
      let done_count = ref 0 in
      for w = 0 to n_workers - 1 do
        Sim.Engine.spawn engine (fun () ->
            let kv = client cluster in
            let tree = Btree.attach kv ~name:"conc" in
            for i = 0 to per_worker - 1 do
              let key = Printf.sprintf "k%05d" ((i * n_workers) + w) in
              Btree.insert_many tree ~entries:[ (key, w) ];
              (* Interleave aggressively. *)
              if i mod 7 = 0 then Sim.Engine.sleep engine 1_000
            done;
            incr done_count)
      done;
      (* Wait for every worker. *)
      while !done_count < n_workers do
        Sim.Engine.sleep engine 1_000_000
      done;
      let tree = Btree.attach kv0 ~name:"conc" in
      Btree.check_invariants tree;
      let all = Btree.range tree ~lo:"" ~hi:"\xff" in
      Alcotest.(check int) "all concurrent inserts present" (n_workers * per_worker)
        (List.length all))

(* Bulk construction must agree with incremental construction. *)
let test_bulk_matches_incremental () =
  with_cluster (fun _engine cluster ->
      let entries =
        List.init 2_000 (fun i -> (Printf.sprintf "key%05d" (i * 7 mod 2000), i mod 3))
      in
      let kv = client cluster in
      List.iter
        (fun (key, data) -> Kv.Client.put kv key data)
        (List.map (fun (k, v) -> (k, v)) []);
      ignore kv;
      (* Install bulk cells directly. *)
      List.iter
        (fun (key, data) -> Kv.Cluster.poke cluster ~key ~data)
        (Btree.bulk_cells ~name:"bulk" ~entries);
      let tree = Btree.attach kv ~name:"bulk" in
      Btree.check_invariants tree;
      let expected = List.sort_uniq compare entries in
      Alcotest.(check (list (pair string int)))
        "bulk-built tree contains exactly the entries" expected
        (Btree.range tree ~lo:"" ~hi:"\xff");
      (* And it must remain fully updatable. *)
      Btree.insert_many tree ~entries:[ ("key99999", 1) ];
      Btree.remove_many tree ~entries:[ ("key00000", 0) ];
      Btree.check_invariants tree;
      Alcotest.(check (list int)) "insert after bulk" [ 1 ] (Btree.lookup tree ~key:"key99999"))

let test_range_prefix () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"lim";
      let tree = Btree.attach kv ~name:"lim" in
      for i = 1 to 500 do
        Btree.insert_many tree ~entries:[ (Printf.sprintf "k%04d" i, i) ]
      done;
      let first_10 = Btree.range tree ~lo:"" ~hi:"k0011" in
      Alcotest.(check int) "bound honoured" 10 (List.length first_10);
      Alcotest.(check (pair string int)) "first entry" ("k0001", 1)
        (match first_10 with e :: _ -> e | [] -> Alcotest.fail "empty");
      Alcotest.(check int) "empty range" 0 (List.length (Btree.range tree ~lo:"k0300" ~hi:"k0300")))

let test_lookup_many () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"many";
      let tree = Btree.attach kv ~name:"many" in
      for i = 1 to 2_000 do
        Btree.insert_many tree ~entries:[ (Printf.sprintf "k%05d" i, i) ]
      done;
      let keys =
        List.map (fun i -> Printf.sprintf "k%05d" i) [ 1; 57; 58; 1999; 1500; 12345; 3 ]
      in
      let results = Btree.lookup_many tree ~keys in
      Alcotest.(check int) "one result per key" (List.length keys) (List.length results);
      List.iter2
        (fun key (rkey, rids) ->
          Alcotest.(check string) "input order preserved" key rkey;
          Alcotest.(check (list int)) ("rids for " ^ key) (Btree.lookup tree ~key) rids)
        keys results;
      (* And the batched path agrees after mutations invalidate caches. *)
      Btree.remove_many tree ~entries:[ ("k00057", 57) ];
      Btree.insert_many tree ~entries:[ ("k00057", 5757) ];
      match Btree.lookup_many tree ~keys:[ "k00057" ] with
      | [ (_, rids) ] -> Alcotest.(check (list int)) "fresh value" [ 5757 ] rids
      | _ -> Alcotest.fail "single result expected")

(* Property: one entry per call and whole batches end in the same tree,
   including while concurrent committers on other clients mutate the
   trees.  Two trees receive the same operations — one [insert_many] /
   [remove_many] call per entry on one, one call per batch on the other —
   and must end up with identical [range] results. *)
let test_batched_matches_sequential () =
  with_cluster (fun engine cluster ->
      let kv0 = client cluster in
      Btree.create kv0 ~name:"p_seq";
      Btree.create kv0 ~name:"p_bat";
      (* Concurrent committers: each worker applies its own (disjoint)
         entries to both trees, batched on one and one per call on the other,
         forcing CAS conflicts and splits under the main fiber's feet. *)
      let n_churn = 3 in
      let churn_done = ref 0 in
      for w = 0 to n_churn - 1 do
        Sim.Engine.spawn engine (fun () ->
            let kv = client cluster in
            let seq = Btree.attach kv ~name:"p_seq" in
            let bat = Btree.attach kv ~name:"p_bat" in
            let entries = List.init 120 (fun i -> (Printf.sprintf "c%d_%04d" w i, i)) in
            let rec chunks = function
              | [] -> []
              | l ->
                  let rec take n = function
                    | x :: rest when n > 0 ->
                        let got, rem = take (n - 1) rest in
                        (x :: got, rem)
                    | rest -> ([], rest)
                  in
                  let got, rem = take 20 l in
                  got :: chunks rem
            in
            List.iter
              (fun chunk ->
                List.iter (fun e -> Btree.insert_many seq ~entries:[ e ]) chunk;
                Btree.insert_many bat ~entries:chunk;
                Sim.Engine.sleep engine 2_000)
              (chunks entries);
            let dels = List.filteri (fun i _ -> i mod 3 = 0) entries in
            List.iter (fun e -> Btree.remove_many seq ~entries:[ e ]) dels;
            Btree.remove_many bat ~entries:dels;
            incr churn_done)
      done;
      (* Main fiber: random mixed rounds over a hot shared keyspace. *)
      let kv = client cluster in
      let seq = Btree.attach kv ~name:"p_seq" in
      let bat = Btree.attach kv ~name:"p_bat" in
      let rng = Random.State.make [| 99 |] in
      let model = ref Entry_set.empty in
      for _round = 1 to 40 do
        let adds = ref [] and dels = ref [] in
        for _op = 1 to 25 do
          let key = Printf.sprintf "m%03d" (Random.State.int rng 150) in
          let rid = Random.State.int rng 4 in
          if Random.State.int rng 10 < 7 then begin
            if not (List.mem (key, rid) !adds) then adds := (key, rid) :: !adds
          end
          else if not (List.mem (key, rid) !dels) then dels := (key, rid) :: !dels
        done;
        let adds = List.rev !adds and dels = List.rev !dels in
        List.iter (fun e -> Btree.insert_many seq ~entries:[ e ]) adds;
        Btree.insert_many bat ~entries:adds;
        List.iter (fun e -> Btree.remove_many seq ~entries:[ e ]) dels;
        Btree.remove_many bat ~entries:dels;
        List.iter (fun e -> model := Entry_set.add e !model) adds;
        List.iter (fun e -> model := Entry_set.remove e !model) dels;
        Sim.Engine.sleep engine 1_000
      done;
      while !churn_done < n_churn do
        Sim.Engine.sleep engine 1_000_000
      done;
      Btree.check_invariants seq;
      Btree.check_invariants bat;
      let all_seq = Btree.range seq ~lo:"" ~hi:"\xff" in
      let all_bat = Btree.range bat ~lo:"" ~hi:"\xff" in
      Alcotest.(check (list (pair string int))) "batched tree = sequential tree" all_seq all_bat;
      (* The shared keyspace also matches the reference model exactly. *)
      Alcotest.(check (list (pair string int)))
        "batched tree = model" (Entry_set.elements !model)
        (Btree.range bat ~lo:"m" ~hi:"n"))

(* Property: random batched maintenance against a sorted-assoc model,
   under seeded schedule shuffles.  The key pool is tiny (8 keys) while
   rids span 0..500, so runs of duplicates cross leaf boundaries and
   every descent must compare separators as full (key, rid) entries —
   comparing by key alone would lose or duplicate entries inside a run
   (CLAUDE.md "things that bite"). *)
let test_property_batched_separators () =
  let shuffle rng l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  List.iter
    (fun seed ->
      with_cluster (fun _engine cluster ->
          let kv = client cluster in
          let name = Printf.sprintf "prop%d" seed in
          Btree.create kv ~name;
          let tree = Btree.attach kv ~name in
          let rng = Random.State.make [| seed |] in
          (* The model is a sorted assoc of (key, rid) without duplicates —
             exactly the tree's advertised contents. *)
          let model = ref [] in
          let add e l = if List.mem e l then l else List.sort compare (e :: l) in
          let keys = [| "dA"; "dB"; "dC"; "dD"; "dE"; "dF"; "dG"; "dH" |] in
          let gen_entry () =
            (keys.(Random.State.int rng (Array.length keys)), Random.State.int rng 500)
          in
          for _round = 1 to 20 do
            let batch =
              List.sort_uniq compare (List.init (10 + Random.State.int rng 40) (fun _ -> gen_entry ()))
            in
            (* The shuffle is the property under test: batched maintenance
               must not depend on the submission order of a batch. *)
            let batch = shuffle rng batch in
            if Random.State.int rng 10 < 7 then begin
              Btree.insert_many tree ~entries:batch;
              List.iter (fun e -> model := add e !model) batch
            end
            else begin
              Btree.remove_many tree ~entries:batch;
              List.iter (fun e -> model := List.filter (( <> ) e) !model) batch
            end;
            (* A point lookup through the duplicate run each round: a
               key-only separator comparison would misroute exactly here. *)
            let k = keys.(Random.State.int rng (Array.length keys)) in
            Alcotest.(check (list int))
              (Printf.sprintf "seed %d lookup %s" seed k)
              (List.filter_map (fun (k', r) -> if k' = k then Some r else None) !model)
              (Btree.lookup tree ~key:k)
          done;
          Btree.check_invariants tree;
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "seed %d tree = sorted-assoc model" seed)
            !model
            (Btree.range tree ~lo:"" ~hi:"\xff")))
    [ 7; 21; 42 ]

(* Bε buffered maintenance (§3d): random interleavings of buffered
   enqueues, partial and full flushes, and concurrent direct inserts
   that force splits under the buffer's feet must be equivalent to
   direct application — the merged read view tracks a set model at
   every step, and after a final flush the leaves alone hold exactly
   the model. *)
let test_buffered_matches_direct () =
  List.iter
    (fun seed ->
      with_cluster (fun engine cluster ->
          let kv0 = client cluster in
          let name = Printf.sprintf "beps%d" seed in
          Btree.create kv0 ~name;
          let tree = Btree.attach kv0 ~name in
          (* Direct churn from another client in a disjoint keyspace:
             leaf and inner splits race the flusher's bulk applies. *)
          let churn_done = ref false in
          Sim.Engine.spawn engine (fun () ->
              let kv = client cluster in
              let t2 = Btree.attach kv ~name in
              for i = 1 to 400 do
                Btree.insert_many t2 ~entries:[ (Printf.sprintf "z%05d" i, i) ];
                if i mod 50 = 0 then Sim.Engine.sleep engine 2_000
              done;
              churn_done := true);
          let rng = Random.State.make [| seed |] in
          let model = ref Entry_set.empty in
          for round = 1 to 30 do
            let ops =
              List.init
                (5 + Random.State.int rng 20)
                (fun _ ->
                  let key = Printf.sprintf "b%03d" (Random.State.int rng 120) in
                  let rid = Random.State.int rng 6 in
                  if Random.State.int rng 10 < 7 then Btree.Add (key, rid)
                  else Btree.Del (key, rid))
            in
            Btree.enqueue_many tree ~ops;
            List.iter
              (function
                | Btree.Add e -> model := Entry_set.add e !model
                | Btree.Del e -> model := Entry_set.remove e !model)
              ops;
            (match Random.State.int rng 3 with
            | 0 -> ()
            | 1 ->
                ignore
                  (Btree.flush_stripe tree
                     ~stripe:(Random.State.int rng (Btree.stripe_count tree)))
            | _ -> ignore (Btree.flush_all tree));
            if round mod 5 = 0 then
              Alcotest.(check (list (pair string int)))
                (Printf.sprintf "seed %d round %d merged view" seed round)
                (Entry_set.elements !model)
                (Btree.range tree ~lo:"b" ~hi:"c")
          done;
          while not !churn_done do
            Sim.Engine.sleep engine 1_000_000
          done;
          ignore (Btree.flush_all tree);
          Alcotest.(check int) "no pending after final flush" 0 (Btree.pending_messages tree);
          Btree.check_invariants tree;
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "seed %d leaves = model after flush" seed)
            (Entry_set.elements !model)
            (Btree.range tree ~lo:"b" ~hi:"c");
          Alcotest.(check int) "churn survived the flushes" 400
            (List.length (Btree.range tree ~lo:"z" ~hi:"\xff"))))
    [ 11; 23 ]

(* Every read path against a half-flushed tree: one stripe applied, the
   others still pending.  lookup, lookup_many, and range must all
   merge; the skip-merge mutant must expose the stale leaves; a full
   flush converges the two views. *)
let test_half_flushed_reads () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      (* Bulk-load so the stripe map has real fan-out. *)
      let entries = List.init 2_000 (fun i -> (Printf.sprintf "h%05d" i, i)) in
      List.iter
        (fun (key, data) -> Kv.Cluster.poke cluster ~key ~data)
        (Btree.bulk_cells ~name:"half" ~entries);
      let tree = Btree.attach kv ~name:"half" in
      Alcotest.(check bool) "bulk tree has several stripes" true (Btree.stripe_count tree > 1);
      (* Three messages far enough apart to land in distinct stripes. *)
      Btree.enqueue_many tree
        ~ops:[ Btree.Add ("h00100a", 7); Btree.Del ("h01500", 1500); Btree.Add ("h01900", 9999) ];
      ignore (Btree.flush_stripe tree ~stripe:(Btree.stripe_of tree "h00100a"));
      Alcotest.(check (list int)) "flushed stripe entry" [ 7 ] (Btree.lookup tree ~key:"h00100a");
      Alcotest.(check (list int)) "pending delete hides the leaf entry" []
        (Btree.lookup tree ~key:"h01500");
      Alcotest.(check (list int)) "pending add merges with the leaf" [ 1900; 9999 ]
        (Btree.lookup tree ~key:"h01900");
      Alcotest.(check (list (pair string int)))
        "range merges the delete"
        [ ("h01499", 1499); ("h01501", 1501) ]
        (Btree.range tree ~lo:"h01499" ~hi:"h01502");
      (match Btree.lookup_many tree ~keys:[ "h01500"; "h01900" ] with
      | [ (_, a); (_, b) ] ->
          Alcotest.(check (list int)) "lookup_many merges the delete" [] a;
          Alcotest.(check (list int)) "lookup_many merges the add" [ 1900; 9999 ] b
      | _ -> Alcotest.fail "two results expected");
      (* The harness mutant: reads that skip the merge see stale leaves. *)
      Btree.unsafe_set_skip_buffer_merge true;
      Fun.protect
        ~finally:(fun () -> Btree.unsafe_set_skip_buffer_merge false)
        (fun () ->
          Alcotest.(check (list int)) "skip-merge resurrects the deleted entry" [ 1500 ]
            (Btree.lookup tree ~key:"h01500");
          Alcotest.(check (list int)) "skip-merge hides the pending add" [ 1900 ]
            (Btree.lookup tree ~key:"h01900"));
      ignore (Btree.flush_all tree);
      Alcotest.(check int) "nothing pending" 0 (Btree.pending_messages tree);
      Btree.check_invariants tree;
      Alcotest.(check (list int)) "after flush: delete applied" []
        (Btree.lookup tree ~key:"h01500");
      Alcotest.(check (list int)) "after flush: add applied" [ 1900; 9999 ]
        (Btree.lookup tree ~key:"h01900"))

(* A pending delete in the first leaf and a pending add past the last
   leaf cancel out in the entry count: a full-tree range must still hide
   the deleted entry and append the added one — the first hop's merge
   and the right-walk's leaves meet in one result. *)
let test_range_del_add_cancel () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      let entries = List.init 2_000 (fun i -> (Printf.sprintf "r%05d" i, i)) in
      List.iter
        (fun (key, data) -> Kv.Cluster.poke cluster ~key ~data)
        (Btree.bulk_cells ~name:"rlim" ~entries);
      let tree = Btree.attach kv ~name:"rlim" in
      Btree.enqueue_many tree ~ops:[ Btree.Del ("r00001", 1); Btree.Add ("r99999", 1) ];
      Alcotest.(check (list (pair string int)))
        "deleted entry hidden, added entry last"
        (List.filter (fun (k, _) -> k <> "r00001") entries @ [ ("r99999", 1) ])
        (Btree.range tree ~lo:"" ~hi:"s");
      Btree.enqueue_many tree ~ops:[ Btree.Add ("r00000a", 7) ];
      Alcotest.(check (list (pair string int)))
        "in-leaf add merges in place"
        [ ("r00000", 0); ("r00000a", 7); ("r00002", 2) ]
        (Btree.range tree ~lo:"" ~hi:"r00003"))

(* The first hop plus right-walk against a sorted-assoc model: a
   bulk-loaded, duplicate-heavy tree spanning many leaves and stripes,
   one stripe flushed and the others pending.  Random ranges cross leaf
   and stripe boundaries (duplicate runs straddle leaves, so routing
   must compare full (key, rid) entries), and point lookups — single
   and batched, with repeated and absent keys — must match the model. *)
let test_reads_vs_model () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      let key i = Printf.sprintf "d%03d" i in
      (* 40 keys x 50 rids: every duplicate run is longer than a leaf. *)
      let entries = List.init 2_000 (fun i -> (key (i / 50), i mod 50 * 2)) in
      List.iter
        (fun (key, data) -> Kv.Cluster.poke cluster ~key ~data)
        (Btree.bulk_cells ~name:"rmodel" ~entries);
      let tree = Btree.attach kv ~name:"rmodel" in
      Alcotest.(check bool) "several stripes" true (Btree.stripe_count tree > 4);
      let rng = Random.State.make [| 2015 |] in
      let model = ref (List.sort compare entries) in
      let ops =
        List.init 300 (fun _ ->
            let e = (key (Random.State.int rng 42), Random.State.int rng 110) in
            if Random.State.bool rng then Btree.Add e else Btree.Del e)
      in
      Btree.enqueue_many tree ~ops;
      List.iter
        (function
          | Btree.Add e -> if not (List.mem e !model) then model := List.sort compare (e :: !model)
          | Btree.Del e -> model := List.filter (( <> ) e) !model)
        ops;
      ignore (Btree.flush_stripe tree ~stripe:(Btree.stripe_of tree (key 20)));
      Alcotest.(check bool) "other stripes still pending" true (Btree.pending_messages tree > 0);
      let bound () =
        (* Exact keys, points between keys, and both ends of the space. *)
        match Random.State.int rng 6 with
        | 0 -> ""
        | 1 -> "\xff"
        | 2 -> key (Random.State.int rng 42) ^ "m"
        | _ -> key (Random.State.int rng 42)
      in
      for i = 1 to 60 do
        let a = bound () and b = bound () in
        let lo, hi = if a <= b then (a, b) else (b, a) in
        Alcotest.(check (list (pair string int)))
          (Printf.sprintf "range %d [%S, %S)" i lo hi)
          (List.filter (fun (k, _) -> lo <= k && k < hi) !model)
          (Btree.range tree ~lo ~hi)
      done;
      let rids k = List.filter_map (fun (k', r) -> if k' = k then Some r else None) !model in
      for i = 0 to 41 do
        Alcotest.(check (list int)) ("lookup " ^ key i) (rids (key i)) (Btree.lookup tree ~key:(key i))
      done;
      for round = 1 to 10 do
        let keys = List.init 12 (fun _ -> key (Random.State.int rng 44)) in
        Alcotest.(check (list (pair string (list int))))
          (Printf.sprintf "lookup_many round %d" round)
          (List.map (fun k -> (k, rids k)) keys)
          (Btree.lookup_many tree ~keys)
      done)

let test_duplicate_keys () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"dup";
      let tree = Btree.attach kv ~name:"dup" in
      (* Many rids under the same attribute key (non-unique index). *)
      for rid = 1 to 200 do
        Btree.insert_many tree ~entries:[ ("same", rid) ]
      done;
      Alcotest.(check int) "all duplicates" 200 (List.length (Btree.lookup tree ~key:"same"));
      Btree.remove_many tree ~entries:[ ("same", 77) ];
      let rids = Btree.lookup tree ~key:"same" in
      Alcotest.(check int) "one removed" 199 (List.length rids);
      Alcotest.(check bool) "right one removed" false (List.mem 77 rids))

(* One batch overflowing an empty leaf several times over is split in
   the same round into as many pieces as it needs: a few store requests
   for routing, the fetch, the pieces and their separators — not a
   traversal and a CAS per entry. *)
let test_batch_overflow_splits_in_one_round () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"burst";
      let tree = Btree.attach kv ~name:"burst" in
      let entries = List.init 240 (fun i -> (Printf.sprintf "b%04d" (i * 7 mod 240), i)) in
      let before = Kv.Client.requests_sent kv in
      Btree.insert_many tree ~entries;
      let requests = Kv.Client.requests_sent kv - before in
      Btree.check_invariants tree;
      let all = Btree.range tree ~lo:"" ~hi:"\xff" in
      Alcotest.(check (list (pair string int)))
        "every entry present" (List.sort compare entries) all;
      (* Leaf cells are the tree's node cells tagged 'L'. *)
      let leaves =
        List.length
          (List.filter
             (fun (_, data, _) -> data.[0] = 'L')
             (Kv.Client.scan_all kv ~prefix:"i/burst/n/"))
      in
      Alcotest.(check bool) (Printf.sprintf "%d leaves >= 4" leaves) true (leaves >= 4);
      Alcotest.(check bool)
        (Printf.sprintf "%d store requests <= 50" requests)
        true (requests <= 50))

(* §3c fix: the loser of a concurrent split could leak an unreachable
   node when its cleanup (or a later step of the split) was interrupted
   by an exception.  Suspects are stashed on the handle and reclaimed at
   the next mutation — provably stranded nodes are deleted, linked nodes
   survive even when over-stashed. *)
let test_orphan_reclaim () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"orph";
      let tree = Btree.attach kv ~name:"orph" in
      for i = 1 to 300 do
        Btree.insert_many tree ~entries:[ (Printf.sprintf "k%04d" i, i) ]
      done;
      (* A stranded node: stored, never linked. *)
      let orphan = Btree.debug_make_orphan tree ~key:"k0150" ~rid:999 in
      Alcotest.(check bool) "orphan stored" true (Btree.debug_node_exists tree orphan);
      Alcotest.(check int) "stashed" 1 (Btree.orphan_count tree);
      (* The next mutation reclaims it. *)
      Btree.insert_many tree ~entries:[ ("k9999", 1) ];
      Alcotest.(check int) "stash drained" 0 (Btree.orphan_count tree);
      Alcotest.(check bool) "orphan deleted" false (Btree.debug_node_exists tree orphan);
      (* The stranded entry never became visible. *)
      Alcotest.(check (list int)) "not visible" [ 150 ] (Btree.lookup tree ~key:"k0150");
      (* Over-stashing live nodes must reclaim nothing: stash every
         allocated node id and verify the tree survives intact. *)
      let top = Kv.Client.increment kv (Keys.index_node_counter ~index:"orph") 0 in
      for id = 1 to top do
        Btree.stash_orphan tree id
      done;
      Btree.reclaim_orphans tree;
      Btree.check_invariants tree;
      Alcotest.(check int) "no live node dropped" 301
        (List.length (Btree.range tree ~lo:"" ~hi:"\xff")))

(* Deep same-leaf contention: eight fibers CAS-racing duplicate entries
   into one hot leaf used to exhaust the 64-attempt budget on some seeds
   ([Invalid_argument "too many conflicts"]).  The deterministic growing
   retry pause must ride it out. *)
let run_hot_leaf seed =
  let engine = Sim.Engine.create () in
  let cluster =
    Kv.Cluster.create engine { Kv.Cluster.default_config with n_storage_nodes = 3; seed }
  in
  let result = ref None in
  Sim.Engine.spawn engine (fun () ->
      let kv0 = client cluster in
      Btree.create kv0 ~name:"hot";
      let n_workers = 8 and per_worker = 25 in
      let done_count = ref 0 in
      for w = 0 to n_workers - 1 do
        Sim.Engine.spawn engine (fun () ->
            let kv = client cluster in
            let tree = Btree.attach kv ~name:"hot" in
            for i = 0 to per_worker - 1 do
              Btree.insert_many tree ~entries:[ ("hot", (w * per_worker) + i) ]
            done;
            incr done_count)
      done;
      while !done_count < n_workers do
        Sim.Engine.sleep engine 1_000_000
      done;
      let tree = Btree.attach kv0 ~name:"hot" in
      Btree.check_invariants tree;
      result := Some (List.length (Btree.lookup tree ~key:"hot")));
  Sim.Engine.run engine ~until:120_000_000_000 ();
  match !result with
  | Some n -> Alcotest.(check int) (Printf.sprintf "seed %d all present" seed) 200 n
  | None -> Alcotest.fail (Printf.sprintf "seed %d did not finish" seed)

let test_hot_leaf_contention () = List.iter run_hot_leaf [ 1; 4; 6 ]

(* A crash between a leaf split's CAS and its separator insert leaves the
   right piece linked only by its left sibling's [next].  Routing through
   the parent keeps landing on the left sibling, whose high key is below
   the entries: the batched writer must walk right instead of re-routing
   until "too many conflicts" (bug 19, DESIGN.md §6). *)
let test_missing_separator_walks_right () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"nosep";
      let tree = Btree.attach kv ~name:"nosep" in
      let entries = List.init 300 (fun i -> (Printf.sprintf "k%04d" i, i)) in
      Btree.insert_many tree ~entries;
      Btree.debug_drop_separator tree ~key:"k0200";
      let beyond = [ ("k0200a", 1000); ("k0200b", 1001) ] in
      Btree.insert_many tree ~entries:beyond;
      Alcotest.(check (list int)) "inserted beyond the high key" [ 1000 ]
        (Btree.lookup tree ~key:"k0200a");
      Btree.remove_many tree ~entries:[ ("k0200b", 1001) ];
      Alcotest.(check (list (pair string int)))
        "every entry present" (List.sort compare (("k0200a", 1000) :: entries))
        (Btree.range tree ~lo:"" ~hi:"\xff"))

let () =
  Alcotest.run "btree"
    [
      ( "btree",
        [
          Alcotest.test_case "model-based random ops" `Quick test_model_random;
          Alcotest.test_case "splits under sequential load" `Quick test_many_inserts_split;
          Alcotest.test_case "concurrent inserts (latch-free)" `Quick test_concurrent_inserts;
          Alcotest.test_case "bulk build = incremental" `Quick test_bulk_matches_incremental;
          Alcotest.test_case "range over a key prefix" `Quick test_range_prefix;
          Alcotest.test_case "duplicate keys" `Quick test_duplicate_keys;
          Alcotest.test_case "lookup_many batched" `Quick test_lookup_many;
          Alcotest.test_case "batched maintenance = sequential" `Quick
            test_batched_matches_sequential;
          Alcotest.test_case "property: shuffled batches vs sorted-assoc model" `Quick
            test_property_batched_separators;
          Alcotest.test_case "property: buffered maintenance = direct" `Quick
            test_buffered_matches_direct;
          Alcotest.test_case "half-flushed reads merge pending messages" `Quick
            test_half_flushed_reads;
          Alcotest.test_case "range vs cancelling del/add messages" `Quick
            test_range_del_add_cancel;
          Alcotest.test_case "property: reads vs sorted-assoc model, half-flushed" `Quick
            test_reads_vs_model;
          Alcotest.test_case "orphan reclamation after interrupted splits" `Quick
            test_orphan_reclaim;
          Alcotest.test_case "hot-leaf contention survives the attempt budget" `Quick
            test_hot_leaf_contention;
          Alcotest.test_case "one overflowing batch splits in one round" `Quick
            test_batch_overflow_splits_in_one_round;
          Alcotest.test_case "a missing separator is walked right" `Quick
            test_missing_separator_walks_right;
        ] );
    ]
