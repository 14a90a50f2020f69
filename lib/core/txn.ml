module Kv = Tell_kv

exception Conflict of string
exception Finished

type status = Running | Committed | Aborted

type isolation = Snapshot_isolation | Serializable

type cached = { record : Record.t; token : int }

type write = {
  w_table : string;
  w_rid : int;
  mutable w_payload : Record.payload;
  w_base : cached option;  (* None: insert, the key must be absent *)
  mutable w_index_adds : (string * string) list;  (* (index name, encoded key) *)
}

type t = {
  pn : Pn.t;
  cm : Commit_manager.t;
  tid : int;
  isolation : isolation;
  snapshot : Version_set.t;
  lav : int;
  cache : (string, cached option) Hashtbl.t;  (* record key -> store state *)
  read_tokens : (string, int option) Hashtbl.t;
      (* Serializable mode: LL/SC token of every record at first read
         (None = the record was absent), re-validated at commit. *)
  writes : (string, write) Hashtbl.t;
  mutable write_order : string list;  (* newest first *)
  mutable async_reads : (string * int) list;
      (* point reads registered by [read_async] awaiting their shared
         batched fetch (newest first) *)
  mutable status : status;
}

type read_future = { rf_table : string; rf_rid : int }

(* Observation hook for the check harness: fired once per successful
   commit, after the status flips but before the asynchronous notifier
   tail.  Zero-cost when unset; never suspends. *)
type commit_probe =
  tid:int -> pn_id:int -> snapshot:Version_set.t -> write_set:string list -> unit

let commit_probe : commit_probe option ref = ref None
let set_commit_probe probe = commit_probe := probe

(* Test-only mutation knob for the histcheck battery (DESIGN.md §7): when
   set, both conflict checks are deliberately broken — the begin-time
   invisible-version abort is skipped and a failed commit-time LL/SC is
   "resolved" by merging the lost version over whatever won the race.
   The resulting histories must be rejected by the SI anomaly checker
   (lost update / G-SI); a checker that accepts them is itself broken.
   Never set outside tests. *)
let weaken_conflict_detection = ref false
let unsafe_set_weaken_conflict_detection flag = weaken_conflict_detection := flag

(* History capture (opt-in, see History): the version a read resolved to
   under this transaction's snapshot.  Version 0 stands for both the
   bulk-load version and an absent record — indistinguishable to a
   snapshot, both are "the initial version". *)
let note_observed t ~key state =
  if History.recording () then
    History.note_read ~tid:t.tid ~key
      ~version:
        (match state with
        | None -> 0
        | Some { record; _ } -> (
            match Record.latest_visible record ~visible:(fun v -> Version_set.mem t.snapshot v) with
            | Some v -> v.Record.version
            | None -> 0))

let fire_commit_probe t ~write_set =
  match !commit_probe with
  | None -> ()
  | Some probe -> probe ~tid:t.tid ~pn_id:(Pn.id t.pn) ~snapshot:t.snapshot ~write_set

let begin_txn ?(isolation = Snapshot_isolation) pn =
  (* A crashed node refuses connections.  Without this, a client holding
     a stale connection would register an active transaction with the
     commit manager and then hang forever on the dead node's CPU queue —
     an undecidable tid that wedges every snapshot base. *)
  if not (Pn.alive pn) then raise (Kv.Op.Unavailable (Printf.sprintf "pn%d" (Pn.id pn)));
  (* Flush this PN's pending commit notifications first: a transaction
     must see every commit that returned on its own PN (read your own
     node's writes), so their tids have to reach the commit manager
     before we fetch a snapshot from it. *)
  Notifier.drain (Pn.notifier pn);
  (* The drain may have discovered we are a fenced zombie (a flush
     bounced and poisoned the node): refuse like a crashed node. *)
  if not (Pn.alive pn) then raise (Kv.Op.Unavailable (Printf.sprintf "pn%d" (Pn.id pn)));
  (* Start through the PN's begin-window coalescer: concurrent begins on
     this node share one manager round trip.  The window's leader claims
     every handed-out tid before any waiter resumes, so from here until
     the commit/abort decision the reclamation sweep treats it as live
     (the re-claim below is an idempotent no-op kept for clarity). *)
  let cm, reply = Pn.begin_start pn in
  Pn.claim_tid pn reply.tid;
  Pn.note_started_snapshot pn reply.snapshot;
  History.note_begin ~tid:reply.tid ~pn_id:(Pn.id pn) ~snapshot:reply.snapshot;
  {
    pn;
    cm;
    tid = reply.tid;
    isolation;
    snapshot = reply.snapshot;
    lav = reply.lav;
    cache = Hashtbl.create 32;
    read_tokens = Hashtbl.create 32;
    writes = Hashtbl.create 8;
    write_order = [];
    async_reads = [];
    status = Running;
  }

let tid t = t.tid
let isolation t = t.isolation
let snapshot t = t.snapshot
let lav t = t.lav
let status t = t.status
let pn t = t.pn
let write_set_size t = Hashtbl.length t.writes

let check_running t = match t.status with Running -> () | Committed | Aborted -> raise Finished

let visible t v = Version_set.mem t.snapshot v

(* Fetch a record through the buffering strategy, caching it for the rest
   of this transaction (the "transaction buffer" of §5.5.1 is always on). *)
let note_read_token t key state =
  if t.isolation = Serializable && not (Hashtbl.mem t.read_tokens key) then
    Hashtbl.replace t.read_tokens key
      (match state with Some { token; _ } -> Some token | None -> None)

let fetch t ~table ~rid =
  let key = Keys.record ~table ~rid in
  match Hashtbl.find_opt t.cache key with
  | Some state -> state
  | None ->
      Pn.charge t.pn (Pn.cost t.pn).cpu_per_read_ns;
      let state =
        match Buffer_pool.read (Pn.pool t.pn) ~snapshot:t.snapshot ~table ~rid with
        | Some (record, token) -> Some { record; token }
        | None -> None
      in
      Hashtbl.replace t.cache key state;
      note_read_token t key state;
      state

let payload_to_tuple = function Record.Tuple tuple -> Some tuple | Record.Tombstone -> None

let read t ~table ~rid =
  check_running t;
  let key = Keys.record ~table ~rid in
  match Hashtbl.find_opt t.writes key with
  | Some w -> payload_to_tuple w.w_payload
  | None -> (
      let state = fetch t ~table ~rid in
      note_observed t ~key state;
      match state with
      | None -> None
      | Some { record; _ } -> (
          match Record.latest_visible record ~visible:(visible t) with
          | Some { payload; _ } -> payload_to_tuple payload
          | None -> None))

let read_record t ~table ~rid =
  check_running t;
  Option.map (fun c -> c.record) (fetch t ~table ~rid)

let visible_tuple t record =
  match Record.latest_visible record ~visible:(visible t) with
  | Some { payload = Record.Tuple tuple; _ } -> Some tuple
  | Some { payload = Record.Tombstone; _ } | None -> None

(* Shared batched-fetch core of every fused read path: one
   [Buffer_pool.read_many] (itself at most one store multi-get per miss
   class) covering every listed record not already in the write buffer or
   the transaction cache.  Returns how many records were fetched through
   the pool.  The batch crosses a suspension point, so callers must treat
   the whole call as one step of the single-flight rule (CLAUDE.md): no
   shared mutable state may be read before it and updated after it. *)
let fetch_many t pairs =
  let seen = Hashtbl.create 16 in
  let missing =
    List.filter
      (fun (table, rid) ->
        let key = Keys.record ~table ~rid in
        if Hashtbl.mem t.writes key || Hashtbl.mem t.cache key || Hashtbl.mem seen key then
          false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      pairs
  in
  match missing with
  | [] -> 0
  | _ :: _ ->
      let states = Buffer_pool.read_many (Pn.pool t.pn) ~snapshot:t.snapshot missing in
      List.iter2
        (fun (table, rid) state ->
          let key = Keys.record ~table ~rid in
          let state = Option.map (fun (record, token) -> { record; token }) state in
          Hashtbl.replace t.cache key state;
          note_read_token t key state)
        missing states;
      List.length missing

(* Resolve a record already buffered by [fetch_many] (or by an earlier
   read/write), with exactly [read]'s per-key semantics: the transaction's
   own write wins without an observation event; otherwise the cached store
   state is observed and filtered through the snapshot. *)
let resolve_cached t ~table ~rid =
  let key = Keys.record ~table ~rid in
  match Hashtbl.find_opt t.writes key with
  | Some w -> payload_to_tuple w.w_payload
  | None -> (
      let state = Option.join (Hashtbl.find_opt t.cache key) in
      note_observed t ~key state;
      match state with None -> None | Some { record; _ } -> visible_tuple t record)

let note_read_phase t ~fetched t0 =
  if fetched > 0 then
    Pn.note_commit_phase t.pn ~phase:"read" ~ops:fetched
      (Tell_sim.Engine.now (Pn.engine t.pn) - t0)

let read_batch t ~table ~rids =
  check_running t;
  Pn.charge t.pn (List.length rids * (Pn.cost t.pn).cpu_per_read_ns / 4);
  let t0 = Tell_sim.Engine.now (Pn.engine t.pn) in
  let fetched = fetch_many t (List.map (fun rid -> (table, rid)) rids) in
  note_read_phase t ~fetched t0;
  List.filter_map
    (fun rid -> Option.map (fun tuple -> (rid, tuple)) (resolve_cached t ~table ~rid))
    rids

let read_async t ~table ~rid =
  check_running t;
  let key = Keys.record ~table ~rid in
  if not (Hashtbl.mem t.writes key || Hashtbl.mem t.cache key) then
    t.async_reads <- (table, rid) :: t.async_reads;
  { rf_table = table; rf_rid = rid }

let await t fut =
  check_running t;
  (match t.async_reads with
  | [] -> ()
  | pending ->
      (* First await flushes every registered read in one batched round:
         clear the register before the fetch suspends so a re-entrant
         registration is not lost. *)
      t.async_reads <- [];
      let t0 = Tell_sim.Engine.now (Pn.engine t.pn) in
      let fetched = fetch_many t (List.rev pending) in
      note_read_phase t ~fetched t0);
  Pn.charge t.pn ((Pn.cost t.pn).cpu_per_read_ns / 4);
  resolve_cached t ~table:fut.rf_table ~rid:fut.rf_rid

let pending_rows t ~table =
  Hashtbl.fold
    (fun _ w acc ->
      match (w.w_table = table, w.w_payload) with
      | true, Record.Tuple tuple -> (w.w_rid, tuple) :: acc
      | true, Record.Tombstone | false, _ -> acc)
    t.writes []

(* §4.1, first conflict scenario: a version applied by a transaction that
   is not in our snapshot means a concurrent writer got there first. *)
(* First-committer-wins, plus tid-order discipline: tids come from
   per-manager ranges, so a transaction can hold a tid {e below} a version
   some faster transaction (served by the other manager's range) already
   committed to this record.  Its update would sort under that version and
   be shadowed for every future reader ([Record.latest_visible] takes the
   highest visible tid), silently losing the write.  Such writers must
   abort and retry with a fresh — necessarily higher — tid.  The
   read-to-apply race is closed by the LL/SC token: any version applied
   after this check bumps the cell token and fails the commit-time
   [Put_if]. *)
let assert_no_invisible_version t record ~table ~rid =
  if
    (not !weaken_conflict_detection)
    && List.exists
         (fun v -> (not (visible t v)) || v > t.tid)
         (Record.version_numbers record)
  then begin
    t.status <- Aborted;
    History.note_abort ~tid:t.tid;
    Pn.release_tid t.pn t.tid;
    Notifier.enqueue (Pn.notifier t.pn) ~cm:t.cm ~tid:t.tid ~committed:false ();
    raise (Conflict (Printf.sprintf "%s/%d has a newer version" table rid))
  end

let index_entries_for t ~table tuple =
  let schema = Pn.schema t.pn ~table in
  List.map
    (fun (idx : Schema.index) ->
      let key = Codec.encode_key (Schema.key_of_tuple ~columns:idx.idx_columns tuple) in
      (idx.idx_name, key))
    (Schema.all_indexes schema)

let record_write t ~table ~rid ~payload ~base ~index_adds =
  let key = Keys.record ~table ~rid in
  History.note_write ~tid:t.tid ~key ~version:t.tid
    ~tombstone:(match payload with Record.Tombstone -> true | Record.Tuple _ -> false);
  match Hashtbl.find_opt t.writes key with
  | Some w ->
      w.w_payload <- payload;
      w.w_index_adds <-
        List.filter (fun e -> not (List.mem e w.w_index_adds)) index_adds @ w.w_index_adds
  | None ->
      Hashtbl.replace t.writes key
        { w_table = table; w_rid = rid; w_payload = payload; w_base = base; w_index_adds = index_adds };
      t.write_order <- key :: t.write_order

let update t ~table ~rid tuple =
  check_running t;
  Pn.charge t.pn (Pn.cost t.pn).cpu_per_write_ns;
  let schema = Pn.schema t.pn ~table in
  Schema.validate_tuple schema tuple;
  let key = Keys.record ~table ~rid in
  match Hashtbl.find_opt t.writes key with
  | Some w ->
      (* Second update of the same record: modify the buffered version. *)
      let index_adds =
        List.filter
          (fun e -> not (List.mem e w.w_index_adds))
          (index_entries_for t ~table tuple)
      in
      History.note_write ~tid:t.tid ~key ~version:t.tid ~tombstone:false;
      w.w_payload <- Record.Tuple tuple;
      w.w_index_adds <- index_adds @ w.w_index_adds
  | None -> (
      let state = fetch t ~table ~rid in
      note_observed t ~key state;
      match state with
      | None -> raise (Schema.Schema_error (Printf.sprintf "update of absent record %s/%d" table rid))
      | Some ({ record; _ } as base) ->
          assert_no_invisible_version t record ~table ~rid;
          let old_tuple =
            match Record.latest_visible record ~visible:(visible t) with
            | Some { payload = Record.Tuple old; _ } -> Some old
            | Some { payload = Record.Tombstone; _ } | None -> None
          in
          let new_entries = index_entries_for t ~table tuple in
          let index_adds =
            match old_tuple with
            | None -> new_entries
            | Some old ->
                let old_entries = index_entries_for t ~table old in
                List.filter (fun e -> not (List.mem e old_entries)) new_entries
          in
          record_write t ~table ~rid ~payload:(Record.Tuple tuple) ~base:(Some base) ~index_adds)

let insert t ~table tuple =
  check_running t;
  Pn.charge t.pn (Pn.cost t.pn).cpu_per_write_ns;
  let schema = Pn.schema t.pn ~table in
  Schema.validate_tuple schema tuple;
  let rid = Pn.alloc_rid t.pn ~table in
  record_write t ~table ~rid ~payload:(Record.Tuple tuple) ~base:None
    ~index_adds:(index_entries_for t ~table tuple);
  rid

let delete t ~table ~rid =
  check_running t;
  Pn.charge t.pn (Pn.cost t.pn).cpu_per_write_ns;
  let key = Keys.record ~table ~rid in
  match Hashtbl.find_opt t.writes key with
  | Some w ->
      History.note_write ~tid:t.tid ~key ~version:t.tid ~tombstone:true;
      w.w_payload <- Record.Tombstone
  | None -> (
      let state = fetch t ~table ~rid in
      note_observed t ~key state;
      match state with
      | None -> ()
      | Some ({ record; _ } as base) ->
          assert_no_invisible_version t record ~table ~rid;
          record_write t ~table ~rid ~payload:Record.Tombstone ~base:(Some base) ~index_adds:[])

(* --- index access ------------------------------------------------------------- *)

let own_index_entries t ~index ~lo ~hi =
  Hashtbl.fold
    (fun _ w acc ->
      List.fold_left
        (fun acc (idx, key) ->
          if idx = index && lo <= key && key < hi then (key, w.w_rid) :: acc else acc)
        acc w.w_index_adds)
    t.writes []

let index_range t ~index ~lo ~hi =
  check_running t;
  let shared = Btree.range (Pn.btree t.pn ~index) ~lo ~hi in
  let own = own_index_entries t ~index ~lo ~hi in
  let cmp (k1, r1) (k2, r2) =
    match String.compare k1 k2 with 0 -> Int.compare r1 r2 | c -> c
  in
  List.sort_uniq cmp (own @ shared)

let index_lookup t ~index ~key =
  List.map snd (index_range t ~index ~lo:key ~hi:(key ^ "\x00"))

let index_read_many t ~index ~keys =
  check_running t;
  let shared = Btree.lookup_many (Pn.btree t.pn ~index) ~keys in
  List.map2
    (fun key (_, rids) ->
      let own = List.map snd (own_index_entries t ~index ~lo:key ~hi:(key ^ "\x00")) in
      (key, List.sort_uniq Int.compare (own @ rids)))
    keys shared

(* Fused index→record point reads — §5.1's request batching applied to
   the read side: route every key through its tree's cached inner levels
   and fetch all leaves in one batched round ([Btree.lookup_many_grouped]
   across every index touched), then fetch every resolved record through
   the buffer pool in a second ([fetch_many]).  Per-key semantics — write
   buffer and transaction-cache hits, pending index insertions, read
   tokens, history recording, first-rid selection — match the sequential
   [index_lookup] + [read] pair exactly. *)
let read_by_pk_multi t reqs =
  check_running t;
  Pn.charge t.pn (List.length reqs * (Pn.cost t.pn).cpu_per_read_ns / 4);
  let t0 = Tell_sim.Engine.now (Pn.engine t.pn) in
  (* Group the lookups per index so every tree shares the leaf round. *)
  let groups = ref [] in
  List.iter
    (fun (_, index, key) ->
      match List.assoc_opt index !groups with
      | Some keys -> keys := key :: !keys
      | None -> groups := (index, ref [ key ]) :: !groups)
    reqs;
  let groups = List.rev_map (fun (index, keys) -> (index, List.rev !keys)) !groups in
  let looked_up =
    Btree.lookup_many_grouped
      (List.map (fun (index, keys) -> (Pn.btree t.pn ~index, keys)) groups)
  in
  let shared_rids = Hashtbl.create 16 in
  List.iter2
    (fun (index, _) results ->
      List.iter (fun (key, rids) -> Hashtbl.replace shared_rids (index, key) rids) results)
    groups looked_up;
  let resolved =
    List.map
      (fun (table, index, key) ->
        let shared = Option.value ~default:[] (Hashtbl.find_opt shared_rids (index, key)) in
        let own = List.map snd (own_index_entries t ~index ~lo:key ~hi:(key ^ "\x00")) in
        match List.sort_uniq Int.compare (own @ shared) with
        | [] -> None
        | rid :: _ -> Some (table, rid))
      reqs
  in
  let fetched = fetch_many t (List.filter_map Fun.id resolved) in
  note_read_phase t ~fetched t0;
  List.map
    (function
      | None -> None
      | Some (table, rid) ->
          Option.map (fun tuple -> (rid, tuple)) (resolve_cached t ~table ~rid))
    resolved

let read_by_pk_many t ~table ~index ~keys =
  read_by_pk_multi t (List.map (fun key -> (table, index, key)) keys)

(* --- commit / abort ------------------------------------------------------------- *)

let finish_abort t reason =
  t.status <- Aborted;
  History.note_abort ~tid:t.tid;
  Pn.release_tid t.pn t.tid;
  Notifier.enqueue (Pn.notifier t.pn) ~cm:t.cm ~tid:t.tid ~committed:false ();
  raise (Conflict reason)

(* Bε buffered index maintenance (§3d): group the commit's index entries
   per tree as insert messages for the trees' buffer stripes.  The blind
   appends [apply_writes] fuses into its record multi-write are the
   durable index mutations (replicated like any other cell, never a
   conflict, no leaf read, no CAS, no split on the commit path); the
   background flusher applies them to the leaves later, and every read
   path merges pending messages, so the entries are visible the moment
   the append is acknowledged. *)
let index_message_groups t writes =
  let by_index = Hashtbl.create 4 in
  List.iter
    (fun (_, w) ->
      List.iter
        (fun (index, key) ->
          Hashtbl.replace by_index index
            (Btree.Add (key, w.w_rid)
            :: Option.value ~default:[] (Hashtbl.find_opt by_index index)))
        w.w_index_adds)
    writes;
  Hashtbl.fold (fun index ops acc -> (Pn.btree t.pn ~index, List.rev ops) :: acc) by_index []

let apply_writes t writes =
  (* One conditional write per record, batched per storage node.  The
     commit's index messages ride in the same multi-write as blind
     stripe appends — index maintenance costs the commit path zero extra
     round trips. *)
  let ops =
    List.map
      (fun (key, w) ->
        let base_record, base_token =
          match w.w_base with
          | Some { record; token } -> (record, Some token)
          | None -> (Record.empty, None)
        in
        (* Eager record GC (§5.4) piggy-backs on the write-back. *)
        let compacted, _removed = Record.gc base_record ~lav:t.lav in
        let new_record = Record.add_version compacted ~version:t.tid w.w_payload in
        (key, w, Kv.Op.Put_if (key, base_token, Record.encode new_record), new_record))
      writes
  in
  let index_ops, index_meta = Btree.enqueue_prepare (index_message_groups t writes) in
  let all_results =
    Kv.Client.multi_write (Pn.kv t.pn)
      (List.map (fun (_, _, op, _) -> op) ops @ index_ops)
  in
  let rec split n = function
    | rest when n = 0 -> ([], rest)
    | [] -> invalid_arg "Txn.apply_writes: short result list"
    | r :: rest ->
        let record_rs, index_rs = split (n - 1) rest in
        (r :: record_rs, index_rs)
  in
  let results, index_results = split (List.length ops) all_results in
  (* Nudge the flusher about grown stripes even if the record writes
     conflicted below: the appends landed either way.  (A conflicted
     commit's messages become stray over-approximating index entries
     once flushed — exactly what the GC index sweep retires; retiring
     them here with delete messages would be wrong, since a racing
     winner may have legitimately appended the same entry.) *)
  List.iter
    (fun (tree, stripe, bytes) ->
      Pn.note_index_buffered t.pn ~index:(Btree.name tree) ~stripe ~bytes)
    (Btree.enqueue_note index_meta index_results);
  let outcomes = List.map2 (fun (key, w, _, record) result -> (key, w, record, result)) ops results in
  let conflicted =
    List.filter_map
      (fun (key, _, _, result) -> match result with Kv.Op.Conflict -> Some key | _ -> None)
      outcomes
  in
  match conflicted with
  | _ :: _ when !weaken_conflict_detection ->
      (* Mutation mode: a broken conflict detector would blindly merge the
         losing version over whatever won the race instead of aborting.
         The buffer pool is deliberately not told — this path only exists
         to hand the histcheck battery a real lost update. *)
      List.iter
        (fun (key, w, _, result) ->
          match result with
          | Kv.Op.Conflict ->
              let rec force () =
                let merged =
                  match Kv.Client.get (Pn.kv t.pn) key with
                  | None -> (None, Record.add_version Record.empty ~version:t.tid w.w_payload)
                  | Some (data, token) ->
                      (Some token, Record.add_version (Record.decode data) ~version:t.tid w.w_payload)
                in
                match
                  Kv.Client.put_if (Pn.kv t.pn) key (fst merged) (Record.encode (snd merged))
                with
                | `Ok _ -> ()
                | `Conflict -> force ()
              in
              force ()
          | _ -> ())
        outcomes;
      `Applied
  | [] ->
      List.iter
        (fun (_, w, record, result) ->
          match result with
          | Kv.Op.Token token ->
              Buffer_pool.note_applied (Pn.pool t.pn) ~table:w.w_table ~rid:w.w_rid ~record
                ~token ~tid:t.tid
          | _ -> ())
        outcomes;
      `Applied
  | _ :: _ ->
      (* Roll back the updates that did land (§4.3, 4b).  The whole
         write set is swept, not just the [Token] outcomes: an op whose
         first attempt applied but whose reply was lost to a fail-over
         reports [Conflict] on the retry, yet its version is in the
         store.  [remove_version] is idempotent, so sweeping is safe. *)
      List.iter
        (fun (key, _, _, _) -> Rollback.remove_version (Pn.kv t.pn) ~key ~version:t.tid)
        outcomes;
      `Conflict

(* Serializable mode (OCC): every record read but not written must be
   unchanged at commit time.  Validation happens after our own writes are
   applied; of two racing transactions with overlapping read/write sets at
   least one observes the other's applied write and aborts. *)
let validate_read_set t =
  let keys =
    Hashtbl.fold
      (fun key token acc -> if Hashtbl.mem t.writes key then acc else (key, token) :: acc)
      t.read_tokens []
  in
  match keys with
  | [] -> true
  | _ :: _ ->
      let current = Kv.Client.multi_get (Pn.kv t.pn) (List.map fst keys) in
      List.for_all2
        (fun (_, seen) now ->
          match (seen, now) with
          | None, None -> true
          | Some token, Some (_, token') -> token = token'
          | None, Some _ | Some _, None -> false)
        keys current

let commit_applied t ~entry ~writes ~now ~t_apply =
  match apply_writes t writes with
  | `Conflict -> finish_abort t "store-conditional failed"
  | `Applied ->
      (* The apply phase also carries the commit's index maintenance: its
         stripe appends rode in the same multi-write (§3d). *)
      let n_index_entries =
        List.fold_left (fun acc (_, w) -> acc + List.length w.w_index_adds) 0 writes
      in
      Pn.note_commit_phase t.pn ~phase:"apply"
        ~ops:(List.length writes + n_index_entries)
        (now () - t_apply);
      if t.isolation = Serializable && not (validate_read_set t) then begin
        (* A record we depended on changed: undo our applied writes. *)
        List.iter
          (fun (key, _) -> Rollback.remove_version (Pn.kv t.pn) ~key ~version:t.tid)
          writes;
        finish_abort t "serializable read validation failed"
      end
      else begin
        (* The synchronous pipeline ends here (§4.3 step 4a is done):
           flagging the log entry and telling the commit manager are
           deferred to the PN's notifier, which coalesces them with
           the outcomes of concurrent committers.  A delayed
           decided-set can only raise the abort rate (§4.2) — but the
           tid stays claimed until the flag lands: to everyone reading
           the log this commit is indistinguishable from an abort until
           then, and the reclamation sweep arbitrates any unclaimed
           undecided tid exactly that way.  Releasing here would let a
           partition-delayed flush turn an acknowledged commit into a
           rolled-back one. *)
        t.status <- Committed;
        History.note_commit ~tid:t.tid;
        let pn = t.pn and tid = t.tid in
        fire_commit_probe t ~write_set:entry.Txlog.write_set;
        Notifier.enqueue (Pn.notifier t.pn) ~cm:t.cm ~tid:t.tid ~entry
          ~on_settled:(fun () -> Pn.release_tid pn tid)
          ~committed:true ()
      end

let commit t =
  check_running t;
  Pn.charge t.pn (Pn.cost t.pn).cpu_per_commit_ns;
  let writes =
    List.rev_map (fun key -> (key, Hashtbl.find t.writes key)) t.write_order
  in
  match writes with
  | [] ->
      t.status <- Committed;
      History.note_commit ~tid:t.tid;
      Pn.release_tid t.pn t.tid;
      fire_commit_probe t ~write_set:[];
      Notifier.enqueue (Pn.notifier t.pn) ~cm:t.cm ~tid:t.tid ~committed:true ()
  | _ :: _ -> (
      (* Try-commit (§4.3, step 3): log first, then apply. *)
      let entry =
        {
          Txlog.tid = t.tid;
          pn_id = Pn.id t.pn;
          timestamp = Tell_sim.Engine.now (Pn.engine t.pn);
          write_set = List.map fst writes;
          committed = false;
        }
      in
      let now () = Tell_sim.Engine.now (Pn.engine t.pn) in
      try
        let t_log = now () in
        Txlog.append (Pn.kv t.pn) entry;
        Pn.note_commit_phase t.pn ~phase:"log" ~ops:1 (now () - t_log);
        let t_apply = now () in
        commit_applied t ~entry ~writes ~now ~t_apply
      with
      | Conflict _ | Finished | Tell_sim.Engine.Cancelled as e ->
          (* Conflict: finish_abort already cleaned up.  Cancelled: the
             PN died mid-commit; its fiber must not touch the store
             (recovery owns the rollback). *)
          raise e
      | Kv.Op.Fenced _ as e ->
          (* This PN was declared dead while partitioned: the storage
             nodes fence its epoch, so the write bounced.  Recovery has
             already swept (or will decide from the log) everything this
             transaction applied — a rollback from here would bounce off
             the same fence.  Stop being a member and surface the error. *)
          t.status <- Aborted;
          History.note_abort ~tid:t.tid;
          Pn.release_tid t.pn t.tid;
          Pn.poison t.pn;
          raise e
      | e ->
          (* The store became unavailable mid-commit (fail-over in
             progress, client retries exhausted).  The conditional
             writes that did land must not outlive the unflagged log
             entry, or a later reader sees versions of a transaction
             that was never decided.  [remove_version] is idempotent,
             so sweep the whole write set; by the time these (fresh)
             client calls run their own retries, the directory has
             usually been repaired. *)
          (try
             List.iter
               (fun (key, _) -> Rollback.remove_version (Pn.kv t.pn) ~key ~version:t.tid)
               writes
           with Kv.Op.Fenced _ ->
             (* Fenced mid-sweep: recovery owns the rest of it. *)
             Pn.poison t.pn);
          t.status <- Aborted;
          History.note_abort ~tid:t.tid;
          Pn.release_tid t.pn t.tid;
          if Pn.alive t.pn then
            Notifier.enqueue (Pn.notifier t.pn) ~cm:t.cm ~tid:t.tid ~committed:false ();
          raise e)

let abort t =
  check_running t;
  t.status <- Aborted;
  History.note_abort ~tid:t.tid;
  Pn.release_tid t.pn t.tid;
  Notifier.enqueue (Pn.notifier t.pn) ~cm:t.cm ~tid:t.tid ~committed:false ()
