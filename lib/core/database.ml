module Sim = Tell_sim
module Kv = Tell_kv

type t = {
  engine : Sim.Engine.t;
  cluster : Kv.Cluster.t;
  mutable cms : Commit_manager.t list;
  mutable pns : Pn.t list;
  mutable crashed_pns : Pn.t list;
  mutable next_pn_id : int;
  recovery : Recovery.t Lazy.t;
  gc : Gc_task.t Lazy.t;
  index_flusher : Index_flusher.t;
}



(* Tid-range reclamation (§4.4.3).  Every handed-out tid must eventually
   be decided or snapshot bases stop advancing — and with them version GC
   and every manager's visibility floor.  Two leaks survive the normal
   paths: a crashed manager's reserved-but-unhanded range tail (nobody
   else knows it existed), and a tid whose transaction died together with
   both its manager and its node.  The management node sweeps for them: a
   tid below the counter top that is undecided, outside every live
   manager's current range span and claimed by no live processing node
   can never be decided by anyone else.  The transaction log arbitrates
   exactly like PN recovery does: flagged entry = committed, anything
   else = aborted.  A tid is only reclaimed after it was eligible in two
   consecutive rounds, because a freshly assigned tid is unclaimed while
   the manager's reply is still in flight (bounded by one network delay,
   far below the sweep interval).

   The claim check is load-bearing for partitions, not just for in-flight
   handouts: a committed transaction keeps its tid claimed until the
   notifier lands the log flag (Notifier [on_settled]).  A partition can
   delay that flag for many sweep rounds, during which the log still
   reads "aborted" — without the claim the sweep would roll back an
   acknowledged commit (and the later flag would advertise a committed
   transaction whose versions are gone).

   An unflagged log entry is rolled back here, before the abort decision
   is published: deciding first would advance snapshot bases past the
   tid, making its half-applied versions visible to every future reader
   — and hiding the entry from the PN-recovery log scan, which starts at
   the lav. *)
let start_tid_reclamation t =
  let mgmt = Kv.Cluster.mgmt_group t.cluster in
  let kv = Kv.Client.create t.cluster ~group:mgmt in
  let suspects = Hashtbl.create 64 in
  Sim.Engine.spawn t.engine ~group:mgmt (fun () ->
      while true do
        Sim.Engine.sleep t.engine 1_000_000;
        match List.filter Commit_manager.alive t.cms with
        | [] -> ()
        | live_cms -> (
            try
            (* Under multiple managers "decided" means decided {e somewhere}:
               a tid in any live manager's merged descriptor reaches the
               rest through gossip, so the sweep consults the union. *)
            let vs =
              Version_set.union_many
                (List.map Commit_manager.current_snapshot live_cms)
            in
            let base = Version_set.base vs in
            let top = Kv.Client.increment kv Keys.tid_counter 0 in
            let spans = List.map Commit_manager.range_span live_cms in
            let committed = ref [] and aborted = ref [] in
            for tid = base + 1 to top do
              if
                (not (Version_set.mem vs tid))
                && (not (List.exists (fun (a, b) -> tid >= a && tid < b) spans))
                && not (List.exists (fun pn -> Pn.claims pn ~tid) t.pns)
              then
                if Hashtbl.mem suspects tid then begin
                  Hashtbl.remove suspects tid;
                  (* The log fetch suspends; a delayed range install can
                     hand the tid to a transaction meanwhile.  Re-check
                     the liveness conditions on the fresh state after
                     the fetch, before arbitrating. *)
                  let still_orphaned () =
                    (not
                       (List.exists
                          (fun cm ->
                            let a, b = Commit_manager.range_span cm in
                            tid >= a && tid < b)
                          live_cms))
                    && (not (List.exists (fun pn -> Pn.claims pn ~tid) t.pns))
                    && not
                         (List.exists
                            (fun cm -> Version_set.mem (Commit_manager.current_snapshot cm) tid)
                            live_cms)
                  in
                  match Txlog.find kv ~tid with
                  | Some (entry : Txlog.entry) when entry.committed ->
                      committed := tid :: !committed
                  | Some entry when still_orphaned () ->
                      List.iter
                        (fun key -> Rollback.remove_version kv ~key ~version:tid)
                        entry.write_set;
                      History.note_rolled_back ~tid;
                      aborted := tid :: !aborted
                  | Some _ -> ()
                  | None ->
                      if still_orphaned () then begin
                        History.note_rolled_back ~tid;
                        aborted := tid :: !aborted
                      end
                end
                else Hashtbl.replace suspects tid ()
              else Hashtbl.remove suspects tid
            done;
            if !committed <> [] || !aborted <> [] then
              List.iter
                (fun cm ->
                  try
                    Commit_manager.set_decided_batch cm ~src:Kv.Cluster.mgmt_endpoint
                      ~committed:!committed ~aborted:!aborted ()
                  with Kv.Op.Unavailable _ -> ())
                live_cms
            with Kv.Op.Unavailable _ ->
              (* The store is unreachable (a management-node link is cut or
                 a fail-over is in flight): skip this round, the suspect
                 table keeps its state for the next one. *)
              ())
      done)

let create engine ?(kv_config = Kv.Cluster.default_config) ?(n_commit_managers = 1)
    ?(cm_sync_interval_ns = 1_000_000) ?(cm_range_size = 64)
    ?(index_flush_interval_ns = Index_flusher.default_flush_interval_ns)
    ?(index_flush_threshold_bytes = Index_flusher.default_flush_threshold_bytes) () =
  let cluster = Kv.Cluster.create engine kv_config in
  Kv.Cluster.start_failure_detector cluster;
  (* §5.2 extension: selection/projection push-down into storage nodes. *)
  Kv.Cluster.set_pushdown_evaluator cluster Pushdown.evaluator;
  (* The Bε index flusher runs on the management node: it survives PN
     crashes (buffered messages are already durable appends) and its
     store traffic is not charged to any transaction. *)
  let index_flusher =
    let mgmt = Kv.Cluster.mgmt_group cluster in
    Index_flusher.create engine ~group:mgmt
      ~kv:(Kv.Client.create cluster ~group:mgmt)
      ~interval_ns:index_flush_interval_ns ~threshold_bytes:index_flush_threshold_bytes ()
  in
  let peer_ids = List.init n_commit_managers (fun i -> i) in
  let cms =
    List.map
      (fun id ->
        Commit_manager.create cluster ~id ~peers:peer_ids ~range_size:cm_range_size
          ~sync_interval_ns:cm_sync_interval_ns ())
      peer_ids
  in
  let rec t =
    {
      engine;
      cluster;
      cms;
      pns = [];
      crashed_pns = [];
      next_pn_id = 0;
      recovery = lazy (Recovery.create t.cluster ~cms:(fun () -> t.cms));
      gc =
        lazy
          (Gc_task.create t.cluster
             ~cms:(fun () -> t.cms)
             ~group:(Kv.Cluster.mgmt_group t.cluster));
      index_flusher;
    }
  in
  start_tid_reclamation t;
  t

let engine t = t.engine
let cluster t = t.cluster
let commit_managers t = t.cms
let pns t = t.pns

let add_pn t ?cores ?cost ?buffer ?notify_flush_window_ns ?begin_window_ns () =
  let pn =
    Pn.create t.cluster ~id:t.next_pn_id ?cores ?cost ?buffer ?notify_flush_window_ns
      ?begin_window_ns ~commit_managers:t.cms ()
  in
  Pn.set_index_buffered_hook pn (fun ~index ~stripe ~bytes ->
      Index_flusher.note t.index_flusher ~index ~stripe ~bytes);
  t.next_pn_id <- t.next_pn_id + 1;
  t.pns <- t.pns @ [ pn ];
  pn

(* Retire a dead commit manager {e without} a replacement: shrink the
   topology.  The delicate step is dropping the dead manager's frozen
   published lav from the survivors ([forget_peer]): that lav is the GC
   floor for every transaction the dead manager started that is still
   running — it lower-bounds their snapshot bases.  So wait until no
   live processing node still claims any of the dead manager's active
   tids (claims release when the commit flag lands, or at abort), then
   forget.  Decisions for those tids that the dead manager never learned
   are the reclamation sweep's job, exactly as for a crash with
   replacement.  Must run inside a fiber. *)
let retire_commit_manager t ~dead =
  if Commit_manager.alive dead then Commit_manager.crash dead;
  let actives = Commit_manager.active_tids dead in
  let still_claimed () =
    List.exists
      (fun tid -> List.exists (fun pn -> Pn.claims pn ~tid) t.pns)
      actives
  in
  while still_claimed () do
    Sim.Engine.sleep t.engine 500_000
  done;
  t.cms <- List.filter (fun cm -> not (cm == dead)) t.cms;
  List.iter
    (fun cm -> Commit_manager.forget_peer cm ~peer:(Commit_manager.id dead))
    t.cms;
  List.iter (fun pn -> Pn.remove_commit_manager pn ~dead) t.pns;
  Kv.Cluster.unregister_commit_manager t.cluster ~cm_id:(Commit_manager.id dead)

(* The replacement takes over the dead manager's identity — its id and
   published-state slot — so surviving peers resume merging its decisions
   and the reclamation sweep keeps watching it (§4.4.3). *)
let replace_commit_manager t ~dead =
  let fresh =
    Recovery.replace_commit_manager t.cluster ~dead:(Commit_manager.id dead)
      ~fresh_id:(Commit_manager.id dead)
      ~peers:(List.map Commit_manager.id t.cms)
  in
  t.cms <- List.map (fun cm -> if cm == dead then fresh else cm) t.cms;
  (* Re-point every processing node's routing table: the PNs hold the
     dead instance by physical identity, and a node that kept calling it
     would see permanent [Unavailable] on a manager id that is healthy
     again. *)
  List.iter (fun pn -> Pn.replace_commit_manager pn ~dead ~fresh) t.pns;
  fresh

let crash_pn t pn =
  Pn.crash pn;
  t.pns <- List.filter (fun p -> Pn.id p <> Pn.id pn) t.pns;
  t.crashed_pns <- pn :: t.crashed_pns

let crash_storage_node t sn_id = Kv.Cluster.crash_node t.cluster sn_id
let add_storage_node t = Kv.Cluster.add_storage_node t.cluster
let drain_storage_node t ~sn = Kv.Cluster.drain_storage_node t.cluster ~sn
let rebalance_onto t ~target = Kv.Cluster.rebalance_onto t.cluster ~target

(* Release the tids of dead transaction owners from every live manager's
   active table: fibers killed by a crash or poison can never decide
   their tids through the normal path, and an undecided active wedges
   the lav.  (A dead manager's own sweep must wait for its replacement:
   its kv client can no longer run.) *)
let release_dead_actives t =
  List.iter
    (fun cm ->
      if Commit_manager.alive cm then ignore (Commit_manager.release_dead_actives cm))
    t.cms

let recover_crashed_pns t =
  let recovery = Lazy.force t.recovery in
  let before = Recovery.recovered_txns recovery in
  (match t.crashed_pns with
  | [] -> ()
  | crashed ->
      Recovery.recover_processing_nodes recovery
        ~failed_pn_ids:(List.map Pn.id crashed);
      t.crashed_pns <- []);
  (* Run the sweep even when no crash is pending: a zombie poisoned since
     the last pass (fenced, then killed by its own bounce) leaves dead-
     group actives behind without ever passing through [crash_pn]. *)
  release_dead_actives t;
  Recovery.recovered_txns recovery - before

(* Declare a processing node dead on a failure detector's say-so —
   without killing it.  This is the false-suspicion path: the node may be
   alive behind a partition.  The recovery pass fences its epoch on every
   storage node {e before} rolling its transactions back, so writes the
   zombie still has in flight bounce ([Fenced]) instead of landing in
   state we just declared recovered; the zombie poisons itself on the
   first bounce.  Returns the number of transactions rolled back. *)
let declare_pn_dead t pn =
  t.pns <- List.filter (fun p -> p != pn) t.pns;
  let recovery = Lazy.force t.recovery in
  let before = Recovery.recovered_txns recovery in
  Recovery.recover_processing_nodes recovery ~failed_pn_ids:[ Pn.id pn ];
  (* The declared node's fibers may still be running behind the cut, so
     the dead-group sweep does not cover its undecided actives: release
     them by owner group — the log arbitrates, exactly as for a crash. *)
  List.iter
    (fun cm ->
      if Commit_manager.alive cm then
        ignore (Commit_manager.release_group_actives cm ~group:(Pn.group pn)))
    t.cms;
  Recovery.recovered_txns recovery - before

let tables t =
  match t.pns with
  | [] -> []
  | pn :: _ ->
      let cells = Kv.Client.scan_all (Pn.kv pn) ~prefix:"s/" in
      List.map (fun (_, data, _) -> Schema.decode_table data) cells

let gc t = Lazy.force t.gc
let index_flusher t = t.index_flusher

let with_txn pn f =
  let txn = Txn.begin_txn pn in
  match f txn with
  | result ->
      if Txn.status txn = Txn.Running then Txn.commit txn;
      (* [Txn.commit] returns once the updates are applied; the log flag
         and the commit-manager notification run in the PN's notifier.
         Callers of [with_txn] expect a durable, globally visible commit
         on return (the crash-recovery tests rely on it), so flush the
         asynchronous tail before handing the result back. *)
      Notifier.drain (Pn.notifier pn);
      result
  | exception e ->
      (match e with
      | Txn.Conflict _ -> ()  (* commit already aborted the transaction *)
      | _ -> if Txn.status txn = Txn.Running then ( try Txn.abort txn with _ -> () ));
      (try Notifier.drain (Pn.notifier pn) with _ -> ());
      raise e

let exec_in txn sql = Sql_plan.execute_string txn sql

let exec pn sql =
  let statement = Sql_parser.parse sql in
  match statement with
  | Sql_ast.Create_table _ | Sql_ast.Create_index _ ->
      (* DDL is not transactional: execute directly. *)
      let txn = Txn.begin_txn pn in
      let result = Sql_plan.execute txn statement in
      Txn.commit txn;
      Notifier.drain (Pn.notifier pn);
      result
  | _ -> with_txn pn (fun txn -> Sql_plan.execute txn statement)

let rows = function
  | Sql_plan.Rows { rows; _ } -> rows
  | Sql_plan.Affected _ | Sql_plan.Created -> []
