(** Top-level façade: a Tell database deployment inside a simulation.

    Owns the storage cluster, the commit-manager group, and the processing
    nodes, and offers convenience wrappers for transactional work and
    ad-hoc SQL.  Mirrors Figure 3: PNs and commit managers can be added
    (elasticity) or crashed (fail-over) at any time. *)

type t

val create :
  Tell_sim.Engine.t ->
  ?kv_config:Tell_kv.Cluster.config ->
  ?n_commit_managers:int ->
  ?cm_sync_interval_ns:int ->
  ?cm_range_size:int ->
  ?index_flush_interval_ns:int ->
  ?index_flush_threshold_bytes:int ->
  unit ->
  t

val engine : t -> Tell_sim.Engine.t
val cluster : t -> Tell_kv.Cluster.t
val commit_managers : t -> Commit_manager.t list

val add_pn :
  t ->
  ?cores:int ->
  ?cost:Pn.cost_model ->
  ?buffer:Buffer_pool.strategy ->
  ?notify_flush_window_ns:int ->
  ?begin_window_ns:int ->
  unit ->
  Pn.t
(** Elastically add a processing node (no data movement — §2.1). *)

val pns : t -> Pn.t list

val retire_commit_manager : t -> dead:Commit_manager.t -> unit
(** Retire a dead manager {e without} a replacement: crash it if still
    alive, wait until no live processing node claims any of its active
    tids (its frozen published lav is the GC floor for those
    transactions), then drop it from the topology — survivors forget its
    lav and stop pulling its slot, PN routing tables shrink.  Undecided
    tids it leaves behind are the reclamation sweep's to settle.  Must
    run inside a fiber. *)

val replace_commit_manager : t -> dead:Commit_manager.t -> Commit_manager.t
(** Stand up a replacement for a crashed manager under the same id
    (§4.4.3): it recovers its state from the published peer states and
    the transaction-log tail, and takes the dead instance's place in
    this database's manager list.  Raises {!Tell_kv.Op.Unavailable} if
    recovery cannot read the store (retry once the storage fail-over
    settles). *)

val crash_pn : t -> Pn.t -> unit
val crash_storage_node : t -> int -> unit

val add_storage_node : t -> int
(** Elastically add an empty storage node to the KV tier; returns its id.
    Unlike {!add_pn} this {e does} imply data movement before the node
    carries load — follow up with {!rebalance_onto} (§4.4.2). *)

val drain_storage_node : t -> sn:int -> [ `Done | `Aborted of string ]
(** Migrate every partition off storage node [sn] and retire it — the
    scale-in half of storage elasticity.  Must run inside a fiber. *)

val rebalance_onto : t -> target:int -> int * int
(** Live-migrate partitions from the most-loaded storage nodes onto
    [target] until it holds a fair share; returns [(moved, failed)].
    Must run inside a fiber. *)

val recover_crashed_pns : t -> int
(** Run the management-node recovery process over all crashed PNs;
    returns the number of transactions rolled back.  Also releases the
    active tids of any transaction owner that has died since the last
    pass — including zombies that poisoned themselves — so they cannot
    wedge the lav. *)

val declare_pn_dead : t -> Pn.t -> int
(** The false-suspicion path: treat [pn] as failed on a detector's
    say-so {e without} killing it (it may be alive behind a partition).
    Fences the node's epoch on every storage node, rolls back its
    logged uncommitted transactions, and releases its active tids; a
    surviving zombie bounces off the fence on its next write and
    poisons itself ({!Pn.poison}).  Returns the number of transactions
    rolled back.  Must run inside a fiber. *)

val release_dead_actives : t -> unit
(** Release dead transaction owners' tids from every live commit
    manager (the sweep [recover_crashed_pns] runs, exposed for drains
    that must not start a recovery pass). *)

val tables : t -> Schema.table list
(** All table descriptors currently registered in the store. *)

val gc : t -> Gc_task.t
(** The lazy garbage collector (management side). *)

val index_flusher : t -> Index_flusher.t
(** The background Bε buffer flusher (management side, §3d). *)

(** {1 Transactions} *)

val with_txn : Pn.t -> (Txn.t -> 'a) -> 'a
(** Begin, run, commit; aborts (without re-raising masking) on exception.
    Raises {!Txn.Conflict} when the commit loses a write-write race. *)

(** {1 SQL} *)

val exec : Pn.t -> string -> Sql_plan.result
(** Parse and execute one statement in an auto-commit transaction. *)

val exec_in : Txn.t -> string -> Sql_plan.result

val rows : Sql_plan.result -> Value.t array list
(** Convenience extractor; empty for non-queries. *)
