(** A processing node (PN): query processing + transaction management on
    top of the shared store (Figure 3).

    PNs are stateless with respect to the data: everything they cache
    (buffer pool, inner B+tree nodes, schemas, rid ranges) can be
    reconstructed from the store.  Each PN owns a CPU resource modelling
    its cores and a record-store client whose lanes batch its requests. *)

type cost_model = {
  cpu_per_read_ns : int;  (** local processing per record read *)
  cpu_per_write_ns : int;  (** local processing per buffered update *)
  cpu_per_commit_ns : int;  (** fixed commit-path processing *)
  cpu_per_statement_ns : int;  (** parse/plan overhead per SQL statement *)
}

val default_cost_model : cost_model

type t

val default_notify_flush_window_ns : int
(** Default notifier flush window (see DESIGN.md §3b for calibration). *)

val default_begin_window_ns : int
(** Default begin-coalescing window (see DESIGN.md §3b for calibration);
    [0] disables coalescing — every begin pays its own manager RPC. *)

val create :
  Tell_kv.Cluster.t ->
  id:int ->
  ?cores:int ->
  ?cost:cost_model ->
  ?buffer:Buffer_pool.strategy ->
  ?notify_flush_window_ns:int ->
  ?begin_window_ns:int ->
  commit_managers:Commit_manager.t list ->
  unit ->
  t

val id : t -> int
val group : t -> Tell_sim.Engine.Group.t
val kv : t -> Tell_kv.Client.t
val cluster : t -> Tell_kv.Cluster.t
val engine : t -> Tell_sim.Engine.t
val pool : t -> Buffer_pool.pool

val notifier : t -> Notifier.t
(** The asynchronous commit-notification fiber's queue: transactions
    enqueue their outcome here instead of flagging the log and calling
    the commit manager themselves. *)

val claim_tid : t -> int -> unit
val release_tid : t -> int -> unit

val claims : t -> tid:int -> bool
(** Whether a transaction with this tid is in flight on this node.
    Claimed between [Txn.begin_txn] and the commit/abort decision; the
    management node's tid-reclamation sweep leaves claimed tids alone. *)

val alive : t -> bool

val crash : t -> unit
(** Crash-stop (§4.4.1): all fibers of this PN are cancelled; in-flight
    transactions are left partially applied until recovery rolls them
    back. *)

val poison : t -> unit
(** Zombie termination: the node was declared dead while partitioned, so
    its epoch is fenced and recovery owns its in-flight work.  Discards
    undelivered commit notifications and kills every fiber; idempotent.
    Fires automatically when a notifier flush bounces off the fence, and
    is called by [Txn] when a commit bounces. *)

val was_fenced : t -> bool
(** True once {!poison} ran: this instance was fenced out, not merely
    crashed. *)

val endpoint : t -> string
(** This PN's link-endpoint name ("pn<id>") — the identity its writes
    carry on the simulated network. *)

val replace_commit_manager : t -> dead:Commit_manager.t -> fresh:Commit_manager.t -> unit
(** Point this PN at [fresh] wherever its routing table holds [dead]
    (physical equality: the replacement reuses the dead instance's id). *)

val charge : t -> int -> unit
(** Consume PN CPU time (from a fiber running on this PN). *)

val commit_phases : string list
(** The transaction pipeline's phase names: begin, read, log, apply,
    notify.  Index maintenance rides in apply (§3d). *)

val commit_stats : t -> Tell_sim.Stats.Breakdown.t
(** Per-phase latency/operation breakdown of this PN's commit pipeline. *)

val note_commit_phase : t -> phase:string -> ?ops:int -> int -> unit
(** Record one latency sample (ns) for a commit phase. *)

val set_index_buffered_hook : t -> (index:string -> stripe:int -> bytes:int -> unit) -> unit
(** Wire the commit path's Bε buffer-append reports (index, stripe,
    resulting stripe-cell bytes) — the database points this at
    {!Index_flusher.note}.  The hook must never suspend. *)

val note_index_buffered : t -> index:string -> stripe:int -> bytes:int -> unit

val cost : t -> cost_model

val commit_manager : t -> Commit_manager.t
(** The manager this PN currently talks to; fails over to the next one
    when the current manager is dead (§4.4.3). *)

val begin_start : t -> Commit_manager.t * Commit_manager.start_reply
(** Start one transaction through the begin-window coalescer: concurrent
    callers on this PN within [begin_window_ns] share a single
    [Commit_manager.start_many] round trip.  Each caller gets a unique
    tid (already claimed on this node by the window's leader); the window
    shares the snapshot computed when the batched RPC was served — a
    delayed snapshot is correct under SI (§4.2).  With a window of [0]
    this is exactly [Commit_manager.start] plus the claim.  Raises
    whatever the underlying RPC raises (e.g. [Unavailable] when the
    manager crashed mid-window); on failure no tid was claimed. *)

val begin_stats : t -> int * int
(** [(begins, begin_rpcs)]: transactions started on this node and the
    manager start RPCs actually issued for them — the coalescing ratio.
    [begin_rpcs] counts failed (failed-over) attempts too. *)

val begin_distribution : t -> (int * int) list
(** [(cm_id, begins)] pairs, sorted by manager id: how many of this
    node's begins each commit manager served — the per-CM load balance
    [tell_bench] reports. *)

val remove_commit_manager : t -> dead:Commit_manager.t -> unit
(** Drop a retired manager from this PN's routing table (physical
    equality).  Unlike {!replace_commit_manager} there is no successor:
    the table shrinks and subsequent begins spread over the survivors. *)

val note_started_snapshot : t -> Version_set.t -> unit
val vmax : t -> Version_set.t
(** Snapshot of the most recently started transaction on this PN (§5.5.2). *)

val alloc_rid : t -> table:string -> int
(** Allocate a fresh record id from the table's shared counter (acquired
    in ranges, like tids). *)

val max_rid : t -> table:string -> int
(** Upper bound of allocated rids for a table (for sequential scans). *)

val btree : t -> index:string -> Btree.t
(** This PN's handle (with inner-node cache) for the named index. *)

val schema : t -> table:string -> Schema.table
(** Table descriptor, fetched from the store and cached. *)

val forget_schema : t -> table:string -> unit
