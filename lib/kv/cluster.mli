(** The distributed storage system: storage nodes + directory + management
    node, wired to a simulation engine.

    The management node runs an eventually-perfect failure detector
    (timeout-based heartbeats, modelled as periodic liveness polls).  When
    a storage node dies, the detector promotes the surviving head of each
    affected replica chain to master, appends a fresh backup, and bulk-
    copies the partition to it, restoring the replication factor — the
    behaviour of §4.4.2. *)

type config = {
  n_storage_nodes : int;
  replication_factor : int;
  partitions_per_node : int;
  sn_cores : int;
  sn_capacity_bytes : int;
  net_profile : Tell_sim.Net.profile;
  base_service_ns : int;  (** per-operation server-side service demand *)
  per_byte_service_ns : float;
  replication_coord_ns : int;
      (** master-side CPU per replicated write (backup coordination) *)
  replication_latency_ns : int;
      (** backup-side latency per replicated write beyond the raw network
          round trip (log-segment management, ack path) — the dominant
          cost of synchronous replication under write-heavy load (§6.3.1) *)
  client_max_batch : int;
      (** operations combined into one request per storage-node lane
          (§5.1 "aggressive batching"); 1 disables batching *)
  client_timeout_ns : int;  (** how long a client waits before declaring a node dead *)
  detector_period_ns : int;  (** failure-detector polling period *)
  lease_ns : int;
      (** serving-lease duration, renewed by the management heartbeat.  A
          storage node the management node cannot reach stops serving
          once its lease expires, bounding the zombie window of a
          partitioned master; nodes start with an infinite lease, so
          deployments that never start the failure detector are
          unaffected. *)
  seed : int;
}

val default_config : config

type t

val create : Tell_sim.Engine.t -> config -> t
val engine : t -> Tell_sim.Engine.t
val config : t -> config
val directory : t -> Directory.t
val node : t -> int -> Storage_node.t
val nodes : t -> Storage_node.t array
val net : t -> Tell_sim.Net.t
val rng : t -> Tell_sim.Rng.t

val mgmt_cpu : t -> Tell_sim.Resource.t
val mgmt_group : t -> Tell_sim.Engine.Group.t

val start_failure_detector : t -> unit
(** Spawn the management fiber.  Without it, crashes are never repaired
    (useful for tests that want to observe raw unavailability). *)

val crash_node : t -> int -> unit

val restart_node : t -> int -> unit
(** Revive a crashed node, empty (DRAM volatility), ready to serve as a
    backup target for future repairs.  Clears its handled-crash mark so
    the failure detector reacts to a later crash of the same node. *)

val inject_latency_spike :
  t -> from_ns:int -> until_ns:int -> ?factor:float -> ?extra_ns:int -> unit -> unit
(** Degrade the cluster interconnect for a virtual-time window — see
    {!Tell_sim.Net.inject_fault}.  Fault-scenario hook for [tell_check]. *)

(** {1 Epoch fencing}

    The management node owns a cluster epoch.  Clients stamp their writes
    with the epoch they joined under; declaring a member dead bumps the
    epoch and installs a fence for that member on every storage node, so
    a {e zombie} — a falsely-suspected member healing from a partition —
    finds its in-flight writes refused ({!Op.Fenced}) instead of silently
    completing work recovery already rolled back. *)

val current_epoch : t -> int
(** The epoch a client joining now would be stamped with (starts at 1). *)

val fence_senders : t -> senders:string list -> int
(** Bump the cluster epoch and install it as the minimum accepted write
    epoch for each named sender endpoint on every storage node; returns
    the new epoch.  Callers must invoke this {e before} rolling the
    senders' transactions back, and from inside a fiber (it models one
    management message per node). *)

val sn_endpoint : int -> string
(** The link-endpoint name of storage node [i] ("sn<i>") — the naming
    scheme shared by clients, {!fence_senders} and the harness's
    partition scenarios. *)

val mgmt_endpoint : string

val cm_endpoint : int -> string
(** The link-endpoint name of commit manager [i] ("cm<i>") — same naming
    scheme as {!sn_endpoint}, mirrored here so the kv layer can name the
    whole fabric without depending on the core layer. *)

val register_commit_manager : t -> cm_id:int -> unit
(** Record that a commit manager with this id serves on the cluster's
    network (called by [Commit_manager.create]; a replacement re-registers
    the same id, which is idempotent). *)

val unregister_commit_manager : t -> cm_id:int -> unit
(** Remove a retired manager's id from the registry
    ([Database.retire_commit_manager]). *)

val commit_manager_endpoints : t -> string list
(** Endpoint names of all registered commit managers, sorted by id — the
    fault harness's view of the CM side of the fabric. *)

val min_live_replication : t -> int
(** The minimum, over all partitions, of the number of {e live} replicas
    — the cluster's current worst-case redundancy.  Equals the
    replication factor when every chain is healthy. *)

val live_nodes : t -> int
val total_bytes_stored : t -> int

(** {1 Elastic storage tier}

    Online resizing of the storage tier under load (§4.4.2 / §6.3.3): the
    management node adds or drains storage nodes by migrating partitions
    live.  A migration adds the new chain members as {e learners} (they
    receive the live replication stream while the old chain keeps
    serving), bulk-copies the existing cells underneath, then performs a
    {e fenced cutover}: retire the source via a delivery-acked ownership
    sync — or, if it is unreachable, fence its chain-replication identity
    and wait out its serving lease — and atomically bump the cluster
    epoch, re-point the directory and grant the new chain its ownership.
    Clients routing on a stale directory bounce with {!Op.Wrong_master}
    and retry after a refresh; no committed write is lost and nothing
    times out in the clean path. *)

val add_storage_node : t -> int
(** Register a fresh, empty storage node; returns its id.  It masters
    nothing until {!migrate_partition} / {!rebalance_onto} grant it
    partitions. *)

val migrate_partition :
  t -> partition:int -> target:int -> [ `Done | `Aborted of string ]
(** Migrate one partition's mastership to [target] under load, keeping
    the replication factor intact throughout.  Must run inside a fiber.
    Aborts cleanly (old chain restored or crash repair in charge) if the
    copy fails or a concurrent crash supersedes the migration. *)

val drain_storage_node : t -> sn:int -> [ `Done | `Aborted of string ]
(** Move every partition off node [sn] (mastered ones via
    {!migrate_partition} onto the senior backup, backup memberships onto
    freshly copied replacements), then mark it retired — alive but
    permanently out of the chain-candidate pool.  Must run inside a
    fiber. *)

val rebalance_onto : t -> target:int -> int * int
(** Migrate partitions of the most-loaded masters onto [target] until it
    holds a fair share; returns [(moved, failed)].  The usual follow-up
    to {!add_storage_node}.  Must run inside a fiber. *)

val migrations_done : t -> int
(** Completed partition migrations (cutovers that flipped). *)

val sync_node : ?without:int -> ?renew:bool -> t -> int -> bool
(** One management heartbeat to a storage node: deliver its current
    ownership tables (optionally computed as if partition [without] had
    already left its chains) and, when [renew] (default), extend its
    serving lease.  Returns whether the message was delivered.  The
    failure detector calls this every period for every node; it is
    exposed for tests.  Must run inside a fiber. *)

val set_pushdown_evaluator :
  t -> (program:string -> key:Op.key -> data:string -> string option) -> unit
(** Install the §5.2 push-down evaluator on every storage node. *)

val install_cells : t -> (Op.key * string) Seq.t -> unit
(** Install every cell, in order, on its master and all backups {e without}
    consuming virtual time or resources — the bulk-load path for benchmark
    populations.  [cells] is traversed twice: once to count the cells per
    node, so that an empty node creates its table at its final size
    ({!Storage_node.reserve}), then to install them.  Must not be used
    while the simulation is processing requests for the same keys. *)

val poke : t -> key:Op.key -> data:string -> unit
(** {!install_cells} of one cell. *)

val peek : t -> key:Op.key -> string option
(** Zero-time read from the master copy (for checks in tests). *)
