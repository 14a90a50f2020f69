(** A single in-memory storage node (SN).

    Each node owns one CPU queueing resource and a flat keyspace of
    versioned cells.  The same node object holds both master partitions
    and backup replicas of other nodes' partitions: the cells are stored
    identically and a fail-over merely redirects clients.  Operations are
    executed by the calling (client) fiber, charging the node's CPU — the
    standard inline-RPC idiom of the simulator. *)

type t

val create :
  Tell_sim.Engine.t ->
  id:int ->
  cores:int ->
  capacity_bytes:int ->
  base_service_ns:int ->
  per_byte_service_ns:float ->
  t

val id : t -> int
val alive : t -> bool

val serving : t -> bool
(** Alive, owning at least the partitions the directory assigned it,
    {e and} holding an unexpired serving lease.  A freshly restarted node
    is alive but not serving: its store is empty, so answering a
    (stale-directory) client's read would present missing data as
    authoritative.  Clients treat a non-serving node like a dead one —
    time out, refresh the directory, retry. *)

val set_serving : t -> bool -> unit

val retired : t -> bool
(** A drained node: alive, but permanently out of the pool of chain-
    membership candidates (it is being decommissioned). *)

val set_retired : t -> bool -> unit
val group : t -> Tell_sim.Engine.Group.t

val sender : t -> string * int
(** This node's chain-replication identity: its endpoint name and the
    epoch its ownership tables were last synced under.  Captured at
    master-apply time and checked against the backups' fences, so a
    deposed master's late replication traffic bounces. *)

val renew_lease : t -> until:int -> unit
(** Extend the serving lease to virtual time [until].  Installed by the
    management node's heartbeat; a node it cannot reach expires and stops
    serving, which bounds a partitioned master's zombie window.  Nodes
    start with an infinite lease ([max_int]) so deployments without a
    failure detector never expire. *)

val set_ownership :
  t ->
  epoch:int ->
  masters:int list ->
  replicas:int list ->
  partition_of:(Op.key -> int) ->
  unit
(** Sync the node's ownership tables: the partitions it masters, the
    partitions it holds at all, the key->partition map, and the epoch the
    sync happened under (stamped on the node's outgoing chain writes —
    see {!sender}).  Cells of partitions no longer held are pruned.
    Never called = ownership checks disabled (bare-node tests). *)

val masters_partition : t -> int -> bool

val crash : t -> unit
(** Mark the node dead and kill its fibers.  Its memory content is
    considered lost (DRAM volatility). *)

val restart : t -> unit
(** Bring a crashed node back {e empty} (its DRAM content was lost) and
    alive.  It serves again as a re-replication target; it holds no
    partitions until the management node assigns it some. *)

val bytes_stored : t -> int
val capacity_bytes : t -> int
val cpu : t -> Tell_sim.Resource.t

val apply : t -> ?sender:string * int -> Op.t -> Op.result
(** Execute one operation against the local store, charging CPU time.
    Raises {!Op.Capacity_exceeded} when an insert/update would exceed the
    configured memory capacity.  Must be called from a fiber.

    [sender] is the caller's identity tag [(endpoint, epoch)]: a write
    whose epoch predates the sender's installed fence is refused with
    {!Op.result.Fenced_reply} instead of executing (zombie fencing —
    see {!fence}).  A keyed operation for a partition this node does not
    master (per {!set_ownership}) is refused with
    {!Op.result.Wrong_master_reply}. *)

val apply_replica :
  t ->
  ?sender:string * int ->
  ?via:string * int ->
  Op.t ->
  Op.result ->
  [ `Applied | `Fenced ]
(** Install the effect of a master-side operation on a backup copy.  The
    master's [result] disambiguates conditional writes: only successful
    writes are shipped to replicas, so this unconditionally applies —
    unless [sender] (the issuing processing node) or [via] (the storage
    node that mastered the write, identity captured at apply time) is
    fenced, in which case the write is discarded and [`Fenced] returned:
    a healed zombie's replication stream must not resurrect rolled-back
    versions, and a master deposed by a fenced cutover must not regress
    backups that already follow the new master.  Conditional-write
    installs additionally never step a cell's token backwards. *)

val wrong_master_rejects : t -> int
(** How many keyed operations this node bounced with [Wrong_master_reply]. *)

val fence : t -> sender:string -> epoch:int -> unit
(** Refuse all future writes from [sender] whose epoch is below [epoch].
    Installed by the management node {e before} recovery rolls the
    sender's transactions back, and never stepped backwards.  Fences
    survive {!restart}: they are management metadata, not DRAM state. *)

val fenced_rejects : t -> int
(** How many writes this node bounced with [Fenced_reply]. *)

val replay_cap : int
(** FIFO bound on the per-node replay cache: entries beyond the cap evict
    the oldest.  The bound is what keeps a node's memory finite; it is
    safe because a client's retry window spans far fewer than
    [replay_cap] other conditional ops on one node. *)

val find_replay : t -> client:int -> op_id:int -> Op.result option
(** Cached first result of a conditional mutation previously executed
    under [(client, op_id)] — exactly-once semantics over an
    at-least-once network.  A client that lost the reply re-sends the op
    under the same id and must get the original verdict back, not a
    spurious [Conflict] against its own write. *)

val record_replay : t -> client:int -> op_id:int -> Op.result -> unit
(** Remember the first result of a conditional mutation for {!find_replay}.
    First write per id wins; the cache is a bounded FIFO, sized far above
    anything a client's few-millisecond retry budget can span.  Cleared by
    {!restart} together with the cells it refers to. *)

val snapshot : t -> (Op.key * string * int) list
(** Dump all cells (for re-replication after fail-over). *)

val install : t -> Op.key -> string -> token:int -> unit
(** Install one cell with the given token, zero-time and without a
    capacity check.  Token-max: never steps a cell backwards past a
    concurrently installed newer write. *)

val load : t -> (Op.key * string * int) list -> unit
(** {!install} cells wholesale (target side of re-replication).  Cannot
    delete — a copy racing the live replication stream must be bracketed
    with {!begin_catchup}/{!end_catchup}. *)

val reserve : t -> int -> unit
(** [reserve t n]: on an empty node, size the cell table for [n] new
    cells up front, at the length [n] one-at-a-time installs would grow it
    to.  Iteration order — what {!snapshot} and ownership pruning observe
    — is the same as without the call.  No effect on a node that
    holds cells. *)

val begin_catchup : t -> partition:int -> unit
(** Open a bulk-copy catch-up window for [partition]: until the matching
    {!end_catchup}, replica installs for that partition are queued rather
    than applied.  Must be called in the same suspension-free block as
    the source snapshot it protects; otherwise a [Remove] delivered
    between snapshot and {!load} would be resurrected by the load (a load
    can only add or advance cells, never delete). *)

val end_catchup : t -> partition:int -> entries:(Op.key * string * int) list -> unit
(** Close the catch-up window: {!load} [entries], then replay the queued
    installs in delivery order (re-checking fences).  Pass [entries:[]]
    to abandon a failed copy — the queued installs are still applied.
    Suspension-free. *)

val catchup_pending : t -> partition:int -> bool
(** An open catch-up window whose copy never completed (the copying fiber
    was cancelled mid-flight).  Such a member's store is partial: a later
    migration must re-copy it rather than trust its chain membership. *)

val wipe : t -> unit

val encode_counter : int -> string
(** The on-wire representation of an integer cell, as maintained by
    [Increment] — for loaders that install counters directly. *)

val find : t -> Op.key -> (string * int) option
(** Zero-time local lookup (no CPU charge) — loader/test support. *)

val set_evaluator : t -> (program:string -> key:Op.key -> data:string -> string option) -> unit
(** Register the push-down evaluator used by [Scan_eval] operations
    (§5.2 extension).  The evaluator returns the projected output for a
    matching cell, or [None] to filter it out. *)
