(** Transactions: distributed snapshot isolation with LL/SC conflict
    detection (§4.1, §4.3).

    Life-cycle: {!begin_txn} fetches (tid, snapshot, lav) from a commit
    manager; reads see exactly the versions the snapshot admits; updates
    are buffered on the processing node; {!commit} writes a transaction-log
    entry, applies every buffered update with one store-conditional per
    record (batched per storage node), rolls everything back and aborts on
    the first failed conditional, and otherwise maintains the indexes,
    flags the log entry, and reports to the commit manager.

    Write-write conflicts are detected in two ways, mirroring §4.1: a
    version that is invisible to the snapshot observed at {!update} time
    raises {!Conflict} immediately (the other writer applied first), and
    anything applied after our read fails the LL/SC at commit. *)

type t

exception Conflict of string
(** The transaction lost a write-write race and has been aborted (all its
    applied updates were rolled back, the commit manager was notified). *)

exception Finished
(** Raised when operating on a committed or aborted transaction. *)

type status = Running | Committed | Aborted

type isolation =
  | Snapshot_isolation  (** the paper's protocol (§4.1) *)
  | Serializable
      (** §4.1 lists serializable SI as future work; this mode provides it
          by re-validating the read set at commit (OCC style): the commit
          aborts if any record read (and not written) changed since it was
          read.  Two transactions racing on overlapping read/write sets
          cannot both pass — each validates after its own writes applied —
          so SI's write-skew anomaly cannot commit. *)

val begin_txn : ?isolation:isolation -> Pn.t -> t
val tid : t -> int
val isolation : t -> isolation
val snapshot : t -> Version_set.t
val lav : t -> int
val status : t -> status
val pn : t -> Pn.t

(** {1 Data operations} *)

val read : t -> table:string -> rid:int -> Value.t array option
(** The tuple visible under this snapshot; [None] if absent or deleted.
    Sees the transaction's own buffered writes. *)

val read_record : t -> table:string -> rid:int -> Record.t option
(** All stored versions (no visibility filter) — used by index garbage
    collection; does not include buffered writes. *)

val read_batch : t -> table:string -> rids:int list -> (int * Value.t array) list
(** Visible tuples for many rids with at most one (per storage node)
    round trip — the scan path.  Goes through the shared buffer pool
    ({!Buffer_pool.read_many}), the transaction's own cache and its
    buffered writes.  Missing/invisible rids are omitted. *)

val read_by_pk_multi :
  t -> (string * string * string) list -> (int * Value.t array) option list
(** Fused index→record point reads (§5.1 request batching on the read
    side).  For each [(table, index, encoded_key)] request, resolve the
    first (lowest) rid stored under exactly the key — shared B+tree
    entries merged with this transaction's pending index insertions — and
    read the record it names.  All index leaves are fetched in one
    batched round (shared across every index touched) and all resolved
    records in a second, instead of one traversal plus one record get per
    request.  [None] when the key has no entry or the record is invisible
    under the snapshot; results are in request order.  Observably
    equivalent to [index_lookup] + [read] per request (same rows, same
    read tokens, same recorded history). *)

val read_by_pk_many :
  t -> table:string -> index:string -> keys:string list -> (int * Value.t array) option list
(** {!read_by_pk_multi} over one table/index pair. *)

val index_read_many : t -> index:string -> keys:string list -> (string * int list) list
(** Batched exact-key lookups: all rids stored under each key (ascending,
    own pending insertions merged), the leaves fetched in one batched
    round via [Btree.lookup_many].  Results are in input order. *)

type read_future

val read_async : t -> table:string -> rid:int -> read_future
(** Register a point read without fetching it.  The fetch happens on the
    next {!await} of {e any} future of this transaction, which flushes
    every pending registration in one batched round — so independent
    reads issued back-to-back by one fiber land in the same client
    batching lane instead of paying sequential round trips. *)

val await : t -> read_future -> Value.t array option
(** Resolve a registered read (flushing pending registrations first);
    semantics per key are exactly {!read}. *)

val pending_rows : t -> table:string -> (int * Value.t array) list
(** This transaction's own buffered inserts/updates for [table] (deletes
    excluded) — merged into sequential scans. *)

val insert : t -> table:string -> Value.t array -> int
(** Allocates a rid, buffers the insert, returns the rid. *)

val update : t -> table:string -> rid:int -> Value.t array -> unit
(** Buffers a full-tuple replacement.  Raises {!Conflict} if a version
    invisible to the snapshot already exists. *)

val delete : t -> table:string -> rid:int -> unit

(** {1 Index access} *)

val index_range : t -> index:string -> lo:string -> hi:string -> (string * int) list
(** Entries with [lo <= key < hi] from the shared B+tree, merged with this
    transaction's own pending index insertions. *)

val index_lookup : t -> index:string -> key:string -> int list

(** {1 Termination} *)

val commit : t -> unit
(** Raises {!Conflict} on write-write conflict (the transaction is then
    aborted); idempotent-safe against double calls via {!Finished}. *)

(** {1 Observation (check harness)} *)

type commit_probe =
  tid:int -> pn_id:int -> snapshot:Version_set.t -> write_set:string list -> unit

val set_commit_probe : commit_probe option -> unit
(** Install a global hook fired once per successful {!commit} — after the
    status flips, before the asynchronous notifier tail — with the
    transaction's tid, its processing node, the snapshot it ran under and
    the record keys it wrote (empty for read-only commits).  The probe
    must not suspend.  Used by the [tell_check] invariant checker;
    zero-cost when unset.  Global state: install/uninstall around each
    harness run. *)

val abort : t -> unit
(** Manual abort: nothing was applied, only the commit manager is told. *)

val write_set_size : t -> int

val unsafe_set_weaken_conflict_detection : bool -> unit
(** Test-only mutation knob for the histcheck battery (DESIGN.md §7):
    when on, the begin-time invisible-version check is skipped and a
    failed commit-time store-conditional is "resolved" by merging the
    losing version over the winner instead of aborting — i.e. conflict
    detection is deliberately broken so lost updates commit.  The SI
    anomaly checker must reject the resulting histories.  Global state;
    never enable outside tests, and always reset in a [Fun.protect]. *)
