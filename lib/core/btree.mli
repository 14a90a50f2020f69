(** Latch-free distributed B+tree (§5.3).

    Every tree node is one key-value pair in the shared store; node
    updates are synchronised exclusively with LL/SC conditional writes and
    retried on conflict, so no latches exist anywhere and system-wide
    progress is guaranteed.  Nodes carry B-link-style [high_key]/[next]
    pointers (Lehman-Yao): a traversal that lands on a node whose range
    has moved simply walks right, which makes readers correct even while a
    split by another processing node is mid-flight.

    Following §5.3.1, inner nodes are cached on the processing node; leaf
    nodes are always fetched from the store.  When a fetched leaf's range
    contradicts the cached parents (the leaf has split), the cached path
    is invalidated and refreshed.

    Entries are [(key, rid)] pairs ordered lexicographically; duplicate
    attribute keys are allowed (the rid disambiguates), and the tree is
    version-unaware (§5.3.2) — visibility filtering happens in the
    transaction layer after the record is read. *)

type t

val create : Tell_kv.Client.t -> name:string -> unit
(** Idempotently initialise the tree (empty root) in the store. *)

val attach : Tell_kv.Client.t -> name:string -> t
(** A per-processing-node handle with its own inner-node cache. *)

val name : t -> string

val insert_many : t -> entries:(string * int) list -> unit
(** Insert a batch of entries (already present ones are no-ops) — the
    only way entries reach the leaves, shared with {!remove_many} and the
    buffer flusher.  Each round routes every pending entry to its leaf
    through the cached inner levels, fetches the leaves with one
    multi-get, and gives each leaf one LL/SC conditional write covering
    all its entries.  A leaf that overflows is split in the same round
    into as many pieces as it needs (one CAS installs the left piece, one
    separator per new piece goes up).  Entries whose leaf went stale or
    conflicted are re-routed in the next round, with a growing pause once
    rounds pile up; after [64] rounds it raises
    [Invalid_argument "Btree: too many conflicts"].  Equivalent to
    inserting the entries one at a time, in any order. *)

val remove_many : t -> entries:(string * int) list -> unit
(** Remove a batch of entries (absent ones are no-ops); same rounds as
    {!insert_many}. *)

(** {1 Reads}

    All reads share one path: the cached inner levels route each range's
    first leaf, and every first leaf plus the buffer stripes overlapping
    the ranges (see below) are fetched in one batched store round trip;
    a range spanning several leaves right-walks the rest.  A stale route
    falls back to a full traversal. *)

val range : t -> lo:string -> hi:string -> (string * int) list
(** Entries with [lo <= key < hi], in key order. *)

val lookup : t -> key:string -> int list
(** All rids stored under exactly [key], ascending. *)

val lookup_many : t -> keys:string list -> (string * int list) list
(** Point lookups for many keys with (at most) one batched store round
    trip.  Results are in input order. *)

val lookup_many_grouped : (t * string list) list -> (string * int list) list list
(** [lookup_many] generalised across several trees attached to the same
    store client: all of them share the one multi-get, so a transaction's
    point lookups across many indexes cost one batched round trip total.
    The result mirrors the input shape. *)

(** {1 Bε message buffers (§3d)}

    Index maintenance off the commit critical path: a commit appends
    insert/delete {e messages} to the buffer stripe covering the entry's
    key — one blind append per stripe, no leaf read, no CAS — and the
    background flusher ({!Index_flusher}) applies them to the leaves in
    bulk.  Every read path above merges the pending messages of the
    stripes overlapping its range, so an entry is visible the moment its
    append is acknowledged. *)

type batch_op = Add of (string * int) | Del of (string * int)

val enqueue_many : t -> ops:batch_op list -> unit
(** Append the messages to the buffer stripes covering their keys: one
    blind multi-write round trip, never a conflict, and the
    acknowledgement makes the mutations durable (replicated like any
    other cell). *)

val enqueue_prepare : (t * batch_op list) list -> Tell_kv.Op.t list * (t * int) list
(** {!enqueue_many} split in two, for callers that fuse the stripe
    appends of several trees into a larger multi-write (the commit
    pipeline rides them in the apply round trip): [enqueue_prepare]
    builds the blind append ops plus aligned [(tree, stripe)] metadata
    without touching the store; {!enqueue_note} maps the ops' results
    back to [(tree, stripe, cell bytes after the append)] so callers can
    nudge the flusher at a size threshold. *)

val enqueue_note : (t * int) list -> Tell_kv.Op.result list -> (t * int * int) list

val flush_stripe : t -> stripe:int -> int
(** Apply the stripe's pending messages to the leaves (batched), advance
    its watermark, and purge residue older than the purge grace.  Safe to
    race with concurrent appends; must run inside a fiber.  Returns the
    number of messages applied. *)

val flush_all : t -> int

val stripe_cell_needs_flush : string -> now:int -> bool
(** Would {!flush_stripe} on a stripe cell holding this raw value do any
    work?  The background flusher's multi-get prefilter. *)

val pending_messages : t -> int
(** Unapplied messages across all stripes; 0 once quiesced + flushed. *)

val stripe_count : t -> int
val stripe_of : t -> string -> int

val unsafe_set_skip_buffer_merge : bool -> unit
(** Harness mutant: make reads ignore pending buffer messages, so a
    committed-but-unflushed index entry is invisible.  The
    [tell_check --mutation] battery proves the read-side merge is
    load-bearing with it.  Never set outside the harness. *)

val cache_size : t -> int
val invalidate_cache : t -> unit

val bulk_cells : name:string -> entries:(string * int) list -> (string * string) list
(** Build a complete, balanced tree from sorted [(key, rid)] entries as a
    list of [(store key, cell value)] pairs — including the root pointer
    and the node-id counter — ready to be installed with
    [Tell_kv.Cluster.poke].  The bulk-load path for benchmark populations. *)

(**/**)

val check : t -> string list
(** Walk the whole tree and collect structural violations — entry/separator
    ordering, bound containment, level tags, child arity — as
    human-readable strings ([[]] when sound).  Full separator entries are
    (key, rid) pairs; comparisons never drop the rid.  Expensive;
    simulation-time only (the [tell_check] harness and tests). *)

val check_invariants : t -> unit
(** {!check}, raising [Invalid_argument] on the first violation set. *)

val stash_orphan : t -> int -> unit
(** Mark node [id] as a suspected stranded allocation (stored but maybe
    never linked).  Internal paths stash automatically when an exception
    escapes a split mid-flight; exposed for tests. *)

val reclaim_orphans : t -> unit
(** Verify every stashed suspect against the live tree and delete the
    ones that are provably unreachable (the loser's half of a concurrent
    split whose cleanup was interrupted).  Runs automatically at the next
    mutation on the handle; exposed for tests.  Must run inside a fiber. *)

val orphan_count : t -> int

val debug_make_orphan : t -> key:string -> rid:int -> int
(** Store a single-entry leaf that nothing points to and stash it;
    returns its node id.  Test hook for the reclamation path. *)

val debug_node_exists : t -> int -> bool

val debug_drop_separator : t -> key:string -> unit
(** Remove the parent's separator for the leaf covering [key], leaving
    the leaf reachable only through its left sibling's [next]: the state
    a crash between a leaf split's CAS and its separator insert leaves.
    Test hook for the batched writer's right-walk. *)
