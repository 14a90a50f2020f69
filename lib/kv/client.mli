(** Client library of the record store, one instance per processing node.

    All operations go through per-storage-node {e lanes} that implement the
    paper's aggressive batching (§5.1): while a request to a storage node is
    in flight, further operations — possibly from different transactions on
    the same processing node — accumulate and are shipped as a single
    request once the lane frees up.

    Operations transparently retry after a directory refresh when they hit
    a crashed storage node; they raise {!Op.Unavailable} only once the
    retry budget is exhausted and {!Op.Capacity_exceeded} when the cluster
    is out of memory. *)

type t

val create : Cluster.t -> group:Tell_sim.Engine.Group.t -> t
(** The client's link identity is [group]'s label; its epoch is the
    cluster epoch at creation.  A component standing in for a fenced
    predecessor (same id, fresh instance) therefore writes under the
    post-fence epoch automatically. *)

val cluster : t -> Cluster.t
val group : t -> Tell_sim.Engine.Group.t

val endpoint : t -> string
(** Link-endpoint name used as [src] on every request this client sends
    (and [dst] on the replies) — the owning component's group label. *)

val epoch : t -> int
(** The cluster epoch stamped on this client's writes.  Storage nodes
    refuse writes stamped below the sender's declared-dead fence with
    {!Op.Fenced} (zombie fencing). *)

(** {1 Single-record operations (LL/SC)} *)

val get : t -> Op.key -> (string * int) option
(** Load-link: value and token. *)

val put : t -> Op.key -> string -> unit
(** Unconditional upsert. *)

val put_if : t -> Op.key -> int option -> string -> [ `Ok of int | `Conflict ]
(** Store-conditional: [Some token] from a previous {!get}, or [None] to
    require absence (insert). *)

val remove_if : t -> Op.key -> int option -> [ `Ok | `Conflict ]
val increment : t -> Op.key -> int -> int

(** {1 Batched operations} *)

val multi_get : t -> Op.key list -> (string * int) option list
(** One round trip per involved storage node, in parallel. *)

val multi_write : t -> Op.t list -> Op.result list
(** Ship a mixed batch of (conditional) writes; results in input order. *)

val scan_all : t -> prefix:string -> (Op.key * string * int) list
(** Query every storage node for keys under [prefix]; merged, sorted. *)

val scan_eval_all : t -> prefix:string -> program:string -> (Op.key * string * int) list
(** Push-down scan (§5.2 extension): run the storage nodes' registered
    evaluator over the cells under [prefix]; only its (filtered,
    projected) outputs travel back over the network. *)

(** {1 Introspection} *)

val requests_sent : t -> int
val ops_sent : t -> int
(** Batching ratio = ops_sent / requests_sent. *)

val stale_master_bounces : t -> int
(** How many operations this client had bounced with [Wrong_master] — a
    stale cached directory routed them to a deposed master, e.g. across a
    live partition migration — and re-routed after an immediate directory
    refresh (no timeout involved). *)

val max_retries : int
(** Size of the retry budget every operation starts with. *)

val backoff_ns : t -> attempts:int -> int
(** Sample the pause taken before the retry that has [attempts] budget
    left: exponential in the retries already burned, uniformly jittered
    in [base/2, 3*base/2) so clients that timed out against the same
    partition do not retry in lockstep when it heals. *)
