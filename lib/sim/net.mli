(** Parametric network model.

    A message transfer costs a base one-way latency plus a per-byte
    serialisation cost, with light multiplicative jitter.  Two presets
    mirror the paper's test bed: 40 Gbit QDR InfiniBand with RDMA
    (microsecond latencies, kernel bypass) and 10 Gbit Ethernet (tens of
    microseconds through the OS networking stack).  Cumulative per-link
    byte counters support the bandwidth-saturation discussion of §6.6.

    On top of the latency model sits a per-link fault plan for the
    fault-injection harness: named partitions (symmetric or one-way cuts
    between endpoint groups) and probabilistic per-link message drop /
    duplication, installable and healable at virtual instants.  Faulty
    links are only exercised by the identity-carrying {!send}; the legacy
    {!transfer} models traffic whose endpoints are not interesting and
    never drops. *)

type profile = {
  name : string;
  base_latency_ns : int;  (** one-way propagation + stack traversal *)
  per_byte_ns : float;  (** inverse bandwidth *)
  jitter : float;  (** relative stddev of the latency, e.g. 0.05 *)
}

val infiniband : profile
val ethernet_10g : profile
val profile_of_string : string -> profile option

type t

val create : Engine.t -> Rng.t -> profile -> t
val profile : t -> profile

val delay : t -> bytes:int -> int
(** Sample the one-way delay for a message of [bytes] payload bytes. *)

val inject_fault :
  t -> from_ns:int -> until_ns:int -> ?factor:float -> ?extra_ns:int -> unit -> unit
(** Install a latency-degradation window: every delay sampled while the
    virtual clock is in [\[from_ns, until_ns)] is multiplied by [factor]
    (default 1.0) and increased by [extra_ns] (default 0).  Windows may
    overlap (they compose); expired windows are swept automatically.
    Fault-injection hook for the [tell_check] harness — times must be
    virtual, never wall-clock, to preserve seed determinism. *)

val transfer : t -> bytes:int -> unit
(** Suspend the calling fiber for one sampled one-way delay and account
    the bytes.  Never drops: use {!send} for traffic that must obey the
    link fault plan. *)

(** {1 Link-level fault plan}

    Endpoints are opaque names; the cluster layer uses the fiber-group
    labels of its components ("pn0", "cm1", "sn3", "mgmt") so that one
    naming scheme identifies a link everywhere. *)

val send : t -> src:string -> dst:string -> bytes:int -> [ `Delivered | `Dropped ]
(** One identity-carrying message.  [`Delivered]: the calling fiber slept
    one sampled one-way delay, the message arrived.  [`Dropped]: the
    message was lost to a cut or to link loss and the call returns
    immediately — the caller models the receiver's silence (typically by
    sleeping its timeout and raising an unavailability error).  Loss
    decisions draw from the net's seeded rng only on links with a loss
    plan, so fault-free runs consume the same random stream as
    {!transfer}-only ones. *)

val cut :
  t -> name:string -> from_:string list -> to_:string list -> symmetric:bool -> unit
(** Install (or replace) the named partition: messages from any endpoint
    in [from_] to any endpoint in [to_] are dropped; [symmetric] also
    severs the reverse direction (a full partition rather than a one-way
    cut). *)

val heal : t -> name:string -> unit

val active_cuts : t -> string list
(** Names of the partitions still installed — the harness asserts this is
    empty at audit time (every scenario must heal what it cuts). *)

val set_loss : t -> src:string -> dst:string -> ?drop:float -> ?dup:float -> unit -> unit
(** Probabilistic loss on one directed link: each {!send} is dropped with
    probability [drop], else duplicated on the wire with probability
    [dup] (the receiver de-duplicates; only bytes and counters observe
    it).  Both 0.0 clears the link's plan. *)

val clear_loss : t -> src:string -> dst:string -> unit

(** {1 Counters} *)

val link_counts : t -> src:string -> dst:string -> int * int * int
(** [(sent, dropped, duplicated)] messages on the directed link, from its
    {!Stats.Counter}s. *)

val messages_dropped : t -> int
val messages_duplicated : t -> int
val bytes_sent : t -> int
val reset_counters : t -> unit
