(** Discrete-event simulation engine with cooperative fibers.

    The engine maintains a virtual clock (in nanoseconds) and a queue of
    timestamped events.  Simulated processes are {e fibers}: ordinary OCaml
    functions that suspend themselves through effect handlers whenever they
    wait for virtual time to pass or for another fiber to produce a value.
    All fiber code runs single-threaded inside {!run}; concurrency is purely
    cooperative, which makes every simulation deterministic for a given
    seed. *)

type t

exception Cancelled
(** Raised inside a fiber when its {!group} has been killed (e.g. the
    simulated node it runs on has crashed). *)

module Group : sig
  (** A cancellation group, typically one per simulated node.  Killing the
      group causes every suspended fiber that belongs to it to receive
      {!Cancelled} at its suspension point the next time it would resume. *)

  type t

  val label : t -> string
  val alive : t -> bool
  val kill : t -> unit
  val revive : t -> unit
end

val create : unit -> t

val now : t -> int
(** Current virtual time in nanoseconds. *)

val root_group : t -> Group.t
val make_group : t -> string -> Group.t

val spawn : t -> ?group:Group.t -> (unit -> unit) -> unit
(** [spawn t f] schedules fiber [f] to start at the current virtual time.
    Uncaught exceptions other than {!Cancelled} escaping [f] abort the
    simulation run. *)

val sleep : t -> int -> unit
(** [sleep t d] suspends the calling fiber for [d] nanoseconds of virtual
    time.  Must be called from within a fiber. *)

val yield : t -> unit
(** Reschedule the calling fiber at the current instant, letting other
    ready fibers run first. *)

type resume = { resume : unit -> unit; cancel : exn -> unit }

val suspend : t -> (resume -> unit) -> unit
(** [suspend t register] suspends the calling fiber and hands a {!resume}
    record to [register].  Exactly one of [resume.resume] or
    [resume.cancel] must eventually be invoked (at most once); the fiber
    then continues (or raises) at the suspension point at the virtual time
    of the invocation.  If the fiber's group has been killed by the time
    [resume.resume] fires, the fiber receives {!Cancelled} instead. *)

val schedule : t -> ?delay:int -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs callback [f] (not a fiber: it must not
    suspend) after [delay] ns of virtual time. *)

val set_tie_break : t -> Rng.t option -> unit
(** Install (or, with [None], remove) a seeded schedule perturbation:
    every event subsequently scheduled draws a random tie-break rank from
    the given stream, so events that land on the {e same} virtual instant
    fire in a seed-dependent order instead of FIFO.  Event times are
    untouched.  Distinct seeds explore distinct interleavings of
    concurrently-ready fibers while each seed remains fully reproducible —
    the schedule-exploration knob of the [tell_check] harness.  Correct
    simulations must not depend on same-instant ordering; leave this
    [None] (the default) for calibrated benchmark runs. *)

val run : t -> ?until:int -> unit -> unit
(** Process events in timestamp order.  Stops when the event queue drains
    or, if [until] is given, just before the first event later than
    [until] (the clock is then advanced to [until]).  Also raises the
    process's minor heap to 8M words if it is smaller (fibers keep much
    short-lived state alive across events); host-side only, no virtual
    effect. *)

val pending_events : t -> int
