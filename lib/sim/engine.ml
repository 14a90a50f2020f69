exception Cancelled

module Group = struct
  type t = { label : string; mutable alive : bool }

  let make label = { label; alive = true }
  let label t = t.label
  let alive t = t.alive
  let kill t = t.alive <- false
  let revive t = t.alive <- true
end

type t = {
  mutable clock : int;
  events : (unit -> unit) Heap.t;
  root : Group.t;
  mutable tie_break : Rng.t option;
}

type resume = { resume : unit -> unit; cancel : exn -> unit }

type _ Effect.t += Suspend : (resume -> unit) -> unit Effect.t

let create () = { clock = 0; events = Heap.create (); root = Group.make "root"; tie_break = None }

let now t = t.clock
let root_group t = t.root
let make_group _t label = Group.make label
let set_tie_break t rng = t.tie_break <- rng

let schedule t ?(delay = 0) f =
  assert (delay >= 0);
  let prio = match t.tie_break with None -> 0 | Some rng -> Rng.int rng 0x3FFFFFFF in
  Heap.push t.events ~time:(t.clock + delay) ~prio f

(* Run fiber [f] under a deep effect handler.  The handler turns every
   [Suspend] into a one-shot resume record whose [resume] re-checks the
   group's liveness: a fiber of a crashed node observes [Cancelled] at its
   suspension point rather than silently continuing. *)
let spawn t ?group f =
  let group = match group with Some g -> g | None -> t.root in
  let open Effect.Deep in
  let handle () =
    match_with f ()
      {
        retc = (fun () -> ());
        exnc =
          (fun e ->
            match e with
            | Cancelled -> ()
            | e ->
                Fmt.epr "tell_sim: fiber in group %S died: %s@." (Group.label group)
                  (Printexc.to_string e);
                raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend register ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let fired = ref false in
                    let once name =
                      if !fired then invalid_arg ("Engine.resume: " ^ name ^ " fired twice")
                      else fired := true
                    in
                    register
                      {
                        resume =
                          (fun () ->
                            once "resume";
                            if Group.alive group then continue k () else discontinue k Cancelled);
                        cancel =
                          (fun e ->
                            once "cancel";
                            discontinue k e);
                      })
            | _ -> None);
      }
  in
  schedule t (fun () -> if Group.alive group then handle ())

let suspend _t register = Effect.perform (Suspend register)

let sleep t d =
  assert (d >= 0);
  suspend t (fun r -> schedule t ~delay:d r.resume)

let yield t = sleep t 0

(* Fibers hold a transaction's working set across many host events, so
   with OCaml's default 256k-word minor heap almost all of it is promoted
   and later swept by the major GC.  A 64 MB minor heap lets most of it
   die young.  Raised when an engine first runs, not when it is created:
   a set-up that bulk-installs a population before running keeps the
   default, since data built to live gains nothing from a big minor heap
   and was measured to build slower with one.  Never lowered: a larger
   OCAMLRUNPARAM [s=] setting is kept. *)
let minor_heap_words = 8 * 1024 * 1024

let run t ?until () =
  let gc = Gc.get () in
  if gc.minor_heap_size < minor_heap_words then
    Gc.set { gc with minor_heap_size = minor_heap_words };
  let continue_run = ref true in
  while !continue_run do
    match Heap.peek_time t.events with
    | None -> continue_run := false
    | Some time -> (
        match until with
        | Some limit when time > limit ->
            t.clock <- limit;
            continue_run := false
        | _ -> (
            match Heap.pop t.events with
            | None -> continue_run := false
            | Some (time, f) ->
                t.clock <- time;
                f ()))
  done;
  match until with Some limit when t.clock < limit -> t.clock <- limit | _ -> ()

let pending_events t = Heap.length t.events
