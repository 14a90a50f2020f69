module Sim = Tell_sim
module Kv = Tell_kv

type cost_model = {
  cpu_per_read_ns : int;
  cpu_per_write_ns : int;
  cpu_per_commit_ns : int;
  cpu_per_statement_ns : int;
}

let default_cost_model =
  { cpu_per_read_ns = 2_000; cpu_per_write_ns = 3_000; cpu_per_commit_ns = 10_000; cpu_per_statement_ns = 3_000 }

(* How long a commit outcome may sit in the notifier before the flush
   fiber pushes it out.  Calibration rationale in DESIGN.md §3b: short
   enough to stay well under the commit managers' 1 ms sync interval
   (the decided-set delay budget of §4.2), long enough to coalesce the
   outcomes of concurrent committers into one batch. *)
let default_notify_flush_window_ns = 100_000

(* How long the first beginner of a window waits for company before the
   shared [start_many] round trip to the commit manager.  Calibration
   rationale in DESIGN.md §3b: the window trades a bounded added begin
   latency (and a snapshot up to one window stale, which SI tolerates —
   §4.2, at worst a higher abort rate) for one manager RPC per window
   instead of per transaction.  Kept equal to the notify window: both sit
   well under the managers' 1 ms sync interval, so the extra staleness
   vanishes in the §4.2 delay budget.  [calibrate.exe begin] sweeps it. *)
let default_begin_window_ns = 100_000

type rid_range = { mutable next : int; mutable stop : int (* exclusive *) }

type t = {
  cluster : Kv.Cluster.t;
  engine : Sim.Engine.t;
  id : int;
  group : Sim.Engine.Group.t;
  cpu : Sim.Resource.t;
  kv : Kv.Client.t;
  cost : cost_model;
  mutable commit_managers : Commit_manager.t array;
  mutable cm_cursor : int;
  mutable pool : Buffer_pool.pool option;
  buffer_strategy : Buffer_pool.strategy;
  mutable vmax : Version_set.t;
  rid_ranges : (string, rid_range) Hashtbl.t;
  btrees : (string, Btree.t) Hashtbl.t;
  schemas : (string, Schema.table) Hashtbl.t;
  commit_stats : Sim.Stats.Breakdown.t;
  mutable notifier : Notifier.t option;
  begin_window_ns : int;
  mutable begin_window :
    (Commit_manager.t * Commit_manager.start_reply) Sim.Ivar.t list ref option;
      (* open begin window: ivars of the waiters (newest first), or [None]
         when no window is collecting *)
  mutable begins : int;  (* begin_txn calls served *)
  mutable begin_rpcs : int;  (* manager start RPCs actually issued *)
  begin_dist : (int, int) Hashtbl.t;
      (* manager id -> begins served by it from this node; the per-CM
         load distribution [tell_bench] reports *)
  claimed_tids : (int, unit) Hashtbl.t;
      (* in-flight transactions on this node; the reclamation sweep never
         touches a tid a live node claims *)
  mutable on_index_buffered : index:string -> stripe:int -> bytes:int -> unit;
      (* commit-path report of every Bε buffer append (index, stripe,
         resulting cell bytes); the database wires it to the index
         flusher's [note] so an overflowing stripe is flushed without
         waiting for the periodic sweep.  Must never suspend. *)
  mutable alive : bool;
  mutable fenced : bool;
      (* declared dead by the management node while this PN was (or
         appeared) partitioned: its epoch is fenced on every storage
         node, so it must stop — a poisoned zombie never serves again *)
}

let commit_phases = [ "begin"; "read"; "log"; "apply"; "notify" ]

let rid_range_size = 64

(* Zombie termination: this node healed from a partition only to find it
   was declared dead — its writes bounce off the epoch fence, and
   recovery has already rolled its in-flight work back.  Crash-stop is
   the only sound reaction: discard undelivered outcomes (recovery owns
   those tids) and kill every fiber.  Idempotent. *)
let poison t =
  if t.alive then begin
    History.note_node ~pn_id:t.id ~what:"poison";
    t.fenced <- true;
    t.alive <- false;
    (match t.notifier with Some n -> Notifier.discard n | None -> ());
    Sim.Engine.Group.kill t.group
  end

let create cluster ~id ?(cores = 4) ?(cost = default_cost_model)
    ?(buffer = Buffer_pool.Transaction_buffer)
    ?(notify_flush_window_ns = default_notify_flush_window_ns)
    ?(begin_window_ns = default_begin_window_ns) ~commit_managers () =
  let engine = Kv.Cluster.engine cluster in
  let label = Printf.sprintf "pn%d" id in
  let group = Sim.Engine.make_group engine label in
  let t =
    {
      cluster;
      engine;
      id;
      group;
      cpu = Sim.Resource.create engine ~servers:cores label;
      kv = Kv.Client.create cluster ~group;
      cost;
      commit_managers = Array.of_list commit_managers;
      cm_cursor = id;
      pool = None;
      buffer_strategy = buffer;
      vmax = Version_set.empty;
      rid_ranges = Hashtbl.create 16;
      btrees = Hashtbl.create 16;
      schemas = Hashtbl.create 16;
      commit_stats = Sim.Stats.Breakdown.create commit_phases;
      notifier = None;
      begin_window_ns;
      begin_window = None;
      begins = 0;
      begin_rpcs = 0;
      begin_dist = Hashtbl.create 4;
      claimed_tids = Hashtbl.create 64;
      on_index_buffered = (fun ~index:_ ~stripe:_ ~bytes:_ -> ());
      alive = true;
      fenced = false;
    }
  in
  t.pool <- Some (Buffer_pool.create t.kv buffer ~vmax:(fun () -> t.vmax));
  t.notifier <-
    Some
      (Notifier.create engine ~group ~kv:t.kv ~flush_window_ns:notify_flush_window_ns
         ~on_fenced:(fun () -> poison t)
         ~note:(fun ~ops ns -> Sim.Stats.Breakdown.add ~ops t.commit_stats ~phase:"notify" ns)
         ());
  t

let id t = t.id
let group t = t.group
let claim_tid t tid = Hashtbl.replace t.claimed_tids tid ()
let release_tid t tid = Hashtbl.remove t.claimed_tids tid
let claims t ~tid = Hashtbl.mem t.claimed_tids tid
let kv t = t.kv
let cluster t = t.cluster
let engine t = t.engine
let cost t = t.cost
let alive t = t.alive

let pool t =
  match t.pool with Some p -> p | None -> invalid_arg "Pn.pool: not initialised"

let notifier t =
  match t.notifier with Some n -> n | None -> invalid_arg "Pn.notifier: not initialised"

let crash t =
  History.note_node ~pn_id:t.id ~what:"crash";
  t.alive <- false;
  Sim.Engine.Group.kill t.group

let was_fenced t = t.fenced
let endpoint t = Kv.Client.endpoint t.kv

(* Swap a replaced commit manager for its successor in this PN's routing
   table (physical identity: the dead instance object, not its id, which
   the replacement reuses). *)
let replace_commit_manager t ~dead ~fresh =
  t.commit_managers <-
    Array.map (fun cm -> if cm == dead then fresh else cm) t.commit_managers

let charge t demand = Sim.Resource.use t.cpu ~demand

let commit_stats t = t.commit_stats

let set_index_buffered_hook t hook = t.on_index_buffered <- hook
let note_index_buffered t ~index ~stripe ~bytes = t.on_index_buffered ~index ~stripe ~bytes

let note_commit_phase t ~phase ?(ops = 0) ns =
  Sim.Stats.Breakdown.add ~ops t.commit_stats ~phase ns

let commit_manager t =
  let n = Array.length t.commit_managers in
  if n = 0 then invalid_arg "Pn.commit_manager: none configured";
  let rec pick attempts =
    if attempts = 0 then t.commit_managers.(t.cm_cursor mod n)
    else begin
      let cm = t.commit_managers.(t.cm_cursor mod n) in
      if Commit_manager.alive cm then cm
      else begin
        t.cm_cursor <- t.cm_cursor + 1;
        pick (attempts - 1)
      end
    end
  in
  pick n

(* Begin-side failover: a begin RPC that bounces [Unavailable] — the
   manager crashed, or is cut off from this node or from the store —
   retries against the next manager in the routing table.  The sticky
   cursor advances past the failed one, so subsequent begins go straight
   to a live manager.  At most one attempt per configured manager; the
   last failure propagates to the caller. *)
let with_begin_failover t f =
  let rec go attempts =
    let cm = commit_manager t in
    t.begin_rpcs <- t.begin_rpcs + 1;
    match f cm with
    | reply -> (cm, reply)
    | exception Kv.Op.Unavailable _ when attempts > 1 && t.alive ->
        t.cm_cursor <- t.cm_cursor + 1;
        go (attempts - 1)
  in
  go (max 1 (Array.length t.commit_managers))

let note_begins_served t cm n =
  let id = Commit_manager.id cm in
  let served = match Hashtbl.find_opt t.begin_dist id with Some c -> c | None -> 0 in
  Hashtbl.replace t.begin_dist id (served + n)

(* Begin-window coalescer — the notify-side Notifier's mirror image on
   the begin side.  The first beginner opens a window and becomes its
   leader: it sleeps [begin_window_ns], closes the window {e before}
   suspending on the manager RPC (arrivals from then on open a fresh
   window), issues one [start_many] for the whole batch, claims every
   handed-out tid before any waiter can resume (from the claim to the
   decision the reclamation sweep must treat the tid as live — and
   nothing can suspend between the replies landing and the claims), and
   distributes the replies.  Concurrent beginners within the window just
   park on an ivar.  All transactions of a window share the snapshot
   computed at RPC service time; each gets its own tid.  If the RPC
   fails (manager crashed or unreachable mid-window) every waiter gets
   the exception and no tid was ever claimed or learned, so nothing
   leaks for the reclamation sweep. *)
let begin_start t =
  t.begins <- t.begins + 1;
  if t.begin_window_ns <= 0 then begin
    (* Coalescing disabled: the direct path. *)
    let cm, reply =
      with_begin_failover t (fun cm ->
          Commit_manager.start cm ~src:(endpoint t) ~from_group:t.group ())
    in
    claim_tid t reply.Commit_manager.tid;
    note_begins_served t cm 1;
    (cm, reply)
  end
  else
    match t.begin_window with
    | Some waiters ->
        let iv = Sim.Ivar.create t.engine in
        waiters := iv :: !waiters;
        Sim.Ivar.read iv
    | None ->
        let iv = Sim.Ivar.create t.engine in
        let waiters = ref [ iv ] in
        t.begin_window <- Some waiters;
        let opened = Sim.Engine.now t.engine in
        (try
           Sim.Engine.sleep t.engine t.begin_window_ns;
           t.begin_window <- None;
           let batch = List.rev !waiters in
           let n = List.length batch in
           match
             with_begin_failover t (fun cm ->
                 Commit_manager.start_many cm ~src:(endpoint t) ~from_group:t.group ~count:n ())
           with
           | cm, replies ->
               List.iter
                 (fun (reply : Commit_manager.start_reply) -> claim_tid t reply.tid)
                 replies;
               note_begins_served t cm n;
               List.iter2 (fun iv reply -> Sim.Ivar.fill iv (cm, reply)) batch replies;
               note_commit_phase t ~phase:"begin" ~ops:n (Sim.Engine.now t.engine - opened)
           | exception e ->
               (* Manager crashed or unreachable mid-window: every waiter
                  sees the failure; no tid was claimed. *)
               List.iter (fun w -> Sim.Ivar.fill_exn w e) batch
         with e ->
           (* The leader itself died in the window (its group was killed)
              or failed before the RPC: close the window and fail every
              waiter not yet answered.  A waiter whose own group is still
              alive sees the node-begin failure, not our cancellation. *)
           (match t.begin_window with
           | Some w when w == waiters -> t.begin_window <- None
           | Some _ | None -> ());
           let failure =
             match e with Sim.Engine.Cancelled -> Kv.Op.Unavailable (endpoint t) | e -> e
           in
           List.iter
             (fun w -> if not (Sim.Ivar.is_filled w) then Sim.Ivar.fill_exn w failure)
             !waiters;
           raise e);
        Sim.Ivar.read iv

let begin_stats t = (t.begins, t.begin_rpcs)

let begin_distribution t =
  Hashtbl.fold (fun cm_id served acc -> (cm_id, served) :: acc) t.begin_dist []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let remove_commit_manager t ~dead =
  t.commit_managers <-
    Array.of_list (List.filter (fun c -> not (c == dead)) (Array.to_list t.commit_managers))

let note_started_snapshot t snapshot =
  if Version_set.base snapshot >= Version_set.base t.vmax then t.vmax <- snapshot

let vmax t = t.vmax

let alloc_rid t ~table =
  let range =
    match Hashtbl.find_opt t.rid_ranges table with
    | Some r -> r
    | None ->
        let r = { next = 1; stop = 1 } in
        Hashtbl.replace t.rid_ranges table r;
        r
  in
  if range.next >= range.stop then begin
    let top = Kv.Client.increment t.kv (Keys.rid_counter ~table) rid_range_size in
    range.next <- top - rid_range_size + 1;
    range.stop <- top + 1
  end;
  let rid = range.next in
  range.next <- rid + 1;
  rid

let max_rid t ~table =
  match Kv.Client.get t.kv (Keys.rid_counter ~table) with
  | Some (data, _) when String.length data = 8 -> Int64.to_int (String.get_int64_le data 0)
  | Some _ | None -> 0

let btree t ~index =
  match Hashtbl.find_opt t.btrees index with
  | Some handle -> handle
  | None ->
      let handle = Btree.attach t.kv ~name:index in
      Hashtbl.replace t.btrees index handle;
      handle

let schema t ~table =
  match Hashtbl.find_opt t.schemas table with
  | Some s -> s
  | None -> (
      match Kv.Client.get t.kv (Keys.schema ~table) with
      | Some (data, _) ->
          let s = Schema.decode_table data in
          Hashtbl.replace t.schemas table s;
          s
      | None -> raise (Schema.Schema_error (Printf.sprintf "unknown table %s" table)))

let forget_schema t ~table = Hashtbl.remove t.schemas table
