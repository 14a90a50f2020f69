type cell = { mutable data : string; mutable token : int }

(* The cell table.  [Hashtbl.hash] is the hash the polymorphic table uses,
   so bucket indices — and with them the iteration order that [snapshot]
   and [set_ownership] observe — are those of a plain [Hashtbl];
   [String.equal] replaces polymorphic compare on lookups. *)
module Cells = Hashtbl.Make (struct
  type t = Op.key

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let initial_buckets = 4096

type t = {
  engine : Tell_sim.Engine.t;
  id : int;
  group : Tell_sim.Engine.Group.t;
  cpu : Tell_sim.Resource.t;
  mutable cells : cell Cells.t;
  mutable bytes_stored : int;
  capacity_bytes : int;
  base_service_ns : int;
  per_byte_service_ns : float;
  mutable alive : bool;
  mutable serving : bool;
      (* A restarted node is alive (heartbeats answer) but owns no
         partitions until the management node re-adds it to a chain;
         stale client directories must not read its empty store as
         authoritative. *)
  mutable retired : bool;
      (* A drained node: still alive (it answers scans until the last
         partition leaves) but never again a candidate for chain
         membership.  Set by the management node at the end of a drain. *)
  mutable epoch : int;
      (* The cluster epoch this node's ownership tables were synced under.
         Stamped on its outgoing chain-replication writes: after a fenced
         cutover deposes the node, its still-in-flight replication traffic
         carries the pre-cutover epoch and bounces on the backups. *)
  mutable lease_until : int;
      (* Serving lease (virtual-time deadline), renewed by the management
         node's heartbeat together with the ownership sync.  A node that
         the management node cannot reach stops serving once the lease
         runs out — the zombie window of a partitioned master is bounded
         by [lease_ns], after which a fenced cutover may safely re-point
         its partitions.  [max_int] (the initial value) = no lease
         machinery, for deployments without a failure detector. *)
  masters : (int, unit) Hashtbl.t;
      (* partitions this node currently masters — synced management
         metadata.  With [partition_of] installed, keyed operations for
         other partitions bounce with [Wrong_master_reply] instead of
         being answered from a possibly-stale copy. *)
  replica_parts : (int, unit) Hashtbl.t;
      (* partitions this node holds (master or backup); cells of
         partitions that migrated away are pruned at the next sync. *)
  mutable partition_of : (Op.key -> int) option;
      (* key -> partition map, installed with the first ownership sync;
         [None] = ownership checks disabled (bare-node unit tests). *)
  mutable evaluator : (program:string -> key:Op.key -> data:string -> string option) option;
  fences : (string, int) Hashtbl.t;
      (* sender endpoint -> minimum accepted epoch.  Installed by the
         management node when it declares the sender dead: writes tagged
         with an older epoch bounce ([Fenced_reply]), so a zombie healing
         from a partition cannot complete work recovery already rolled
         back.  Deliberately NOT cleared by [restart]: the fence is
         management metadata a rejoining node re-syncs before serving,
         not DRAM state. *)
  mutable fenced_rejects : int;
  mutable wrong_master_rejects : int;
  catchup : (int, ((string * int) option * (string * int) option * Op.t * Op.result) Queue.t) Hashtbl.t;
      (* partition -> replica installs queued while a bulk copy of that
         partition is in flight to this node.  A [load] can only add or
         advance cells, never delete: without the queue, a [Remove]
         install delivered between the copy's snapshot and its load would
         be undone — the snapshot still holds the cell and the load
         resurrects it.  Installs are queued from snapshot time and
         replayed in delivery order after the load lands. *)
  replays : (int * int, Op.result) Hashtbl.t;
      (* (client uid, op id) -> first result of a conditional mutation:
         exactly-once semantics over an at-least-once network.  A client
         whose reply was lost re-sends the op under the same id and gets
         the cached verdict instead of conflicting with its own write.
         Bounded FIFO ([replay_cap]); retries arrive within the client's
         few-millisecond retry budget, far inside the cache's lifetime. *)
  replay_order : (int * int) Queue.t;
}

let create engine ~id ~cores ~capacity_bytes ~base_service_ns ~per_byte_service_ns =
  let label = Printf.sprintf "sn%d" id in
  {
    engine;
    id;
    group = Tell_sim.Engine.make_group engine label;
    cpu = Tell_sim.Resource.create engine ~servers:cores label;
    cells = Cells.create initial_buckets;
    bytes_stored = 0;
    capacity_bytes;
    base_service_ns;
    per_byte_service_ns;
    alive = true;
    serving = true;
    retired = false;
    epoch = 1;
    lease_until = max_int;
    masters = Hashtbl.create 16;
    replica_parts = Hashtbl.create 16;
    partition_of = None;
    evaluator = None;
    fences = Hashtbl.create 8;
    fenced_rejects = 0;
    wrong_master_rejects = 0;
    catchup = Hashtbl.create 4;
    replays = Hashtbl.create 256;
    replay_order = Queue.create ();
  }

let id t = t.id
let alive t = t.alive

let serving t =
  t.alive && t.serving && Tell_sim.Engine.now t.engine <= t.lease_until

let set_serving t flag = t.serving <- flag
let retired t = t.retired
let set_retired t flag = t.retired <- flag
let group t = t.group
let sender t = (Printf.sprintf "sn%d" t.id, t.epoch)
let renew_lease t ~until = t.lease_until <- until

let crash t =
  t.alive <- false;
  Tell_sim.Engine.Group.kill t.group

(* DRAM volatility: a restarted node comes back empty and re-joins as a
   candidate backup; the directory no longer routes to it until the
   management node picks it for a future repair. *)
let restart t =
  t.cells <- Cells.create initial_buckets;
  Hashtbl.reset t.replays;
  Queue.clear t.replay_order;
  (* Ownership is forgotten with the data: the node claims no partitions
     until the management node syncs it back into some chain.  Fences and
     [partition_of] survive — management metadata, not DRAM state. *)
  Hashtbl.reset t.masters;
  Hashtbl.reset t.replica_parts;
  Hashtbl.reset t.catchup;
  t.bytes_stored <- 0;
  t.alive <- true;
  t.serving <- false;
  Tell_sim.Engine.Group.revive t.group

let bytes_stored t = t.bytes_stored
let capacity_bytes t = t.capacity_bytes
let cpu t = t.cpu

let cell_bytes key data = String.length key + String.length data + 48

let charge t bytes =
  let demand =
    t.base_service_ns + int_of_float (t.per_byte_service_ns *. float_of_int bytes)
  in
  Tell_sim.Resource.use t.cpu ~demand

let account_put t key ~old_data ~new_data =
  let delta =
    match old_data with
    | None -> cell_bytes key new_data
    | Some old_data -> String.length new_data - String.length old_data
  in
  t.bytes_stored <- t.bytes_stored + delta

let check_capacity t key ~old_data ~new_data =
  let delta =
    match old_data with
    | None -> cell_bytes key new_data
    | Some old_data -> String.length new_data - String.length old_data
  in
  if delta > 0 && t.bytes_stored + delta > t.capacity_bytes then
    raise (Op.Capacity_exceeded t.id)

let store t key data =
  match Cells.find_opt t.cells key with
  | Some cell ->
      check_capacity t key ~old_data:(Some cell.data) ~new_data:data;
      account_put t key ~old_data:(Some cell.data) ~new_data:data;
      cell.data <- data;
      cell.token <- cell.token + 1;
      cell.token
  | None ->
      check_capacity t key ~old_data:None ~new_data:data;
      account_put t key ~old_data:None ~new_data:data;
      Cells.add t.cells key { data; token = 1 };
      1

let drop t key =
  match Cells.find_opt t.cells key with
  | None -> ()
  | Some cell ->
      t.bytes_stored <- t.bytes_stored - cell_bytes key cell.data;
      Cells.remove t.cells key

(* Management-metadata sync: the node's view of which partitions it
   masters / holds, stamped with the epoch it was synced under.  Cells of
   partitions that migrated away are pruned here — the node must not keep
   answering scans from a copy the cluster no longer counts. *)
let set_ownership t ~epoch ~masters ~replicas ~partition_of =
  t.epoch <- epoch;
  t.partition_of <- Some partition_of;
  Hashtbl.reset t.masters;
  List.iter (fun p -> Hashtbl.replace t.masters p ()) masters;
  let lost =
    Hashtbl.fold
      (fun p () acc -> if List.mem p replicas then acc else p :: acc)
      t.replica_parts []
  in
  Hashtbl.reset t.replica_parts;
  List.iter (fun p -> Hashtbl.replace t.replica_parts p ()) replicas;
  if lost <> [] then begin
    let doomed = ref [] in
    Cells.iter
      (fun key _ -> if List.mem (partition_of key) lost then doomed := key :: !doomed)
      t.cells;
    List.iter (fun key -> drop t key) !doomed
  end

let masters_partition t p = Hashtbl.mem t.masters p

(* Keyed operations must be answered by the partition's current master:
   after a migration re-points a partition, a client still routing on a
   stale directory gets an explicit bounce (refresh-and-retry) instead of
   an answer from a deposed copy.  Scans are exempt — they are broadcast
   to every node by design and deduplicated client-side. *)
let wrong_master t (op : Op.t) =
  match t.partition_of with
  | None -> false
  | Some partition_of -> (
      match op with
      | Scan _ | Scan_eval _ -> false
      | op -> not (Hashtbl.mem t.masters (partition_of (Op.key_of op))))

let decode_int s = if String.length s = 8 then Some (Int64.to_int (String.get_int64_le s 0)) else None

let encode_int v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Bytes.unsafe_to_string b

let execute t (op : Op.t) : Op.result =
  match op with
  | Get key -> (
      match Cells.find_opt t.cells key with
      | Some cell -> Value (Some (cell.data, cell.token))
      | None -> Value None)
  | Put (key, data) ->
      let _ = store t key data in
      Done
  | Put_if (key, expected, data) -> (
      match (Cells.find_opt t.cells key, expected) with
      | None, None -> Token (store t key data)
      | None, Some _ -> Conflict
      | Some _, None -> Conflict
      | Some cell, Some token ->
          if cell.token = token then Token (store t key data) else Conflict)
  | Remove (key, expected) -> (
      match (Cells.find_opt t.cells key, expected) with
      | None, _ -> Done
      | Some _, None ->
          drop t key;
          Done
      | Some cell, Some token ->
          if cell.token = token then begin
            drop t key;
            Done
          end
          else Conflict)
  | Append (key, suffix) -> (
      match Cells.find_opt t.cells key with
      | Some cell ->
          let data = cell.data ^ suffix in
          check_capacity t key ~old_data:(Some cell.data) ~new_data:data;
          account_put t key ~old_data:(Some cell.data) ~new_data:data;
          cell.data <- data;
          cell.token <- cell.token + 1;
          Appended (data, cell.token)
      | None ->
          let token = store t key suffix in
          Appended (suffix, token))
  | Increment (key, by) -> (
      match Cells.find_opt t.cells key with
      | Some cell -> (
          match decode_int cell.data with
          | Some v ->
              let v = v + by in
              cell.data <- encode_int v;
              cell.token <- cell.token + 1;
              Count (v, cell.token)
          | None -> invalid_arg "Storage_node: Increment on non-integer cell")
      | None ->
          let token = store t key (encode_int by) in
          Count (by, token))
  | Scan prefix ->
      let matches = ref [] in
      Cells.iter
        (fun key cell ->
          if String.starts_with ~prefix key then
            matches := (key, cell.data, cell.token) :: !matches)
        t.cells;
      Keys (List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !matches)
  | Scan_eval (prefix, program) -> (
      match t.evaluator with
      | None -> invalid_arg "Storage_node: no push-down evaluator registered"
      | Some evaluate ->
          let matches = ref [] in
          Cells.iter
            (fun key cell ->
              if String.starts_with ~prefix key then
                match evaluate ~program ~key ~data:cell.data with
                | Some projected -> matches := (key, projected, cell.token) :: !matches
                | None -> ())
            t.cells;
          Keys (List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !matches))

(* Zombie fencing (declared-dead epochs): a write carrying an epoch token
   older than the sender's fence is refused.  Reads pass — a stale
   snapshot read is valid SI; only mutations can corrupt state. *)
let fence t ~sender ~epoch =
  match Hashtbl.find_opt t.fences sender with
  | Some e when e >= epoch -> ()
  | Some _ | None -> Hashtbl.replace t.fences sender epoch

let write_fenced t ~sender op =
  Op.is_write op
  &&
  match sender with
  | None -> false
  | Some (name, epoch) -> (
      match Hashtbl.find_opt t.fences name with
      | Some min_epoch -> epoch < min_epoch
      | None -> false)

let fenced_rejects t = t.fenced_rejects
let wrong_master_rejects t = t.wrong_master_rejects

let replay_cap = 8192

let find_replay t ~client ~op_id = Hashtbl.find_opt t.replays (client, op_id)

let record_replay t ~client ~op_id result =
  let key = (client, op_id) in
  if not (Hashtbl.mem t.replays key) then begin
    Hashtbl.replace t.replays key result;
    Queue.push key t.replay_order;
    if Queue.length t.replay_order > replay_cap then
      Hashtbl.remove t.replays (Queue.pop t.replay_order)
  end

let apply t ?sender op =
  let bytes =
    match op with
    | Op.Scan _ ->
        (* A scan walks the whole partition: charge per cell visited. *)
        Cells.length t.cells * 4
    | Op.Scan_eval _ ->
        (* Push-down pays scan plus per-cell evaluation. *)
        Cells.length t.cells * 10
    | op -> Op.request_bytes op
  in
  charge t bytes;
  if write_fenced t ~sender op then begin
    t.fenced_rejects <- t.fenced_rejects + 1;
    Op.Fenced_reply
  end
  else if wrong_master t op then begin
    t.wrong_master_rejects <- t.wrong_master_rejects + 1;
    Op.Wrong_master_reply
  end
  else execute t op

(* Replicas install the master's outcome verbatim: only effective writes
   are shipped, so conditions have already been decided.  The fence is
   checked here for BOTH identities on the write: the processing node
   that issued it ([sender] — a healed PN zombie must not resurrect
   rolled-back versions on the backups) and the storage node that
   mastered it ([via] — a master deposed by a fenced cutover has its
   still-in-flight replication stream bounced, so it cannot regress a
   backup that already follows the partition's new master). *)
let install_replica t (op : Op.t) (outcome : Op.result) =
  match (op, outcome) with
  | Put_if (key, _, data), Token token -> (
      (* Preserve the master's token so LL/SC tokens survive a
         fail-over — but never step a cell backwards: a chain write
         that was mastered before a migration cutover and lands after
         it must not clobber what the new master wrote since. *)
      match Cells.find_opt t.cells key with
      | Some cell when cell.token >= token -> ()
      | _ ->
          let _ = store t key data in
          (match Cells.find_opt t.cells key with
          | Some cell -> cell.token <- token
          | None -> ()))
  | Put (key, data), _ ->
      let _ = store t key data in
      ()
  | Remove (key, _), _ -> drop t key
  | Increment (key, _), Count (v, token) -> (
      (* Same monotone-token discipline as [Put_if]/[Append]: counters
         back allocation ranges (tids, rids), so a delayed replicate
         stepping one backwards on a future master re-issues ranges
         already handed out. *)
      match Cells.find_opt t.cells key with
      | Some cell when cell.token >= token -> ()
      | _ ->
          let _ = store t key (encode_int v) in
          (match Cells.find_opt t.cells key with
          | Some cell -> cell.token <- token
          | None -> ()))
  | Append (key, _), Appended (data, token) -> (
      (* The outcome carries the master's full post-append value: install
         it whole under the master's token.  Appends to the same cell are
         serialized by the master, so the monotone-token guard gives the
         backups the same final value regardless of delivery order. *)
      match Cells.find_opt t.cells key with
      | Some cell when cell.token >= token -> ()
      | _ ->
          let _ = store t key data in
          (match Cells.find_opt t.cells key with
          | Some cell -> cell.token <- token
          | None -> ()))
  | (Put_if _ | Increment _ | Append _), _ -> ()
  | (Get _ | Scan _ | Scan_eval _), _ -> ()

let apply_replica t ?sender ?via (op : Op.t) (outcome : Op.result) =
  charge t (Op.request_bytes op);
  if write_fenced t ~sender op || write_fenced t ~sender:via op then begin
    t.fenced_rejects <- t.fenced_rejects + 1;
    `Fenced
  end
  else begin
    (let queued =
       match op with
       | Get _ | Scan _ | Scan_eval _ -> false
       | op -> (
           match t.partition_of with
           | None -> false
           | Some partition_of -> (
               match Hashtbl.find_opt t.catchup (partition_of (Op.key_of op)) with
               | Some q ->
                   Queue.push (sender, via, op, outcome) q;
                   true
               | None -> false))
     in
     if not queued then install_replica t op outcome);
    `Applied
  end

let snapshot t = Cells.fold (fun key cell acc -> (key, cell.data, cell.token) :: acc) t.cells []

(* Never step backwards: a concurrent write forwarded during re-replication
   must not be clobbered by the (older) bulk snapshot. *)
let install t key data ~token =
  match Cells.find_opt t.cells key with
  | Some old when old.token >= token -> ()
  | Some old ->
      t.bytes_stored <- t.bytes_stored - cell_bytes key old.data + cell_bytes key data;
      old.data <- data;
      old.token <- token
  | None ->
      t.bytes_stored <- t.bytes_stored + cell_bytes key data;
      Cells.add t.cells key { data; token }

let load t entries = List.iter (fun (key, data, token) -> install t key data ~token) entries

(* Installing [n] cells one at a time doubles the bucket array whenever
   the cell count passes twice its length, ending at the smallest doubling
   of the current length with at least n/2 buckets.  An empty table
   created at (n+1)/2 buckets has exactly that length without the
   intermediate resizes.  Resizing keeps every bucket's order (newest
   first), so iteration order is a function of the install sequence and
   the final length alone: it does not change. *)
let reserve t n =
  if Cells.length t.cells = 0 && (Cells.stats t.cells).num_buckets < (n + 1) / 2 then
    t.cells <- Cells.create ((n + 1) / 2)

(* Bulk-copy catch-up window.  [begin_catchup] must be called in the same
   suspension-free block as the source snapshot it protects: from then
   until [end_catchup], replica installs for the partition are queued
   instead of applied, so the (older) load cannot undo a delete that the
   live stream delivered first.  [end_catchup] installs the copied cells
   and replays the queue in delivery order — the replay re-checks fences,
   so a source fenced mid-copy still has its late writes bounced.
   Suspension-free throughout. *)
let begin_catchup t ~partition =
  if not (Hashtbl.mem t.catchup partition) then
    Hashtbl.replace t.catchup partition (Queue.create ())

let catchup_pending t ~partition = Hashtbl.mem t.catchup partition

let end_catchup t ~partition ~entries =
  let q = Hashtbl.find_opt t.catchup partition in
  Hashtbl.remove t.catchup partition;
  load t entries;
  match q with
  | None -> ()
  | Some q ->
      Queue.iter
        (fun (sender, via, op, outcome) ->
          if write_fenced t ~sender op || write_fenced t ~sender:via op then
            t.fenced_rejects <- t.fenced_rejects + 1
          else install_replica t op outcome)
        q

let wipe t =
  t.cells <- Cells.create initial_buckets;
  Hashtbl.reset t.catchup;
  t.bytes_stored <- 0

let encode_counter = encode_int

let set_evaluator t evaluate = t.evaluator <- Some evaluate

let find t key =
  Option.map (fun cell -> (cell.data, cell.token)) (Cells.find_opt t.cells key)
