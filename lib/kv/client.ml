module Sim = Tell_sim

type pending = {
  op : Op.t;
  op_id : int;  (** dedup id for conditional mutations; 0 = not deduped *)
  reply : Op.result Sim.Ivar.t;
}

type lane = { mutable in_flight : bool; queued : pending Queue.t }

type t = {
  cluster : Cluster.t;
  group : Sim.Engine.Group.t;
  endpoint : string;  (** link identity: the owning component's group label *)
  epoch : int;  (** cluster epoch at creation; stamped on every write *)
  rng : Sim.Rng.t;  (** retry-backoff jitter (split off the cluster rng) *)
  mutable lanes : lane array;
      (** indexed by storage-node id; grows when the management node adds
          a storage node online *)
  uid : int;  (** process-unique client id, keys the nodes' replay caches *)
  mutable next_op_id : int;
  mutable cached_masters : int array;
  mutable requests_sent : int;
  mutable ops_sent : int;
  mutable stale_master_bounces : int;
      (** operations bounced with [Wrong_master] (stale cached directory,
          e.g. across a live migration) and re-routed after a refresh *)
}

let max_retries = 8

(* Client uids key the storage nodes' replay caches together with per-op
   ids; they only need process-wide uniqueness.  (The endpoint label
   cannot serve: several clients may share one — e.g. "mgmt".) *)
let next_client_uid = ref 0

let create cluster ~group =
  let n = Array.length (Cluster.nodes cluster) in
  {
    cluster;
    group;
    endpoint = Sim.Engine.Group.label group;
    epoch = Cluster.current_epoch cluster;
    rng = Sim.Rng.split (Cluster.rng cluster);
    lanes = Array.init n (fun _ -> { in_flight = false; queued = Queue.create () });
    uid =
      (incr next_client_uid;
       !next_client_uid);
    next_op_id = 0;
    cached_masters = Directory.masters_snapshot (Cluster.directory cluster);
    requests_sent = 0;
    ops_sent = 0;
    stale_master_bounces = 0;
  }

let cluster t = t.cluster
let group t = t.group
let endpoint t = t.endpoint
let epoch t = t.epoch
let sender t = (t.endpoint, t.epoch)
let requests_sent t = t.requests_sent
let ops_sent t = t.ops_sent
let stale_master_bounces t = t.stale_master_bounces

let engine t = Cluster.engine t.cluster

(* Lanes are sized for the cluster at client creation; an online
   storage-node add grows the array on first contact. *)
let lane_for t sn_id =
  let n = Array.length t.lanes in
  if sn_id >= n then
    t.lanes <-
      Array.init (sn_id + 1) (fun i ->
          if i < n then t.lanes.(i) else { in_flight = false; queued = Queue.create () });
  t.lanes.(sn_id)

let master_for t key =
  let dir = Cluster.directory t.cluster in
  let p = Directory.partition_of_key dir key in
  if p < Array.length t.cached_masters then t.cached_masters.(p)
  else Directory.master dir p

(* Refresh the cached directory from the management node: one network
   round trip plus a little management CPU. *)
let refresh_directory t =
  let net = Cluster.net t.cluster in
  Sim.Net.transfer net ~bytes:64;
  Sim.Resource.use (Cluster.mgmt_cpu t.cluster) ~demand:2_000;
  let snapshot = Directory.masters_snapshot (Cluster.directory t.cluster) in
  Sim.Net.transfer net ~bytes:(16 + (4 * Array.length snapshot));
  t.cached_masters <- snapshot

(* Synchronously replicate the effective writes of a batch to the backups
   of each partition involved (ROWA, §4.4.2).  Every backup is written by
   its own fiber, in parallel as RamCloud does (see the cost comment
   below); the master's reply to the client waits for every ack.

   Writes ship to the {e union} of the chain captured at apply time
   ([chains]) and the live directory chain: the captured one guarantees a
   write mastered just before a migration cutover still reaches every
   member of the new chain (the learner included) instead of being
   silently skipped when the live master check fails; the live one keeps
   a write racing a crash repair flowing to the freshly added backup.
   [via] is the master's chain-replication identity captured at apply
   time: once a fenced cutover deposes it, the backups bounce this
   stream and the whole batch surfaces as [Wrong_master] — the client
   retries against the new master (conditional ops replay their original
   verdict where they already landed). *)
let replicate t ~sn_id ~via ~chains writes =
  match writes with
  | [] -> ()
  | _ :: _ ->
      let dir = Cluster.directory t.cluster in
      let net = Cluster.net t.cluster in
      let by_backup = Hashtbl.create 4 in
      let add b pair =
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_backup b) in
        if not (List.memq pair prev) then Hashtbl.replace by_backup b (pair :: prev)
      in
      List.iter
        (fun ((op, _) as pair) ->
          let p = Directory.partition_of_key dir (Op.key_of op) in
          (match Hashtbl.find_opt chains p with
          | Some backups -> List.iter (fun b -> add b pair) backups
          | None ->
              if Directory.master dir p <> sn_id then
                (* Applied by a node that neither mastered the partition
                   at batch start (no captured chain) nor masters it now:
                   a zombie master answered.  Its copy is doomed — fail
                   the batch over rather than ack a write with no home. *)
                raise (Op.Wrong_master (Cluster.sn_endpoint sn_id)));
          if Directory.master dir p = sn_id then
            List.iter (fun b -> add b pair) (Directory.backups dir p))
        writes;
      (* Replication cost: each backup's write pays the raw round trip
         plus the backup's log-management latency per op.  The backups
         of one batch are written in parallel, so the batch waits for the
         slowest backup, not for their sum.  This is the
         synchronous-replication latency that dominates write-heavy
         response times (§6.3.1). *)
      let latency_per_write = (Cluster.config t.cluster).replication_latency_ns in
      let config = Cluster.config t.cluster in
      let write_backup backup_id batch =
        let bytes = List.fold_left (fun a (op, _) -> a + Op.request_bytes op) 32 batch in
        (* The chain write is acked: a drop on a flaky master->backup
           link is re-sent until it lands — a silently skipped replica
           write would leave a stale backup that data-loss surfaces
           from after a later fail-over.  A severed link exhausts the
           budget and surfaces as [Unavailable] to the whole batch. *)
        let src = Cluster.sn_endpoint sn_id and dst = Cluster.sn_endpoint backup_id in
        let rec ship attempts =
          match Sim.Net.send net ~src ~dst ~bytes with
          | `Delivered -> ()
          | `Dropped when attempts > 0 ->
              Sim.Engine.sleep (engine t) config.client_timeout_ns;
              ship (attempts - 1)
          | `Dropped -> raise (Op.Unavailable dst)
        in
        ship max_retries;
        let node = Cluster.node t.cluster backup_id in
        let fenced = ref false in
        if Storage_node.alive node then begin
          List.iter
            (fun (op, outcome) ->
              match Storage_node.apply_replica node ~sender:(sender t) ~via op outcome with
              | `Applied -> ()
              | `Fenced -> fenced := true)
            (List.rev batch);
          Sim.Engine.sleep (engine t) (List.length batch * latency_per_write)
        end;
        Sim.Net.transfer net ~bytes:32;
        if !fenced then
          (* The master that executed this batch has been deposed by a
             fenced cutover: the backup refused its stream.  Fail the
             batch over to the new master (refresh-and-retry) — the
             write must not be acked with a backup that dropped it. *)
          raise (Op.Wrong_master (Cluster.sn_endpoint backup_id))
      in
      match List.rev (Hashtbl.fold (fun b batch acc -> (b, batch) :: acc) by_backup []) with
      | [ (backup_id, batch) ] -> write_backup backup_id batch
      | backups ->
          (* One fiber per backup, joined on every one of them: the batch
             returns or raises only once each backup fiber has settled, and
             then raises the first error in spawn order.  So once this
             call is over no straggler can still install a replica write —
             none can land after recovery rolled the write back, or after
             the client retried the batch elsewhere. *)
          let settled =
            List.map
              (fun (backup_id, batch) ->
                let done_ = Sim.Ivar.create (engine t) in
                Sim.Engine.spawn (engine t) ~group:t.group (fun () ->
                    match write_backup backup_id batch with
                    | () -> Sim.Ivar.fill done_ ()
                    | exception e -> Sim.Ivar.fill_exn done_ e);
                done_)
              backups
          in
          let errors =
            List.filter_map
              (fun done_ -> match Sim.Ivar.read done_ with () -> None | exception e -> Some e)
              settled
          in
          match errors with e :: _ -> raise e | [] -> ()

let rec dispatch t ~sn_id lane =
  let max_batch = (Cluster.config t.cluster).client_max_batch in
  let batch = ref [] in
  let n = ref 0 in
  while !n < max_batch && not (Queue.is_empty lane.queued) do
    batch := Queue.pop lane.queued :: !batch;
    incr n
  done;
  match List.rev !batch with
  | [] -> lane.in_flight <- false
  | batch ->
      lane.in_flight <- true;
      Sim.Engine.spawn (engine t) ~group:t.group (fun () -> run_batch t ~sn_id lane batch)

and run_batch t ~sn_id lane batch =
  let net = Cluster.net t.cluster in
  let node = Cluster.node t.cluster sn_id in
  t.requests_sent <- t.requests_sent + 1;
  t.ops_sent <- t.ops_sent + List.length batch;
  let finish () =
    (* Keep the lane draining even if this fiber dies mid-request. *)
    dispatch t ~sn_id lane
  in
  (try
     let request_bytes =
       List.fold_left (fun acc p -> acc + Op.request_bytes p.op) 32 batch
     in
     let dst = Cluster.sn_endpoint sn_id in
     let timeout () =
       Sim.Engine.sleep (engine t) (Cluster.config t.cluster).client_timeout_ns;
       let err = Op.Unavailable dst in
       List.iter (fun p -> Sim.Ivar.fill_exn p.reply err) batch
     in
     match Sim.Net.send net ~src:t.endpoint ~dst ~bytes:request_bytes with
     | `Dropped ->
         (* Lost on the wire (cut or flaky link): indistinguishable from a
            dead node — the client learns through its timeout. *)
         timeout ()
     | `Delivered ->
     if not (Storage_node.serving node) then
       (* The request vanishes into a dead node — or reaches a restarted
          one that owns no partitions yet and must not answer for them:
          clients only learn through a timeout. *)
       timeout ()
     else begin
       (* Captured before any op executes: the master's chain-replication
          identity and the chains of the partitions this batch writes.
          If a migration cutover flips a partition mid-batch, ops applied
          before the flip replicate along the chain they were mastered
          under (the learner included), and ops applied after it bounce
          with [Wrong_master_reply] — no write straddles the flip. *)
       let via = Storage_node.sender node in
       let dir = Cluster.directory t.cluster in
       let chains = Hashtbl.create 4 in
       List.iter
         (fun p ->
           if Op.is_write p.op then begin
             let part = Directory.partition_of_key dir (Op.key_of p.op) in
             if (not (Hashtbl.mem chains part)) && Directory.master dir part = sn_id then
               Hashtbl.replace chains part (Directory.backups dir part)
           end)
         batch;
       let outcomes =
         List.map
           (fun p ->
             if Storage_node.alive node then
               match
                 if p.op_id = 0 then None
                 else Storage_node.find_replay node ~client:t.uid ~op_id:p.op_id
               with
               | Some cached ->
                   (* A retry of a conditional op whose reply was lost:
                      replay the original verdict instead of letting the
                      op conflict with its own first attempt (which also
                      replicated already). *)
                   (p, `Replayed cached)
               | None ->
                   let r = Storage_node.apply node ~sender:(sender t) p.op in
                   (* A wrong-master bounce is not a verdict: the retry
                      must re-execute on the partition's new master. *)
                   if p.op_id <> 0 && r <> Op.Wrong_master_reply then
                     Storage_node.record_replay node ~client:t.uid ~op_id:p.op_id r;
                   (p, `Outcome r)
             else (p, `Died))
           batch
       in
       let effective_writes =
         List.filter_map
           (fun (p, o) ->
             match o with
             | `Outcome outcome when Op.is_write p.op -> (
                 match outcome with
                 | Op.Conflict | Op.Fenced_reply | Op.Wrong_master_reply -> None
                 | outcome -> Some (p.op, Storage_node.replica_outcome node p.op outcome))
             | `Outcome _ | `Replayed _ | `Died -> None)
           outcomes
       in
       (* Master-side coordination of synchronous replication occupies the
          master's CPU in addition to the backups' round trips. *)
       (match effective_writes with
       | [] -> ()
       | writes ->
           let n_backups =
             List.fold_left
               (fun acc (op, _) ->
                 acc
                 + List.length
                     (Directory.backups dir (Directory.partition_of_key dir (Op.key_of op))))
               0 writes
           in
           if n_backups > 0 then
             Tell_sim.Resource.use (Storage_node.cpu node)
               ~demand:(n_backups * (Cluster.config t.cluster).replication_coord_ns));
       replicate t ~sn_id ~via ~chains effective_writes;
       let reply_bytes =
         List.fold_left
           (fun acc (_, o) ->
             match o with
             | `Outcome r | `Replayed r -> acc + Op.result_bytes r
             | `Died -> acc)
           32 outcomes
       in
       match Sim.Net.send net ~src:dst ~dst:t.endpoint ~bytes:reply_bytes with
       | `Dropped ->
           (* The operations executed but the reply was lost: to the
              client this is a timeout.  Conditional writes that landed
              replay their original verdict on the retry (the node's
              replay cache keyed by op id) — without it the re-send would
              conflict with its own first attempt. *)
           Sim.Engine.sleep (engine t) (Cluster.config t.cluster).client_timeout_ns;
           let err = Op.Unavailable dst in
           List.iter (fun (p, _) -> Sim.Ivar.fill_exn p.reply err) outcomes
       | `Delivered ->
           List.iter
             (fun (p, o) ->
               match o with
               | `Outcome Op.Fenced_reply | `Replayed Op.Fenced_reply ->
                   Sim.Ivar.fill_exn p.reply (Op.Fenced dst)
               | `Outcome Op.Wrong_master_reply | `Replayed Op.Wrong_master_reply ->
                   Sim.Ivar.fill_exn p.reply (Op.Wrong_master dst)
               | `Outcome r | `Replayed r -> Sim.Ivar.fill p.reply r
               | `Died -> Sim.Ivar.fill_exn p.reply (Op.Unavailable dst))
             outcomes
     end
   with e -> List.iter (fun p -> (try Sim.Ivar.fill_exn p.reply e with _ -> ())) batch);
  finish ()

let fresh_op_id t =
  t.next_op_id <- t.next_op_id + 1;
  t.next_op_id

let enqueue t ?(op_id = 0) op =
  let sn_id = master_for t (Op.key_of op) in
  let lane = lane_for t sn_id in
  let reply = Sim.Ivar.create (engine t) in
  Queue.push { op; op_id; reply } lane.queued;
  (sn_id, lane, reply)

let kick t sn_id lane = if not lane.in_flight then dispatch t ~sn_id lane

let submit t ?op_id op =
  let sn_id, lane, reply = enqueue t ?op_id op in
  kick t sn_id lane;
  reply

(* Enqueue a whole list before kicking lanes, so that operations of a
   multi-record call travel together per storage node. *)
let submit_many t ops =
  let touched = Hashtbl.create 8 in
  let replies =
    List.map
      (fun (op_id, op) ->
        let sn_id, lane, reply = enqueue t ~op_id op in
        Hashtbl.replace touched sn_id lane;
        reply)
      ops
  in
  Hashtbl.iter (fun sn_id lane -> kick t sn_id lane) touched;
  replies

(* Back off exponentially: a fail-over re-points a dead node's
   partitions one at a time while streaming their data between survivors,
   so a chain can keep routing to the dead master for several
   milliseconds (longer still on a degraded interconnect).  Flat pauses
   would exhaust the whole retry budget before the directory settles.
   Jittered (uniform in [base/2, 3*base/2)): when a partition heals, every
   client that timed out against it retries at once, and lockstep retry
   waves would re-congest the link that just recovered. *)
let backoff_ns t ~attempts =
  let base = 20_000 * (1 lsl (max_retries - attempts)) in
  (base / 2) + Sim.Rng.int t.rng base

(* A stale cached master answers with an explicit [Wrong_master] bounce:
   no timeout was involved, so the client refreshes the directory
   immediately and re-routes, burning none of the (slow, backed-off)
   unavailability budget.  The bounce budget is finite so a pathological
   loop — e.g. racing a cutover whose directory flip has not landed yet —
   degrades into the normal timeout path instead of spinning. *)
let bounce_budget = 32

let with_retry t ~attempts f =
  let bounces = ref bounce_budget in
  let rec go attempts =
    try f () with
    | Op.Unavailable _ when attempts > 0 ->
        Sim.Engine.sleep (engine t) (backoff_ns t ~attempts);
        refresh_directory t;
        go (attempts - 1)
    | Op.Wrong_master _ when !bounces > 0 ->
        decr bounces;
        t.stale_master_bounces <- t.stale_master_bounces + 1;
        refresh_directory t;
        go attempts
    | Op.Wrong_master _ when attempts > 0 ->
        Sim.Engine.sleep (engine t) (backoff_ns t ~attempts);
        refresh_directory t;
        go (attempts - 1)
    | Op.Wrong_master dst ->
        (* Budgets exhausted: surface the familiar exception. *)
        raise (Op.Unavailable dst)
  in
  go attempts

let expect_value = function
  | Op.Value v -> v
  | _ -> invalid_arg "Client: protocol mismatch (expected Value)"

let get t key = with_retry t ~attempts:max_retries (fun () -> expect_value (Sim.Ivar.read (submit t (Op.Get key))))

let put t key data =
  with_retry t ~attempts:max_retries (fun () ->
      match Sim.Ivar.read (submit t (Op.Put (key, data))) with
      | Op.Done -> ()
      | _ -> invalid_arg "Client.put: protocol mismatch")

(* Conditional mutations travel under a stable per-op id across every
   retry: the storage node replays the first verdict if the op already
   executed and only the reply was lost (exactly-once over an
   at-least-once network).  Plain reads and idempotent writes go out with
   id 0 — re-executing them is harmless. *)
let put_if t key expected data =
  let op_id = fresh_op_id t in
  with_retry t ~attempts:max_retries (fun () ->
      match Sim.Ivar.read (submit t ~op_id (Op.Put_if (key, expected, data))) with
      | Op.Token token -> `Ok token
      | Op.Conflict -> `Conflict
      | _ -> invalid_arg "Client.put_if: protocol mismatch")

let remove_if t key expected =
  let op_id = fresh_op_id t in
  with_retry t ~attempts:max_retries (fun () ->
      match Sim.Ivar.read (submit t ~op_id (Op.Remove (key, expected))) with
      | Op.Done -> `Ok
      | Op.Conflict -> `Conflict
      | _ -> invalid_arg "Client.remove_if: protocol mismatch")

let increment t key by =
  let op_id = fresh_op_id t in
  with_retry t ~attempts:max_retries (fun () ->
      match Sim.Ivar.read (submit t ~op_id (Op.Increment (key, by))) with
      | Op.Count (v, _) -> v
      | _ -> invalid_arg "Client.increment: protocol mismatch")

let multi_get t keys =
  with_retry t ~attempts:max_retries (fun () ->
      let replies = submit_many t (List.map (fun k -> (0, Op.Get k)) keys) in
      List.map (fun r -> expect_value (Sim.Ivar.read r)) replies)

(* Unlike [multi_get], a failed write batch is not retried wholesale:
   only the operations whose replies came back [Unavailable] are
   re-submitted (the others already returned a verdict).  Conditional
   writes keep their op id across re-sends, so one that landed before the
   reply was lost replays its original verdict instead of conflicting
   with its own first attempt. *)
let multi_write t ops =
  let results = Array.make (List.length ops) Op.Done in
  let bounces = ref bounce_budget in
  let rec go attempts pending =
    let replies = submit_many t (List.map (fun (_, op_id, op) -> (op_id, op)) pending) in
    let timed_out = ref false in
    let failed =
      List.fold_left2
        (fun acc (i, op_id, op) reply ->
          match Sim.Ivar.read reply with
          | result ->
              results.(i) <- result;
              acc
          | exception Op.Unavailable _ when attempts > 0 ->
              timed_out := true;
              (i, op_id, op) :: acc
          | exception Op.Wrong_master _ when !bounces > 0 || attempts > 0 ->
              (* Stale-master bounce: free (immediate refresh) while the
                 bounce budget lasts, then treated like a timeout. *)
              if !bounces > 0 then begin
                decr bounces;
                t.stale_master_bounces <- t.stale_master_bounces + 1
              end
              else timed_out := true;
              (i, op_id, op) :: acc
          | exception Op.Wrong_master dst ->
              (* Both budgets exhausted: surface the familiar exception. *)
              raise (Op.Unavailable dst))
        [] pending replies
    in
    match List.rev failed with
    | [] -> ()
    | failed ->
        if !timed_out then Sim.Engine.sleep (engine t) (backoff_ns t ~attempts);
        refresh_directory t;
        go (if !timed_out then attempts - 1 else attempts) failed
  in
  go max_retries
    (List.mapi
       (fun i op -> (i, (if Op.needs_dedup op then fresh_op_id t else 0), op))
       ops);
  Array.to_list results

let scan_with t ~op_of =
  with_retry t ~attempts:max_retries (fun () ->
      let nodes = Cluster.nodes t.cluster in
      let replies = ref [] in
      Array.iteri
        (fun sn_id node ->
          (* Backups hold copies of master data, so scanning every live
             node (and deduplicating below) observes all cells.  A
             restarted, not-yet-serving node is skipped: it holds nothing
             and would only time the scan out. *)
          if Storage_node.serving node then begin
            let lane = lane_for t sn_id in
            let reply = Sim.Ivar.create (engine t) in
            Queue.push { op = op_of (); op_id = 0; reply } lane.queued;
            kick t sn_id lane;
            replies := reply :: !replies
          end)
        nodes;
      let replies = List.rev !replies in
      let all =
        List.concat_map
          (fun r ->
            match Sim.Ivar.read r with
            | Op.Keys entries -> entries
            | _ -> invalid_arg "Client.scan: protocol mismatch")
          replies
      in
      (* Partitions overlap after fail-over re-replication: deduplicate by
         key, keeping the newest token. *)
      let best = Hashtbl.create 64 in
      List.iter
        (fun (k, v, tok) ->
          match Hashtbl.find_opt best k with
          | Some (_, t0) when t0 >= tok -> ()
          | _ -> Hashtbl.replace best k (v, tok))
        all;
      let deduped = Hashtbl.fold (fun k (v, tok) acc -> (k, v, tok) :: acc) best [] in
      List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) deduped)

let scan_all t ~prefix = scan_with t ~op_of:(fun () -> Op.Scan prefix)

let scan_eval_all t ~prefix ~program =
  scan_with t ~op_of:(fun () -> Op.Scan_eval (prefix, program))
