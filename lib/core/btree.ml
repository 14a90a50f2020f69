module Kv = Tell_kv

let max_leaf_entries = 64
let max_inner_entries = 64
let max_attempts = 64

(* Separators and high keys are full (key, rid) entries: attribute keys
   are not unique (secondary indexes), so routing must discriminate at
   entry granularity or duplicates of a separator key in the left sibling
   would become unreachable. *)
type entry = string * int

type node =
  | Leaf of { entries : entry array; high_key : entry option; next : int option }
  | Inner of {
      seps : entry array;
      children : int array;
      high_key : entry option;
      next : int option;
      level : int;  (* leaves are level 0; the root is the highest level *)
    }

type t = {
  kv : Kv.Client.t;
  name : string;
  inner_cache : (int, node) Hashtbl.t;
  decoded : (int, int * node) Hashtbl.t;
      (* node id -> (LL/SC token, decoded node): pure decode memoisation.
         The store fetch (network + server time) still happens on every
         access; only the wire-format parsing is skipped when the cell has
         not changed.  Nodes are immutable after decoding, so sharing is
         safe. *)
  mutable cached_root : int option;
  mutable stripe_cache : string array option;
      (* Bε buffer stripe boundaries (§3d): key-only, frozen at tree
         creation (single stripe for incrementally-built trees, the bulk
         root's child ranges for bulk-loaded ones).  Immutable in the
         store, so fetched once per handle and cached forever. *)
  mutable orphans : int list;
      (* Node ids stored but possibly never linked: an exception (storage
         unavailability, a retry budget running out) between
         [store_new_node] and the CAS that links the node — or a failed
         cleanup [drop_node] — strands the cell with no pointer to it.
         Suspects are stashed here and reclaimed lazily at the next
         operation entry, after verifying unreachability (a stash entry
         may be a false positive: the node linked, then a later step
         failed). *)
}

let name t = t.name

exception Retry

(* --- node codec ------------------------------------------------------------ *)

let put_entry buf (key, rid) =
  Codec.put_string buf key;
  Codec.put_int buf rid

let get_entry s pos =
  let key, pos = Codec.get_string s pos in
  let rid, pos = Codec.get_int s pos in
  ((key, rid), pos)

let put_opt_entry buf = function
  | None -> Buffer.add_char buf '\x00'
  | Some e ->
      Buffer.add_char buf '\x01';
      put_entry buf e

let get_opt_entry s pos =
  match s.[pos] with
  | '\x00' -> (None, pos + 1)
  | _ -> (
      let e, pos = get_entry s (pos + 1) in
      (Some e, pos))

let put_opt_int buf = function None -> Codec.put_int buf (-1) | Some v -> Codec.put_int buf v

let get_opt_int s pos =
  let v, pos = Codec.get_int s pos in
  ((if v < 0 then None else Some v), pos)

let encode_node node =
  let buf = Buffer.create 256 in
  (match node with
  | Leaf { entries; high_key; next } ->
      Buffer.add_char buf 'L';
      put_opt_entry buf high_key;
      put_opt_int buf next;
      Codec.put_int buf (Array.length entries);
      Array.iter (put_entry buf) entries
  | Inner { seps; children; high_key; next; level } ->
      Buffer.add_char buf 'I';
      put_opt_entry buf high_key;
      put_opt_int buf next;
      Codec.put_int buf (Array.length seps);
      Array.iter (put_entry buf) seps;
      Array.iter (Codec.put_int buf) children;
      Codec.put_int buf level);
  Buffer.contents buf

let decode_node s =
  let tag = s.[0] in
  let high_key, pos = get_opt_entry s 1 in
  let next, pos = get_opt_int s pos in
  let n, pos = Codec.get_int s pos in
  match tag with
  | 'L' ->
      let pos = ref pos in
      let entries =
        Array.init n (fun _ ->
            let e, p = get_entry s !pos in
            pos := p;
            e)
      in
      Leaf { entries; high_key; next }
  | 'I' ->
      let pos = ref pos in
      let seps =
        Array.init n (fun _ ->
            let e, p = get_entry s !pos in
            pos := p;
            e)
      in
      let children =
        Array.init (n + 1) (fun _ ->
            let c, p = Codec.get_int s !pos in
            pos := p;
            c)
      in
      let level, _ = Codec.get_int s !pos in
      Inner { seps; children; high_key; next; level }
  | c -> invalid_arg (Printf.sprintf "Btree.decode_node: bad tag %C" c)

(* --- store access ----------------------------------------------------------- *)

let node_key t id = Keys.index_node ~index:t.name ~node_id:id
let root_key t = Keys.index_root ~index:t.name

let alloc_node_id t = Kv.Client.increment t.kv (Keys.index_node_counter ~index:t.name) 1

let decoded_cache_cap = 8_192

let load_node t id =
  match Kv.Client.get t.kv (node_key t id) with
  | Some (data, token) -> (
      match Hashtbl.find_opt t.decoded id with
      | Some (cached_token, node) when cached_token = token -> (node, token)
      | _ ->
          let node = decode_node data in
          if Hashtbl.length t.decoded >= decoded_cache_cap then Hashtbl.reset t.decoded;
          Hashtbl.replace t.decoded id (token, node);
          (node, token))
  | None -> raise Retry

let store_new_node t node =
  let id = alloc_node_id t in
  match Kv.Client.put_if t.kv (node_key t id) None (encode_node node) with
  | `Ok _ -> id
  | `Conflict -> invalid_arg "Btree: fresh node id already taken"

let cas_node t id ~token node =
  match Kv.Client.put_if t.kv (node_key t id) (Some token) (encode_node node) with
  | `Ok _ -> true
  | `Conflict -> false

let stash_orphan t id = if not (List.mem id t.orphans) then t.orphans <- id :: t.orphans
let unstash_orphan t id = t.orphans <- List.filter (fun o -> o <> id) t.orphans
let orphan_count t = List.length t.orphans

(* Run [f] while holding freshly stored node [id] that nothing points to
   yet.  If [f] escapes with an exception the node may be stranded —
   stash it for {!reclaim_orphans}.  Over-stashing is fine (the reclaimer
   verifies reachability); under-stashing is the leak. *)
let with_orphan_guard t id f =
  try f ()
  with e ->
    stash_orphan t id;
    raise e

let drop_node t id =
  ignore (Kv.Client.remove_if t.kv (node_key t id) None);
  unstash_orphan t id

let root_id t =
  match t.cached_root with
  | Some id -> id
  | None -> (
      match Kv.Client.get t.kv (root_key t) with
      | Some (data, _) ->
          let id, _ = Codec.get_int data 0 in
          t.cached_root <- Some id;
          id
      | None -> invalid_arg (Printf.sprintf "Btree %s: not initialised" t.name))

let encode_root id =
  let buf = Buffer.create 8 in
  Codec.put_int buf id;
  Buffer.contents buf

(* Stripe boundary metadata: key-only boundaries, written once at tree
   creation and immutable afterwards (see the Bε buffer section below). *)
let encode_stripe_meta bounds =
  let buf = Buffer.create 32 in
  Codec.put_int buf (Array.length bounds);
  Array.iter (Codec.put_string buf) bounds;
  Buffer.contents buf

let decode_stripe_meta data =
  let n, pos = Codec.get_int data 0 in
  let pos = ref pos in
  Array.init n (fun _ ->
      let s, p = Codec.get_string data !pos in
      pos := p;
      s)

let create kv ~name =
  let t =
    {
      kv;
      name;
      inner_cache = Hashtbl.create 64;
      decoded = Hashtbl.create 256;
      cached_root = None;
      stripe_cache = None;
      orphans = [];
    }
  in
  (* Incrementally-built trees get a single buffer stripe; only the bulk
     loader partitions the key space (it knows the distribution). *)
  (match
     Kv.Client.put_if kv (Keys.index_buffer_meta ~index:name) None (encode_stripe_meta [||])
   with
  | `Ok _ | `Conflict -> ());
  match Kv.Client.get kv (root_key t) with
  | Some _ -> ()
  | None -> (
      let leaf_id = store_new_node t (Leaf { entries = [||]; high_key = None; next = None }) in
      with_orphan_guard t leaf_id @@ fun () ->
      match Kv.Client.put_if kv (root_key t) None (encode_root leaf_id) with
      | `Ok _ -> ()
      | `Conflict ->
          (* Another node initialised concurrently; ours becomes garbage. *)
          drop_node t leaf_id)

let attach kv ~name =
  {
    kv;
    name;
    inner_cache = Hashtbl.create 64;
    decoded = Hashtbl.create 256;
    cached_root = None;
    stripe_cache = None;
    orphans = [];
  }

let invalidate_cache t =
  Hashtbl.reset t.inner_cache;
  t.cached_root <- None

let cache_size t = Hashtbl.length t.inner_cache

(* --- traversal --------------------------------------------------------------- *)

let below_high key = function None -> true | Some high -> key < high

let child_for_key seps children key =
  let rec scan i = if i >= Array.length seps then children.(i) else if key < seps.(i) then children.(i) else scan (i + 1) in
  scan 0

(* Load an inner node through the PN cache (§5.3.1: all levels but the
   leaves are cached). *)
let load_inner_cached t id =
  match Hashtbl.find_opt t.inner_cache id with
  | Some node -> node
  | None ->
      let node, _token = load_node t id in
      (match node with Inner _ -> Hashtbl.replace t.inner_cache id node | Leaf _ -> ());
      node

(* Descend to the leaf responsible for [key], returning the fresh leaf and
   the path of inner node ids (root first).  Any inconsistency between the
   cached path and reality (split leaf, dangling id) invalidates the cache
   and restarts from a fresh root. *)
let rec descend t key =
  try
    let fetch_leaf id path =
      (* Leaves are never served from cache: fetch fresh. *)
      let node, token = load_node t id in
      match node with
      | Leaf _ -> (id, node, token, path)
      | Inner _ ->
          (* The node became inner through a concurrent reorganisation. *)
          raise Retry
    in
    let rec walk id path =
      match load_inner_cached t id with
      | Inner { seps; children; high_key; next; level } ->
          if not (below_high key high_key) then begin
            match next with
            | Some n -> walk n path
            | None -> raise Retry
          end
          else
            let child = child_for_key seps children key in
            (* Level 1 parents point straight at leaves: no need to load
               the child just to learn it is one. *)
            if level = 1 then fetch_leaf child (id :: path) else walk child (id :: path)
      | Leaf _ -> fetch_leaf id path
    in
    walk (root_id t) []
  with Retry ->
    invalidate_cache t;
    descend t key

let node_bounds = function
  | Leaf { high_key; next; _ } -> (high_key, next)
  | Inner { high_key; next; _ } -> (high_key, next)

(* B-link right-walk until the node's range covers [key] — used both at
   the leaf level and when locating the inner node responsible for a new
   separator (the parent may itself have split concurrently). *)
let rec slide_right t key (id, node, token) =
  let high_key, next = node_bounds node in
  if below_high key high_key then (id, node, token)
  else begin
    match next with
    | Some n ->
        let node', token' = load_node t n in
        slide_right t key (n, node', token')
    | None -> (id, node, token)
  end

let rec locate_leaf t target =
  let id, node, token, path = descend t target in
  match slide_right t target (id, node, token) with
  | exception Retry ->
      (* A [next] pointer from a node value that went stale mid-walk can
         name a store cell that a concurrent split loser (or the orphan
         reclaimer) has since deleted: restart from a fresh root. *)
      invalidate_cache t;
      locate_leaf t target
  | id', node', token' ->
      if id' <> id then invalidate_cache t;
      (id', node', token', path)

(* --- orphan reclamation -------------------------------------------------------- *)

let node_level = function Leaf _ -> 0 | Inner { level; _ } -> level

let first_entry_of = function
  | Leaf { entries; _ } -> if Array.length entries > 0 then Some entries.(0) else None
  | Inner { seps; _ } -> if Array.length seps > 0 then Some seps.(0) else None

(* Is node [id] linked into the tree?  Descend fresh (no caches) towards
   a probe key the node covers, down to the node's level, then right-walk
   that level's B-link chain.  Conservative in both directions that
   matter: any doubt — a [Retry], an exhausted walk budget — counts as
   reachable, so a live node is never dropped; links are never removed
   (there is no merge), so a node once linked stays reachable and a
   [false] verdict is stable. *)
let reachable t id node =
  let level = node_level node in
  let probe = match first_entry_of node with Some e -> e | None -> ("", min_int) in
  let budget = ref 4096 in
  let rec down nid =
    nid = id
    ||
    if (decr budget; !budget <= 0) then true
    else
      let n, _ = load_node t nid in
      if node_level n = level then walk_right n
      else
        match n with
        | Inner { seps; children; high_key; next; _ } ->
            if not (below_high probe high_key) then
              match next with Some nx -> down nx | None -> false
            else down (child_for_key seps children probe)
        | Leaf _ -> false
  and walk_right n =
    match node_bounds n with
    | _, Some nx ->
        nx = id
        ||
        if (decr budget; !budget <= 0) then true
        else
          let n', _ = load_node t nx in
          walk_right n'
    | _, None -> false
  in
  try down (root_id t) with Retry -> true

(* Drop every stashed suspect that is verifiably stranded; keep the ones
   that turned out linked after all (the stash over-approximates) and
   re-stash any the store would not let us check or drop right now. *)
let reclaim_orphans t =
  match t.orphans with
  | [] -> ()
  | suspects ->
      t.orphans <- [];
      t.cached_root <- None;
      List.iter
        (fun id ->
          match
            match Kv.Client.get t.kv (node_key t id) with
            | None -> `Gone
            | Some (data, _) -> if reachable t id (decode_node data) then `Live else `Strand
          with
          | `Gone | `Live -> ()
          | `Strand -> ( try drop_node t id with _ -> stash_orphan t id)
          | exception _ -> stash_orphan t id)
        suspects

(* Deterministic, growing pause before deep retries.  Under heavy
   same-leaf contention (many fibers CAS-racing one cell) immediate
   retry can livelock until the attempt budget dies with
   [Invalid_argument "too many conflicts"].  The pause grows
   quadratically with the retries already burned — the fibers that have
   lost the most back off the furthest, giving the current winner room —
   and draws no randomness, so replays stay exact. *)
let contention_pause kv ~attempts =
  let burned = max_attempts - attempts in
  if burned >= 8 then
    let engine = Kv.Cluster.engine (Kv.Client.cluster kv) in
    Tell_sim.Engine.sleep engine ((burned - 7) * (burned - 7) * 500)

(* --- separator insertion --------------------------------------------------------- *)

(* Insert separator [sep] (pointing at [right_id]) into the parent level.
   [path] is the remaining ancestor chain, nearest parent first. *)
let rec insert_sep t ~attempts ~child_level ~sep ~right_id path =
  if attempts <= 0 then invalid_arg "Btree.insert_sep: too many conflicts";
  contention_pause t.kv ~attempts;
  match path with
  | [] ->
      (* Splitting the root: build a fresh root above the two halves. *)
      let old_root = root_id t in
      let new_root =
        store_new_node t
          (Inner
             {
               seps = [| sep |];
               children = [| old_root; right_id |];
               high_key = None;
               next = None;
               level = child_level + 1;
             })
      in
      with_orphan_guard t new_root @@ fun () ->
      (match Kv.Client.get t.kv (root_key t) with
      | Some (data, token) ->
          let current, _ = Codec.get_int data 0 in
          if current <> old_root then begin
            (* Someone else already grew the tree: retry from scratch. *)
            drop_node t new_root;
            invalidate_cache t;
            insert_sep t ~attempts:(attempts - 1) ~child_level ~sep ~right_id (ancestors_of t sep)
          end
          else if Kv.Client.put_if t.kv (root_key t) (Some token) (encode_root new_root) = `Conflict
          then begin
            drop_node t new_root;
            invalidate_cache t;
            insert_sep t ~attempts:(attempts - 1) ~child_level ~sep ~right_id (ancestors_of t sep)
          end
          else invalidate_cache t
      | None -> invalid_arg "Btree: root pointer vanished")
  | parent_id :: rest -> (
      (* Fetch the parent fresh (the cache may be stale) and right-walk to
         the inner node now responsible for [sep]. *)
      match
        let node, token = load_node t parent_id in
        slide_right t sep (parent_id, node, token)
      with
      | exception Retry ->
          invalidate_cache t;
          insert_sep t ~attempts:(attempts - 1) ~child_level ~sep ~right_id (ancestors_of t sep)
      | id, Inner { seps; children; high_key; next; level }, token ->
          if Array.exists (fun s -> s = sep) seps then ()
          else begin
            let pos =
              let rec scan i = if i >= Array.length seps || sep < seps.(i) then i else scan (i + 1) in
              scan 0
            in
            let seps' =
              Array.concat [ Array.sub seps 0 pos; [| sep |]; Array.sub seps pos (Array.length seps - pos) ]
            in
            let children' =
              Array.concat
                [
                  Array.sub children 0 (pos + 1);
                  [| right_id |];
                  Array.sub children (pos + 1) (Array.length children - pos - 1);
                ]
            in
            if Array.length seps' <= max_inner_entries then begin
              if
                cas_node t id ~token
                  (Inner { seps = seps'; children = children'; high_key; next; level })
              then Hashtbl.remove t.inner_cache id
              else insert_sep t ~attempts:(attempts - 1) ~child_level ~sep ~right_id (id :: rest)
            end
            else begin
              (* Split this inner node, then recurse one level up. *)
              let mid = Array.length seps' / 2 in
              let up_sep = seps'.(mid) in
              let left_seps = Array.sub seps' 0 mid in
              let right_seps = Array.sub seps' (mid + 1) (Array.length seps' - mid - 1) in
              let left_children = Array.sub children' 0 (mid + 1) in
              let right_children = Array.sub children' (mid + 1) (Array.length children' - mid - 1) in
              let new_right =
                store_new_node t
                  (Inner { seps = right_seps; children = right_children; high_key; next; level })
              in
              with_orphan_guard t new_right @@ fun () ->
              let left =
                Inner
                  {
                    seps = left_seps;
                    children = left_children;
                    high_key = Some up_sep;
                    next = Some new_right;
                    level;
                  }
              in
              if cas_node t id ~token left then begin
                Hashtbl.remove t.inner_cache id;
                insert_sep t ~attempts:(attempts - 1) ~child_level:level ~sep:up_sep
                  ~right_id:new_right rest
              end
              else begin
                drop_node t new_right;
                insert_sep t ~attempts:(attempts - 1) ~child_level ~sep ~right_id (id :: rest)
              end
            end
          end
      | _, Leaf _, _ -> invalid_arg "Btree.insert_sep: leaf in ancestor chain")

and ancestors_of t key =
  let _, _, _, path = descend t key in
  path

(* --- Bε message buffers (§3d) ------------------------------------------------

   Index maintenance off the commit critical path, Bε-tree style: instead
   of descending to the leaf, a commit appends insert/delete *messages*
   to the buffer stripe covering the entry's key — one blind [Append] per
   stripe, no read, no CAS, no split — and a background flusher applies
   them to the leaves in bulk.  Readers merge the pending messages of the
   stripes overlapping their range, so an entry is visible the moment its
   append is acknowledged.

   Stripe cells ([Keys.index_buffer]) hold, in order:
     - an optional leading watermark record
         'W' <applied:int64 LE> <applied_at:int64 LE>
       written only by the flusher: the first [applied] message records
       in the cell have already been applied to the leaves, the newest of
       them at engine time [applied_at].  A cell created by a bare append
       has no watermark (applied = 0).
     - message records, oldest first:
         'A'|'D' <key: length-prefixed> <rid:int64 LE>
   Stripe boundaries are key-only, chosen at creation time and immutable
   (so commits route messages with no metadata round trip and a stripe
   never moves under a reader); leaf splits relocate entries, never
   messages.

   Correctness of the read-side merge ([ranges_grouped] is the only
   reader):
     - replaying the full message list (applied residue included) over
       the leaf state is idempotent: messages apply last-writer-wins per
       (key, rid), and the residue was applied in the same order it is
       replayed in;
     - stripes strictly before leaves is always safe: a message missing
       from the stripe reply was either not yet appended (outside the
       reader's snapshot) or applied before that reply — and therefore in
       every leaf copy fetched after it.  Right-walked leaves always
       arrive after the stripe reply;
     - the first leaf of each range rides in the SAME multi-get as the
       stripes, unordered.  Applied messages are only purged from the
       cell [purge_grace_ns] after their apply, so a message missing from
       the stripe copy was applied more than the grace before it — the
       leaf copy, fetched within the same request window, sees the apply
       as long as that window stays under the grace.  Hence the single
       inequality the merge rests on:

           merge_guard_ns < purge_grace_ns

       and a first hop whose window overran [merge_guard_ns] is redone
       in the safe order. *)

type batch_op = Add of entry | Del of entry

let batch_target = function Add e | Del e -> e

let entry_compare (k1, r1) (k2, r2) =
  match String.compare k1 k2 with 0 -> Int.compare r1 r2 | c -> c

(* Calibration (DESIGN.md §3b): the guard must dwarf any single read
   request's service spread so the first hop can trust its piggybacked
   stripe cells, and the grace must exceed the guard.  The grace is not
   free: on the write workload a stripe cell at append time averages
   3 KB in the first 50 ms and 15–27 KB from 300 ms on (hundreds of
   ~30-byte messages, most of them applied residue, DESIGN.md §3d), and
   every append and merged read carries it.  A tight guard is still
   worse: it cascades every slow first hop into ordered reads. *)
let purge_grace_ns = 5_000_000
let merge_guard_ns = 2_000_000
let bulk_stripe_target = 16

(* Harness knob: make reads ignore pending buffer messages.  The
   [tell_check --mutation] battery uses it to prove the read-side merge
   is load-bearing — with the merge skipped, a committed index entry that
   is still buffered is invisible and the index probes must catch it. *)
let skip_buffer_merge = ref false
let unsafe_set_skip_buffer_merge v = skip_buffer_merge := v

type stripe_state = { applied : int; applied_at : int; msgs : batch_op list }

let encode_watermark buf ~applied ~applied_at =
  Buffer.add_char buf 'W';
  Codec.put_int buf applied;
  Codec.put_int buf applied_at

let encode_msg buf op =
  let key, rid = batch_target op in
  Buffer.add_char buf (match op with Add _ -> 'A' | Del _ -> 'D');
  Codec.put_string buf key;
  Codec.put_int buf rid

let decode_stripe data =
  let len = String.length data in
  if len = 0 then { applied = 0; applied_at = 0; msgs = [] }
  else begin
    let applied, applied_at, pos =
      if data.[0] = 'W' then
        let applied, pos = Codec.get_int data 1 in
        let applied_at, pos = Codec.get_int data pos in
        (applied, applied_at, pos)
      else (0, 0, 0)
    in
    let msgs = ref [] in
    let pos = ref pos in
    while !pos < len do
      let tag = data.[!pos] in
      let key, p = Codec.get_string data (!pos + 1) in
      let rid, p = Codec.get_int data p in
      pos := p;
      msgs :=
        (match tag with
        | 'A' -> Add (key, rid)
        | 'D' -> Del (key, rid)
        | c -> invalid_arg (Printf.sprintf "Btree.decode_stripe: bad tag %C" c))
        :: !msgs
    done;
    { applied; applied_at; msgs = List.rev !msgs }
  end

let stripe_bounds t =
  match t.stripe_cache with
  | Some bounds -> bounds
  | None ->
      let bounds =
        match Kv.Client.get t.kv (Keys.index_buffer_meta ~index:t.name) with
        | Some (data, _) -> decode_stripe_meta data
        | None -> [||]
      in
      t.stripe_cache <- Some bounds;
      bounds

let stripe_count t = Array.length (stripe_bounds t) + 1

let stripe_of t key =
  let bounds = stripe_bounds t in
  let n = Array.length bounds in
  let rec scan i = if i >= n || key < bounds.(i) then i else scan (i + 1) in
  scan 0

let buffer_key t stripe = Keys.index_buffer ~index:t.name ~stripe

(* Store keys of the stripe cells overlapping [lo, hi), in key order. *)
let stripe_keys t ~lo ~hi =
  let bounds = stripe_bounds t in
  let n = Array.length bounds in
  let lo_s = stripe_of t lo in
  let hi_s =
    let rec scan i = if i >= n || hi <= bounds.(i) then i else scan (i + 1) in
    scan lo_s
  in
  List.init (hi_s - lo_s + 1) (fun i -> buffer_key t (lo_s + i))

let cell_msgs = function Some (data, _) -> (decode_stripe data).msgs | None -> []

let msgs_in_range ~lo ~hi msgs =
  List.filter
    (fun op ->
      let k, _ = batch_target op in
      k >= lo && k < hi)
    msgs

(* Replay [msgs] (oldest first, applied residue included) over the
   leaf-level entries of [lo, hi): last message per (key, rid) wins. *)
let merge_pending leaf_entries msgs =
  let status = Hashtbl.create 16 in
  List.iter
    (fun op ->
      Hashtbl.replace status (batch_target op)
        (match op with Add _ -> true | Del _ -> false))
    msgs;
  if Hashtbl.length status = 0 then leaf_entries
  else begin
    let kept =
      List.filter (fun e -> Hashtbl.find_opt status e <> Some false) leaf_entries
    in
    List.iter (fun e -> Hashtbl.remove status e) kept;
    let adds = Hashtbl.fold (fun e live acc -> if live then e :: acc else acc) status [] in
    match adds with [] -> kept | _ -> List.sort entry_compare (kept @ adds)
  end

(* --- scans ------------------------------------------------------------------ *)

(* Leaf entries of [lo, hi) from [node] rightwards, newest first. *)
let rec collect_range t ~lo ~hi acc (node : node) =
  match node with
  | Inner _ -> invalid_arg "Btree.collect_range: inner node at leaf level"
  | Leaf { entries; high_key; next } -> (
      let acc =
        Array.fold_left
          (fun acc (k, rid) -> if k >= lo && k < hi then (k, rid) :: acc else acc)
          acc entries
      in
      match (high_key, next) with
      | Some (hk, _), Some n when hk < hi -> collect_range t ~lo ~hi acc (fst (load_node t n))
      | _ -> acc)

(* Leaf-level entries of [lo, hi) only — pending buffer messages are the
   caller's business (and must already have been fetched, see
   [range_ordered]). *)
let rec leaf_range t ~lo ~hi =
  match
    let _, node, _, _ = locate_leaf t (lo, min_int) in
    List.rev (collect_range t ~lo ~hi [] node)
  with
  | exception Retry ->
      (* The right-walk crossed a leaf deleted by a concurrent split
         loser's cleanup: restart the scan from a fresh root. *)
      invalidate_cache t;
      leaf_range t ~lo ~hi
  | all -> all

(* The unconditional safe order: the stripe multi-get returns strictly
   before the leaf walk starts (hence the [let]: argument evaluation
   order is unspecified). *)
let range_ordered t ~lo ~hi =
  let msgs =
    if !skip_buffer_merge then []
    else
      List.concat_map
        (fun cell -> msgs_in_range ~lo ~hi (cell_msgs cell))
        (Kv.Client.multi_get t.kv (stripe_keys t ~lo ~hi))
  in
  merge_pending (leaf_range t ~lo ~hi) msgs

(* Route [target] to its leaf id using cached inner nodes only (inner
   levels are fetched at most once each, §5.3.1). *)
let rec leaf_id_for t target id =
  match load_inner_cached t id with
  | Inner { seps; children; high_key; next; level } ->
      if not (below_high target high_key) then begin
        match next with Some n -> leaf_id_for t target n | None -> raise Retry
      end
      else
        let child = child_for_key seps children target in
        (* Level 1 parents point straight at leaves: route without
           fetching the leaf (the caller batch-fetches it). *)
        if level = 1 then child else leaf_id_for t target child
  | Leaf _ -> id

let memo_node t id ~data ~token =
  match Hashtbl.find_opt t.decoded id with
  | Some (cached_token, node) when cached_token = token -> node
  | _ ->
      let node = decode_node data in
      Hashtbl.replace t.decoded id (token, node);
      node

let shared_kv = function
  | [] -> None
  | (t, _) :: rest ->
      List.iter
        (fun (t', _) ->
          if t'.kv != t.kv then invalid_arg "Btree: batched groups must share one store client")
        rest;
      Some t.kv

(* Every index read (§5.1 batching over §5.3.1 routing): each range's
   first leaf is routed through the cached inner levels, and every first
   leaf plus every stripe cell overlapping any range is fetched in ONE
   multi-get — store keys are distinct across trees (the index name is
   part of the key), so groups for several trees on one store client
   share it.  That first hop is unordered, so it is trusted only when the
   fetch took at most [merge_guard_ns] (the inequality of the §3d header
   above); further leaves are right-walked after the stripe reply, the
   safe order.  A routing miss, a first leaf that no longer covers [lo]
   (it split), a [Retry] mid-walk or a guard overrun redoes the range
   with [range_ordered].  One result per range, in input order, flattened
   across groups. *)
let ranges_grouped groups =
  match shared_kv groups with
  | None -> []
  | Some kv ->
      let engine = Kv.Cluster.engine (Kv.Client.cluster kv) in
      let merge = not !skip_buffer_merge in
      let ranges =
        List.concat_map
          (fun (t, ranges) ->
            List.map
              (fun (lo, hi) ->
                let first =
                  if hi <= lo then None
                  else
                    match leaf_id_for t (lo, min_int) (root_id t) with
                    | id -> Some id
                    | exception Retry -> None
                in
                (t, lo, hi, first))
              ranges)
          groups
      in
      let cells = Hashtbl.create 16 in
      let fetch = ref [] in
      let want key =
        if not (Hashtbl.mem cells key) then begin
          Hashtbl.replace cells key None;
          fetch := key :: !fetch
        end
      in
      List.iter
        (fun (t, lo, hi, first) ->
          Option.iter (fun id -> want (node_key t id)) first;
          if merge && lo < hi then List.iter want (stripe_keys t ~lo ~hi))
        ranges;
      let fetch = List.rev !fetch in
      let started = Tell_sim.Engine.now engine in
      List.iter2 (Hashtbl.replace cells) fetch (Kv.Client.multi_get kv fetch);
      let trusted = (not merge) || Tell_sim.Engine.now engine - started <= merge_guard_ns in
      let decoded = Hashtbl.create 8 in
      let stripe_msgs key =
        match Hashtbl.find_opt decoded key with
        | Some msgs -> msgs
        | None ->
            let msgs = cell_msgs (Hashtbl.find cells key) in
            Hashtbl.replace decoded key msgs;
            msgs
      in
      let first_hop t ~lo ~hi id =
        match Hashtbl.find cells (node_key t id) with
        | Some (data, token) -> (
            match memo_node t id ~data ~token with
            | Leaf { high_key; _ } as leaf when below_high (lo, min_int) high_key -> (
                match collect_range t ~lo ~hi [] leaf with
                | acc -> Some (List.rev acc)
                | exception Retry -> None)
            | Leaf _ | Inner _ -> None)
        | None -> None
      in
      List.map
        (fun (t, lo, hi, first) ->
          match first with
          | _ when hi <= lo -> []
          | Some id when trusted -> (
              match first_hop t ~lo ~hi id with
              | Some leaf ->
                  let msgs =
                    if merge then
                      List.concat_map
                        (fun key -> msgs_in_range ~lo ~hi (stripe_msgs key))
                        (stripe_keys t ~lo ~hi)
                    else []
                  in
                  merge_pending leaf msgs
              | None -> range_ordered t ~lo ~hi)
          | Some _ | None -> range_ordered t ~lo ~hi)
        ranges

let range t ~lo ~hi = List.concat (ranges_grouped [ (t, [ (lo, hi) ]) ])

let lookup t ~key = List.map snd (range t ~lo:key ~hi:(key ^ "\x00"))

let lookup_many_grouped groups =
  let results =
    ranges_grouped (List.map (fun (t, keys) -> (t, List.map (fun k -> (k, k ^ "\x00")) keys)) groups)
  in
  (* Re-nest the flat per-range results into the groups' shape. *)
  let rec take keys results =
    match (keys, results) with
    | key :: keys, entries :: results ->
        let mine, rest = take keys results in
        ((key, List.map snd entries) :: mine, rest)
    | _ -> ([], results)
  in
  snd
    (List.fold_left_map
       (fun results (_, keys) ->
         let mine, rest = take keys results in
         (rest, mine))
       results groups)

let lookup_many t ~keys = List.concat (lookup_many_grouped [ (t, keys) ])

(* --- batched maintenance ------------------------------------------------------ *)

(* The only leaf writer (§5.1 batching applied to index maintenance):
   route every entry through the cached inner levels, fetch all target
   leaves with one multi-get, apply one LL/SC conditional write per leaf,
   and retry only the entries whose leaf went stale or conflicted.
   Groups for several trees attached to the same store client share the
   two batched round trips, so a commit touching N index entries across
   K trees costs ~2 round trips instead of N full traversals.  A leaf
   that overflows is split in place however far it overflows, all of the
   batch's entries installed across the pieces at once; the cached inner
   path is only invalidated when routing was actually stale, never on a
   plain store-conditional conflict. *)

(* Split an overflowing leaf of n merged entries into
   max(2, ⌈n / max_leaf_entries⌉) equal pieces (n ≤ 2 × max_leaf_entries
   is the classic halving at n/2): store the right pieces as fresh nodes, right to
   left so each can point at its right neighbour, CAS the left piece over
   the old cell, and push one separator per new piece into the ancestors.
   Returns [false] when the CAS lost (the caller re-routes the batch). *)
let split_leaf t id ~token entries ~high_key ~next =
  let n = Array.length entries in
  let k = max 2 ((n + max_leaf_entries - 1) / max_leaf_entries) in
  let piece i = Array.sub entries (i * n / k) (((i + 1) * n / k) - (i * n / k)) in
  (* [right]: (separator, node id) of the pieces stored so far, left to right. *)
  let rec store i ~high_key ~next right =
    if i > 0 then begin
      let entries = piece i in
      let piece_id = store_new_node t (Leaf { entries; high_key; next }) in
      with_orphan_guard t piece_id @@ fun () ->
      store (i - 1) ~high_key:(Some entries.(0)) ~next:(Some piece_id)
        ((entries.(0), piece_id) :: right)
    end
    else begin
      Hashtbl.remove t.decoded id;
      if cas_node t id ~token (Leaf { entries = piece 0; high_key; next }) then begin
        List.iter
          (fun (sep, right_id) ->
            insert_sep t ~attempts:max_attempts ~child_level:0 ~sep ~right_id (ancestors_of t sep))
          right;
        true
      end
      else begin
        List.iter (fun (_, piece_id) -> drop_node t piece_id) right;
        false
      end
    end
  in
  store (k - 1) ~high_key ~next []

(* Route each op to its leaf id; a root that is itself a leaf is fetched
   once for the whole batch rather than once per op. *)
let router t =
  let root = root_id t in
  match load_inner_cached t root with
  | Leaf _ -> fun _ -> root
  | Inner _ -> fun target -> leaf_id_for t target root
  | exception Retry -> fun _ -> raise Retry

(* [rights] maps (tree, leaf id) to the (high key, right sibling) of each
   leaf an earlier round of this batch found ops beyond.  A later round
   whose route lands on such a leaf again moves right along [next]
   (Lehman–Yao) instead of trusting the parent: the parent's separator
   for the sibling can be missing for good when a crash cut [split_leaf]
   off between its CAS and [insert_sep], and re-routing through it would
   reach the same leaf every round until the attempts ran out. *)
let rec batch_rounds ~attempts ~rights groups =
  match List.filter (fun (_, ops) -> ops <> []) groups with
  | [] -> ()
  | groups -> (
      if attempts <= 0 then invalid_arg "Btree: too many conflicts";
      match shared_kv groups with
      | None -> ()
      | Some kv ->
          contention_pause kv ~attempts;
          (* Route every op to a leaf through the cached inner levels; a
             routing failure marks the tree's cached path as stale. *)
          let work =
            List.map
              (fun (t, ops) ->
                let by_leaf = Hashtbl.create 8 in
                let miss = ref [] in
                let route = router t in
                let rec move_right target id =
                  match Hashtbl.find_opt rights (t.name, id) with
                  | Some (high_key, next) when not (below_high target (Some high_key)) ->
                      move_right target next
                  | _ -> id
                in
                List.iter
                  (fun op ->
                    let target = batch_target op in
                    match move_right target (route target) with
                    | id ->
                        Hashtbl.replace by_leaf id
                          (op :: Option.value ~default:[] (Hashtbl.find_opt by_leaf id))
                    | exception Retry -> miss := op :: !miss)
                  ops;
                let retry = ref (List.rev !miss) in
                let stale = ref (!miss <> []) in
                (t, by_leaf, retry, stale))
              groups
          in
          (* One multi-get for every target leaf of every tree. *)
          let items =
            List.concat_map
              (fun (t, by_leaf, retry, stale) ->
                Hashtbl.fold
                  (fun id ops acc -> (t, id, List.rev ops, retry, stale) :: acc)
                  by_leaf [])
              work
          in
          let cells = Kv.Client.multi_get kv (List.map (fun (t, id, _, _, _) -> node_key t id) items) in
          let cas_jobs = ref [] in
          let split_jobs = ref [] in
          List.iter2
            (fun (t, id, leaf_ops, retry, stale) cell ->
              match cell with
              | None ->
                  stale := true;
                  retry := !retry @ leaf_ops
              | Some (data, token) -> (
                  match memo_node t id ~data ~token with
                  | Inner _ ->
                      stale := true;
                      retry := !retry @ leaf_ops
                  | Leaf { entries; high_key; next } ->
                      (* The routed leaf may have split since the cache
                         was filled: ops beyond its high key belong to a
                         right sibling and must be re-routed. *)
                      let fits, beyond =
                        List.partition (fun op -> below_high (batch_target op) high_key) leaf_ops
                      in
                      if beyond <> [] then begin
                        stale := true;
                        retry := !retry @ beyond;
                        match (high_key, next) with
                        | Some high_key, Some next ->
                            Hashtbl.replace rights (t.name, id) (high_key, next)
                        | _ -> ()
                      end;
                      if fits <> [] then begin
                        let entries' =
                          Array.of_list (merge_pending (Array.to_list entries) fits)
                        in
                        if entries' = entries then ()
                        else if Array.length entries' <= max_leaf_entries then
                          cas_jobs :=
                            ( t, id, fits,
                              Leaf { entries = entries'; high_key; next },
                              Kv.Op.Put_if
                                ( node_key t id, Some token,
                                  encode_node (Leaf { entries = entries'; high_key; next }) ) )
                            :: !cas_jobs
                        else
                          split_jobs := (t, id, token, entries', high_key, next, fits, retry) :: !split_jobs
                      end))
            items cells;
          (* One conditional multi-write covering every tree's leaves. *)
          (match List.rev !cas_jobs with
          | [] -> ()
          | jobs ->
              let results = Kv.Client.multi_write kv (List.map (fun (_, _, _, _, op) -> op) jobs) in
              List.iter2
                (fun (t, id, leaf_ops, node', _) result ->
                  match result with
                  | Kv.Op.Token token -> Hashtbl.replace t.decoded id (token, node')
                  | _ ->
                      (* Lost the LL/SC race: the routing is usually still
                         valid, so only the leaf is re-fetched next round. *)
                      Hashtbl.remove t.decoded id;
                      let retry =
                        let (_, _, _, r, _) =
                          List.find (fun (t', id', _, _, _) -> t' == t && id' = id) items
                        in
                        r
                      in
                      retry := !retry @ leaf_ops)
                jobs results);
          List.iter
            (fun (t, id, token, entries', high_key, next, fits, retry) ->
              if not (split_leaf t id ~token entries' ~high_key ~next) then retry := !retry @ fits)
            (List.rev !split_jobs);
          List.iter (fun (t, _, _, stale) -> if !stale then invalidate_cache t) work;
          batch_rounds ~attempts:(attempts - 1) ~rights
            (List.map (fun (t, _, retry, _) -> (t, !retry)) work))

let batch_round ~attempts groups = batch_rounds ~attempts ~rights:(Hashtbl.create 1) groups

let insert_many t ~entries =
  if t.orphans <> [] then reclaim_orphans t;
  batch_round ~attempts:max_attempts [ (t, List.map (fun e -> Add e) entries) ]

let remove_many t ~entries =
  if t.orphans <> [] then reclaim_orphans t;
  batch_round ~attempts:max_attempts [ (t, List.map (fun e -> Del e) entries) ]

(* --- Bε buffer write side (§3d) ----------------------------------------------- *)

(* Commit-path enqueue: group the ops of every tree by stripe (order
   preserved within a stripe), one blind [Append] per stripe.  Appends
   never conflict and are deduped across retries, so the acknowledged
   append IS the durable index mutation — no leaf read, no CAS, no split
   on the commit path.  [enqueue_prepare] only builds the ops, so a
   commit can fuse them into the same multi-write as its record updates
   (zero extra round trips); [enqueue_note] interprets the aligned
   results into [(tree, stripe, cell bytes after append)] so the caller
   can nudge the flusher when a stripe outgrows the flush threshold. *)
let enqueue_prepare groups =
  match List.filter (fun (_, ops) -> ops <> []) groups with
  | [] -> ([], [])
  | groups ->
      let order = ref [] in
      let payloads = Hashtbl.create 8 in
      List.iter
        (fun (t, ops) ->
          List.iter
            (fun op ->
              let key, _ = batch_target op in
              let stripe = stripe_of t key in
              let cell = buffer_key t stripe in
              match Hashtbl.find_opt payloads cell with
              | Some (_, _, buf) -> encode_msg buf op
              | None ->
                  let buf = Buffer.create 64 in
                  encode_msg buf op;
                  Hashtbl.replace payloads cell (t, stripe, buf);
                  order := cell :: !order)
            ops)
        groups;
      let jobs =
        List.rev_map
          (fun cell ->
            let t, stripe, buf = Hashtbl.find payloads cell in
            (t, stripe, cell, Buffer.contents buf))
          !order
      in
      ( List.map (fun (_, _, cell, payload) -> Kv.Op.Append (cell, payload)) jobs,
        List.map (fun (t, stripe, _, _) -> (t, stripe)) jobs )

let enqueue_note meta results =
  List.map2
    (fun (t, stripe) result ->
      match result with
      | Kv.Op.Appended (length, _) -> (t, stripe, length)
      | _ -> (t, stripe, 0))
    meta results

let enqueue_many t ~ops =
  match enqueue_prepare [ (t, ops) ] with
  | [], _ -> ()
  | appends, _ -> ignore (Kv.Client.multi_write t.kv appends)

let drop_msgs n msgs =
  let rec go n msgs = if n <= 0 then msgs else match msgs with [] -> [] | _ :: rest -> go (n - 1) rest in
  go n msgs

(* Apply a stripe's pending messages to the leaves, advance its
   watermark, and purge the residue whose grace has expired.  The CAS
   races only against concurrent appends (the flusher is the sole
   watermark writer): a lost CAS re-reads the cell and retries, and
   re-applying already-applied messages is idempotent (same order,
   last-writer-wins).  A crash between apply and watermark loses nothing:
   the messages stay in the cell and the next flush re-applies them. *)
let rec flush_stripe_aux t ~stripe ~attempts =
  if attempts <= 0 then 0
  else begin
    match Kv.Client.get t.kv (buffer_key t stripe) with
    | None | Some ("", _) -> 0
    | Some (data, token) ->
        let st = decode_stripe data in
        let pending = drop_msgs st.applied st.msgs in
        if pending <> [] then batch_round ~attempts:max_attempts [ (t, pending) ];
        let now = Tell_sim.Engine.now (Kv.Cluster.engine (Kv.Client.cluster t.kv)) in
        let purge_n =
          if st.applied > 0 && now - st.applied_at >= purge_grace_ns then st.applied else 0
        in
        if pending = [] && purge_n = 0 then 0
        else begin
          let kept = drop_msgs purge_n st.msgs in
          let data' =
            match kept with
            | [] -> ""
            | _ ->
                let buf = Buffer.create (String.length data) in
                (* Everything kept is applied now; stamp the watermark
                   with the NEWEST apply time so no message's grace
                   period is ever cut short. *)
                encode_watermark buf ~applied:(List.length kept)
                  ~applied_at:(if pending <> [] then now else st.applied_at);
                List.iter (encode_msg buf) kept;
                Buffer.contents buf
          in
          match Kv.Client.put_if t.kv (buffer_key t stripe) (Some token) data' with
          | `Ok _ -> List.length pending
          | `Conflict ->
              (* A commit appended concurrently; fold its messages in. *)
              List.length pending + flush_stripe_aux t ~stripe ~attempts:(attempts - 1)
        end
  end

let flush_stripe t ~stripe =
  if t.orphans <> [] then reclaim_orphans t;
  flush_stripe_aux t ~stripe ~attempts:4

let flush_all t =
  let applied = ref 0 in
  for stripe = 0 to stripe_count t - 1 do
    applied := !applied + flush_stripe t ~stripe
  done;
  !applied

(* Prefilter for the background flusher: would [flush_stripe] on a cell
   currently holding [data] do any work?  (Unapplied messages, or applied
   residue whose purge grace has expired.) *)
let stripe_cell_needs_flush data ~now =
  data <> ""
  &&
  let st = decode_stripe data in
  List.length st.msgs > st.applied
  || (st.applied > 0 && now - st.applied_at >= purge_grace_ns)

(* Unapplied message count across all stripes — 0 after a quiesced
   [flush_all] (purged-but-graced residue does not count: it is already
   in the leaves). *)
let pending_messages t =
  let total = ref 0 in
  for stripe = 0 to stripe_count t - 1 do
    match Kv.Client.get t.kv (buffer_key t stripe) with
    | None -> ()
    | Some (data, _) ->
        let st = decode_stripe data in
        total := !total + (List.length st.msgs - st.applied)
  done;
  !total

(* --- bulk construction --------------------------------------------------------- *)

(* Chop [items] into chunks of at most [size], at least half-full where
   possible (the last two chunks are rebalanced). *)
let chunk ~size items =
  let rec go acc current n = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | item :: rest ->
        if n = size then go (List.rev current :: acc) [ item ] 1 rest
        else go acc (item :: current) (n + 1) rest
  in
  go [] [] 0 items

let bulk_cells ~name ~entries =
  let entries =
    List.sort_uniq
      (fun (k1, r1) (k2, r2) ->
        match String.compare k1 k2 with 0 -> Int.compare r1 r2 | c -> c)
      entries
  in
  let next_id = ref 0 in
  let alloc () =
    incr next_id;
    !next_id
  in
  let cells = ref [] in
  let emit id node = cells := (Keys.index_node ~index:name ~node_id:id, encode_node node) :: !cells in
  (* Build one level of leaves; returns (first entry, node id) per node. *)
  let first_of group = match group with e :: _ -> e | [] -> ("", 0) in
  let build_leaves entries =
    let groups = chunk ~size:(max_leaf_entries / 2 * 3 / 2) entries in
    let ids = List.map (fun group -> (alloc (), group)) groups in
    let rec link = function
      | [] -> []
      | [ (id, group) ] ->
          emit id (Leaf { entries = Array.of_list group; high_key = None; next = None });
          [ (first_of group, id) ]
      | (id, group) :: ((next_id_, next_group) :: _ as rest) ->
          emit id
            (Leaf
               { entries = Array.of_list group; high_key = Some (first_of next_group); next = Some next_id_ });
          (first_of group, id) :: link rest
    in
    link ids
  in
  let rec build_inner ~level children =
    (* children: (first entry, node id), in order. *)
    match children with
    | [] -> assert false
    | [ (_, id) ] -> id
    | _ :: _ ->
        let groups = chunk ~size:(max_inner_entries / 2 * 3 / 2) children in
        let ids = List.map (fun group -> (alloc (), group)) groups in
        let rec link = function
          | [] -> []
          | [ (id, group) ] ->
              let seps = List.filteri (fun i _ -> i > 0) (List.map fst group) in
              emit id
                (Inner
                   {
                     seps = Array.of_list seps;
                     children = Array.of_list (List.map snd group);
                     high_key = None;
                     next = None;
                     level;
                   });
              [ (first_of (List.map fst group), id) ]
          | (id, group) :: ((next_id_, next_group) :: _ as rest) ->
              let seps = List.filteri (fun i _ -> i > 0) (List.map fst group) in
              emit id
                (Inner
                   {
                     seps = Array.of_list seps;
                     children = Array.of_list (List.map snd group);
                     high_key = Some (first_of (List.map fst next_group));
                     next = Some next_id_;
                     level;
                   });
              (first_of (List.map fst group), id) :: link rest
        in
        build_inner ~level:(level + 1) (link ids)
  in
  let root, stripe_bounds =
    match entries with
    | [] ->
        let id = alloc () in
        emit id (Leaf { entries = [||]; high_key = None; next = None });
        (id, [||])
    | _ :: _ ->
        let leaves = build_leaves entries in
        (* Bε buffer stripes: up to [bulk_stripe_target] key-only
           boundaries spread evenly over the leaf low keys, frozen for
           the tree's lifetime (commits route messages by key with no
           metadata fetch; splits relocate entries, never messages). *)
        let firsts = Array.of_list (List.map (fun ((k, _), _) -> k) leaves) in
        let n_leaves = Array.length firsts in
        let bounds =
          if n_leaves <= 1 then [||]
          else begin
            let n_stripes = min bulk_stripe_target n_leaves in
            List.init (n_stripes - 1) (fun i -> firsts.((i + 1) * n_leaves / n_stripes))
            |> List.sort_uniq String.compare |> Array.of_list
          end
        in
        (build_inner ~level:1 leaves, bounds)
  in
  let root_cell =
    let buf = Stdlib.Buffer.create 8 in
    Codec.put_int buf root;
    (Keys.index_root ~index:name, Stdlib.Buffer.contents buf)
  in
  let counter_cell =
    (Keys.index_node_counter ~index:name, Tell_kv.Storage_node.encode_counter !next_id)
  in
  let meta_cell = (Keys.index_buffer_meta ~index:name, encode_stripe_meta stripe_bounds) in
  root_cell :: counter_cell :: meta_cell :: !cells

(* --- invariants (check-harness / test hook) ----------------------------------- *)

let check t =
  let violations = ref [] in
  let note id fmt =
    Printf.ksprintf
      (fun s -> violations := Printf.sprintf "%s node %d: %s" (name t) id s :: !violations)
      fmt
  in
  let pp (key, rid) = Printf.sprintf "(%S,%d)" key rid in
  let rec check_node id ~lo ~hi ~depth =
    let node, _ = load_node t id in
    match node with
    | Leaf { entries; high_key; _ } ->
        (match depth with
        | Some d when d <> 0 -> note id "leaf at level %d (expected 0)" d
        | _ -> ());
        Array.iteri
          (fun i e ->
            (match lo with
            | Some l when e < l -> note id "entry %s below lower bound %s" (pp e) (pp l)
            | _ -> ());
            (match hi with
            | Some h when e >= h -> note id "entry %s above upper bound %s" (pp e) (pp h)
            | _ -> ());
            (match high_key with
            | Some h when e >= h -> note id "entry %s above high key %s" (pp e) (pp h)
            | _ -> ());
            if i > 0 && not (entries.(i - 1) <= e) then
              note id "entries out of order: %s before %s" (pp entries.(i - 1)) (pp e))
          entries
    | Inner { seps; children; level; _ } ->
        (match depth with
        | Some d when d <> level -> note id "level tag %d (expected %d)" level d
        | _ -> ());
        if level < 1 then note id "inner node at level %d" level;
        if Array.length children <> Array.length seps + 1 then
          note id "%d children for %d separators" (Array.length children) (Array.length seps);
        Array.iteri
          (fun i s ->
            if i > 0 && not (seps.(i - 1) < s) then
              note id "separators out of order: %s before %s" (pp seps.(i - 1)) (pp s))
          seps;
        Array.iteri
          (fun i child ->
            if i <= Array.length seps then begin
              let lo' = if i = 0 then lo else Some seps.(i - 1) in
              let hi' = if i >= Array.length seps then hi else Some seps.(i) in
              check_node child ~lo:lo' ~hi:hi' ~depth:(Some (level - 1))
            end)
          children
  in
  check_node (root_id t) ~lo:None ~hi:None ~depth:None;
  List.rev !violations

let check_invariants t =
  match check t with
  | [] -> ()
  | violations -> invalid_arg ("Btree.check_invariants: " ^ String.concat "; " violations)

(* Test hooks: fabricate the post-crash state (a stored node nothing
   points to, stashed as a suspect) without having to engineer the
   exception interleaving that produces it. *)
let debug_make_orphan t ~key ~rid =
  let id = store_new_node t (Leaf { entries = [| (key, rid) |]; high_key = None; next = None }) in
  stash_orphan t id;
  id

let debug_node_exists t id = Kv.Client.get t.kv (node_key t id) <> None

(* The state a crash between [split_leaf]'s CAS and its [insert_sep]
   leaves: the leaf covering [key] stays linked from its left sibling's
   [next], but its parent has no separator for it. *)
let debug_drop_separator t ~key =
  let leaf_id, _, _, path = descend t (key, min_int) in
  match path with
  | [] -> invalid_arg "Btree.debug_drop_separator: the root is a leaf"
  | parent_id :: _ -> (
      match load_node t parent_id with
      | Inner ({ seps; children; _ } as inner), token ->
          let i = ref (Array.length children - 1) in
          while !i > 0 && children.(!i) <> leaf_id do
            decr i
          done;
          if !i = 0 then invalid_arg "Btree.debug_drop_separator: leftmost child";
          let without a j =
            Array.append (Array.sub a 0 j) (Array.sub a (j + 1) (Array.length a - j - 1))
          in
          let parent = Inner { inner with seps = without seps (!i - 1); children = without children !i } in
          if not (cas_node t parent_id ~token parent) then
            invalid_arg "Btree.debug_drop_separator: lost the CAS";
          invalidate_cache t
      | Leaf _, _ -> invalid_arg "Btree.debug_drop_separator: leaf parent")
