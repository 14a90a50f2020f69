(* The benchmark's workloads and the runner that measures one of them.

   Every workload runs the paper's shared-data deployment at RF3 — 7
   storage nodes x 4 cores, 4 processing nodes x 8 closed-loop terminals
   (simulated fibers, no think time), one commit manager, 32 warehouses at
   [sim_scale], InfiniBand, transaction buffer — and differs only in the
   transaction mix and whether a storage node fails mid-window.  The
   runner builds the deployment from the public constructors, drives it
   through the unmodified [Tpcc.Driver.run] behind a recording [ENGINE],
   and reads every other number from counters the layers already keep.
   Nothing it adds draws randomness or touches simulated state, so the
   event order — and every virtual-time number — is that of a plain
   [Driver.run] on the same seed. *)

module Sim = Tell_sim
module Kv = Tell_kv
open Tell_core
module Tpcc = Tell_tpcc

type t = {
  name : string;
  mix : Tpcc.Spec.mix;
  virtual_ms_per_s : int;
      (** measured virtual ms per second of [--seconds]: sized so that a
          run's host time is close to [--seconds] on a 2-core x86 box *)
  crash_sn : int option;  (** storage node crashed two thirds into the window *)
}

let all =
  [
    { name = "tpcc-write-rf3"; mix = Tpcc.Spec.standard_mix; virtual_ms_per_s = 50; crash_sn = None };
    { name = "tpcc-read-rf3"; mix = Tpcc.Spec.read_intensive_mix; virtual_ms_per_s = 25; crash_sn = None };
    {
      name = "tpcc-write-rf3-sn-crash";
      mix = Tpcc.Spec.standard_mix;
      virtual_ms_per_s = 30;
      crash_sn = Some 3;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

type sizing = { warehouses : int; warmup_ns : int; measure_ns : int }

let full w ~seconds =
  { warehouses = 32; warmup_ns = 150_000_000; measure_ns = seconds * w.virtual_ms_per_s * 1_000_000 }

(* The dune smoke: same code path, a population and window small enough
   to run every workload in seconds. *)
let smoke = { warehouses = 2; warmup_ns = 10_000_000; measure_ns = 20_000_000 }

let n_pns = 4
let terminals_per_pn = 8
let n_sns = 7
let cores = 4
let rf = 3

(* A terminal whose transaction hits a storage node that is down (the
   fail-over window) pauses like the fault-tolerance example and resubmits
   the same input; the retries count as errors and the wait lands in the
   transaction's latency.  Giving up would need about this many client
   timeouts in a row. *)
let retry_pause_ns = 50_000
let max_attempts = 200

let host_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (host_ns () - t0) /. 1e9

(* --- host-speed calibration ------------------------------------------------------ *)

(* On a shared host the same run can take a third longer for minutes at a
   time while neighbours contend for the last-level cache and memory, and
   the simulator — a 1.4 GB heap walked by the GC — slows with them.  The
   host-time metrics are therefore scaled to a reference speed by a
   bench-owned loop timed next to them: a dependent random walk through a
   64 MB single-cycle permutation kept outside the OCaml heap, so it moves
   no GC or heap metric.  [reference_walk_ns] is the walk's step time on
   an idle 2-core Xeon VM, the machine the bounds were derived on. *)
let reference_walk_ns = 160.0

let walk_cells = 1 lsl 23

(* Cell i holds the successor of i under a full-period LCG modulo 2^23
   (odd increment, multiplier = 1 mod 4): one cycle through every cell,
   in an order no prefetcher follows. *)
let walk_table =
  lazy
    (let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout walk_cells in
     for i = 0 to walk_cells - 1 do
       Bigarray.Array1.unsafe_set t i (((1103515245 * i) + 12345) land (walk_cells - 1))
     done;
     t)

let walk_pos = ref 0

(* Nanoseconds per step of 200k walk steps, resuming where the last walk
   stopped so successive calls cover the whole table. *)
let walk_ns () =
  let t = Lazy.force walk_table in
  let steps = 200_000 in
  let t0 = host_ns () in
  let i = ref !walk_pos in
  for _ = 1 to steps do
    i := Bigarray.Array1.unsafe_get t !i
  done;
  walk_pos := !i;
  float_of_int (host_ns () - t0) /. float_of_int steps

(* [host] measured while the walk ran at [walk] ns/step, at reference speed. *)
let at_reference ~walk host = host *. reference_walk_ns /. walk

(* --- set-up ---------------------------------------------------------------- *)

type deployment = {
  engine : Sim.Engine.t;
  db : Database.t;
  pns : Pn.t list;
  scale : Tpcc.Spec.scale;
  tell : Tpcc.Tell_engine.t;
  db_create_s : float;
  load_s : float;
  setup_walk_ns : float;  (** calibration walk around the set-up *)
}

let setup_s d = at_reference ~walk:d.setup_walk_ns (d.db_create_s +. d.load_s)

(* Seed scheme of the repository's headline run: cluster [seed], loader
   [seed + 1], driver [seed + 2]. *)
let setup ~seed ~warehouses =
  let walk_before = walk_ns () in
  let t0 = host_ns () in
  let engine = Sim.Engine.create () in
  let kv_config =
    {
      Kv.Cluster.default_config with
      n_storage_nodes = n_sns;
      replication_factor = rf;
      sn_cores = cores;
      sn_capacity_bytes = 64 * 1024 * 1024 * 1024;
      net_profile = Sim.Net.infiniband;
      seed;
    }
  in
  let db = Database.create engine ~kv_config ~n_commit_managers:1 () in
  let pns =
    List.init n_pns (fun _ ->
        Database.add_pn db ~cores ~buffer:Buffer_pool.Transaction_buffer ())
  in
  let db_create_s = seconds_since t0 in
  let t1 = host_ns () in
  let scale = Tpcc.Spec.sim_scale ~warehouses in
  ignore (Tpcc.Loader.load (Database.cluster db) ~scale ~seed:(seed + 1));
  let tell = Tpcc.Tell_engine.create db ~pns ~scale in
  let load_s = seconds_since t1 in
  let setup_walk_ns = (walk_before +. walk_ns ()) /. 2.0 in
  { engine; db; pns; scale; tell; db_create_s; load_s; setup_walk_ns }

(* --- the recording engine -------------------------------------------------- *)

type outcome = Committed | Aborted | User_abort | Failed

type span = {
  id : int;
  kind : int;  (** index into [kinds] *)
  start : int;
  finish : int;
  outcome : outcome;
  errors : int;  (** unavailable/fenced replies absorbed by resubmitting *)
}

let kinds = [| "new_order"; "payment"; "order_status"; "delivery"; "stock_level" |]

let kind_of = function
  | Tpcc.Spec.New_order _ -> 0
  | Payment _ -> 1
  | Order_status _ -> 2
  | Delivery _ -> 3
  | Stock_level _ -> 4

type recorder = { sim : Sim.Engine.t; mutable spans : span list; mutable started : int }

module Recording = struct
  type t = { tell : Tpcc.Tell_engine.t; recorder : recorder }
  type conn = { conn : Tpcc.Tell_engine.conn; r : recorder }

  let name _ = "tell"
  let connect t ~terminal_id = { conn = Tpcc.Tell_engine.connect t.tell ~terminal_id; r = t.recorder }

  let execute c input =
    let r = c.r in
    let id = r.started in
    r.started <- id + 1;
    let start = Sim.Engine.now r.sim in
    let rec attempt errors =
      match Tpcc.Tell_engine.execute c.conn input with
      | o -> (Some o, errors)
      | exception (Kv.Op.Unavailable _ | Kv.Op.Fenced _) ->
          if errors + 1 >= max_attempts then (None, errors + 1)
          else begin
            Sim.Engine.sleep r.sim retry_pause_ns;
            attempt (errors + 1)
          end
    in
    let result, errors = attempt 0 in
    let outcome =
      match result with
      | Some Tpcc.Engine_intf.Committed -> Committed
      | Some (Tpcc.Engine_intf.Aborted _) -> Aborted
      | Some Tpcc.Engine_intf.User_abort -> User_abort
      | None -> Failed
    in
    r.spans <-
      { id; kind = kind_of input; start; finish = Sim.Engine.now r.sim; outcome; errors } :: r.spans;
    (* A transaction given up on is neither committed nor a CC abort: hide
       it from the driver's counters, which the runner cross-checks. *)
    Option.value result ~default:Tpcc.Engine_intf.User_abort
end

(* --- samplers ---------------------------------------------------------------- *)

let phases = [ "begin"; "read"; "log"; "apply"; "notify" ]

(* What the host-cost fibers read at each sampling instant.  Reads only:
   no randomness, no suspension besides the fiber's own sleeps. *)
type snap = {
  s_reached_ns : int;  (** host time the sampling instant was reached *)
  s_walk_ns : float;
  s_host_ns : int;  (** host time the simulation resumed *)
  s_started : int;
  s_minor_words : float;
  s_major_words : float;
  s_major_collections : int;
  s_pn_requests : int;
  s_flusher_requests : int;
  s_net_bytes : int;
  s_sn_busy : int array;
  s_mgmt_busy : int;
  s_phase_ops : int array;
}

let phase_ops pns =
  Array.of_list
    (List.map
       (fun phase ->
         List.fold_left
           (fun acc pn ->
             List.fold_left
               (fun acc (name, _, ops) -> if name = phase then acc + ops else acc)
               acc
               (Sim.Stats.Breakdown.phases (Pn.commit_stats pn)))
           0 pns)
       phases)

let take_snap d r =
  let s_reached_ns = host_ns () in
  let s_walk_ns = walk_ns () in
  let gc = Gc.quick_stat () in
  let cluster = Database.cluster d.db in
  {
    s_reached_ns;
    s_walk_ns;
    s_host_ns = host_ns ();
    s_started = r.started;
    s_minor_words = gc.minor_words;
    s_major_words = gc.major_words;
    s_major_collections = gc.major_collections;
    s_pn_requests = List.fold_left (fun a pn -> a + Kv.Client.requests_sent (Pn.kv pn)) 0 d.pns;
    s_flusher_requests = Kv.Client.requests_sent (Index_flusher.kv (Database.index_flusher d.db));
    s_net_bytes = Sim.Net.bytes_sent (Kv.Cluster.net cluster);
    s_sn_busy =
      Array.map (fun sn -> Sim.Resource.busy_time (Kv.Storage_node.cpu sn)) (Kv.Cluster.nodes cluster);
    s_mgmt_busy = Sim.Resource.busy_time (Kv.Cluster.mgmt_cpu cluster);
    s_phase_ops = phase_ops d.pns;
  }

let slices = 10

(* What the traced run's 100 us sampler collects. *)
type sampled = {
  sn_queue : Sim.Stats.Histogram.t;
  mgmt_queue : Sim.Stats.Histogram.t;
  pending : Sim.Stats.Histogram.t;
  mutable repaired_at : int option;
}

let trace_period_ns = 100_000

(* --- statistics helpers ------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    float_of_int sorted.(max 0 (min (n - 1) (rank - 1)))

let median_float xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* --- the correctness gate ------------------------------------------------------ *)

(* One read-only transaction after the window: TPC-C consistency condition
   1 on every warehouse, conditions 2-4 on warehouse 1 and one warehouse
   the seed picks.  The engine advances in short slices only until the
   check fiber is done — a fixed virtual tail would mostly simulate idle
   background fibers. *)
let check_consistency d ~seed =
  let pn = List.hd d.pns in
  let scale = d.scale in
  let spot = if scale.warehouses = 1 then 1 else 2 + (seed mod (scale.warehouses - 1)) in
  let result = ref None in
  Sim.Engine.spawn d.engine ~group:(Pn.group pn) (fun () ->
      let rec go tries =
        match
          Database.with_txn pn (fun txn ->
              let v = ref [] in
              for w_id = 1 to scale.warehouses do
                v := Tpcc.Consistency.check_ytd txn ~scale ~w_id @ !v
              done;
              List.iter
                (fun w_id ->
                  for d_id = 1 to scale.districts_per_wh do
                    v := Tpcc.Consistency.check_order_ids txn ~w_id ~d_id @ !v;
                    v := Tpcc.Consistency.check_order_lines txn ~w_id ~d_id ~sample:37 @ !v
                  done)
                (List.sort_uniq compare [ 1; spot ]);
              !v)
        with
        | v -> result := Some v
        | exception (Kv.Op.Unavailable _ as e) ->
            if tries = 0 then result := Some [ "consistency check: " ^ Printexc.to_string e ]
            else begin
              Sim.Engine.sleep d.engine 1_000_000;
              go (tries - 1)
            end
      in
      go 20);
  let deadline = Sim.Engine.now d.engine + 10_000_000_000 in
  while !result = None && Sim.Engine.now d.engine < deadline do
    Sim.Engine.run d.engine ~until:(Sim.Engine.now d.engine + 1_000_000) ()
  done;
  match !result with Some v -> v | None -> [ "consistency check did not finish in 10 s virtual" ]

(* --- one run ------------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

type result = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  violations : string list;
  metrics : metric list;
  spans : span list;  (** every transaction of the run, newest first *)
}

let run ?(trace = false) ?(other_setups = []) w ~(sizing : sizing) ~seed =
  let d = setup ~seed ~warehouses:sizing.warehouses in
  let engine = d.engine in
  let cluster = Database.cluster d.db in
  let recorder = { sim = engine; spans = []; started = 0 } in
  let t_base = Sim.Engine.now engine in
  let win_start = t_base + sizing.warmup_ns in
  let win_stop = win_start + sizing.measure_ns in
  let snaps = Array.make (slices + 1) None in
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.sleep engine sizing.warmup_ns;
      for k = 0 to slices do
        snaps.(k) <- Some (take_snap d recorder);
        if k < slices then Sim.Engine.sleep engine (sizing.measure_ns / slices)
      done);
  (* The crash lands two thirds into the window.  The ~40 transactions it
     stalls then stay well under 1 % of the window's commits, so p99 does
     not flip between the stalled and the surviving population from seed to
     seed, and the post-crash stretch — whose host cost per transaction
     grows superlinearly with its length — stays short. *)
  let crash_at = ref None in
  Option.iter
    (fun sn ->
      Sim.Engine.spawn engine (fun () ->
          Sim.Engine.sleep engine (sizing.warmup_ns + (2 * sizing.measure_ns / 3));
          crash_at := Some (Sim.Engine.now engine);
          Database.crash_storage_node d.db sn))
    w.crash_sn;
  let sampled =
    {
      sn_queue = Sim.Stats.Histogram.create ();
      mgmt_queue = Sim.Stats.Histogram.create ();
      pending = Sim.Stats.Histogram.create ();
      repaired_at = None;
    }
  in
  (* [Driver.run] stops the engine 50 ms after the window. *)
  let drive_deadline = win_stop + 50_000_000 in
  if trace then
    Sim.Engine.spawn engine (fun () ->
        Sim.Engine.sleep engine sizing.warmup_ns;
        while Sim.Engine.now engine + trace_period_ns < drive_deadline do
          let now = Sim.Engine.now engine in
          if now <= win_stop then begin
            Array.iter
              (fun sn ->
                Sim.Stats.Histogram.add sampled.sn_queue (Sim.Resource.queue_length (Kv.Storage_node.cpu sn)))
              (Kv.Cluster.nodes cluster);
            Sim.Stats.Histogram.add sampled.mgmt_queue
              (Sim.Resource.queue_length (Kv.Cluster.mgmt_cpu cluster));
            Sim.Stats.Histogram.add sampled.pending (Sim.Engine.pending_events engine)
          end;
          (match !crash_at with
          | Some _ when sampled.repaired_at = None && Kv.Cluster.min_live_replication cluster >= rf ->
              sampled.repaired_at <- Some now
          | _ -> ());
          Sim.Engine.sleep engine trace_period_ns
        done);
  let config =
    {
      Tpcc.Driver.terminals = n_pns * terminals_per_pn;
      warmup_ns = sizing.warmup_ns;
      measure_ns = sizing.measure_ns;
      seed = seed + 2;
    }
  in
  let report =
    Tpcc.Driver.run
      (module Recording : Tpcc.Engine_intf.ENGINE
        with type t = Recording.t
         and type conn = Recording.conn)
      { Recording.tell = d.tell; recorder }
      ~engine ~scale:d.scale ~mix:w.mix ~config ()
  in
  (* Whole-run counters, read before the gate adds its own traffic. *)
  let flusher = Database.index_flusher d.db in
  let flusher_stats = Index_flusher.stats flusher in
  let flusher_kv = Index_flusher.kv flusher in
  let pn_requests = List.fold_left (fun a pn -> a + Kv.Client.requests_sent (Pn.kv pn)) 0 d.pns in
  let pn_ops = List.fold_left (fun a pn -> a + Kv.Client.ops_sent (Pn.kv pn)) 0 d.pns in
  let requests = pn_requests + Kv.Client.requests_sent flusher_kv in
  let ops = pn_ops + Kv.Client.ops_sent flusher_kv in
  let stale = List.fold_left (fun a pn -> a + Kv.Client.stale_master_bounces (Pn.kv pn)) 0 d.pns in
  let begins = List.fold_left (fun a pn -> a + fst (Pn.begin_stats pn)) 0 d.pns in
  let begin_rpcs = List.fold_left (fun a pn -> a + snd (Pn.begin_stats pn)) 0 d.pns in
  let merged = Sim.Stats.Breakdown.create Pn.commit_phases in
  List.iter (fun pn -> Sim.Stats.Breakdown.merge_into ~src:(Pn.commit_stats pn) ~dst:merged) d.pns;
  let stored_bytes = Kv.Cluster.total_bytes_stored cluster in
  let dropped = Sim.Net.messages_dropped (Kv.Cluster.net cluster) in
  let flusher_sweeps = flusher_stats.sweeps and flusher_applied = flusher_stats.messages_applied in
  let violations = check_consistency d ~seed in
  let violations =
    if flusher_stats.errors > 0 then
      Printf.sprintf "index flusher swallowed %d errors" flusher_stats.errors :: violations
    else violations
  in
  (* --- transactions of the window (the driver's own rule) --- *)
  let spans = recorder.spans in
  let in_window = List.filter (fun s -> s.start >= win_start && s.finish <= win_stop) spans in
  let count p = List.length (List.filter p in_window) in
  let committed = count (fun s -> s.outcome = Committed) in
  let aborted = count (fun s -> s.outcome = Aborted) in
  let failed = count (fun s -> s.outcome = Failed) in
  let attempted = List.length in_window in
  let errors = List.fold_left (fun a s -> a + s.errors) 0 in_window in
  let new_orders = count (fun s -> s.outcome = Committed && s.kind = 0) in
  let violations =
    if committed <> report.committed || new_orders <> report.new_order_commits then
      Printf.sprintf "recorder counted %d commits (%d new-order), driver %d (%d)" committed
        new_orders report.committed report.new_order_commits
      :: violations
    else violations
  in
  let latencies kind =
    let a =
      Array.of_list
        (List.filter_map
           (fun s ->
             if s.outcome = Committed && (kind < 0 || s.kind = kind) then Some (s.finish - s.start)
             else None)
           in_window)
    in
    Array.sort compare a;
    a
  in
  let all_lat = latencies (-1) in
  let measure_s = fi sizing.measure_ns /. 1e9 in
  let commits_f = fi committed in
  (* --- host cost over the window --- *)
  let snap k = match snaps.(k) with Some s -> s | None -> failwith "window sampler did not run" in
  let s0 = snap 0 and s1 = snap slices in
  let started = fi (s1.s_started - s0.s_started) in
  let slice_cost ~calibrated k =
    let a = snap k and b = snap (k + 1) in
    let us = ratio (fi (b.s_reached_ns - a.s_host_ns) /. 1e3) (fi (b.s_started - a.s_started)) in
    if calibrated then at_reference ~walk:((a.s_walk_ns +. b.s_walk_ns) /. 2.0) us else us
  in
  let slice_costs calibrated = List.init slices (slice_cost ~calibrated) in
  let window_walk = median_float (List.init (slices + 1) (fun k -> (snap k).s_walk_ns)) in
  let sn_util =
    Array.mapi
      (fun i b -> fi (b - s0.s_sn_busy.(i)) /. (fi sizing.measure_ns *. fi cores))
      s1.s_sn_busy
  in
  let gc_end = Gc.quick_stat () in
  (* --- commit bins: the throughput dip around a crash --- *)
  let bin_ns = 10_000_000 in
  let n_bins = max 1 (sizing.measure_ns / bin_ns) in
  let bins = Array.make n_bins 0 in
  List.iter
    (fun s ->
      if s.outcome = Committed then
        let b = (s.finish - win_start) / bin_ns in
        if b >= 0 && b < n_bins then bins.(b) <- bins.(b) + 1)
    in_window;
  let crash_bin =
    match !crash_at with Some t -> max 0 (min (n_bins - 1) ((t - win_start) / bin_ns)) | None -> 0
  in
  let reference =
    median_float
      (Array.to_list (Array.map fi (if crash_bin > 0 then Array.sub bins 0 crash_bin else bins)))
  in
  let after = Array.sub bins crash_bin (n_bins - crash_bin) in
  let dip = 100.0 *. ratio (fi (Array.fold_left min max_int after)) reference in
  let recovery_ms =
    match !crash_at with
    | None -> 0.0
    | Some t ->
        let last_low = ref (-1) in
        Array.iteri
          (fun i c -> if i >= crash_bin && fi c < 0.9 *. reference then last_low := i)
          bins;
        if !last_low < 0 then 0.0
        else fi (win_start + ((!last_low + 1) * bin_ns) - t) /. 1e6
  in
  let m name unit value = { name; value; unit } in
  let e2e =
    [
      m "tpmc" "1/min" (fi new_orders /. (fi sizing.measure_ns /. 60e9));
      m "tps" "1/s" (commits_f /. measure_s);
      m "txn_p50_us" "us" (percentile all_lat 50.0 /. 1e3);
      m "txn_p99_us" "us" (percentile all_lat 99.0 /. 1e3);
      m "commit_pct" "%" (100.0 *. ratio commits_f (fi (committed + aborted + failed)));
      m "store_requests_per_txn" "req/txn"
        (ratio
           (fi (s1.s_pn_requests + s1.s_flusher_requests - s0.s_pn_requests - s0.s_flusher_requests))
           commits_f);
      m "setup_s" "s" (median_float (setup_s d :: other_setups));
      m "sim_us_per_txn" "us" (median_float (slice_costs true));
      m "heap_peak_mb" "MB" (fi (gc_end.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    ]
  in
  let per_type =
    List.concat
      (List.mapi
         (fun k kind ->
           let lat = latencies k in
           [
             m (Printf.sprintf "tpcc.%s.n" kind) "count" (fi (Array.length lat));
             m (Printf.sprintf "tpcc.%s.p50_us" kind) "us" (percentile lat 50.0 /. 1e3);
             m (Printf.sprintf "tpcc.%s.p90_us" kind) "us" (percentile lat 90.0 /. 1e3);
           ])
         (Array.to_list kinds))
  in
  let per_phase =
    List.concat
      (List.mapi
         (fun i phase ->
           let hist =
             match List.find_opt (fun (n, _, _) -> n = phase) (Sim.Stats.Breakdown.phases merged) with
             | Some (_, h, _) -> h
             | None -> Sim.Stats.Histogram.create ()
           in
           [
             m (Printf.sprintf "pn.%s.mean_us" phase) "us" (Sim.Stats.Histogram.mean hist /. 1e3);
             m (Printf.sprintf "pn.%s.p99_us" phase) "us"
               (fi (Sim.Stats.Histogram.percentile hist 99.0) /. 1e3);
             m (Printf.sprintf "pn.%s.ops_per_txn" phase) "op/txn"
               (ratio (fi (s1.s_phase_ops.(i) - s0.s_phase_ops.(i))) commits_f);
           ])
         phases)
  in
  let counters =
    [
      m "tpcc.committed" "count" commits_f;
      m "tpcc.abort_pct" "%" (100.0 *. ratio (fi aborted) (fi (committed + aborted)));
      m "tpcc.error_pct" "%" (100.0 *. ratio (fi errors) (fi attempted));
      m "tpcc.dip_min_bin_pct" "%" dip;
      m "tpcc.recovery_ms" "ms" recovery_ms;
      m "cm.begins_per_rpc" "begin/rpc" (ratio (fi begins) (fi begin_rpcs));
      m "kv.requests" "count" (fi requests);
      m "kv.ops_per_request" "op/req" (ratio (fi ops) (fi requests));
      m "kv.requests_per_txn" "req/txn" (ratio (fi (s1.s_pn_requests - s0.s_pn_requests)) commits_f);
      m "kv.stale_bounces" "count" (fi stale);
      m "kv.sn.util_mean" "ratio" (Array.fold_left ( +. ) 0.0 sn_util /. fi (Array.length sn_util));
      m "kv.sn.util_max" "ratio" (Array.fold_left max 0.0 sn_util);
      m "kv.mgmt.util" "ratio"
        (fi (s1.s_mgmt_busy - s0.s_mgmt_busy)
        /. (fi sizing.measure_ns *. fi (Sim.Resource.servers (Kv.Cluster.mgmt_cpu cluster))));
      m "kv.stored_mb" "MB" (fi stored_bytes /. 1e6);
      m "index.flusher.sweeps" "count" (fi flusher_sweeps);
      m "index.flusher.messages_applied" "count" (fi flusher_applied);
      m "index.flusher.requests_per_txn" "req/txn"
        (ratio (fi (s1.s_flusher_requests - s0.s_flusher_requests)) commits_f);
      m "index.flusher.errors" "count" (fi flusher_stats.errors);
      m "net.bytes_per_txn" "B/txn" (ratio (fi (s1.s_net_bytes - s0.s_net_bytes)) commits_f);
      m "net.messages_dropped" "count" (fi dropped);
      m "sim.minor_words_per_txn" "word/txn" (ratio (s1.s_minor_words -. s0.s_minor_words) started);
      m "sim.major_words_per_txn" "word/txn" (ratio (s1.s_major_words -. s0.s_major_words) started);
      m "sim.major_collections" "count" (fi (s1.s_major_collections - s0.s_major_collections));
      m "sim.host_us_per_txn" "us" (median_float (slice_costs false));
      m "sim.walk_ns" "ns" window_walk;
      m "setup.db_create_s" "s" d.db_create_s;
      m "setup.load_s" "s" d.load_s;
      m "setup.walk_ns" "ns" d.setup_walk_ns;
    ]
  in
  let traced =
    if not trace then []
    else
      [
        m "kv.sn.queue_p99" "count" (fi (Sim.Stats.Histogram.percentile sampled.sn_queue 99.0));
        m "kv.mgmt.queue_p99" "count" (fi (Sim.Stats.Histogram.percentile sampled.mgmt_queue 99.0));
        m "kv.repair_ms" "ms"
          (match (!crash_at, sampled.repaired_at) with
          | Some c, Some r -> fi (r - c) /. 1e6
          | _ -> 0.0);
        m "sim.pending_events_p99" "count" (fi (Sim.Stats.Histogram.percentile sampled.pending 99.0));
      ]
  in
  let violations =
    match (!crash_at, trace, sampled.repaired_at) with
    | Some _, true, None -> "storage tier not back at RF by the end of the run" :: violations
    | _ -> violations
  in
  {
    workload = w.name;
    seed;
    attempted;
    failed;
    violations;
    metrics = e2e @ per_type @ counters @ per_phase @ traced;
    spans;
  }
