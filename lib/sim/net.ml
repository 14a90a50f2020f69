type profile = {
  name : string;
  base_latency_ns : int;
  per_byte_ns : float;
  jitter : float;
}

(* 40 Gbit QDR InfiniBand with RDMA verbs: ~2.5 us one-way including NIC
   processing, kernel bypass.  ~5 GB/s of usable bandwidth. *)
let infiniband = { name = "infiniband"; base_latency_ns = 2_500; per_byte_ns = 0.25; jitter = 0.05 }

(* 10 Gbit Ethernet through the OS stack: tens of microseconds one-way. *)
let ethernet_10g =
  { name = "ethernet-10g"; base_latency_ns = 32_000; per_byte_ns = 0.9; jitter = 0.10 }

let profile_of_string = function
  | "infiniband" | "ib" -> Some infiniband
  | "ethernet-10g" | "ethernet" | "eth" -> Some ethernet_10g
  | _ -> None

(* A fault window degrades every delay sampled while the virtual clock is
   inside [from_ns, until_ns): the sampled latency is multiplied by
   [factor] and [extra_ns] is added on top.  Windows are installed at
   seed-derived virtual times by the fault-injection harness; expired
   windows are swept lazily. *)
type fault = { from_ns : int; until_ns : int; factor : float; extra_ns : int }

(* A partition: messages from any endpoint in [cut_from] to any endpoint
   in [cut_to] are dropped on the wire; [cut_symmetric] also blocks the
   reverse direction.  Cuts are named so a heal at a later virtual
   instant removes exactly the partition it targets. *)
type cut = {
  cut_name : string;
  cut_from : string list;
  cut_to : string list;
  cut_symmetric : bool;
}

type loss = { drop : float; dup : float }

type link_stats = {
  l_sent : Stats.Counter.t;
  l_dropped : Stats.Counter.t;
  l_duplicated : Stats.Counter.t;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  profile : profile;
  mutable bytes_sent : int;
  mutable faults : fault list;
  mutable cuts : cut list;
  losses : (string * string, loss) Hashtbl.t;  (* directed (src, dst) *)
  links : (string * string, link_stats) Hashtbl.t;
  mutable messages_dropped : int;
  mutable messages_duplicated : int;
}

let create engine rng profile =
  {
    engine;
    rng;
    profile;
    bytes_sent = 0;
    faults = [];
    cuts = [];
    losses = Hashtbl.create 8;
    links = Hashtbl.create 32;
    messages_dropped = 0;
    messages_duplicated = 0;
  }

let profile t = t.profile

let inject_fault t ~from_ns ~until_ns ?(factor = 1.0) ?(extra_ns = 0) () =
  if until_ns > from_ns then
    t.faults <- { from_ns; until_ns; factor; extra_ns } :: t.faults

let apply_faults t d =
  match t.faults with
  | [] -> d
  | _ :: _ ->
      let now = Engine.now t.engine in
      t.faults <- List.filter (fun f -> f.until_ns > now) t.faults;
      List.fold_left
        (fun d f ->
          if now >= f.from_ns then
            int_of_float (float_of_int d *. f.factor) + f.extra_ns
          else d)
        d t.faults

let delay t ~bytes =
  let p = t.profile in
  let nominal = float_of_int p.base_latency_ns +. (p.per_byte_ns *. float_of_int bytes) in
  let sampled = Rng.gaussian t.rng ~mean:nominal ~stddev:(nominal *. p.jitter) in
  apply_faults t (int_of_float (Float.max sampled (0.5 *. nominal)))

let transfer t ~bytes =
  t.bytes_sent <- t.bytes_sent + bytes;
  Engine.sleep t.engine (delay t ~bytes)

(* --- link-level fault plan ------------------------------------------------ *)

let cut t ~name ~from_ ~to_ ~symmetric =
  t.cuts <-
    { cut_name = name; cut_from = from_; cut_to = to_; cut_symmetric = symmetric }
    :: List.filter (fun c -> c.cut_name <> name) t.cuts

let heal t ~name = t.cuts <- List.filter (fun c -> c.cut_name <> name) t.cuts
let active_cuts t = List.map (fun c -> c.cut_name) t.cuts

let severed t ~src ~dst =
  List.exists
    (fun c ->
      (List.mem src c.cut_from && List.mem dst c.cut_to)
      || (c.cut_symmetric && List.mem src c.cut_to && List.mem dst c.cut_from))
    t.cuts

let set_loss t ~src ~dst ?(drop = 0.0) ?(dup = 0.0) () =
  if drop = 0.0 && dup = 0.0 then Hashtbl.remove t.losses (src, dst)
  else Hashtbl.replace t.losses (src, dst) { drop; dup }

let clear_loss t ~src ~dst = Hashtbl.remove t.losses (src, dst)

let link t ~src ~dst =
  match Hashtbl.find_opt t.links (src, dst) with
  | Some l -> l
  | None ->
      let label field = Printf.sprintf "%s->%s.%s" src dst field in
      let l =
        {
          l_sent = Stats.Counter.create (label "sent");
          l_dropped = Stats.Counter.create (label "dropped");
          l_duplicated = Stats.Counter.create (label "duplicated");
        }
      in
      Hashtbl.replace t.links (src, dst) l;
      l

(* A send draws from the rng only when a loss plan covers the link, so a
   fault-free run consumes exactly the same random stream as the plain
   [transfer] path — the bench calibration is unaffected by this model
   existing. *)
let send t ~src ~dst ~bytes =
  let stats = link t ~src ~dst in
  Stats.Counter.incr stats.l_sent;
  t.bytes_sent <- t.bytes_sent + bytes;
  if severed t ~src ~dst then begin
    Stats.Counter.incr stats.l_dropped;
    t.messages_dropped <- t.messages_dropped + 1;
    `Dropped
  end
  else
    let dropped, duplicated =
      match Hashtbl.find_opt t.losses (src, dst) with
      | None -> (false, false)
      | Some { drop; dup } ->
          let dropped = drop > 0.0 && Rng.float t.rng 1.0 < drop in
          let duplicated = (not dropped) && dup > 0.0 && Rng.float t.rng 1.0 < dup in
          (dropped, duplicated)
    in
    if dropped then begin
      Stats.Counter.incr stats.l_dropped;
      t.messages_dropped <- t.messages_dropped + 1;
      `Dropped
    end
    else begin
      if duplicated then begin
        (* The duplicate occupies the wire; the receiver's transport layer
           discards it by sequence number, so only bytes and the counter
           observe it. *)
        Stats.Counter.incr stats.l_duplicated;
        t.messages_duplicated <- t.messages_duplicated + 1;
        t.bytes_sent <- t.bytes_sent + bytes
      end;
      Engine.sleep t.engine (delay t ~bytes);
      `Delivered
    end

let link_counts t ~src ~dst =
  match Hashtbl.find_opt t.links (src, dst) with
  | None -> (0, 0, 0)
  | Some l ->
      (Stats.Counter.value l.l_sent, Stats.Counter.value l.l_dropped,
       Stats.Counter.value l.l_duplicated)

let messages_dropped t = t.messages_dropped
let messages_duplicated t = t.messages_duplicated
let bytes_sent t = t.bytes_sent

let reset_counters t =
  t.bytes_sent <- 0;
  t.messages_dropped <- 0;
  t.messages_duplicated <- 0;
  Hashtbl.iter
    (fun _ l ->
      Stats.Counter.reset l.l_sent;
      Stats.Counter.reset l.l_dropped;
      Stats.Counter.reset l.l_duplicated)
    t.links
