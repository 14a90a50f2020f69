(* The repository benchmark.

     suite.exe run --workload tpcc-write-rf3 --seed 42 --seconds 12 --trace 0
     suite.exe run --all --seed 42 --out runs/a            (one child process each)
     suite.exe run --all --seed 42 --out runs/a --trace 1  (per-layer numbers)
     suite.exe compare runs/a runs/b
     suite.exe smoke                                        (the dune runtest check)

   [run] prints every metric as "workload metric value unit" and, as its
   last line, one JSON object {correct, attempted, failed, metrics} holding
   the end-to-end metrics BENCHMARK.json names (with --trace 1: its
   per-layer metrics).  It exits non-zero when a correctness check fails. *)

open Cmdliner

let exe = Sys.executable_name

let specs bench key = Compare.specs (Json.read_file bench) key

(* Virtual-time end-to-end metrics: a pure function of the seed, so the
   traced run must reproduce them bit for bit. *)
let virtual_metrics = [ "tpmc"; "tps"; "txn_p50_us"; "txn_p99_us"; "commit_pct"; "store_requests_per_txn" ]

(* --- child processes -------------------------------------------------------- *)

(* Run this executable with [args], one at a time, and return its stdout
   lines; stderr passes through. *)
let child args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  (List.filter (fun l -> l <> "") (String.split_on_char '\n' out), status = Unix.WEXITED 0)

let last = function [] -> "" | l -> List.nth l (List.length l - 1)

let metrics_of_json j =
  match Json.member "metrics" j with
  | Json.Obj kvs ->
      List.filter_map
        (fun (name, v) ->
          match (Json.to_float (Json.member "value" v), Json.to_str (Json.member "unit" v)) with
          | Some value, Some unit -> Some { Workload.name; value; unit }
          | _ -> None)
        kvs
  | _ -> []

(* --- one workload ------------------------------------------------------------- *)

type outcome = {
  correct : bool;
  result : Workload.result;
  reported : Workload.metric list;  (** the subset BENCHMARK.json names for this mode *)
}

let sizing_of w ~seconds ~smoke = if smoke then Workload.smoke else Workload.full w ~seconds

let measure (w : Workload.t) ~seed ~seconds ~trace ~setup_runs ~smoke ~bench =
  let common = [ "--seed"; string_of_int seed; "--seconds"; string_of_int seconds ] @ if smoke then [ "--smoke" ] else [] in
  let sizing = sizing_of w ~seconds ~smoke in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* The untraced twin of a traced run, for the equality check and the
     tracing overhead. *)
  let reference =
    if not trace then None
    else
      let lines, ok =
        child
          ([ "run"; "--workload"; w.name; "--trace"; "0"; "--setup-runs"; "1"; "--benchmark"; bench ]
          @ common)
      in
      match Json.of_string (last lines) with
      | j ->
          if not ok then problem "untraced reference run failed";
          Some (metrics_of_json j)
      | exception Json.Parse_error e ->
          problem "untraced reference run printed no result (%s)" e;
          None
  in
  (* Set-up time is the median of [setup_runs] set-ups, each in a fresh
     process like the measured one.  The traced run does not report it. *)
  let other_setups =
    List.init (if trace then 0 else max 0 (setup_runs - 1)) (fun _ ->
        let lines, ok =
          child [ "setup"; "--seed"; string_of_int seed; "--warehouses"; string_of_int sizing.warehouses ]
        in
        match float_of_string_opt (last lines) with
        | Some s when ok -> s
        | _ ->
            problem "set-up child failed";
            0.0)
  in
  let result = Workload.run ~trace ~other_setups w ~sizing ~seed in
  let find name ms = List.find_opt (fun (m : Workload.metric) -> m.name = name) ms in
  let overhead =
    match (reference, find "sim_us_per_txn" result.metrics) with
    | Some untraced, Some traced -> (
        List.iter
          (fun name ->
            match (find name untraced, find name result.metrics) with
            | Some a, Some b when a.value = b.value -> ()
            | a, b ->
                let show = function Some (m : Workload.metric) -> Json.number m.value | None -> "-" in
                problem "traced run changed %s: %s untraced, %s traced" name (show a) (show b))
          virtual_metrics;
        match find "sim_us_per_txn" untraced with
        | Some plain when plain.value > 0.0 ->
            let value = 100.0 *. ((traced.value /. plain.value) -. 1.0) in
            [ { Workload.name = "trace_overhead_pct"; unit = "%"; value } ]
        | _ -> [])
    | _ -> []
  in
  let metrics =
    if not trace then result.metrics
    else begin
      (* The deployment is garbage by now; release it so the probes do not
         time the collector walking a 1.4 GB heap. *)
      Gc.compact ();
      result.metrics @ Probes.run ~scale:(if smoke then 1 else 5) @ overhead
    end
  in
  List.iter (fun v -> problem "%s" v) result.violations;
  if result.failed > 0 then problem "%d transactions failed" result.failed;
  let wanted = specs bench (if trace then "per_layer" else "end_to_end") in
  let reported =
    List.filter_map
      (fun (s : Compare.spec) ->
        match List.find_opt (fun (m : Workload.metric) -> m.name = s.name) metrics with
        | Some m when Float.is_finite m.value && m.unit = s.unit -> Some m
        | Some m ->
            problem "metric %s = %s %s (BENCHMARK.json: unit %s)" s.name (Json.number m.value) m.unit s.unit;
            None
        | None ->
            problem "metric %s missing" s.name;
            None)
      wanted
  in
  List.iter (fun p -> Printf.eprintf "%s: %s\n%!" w.name p) (List.rev !problems);
  { correct = !problems = []; result = { result with metrics }; reported }

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (m : Workload.metric) -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]))
       ms)

let outcome_name = function
  | Workload.Committed -> "committed"
  | Aborted -> "aborted"
  | User_abort -> "user_abort"
  | Failed -> "failed"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_outputs o ~dir ~seconds ~trace =
  mkdir_p dir;
  let r = o.result in
  let base = Filename.concat dir (Printf.sprintf "%s.s%d" r.workload r.seed) in
  let doc =
    Json.Obj
      [
        ("workload", Json.Str r.workload);
        ("seed", Json.Num (float_of_int r.seed));
        ("seconds", Json.Num (float_of_int seconds));
        ("trace", Json.Bool trace);
        ("correct", Json.Bool o.correct);
        ("attempted", Json.Num (float_of_int r.attempted));
        ("failed", Json.Num (float_of_int r.failed));
        ("metrics", metrics_json r.metrics);
      ]
  in
  Out_channel.with_open_bin
    (base ^ if trace then ".trace.json" else ".json")
    (fun oc -> output_string oc (Json.to_string doc ^ "\n"));
  if trace then
    Out_channel.with_open_bin (base ^ ".trace.jsonl") (fun oc ->
        List.iter
          (fun (s : Workload.span) ->
            output_string oc
              (Json.to_string
                 (Json.Obj
                    [
                      ("id", Json.Num (float_of_int s.id));
                      ("type", Json.Str Workload.kinds.(s.kind));
                      ("start_ns", Json.Num (float_of_int s.start));
                      ("end_ns", Json.Num (float_of_int s.finish));
                      ("outcome", Json.Str (outcome_name s.outcome));
                      ("errors", Json.Num (float_of_int s.errors));
                    ]));
            output_char oc '\n')
          (List.rev r.spans))

let run_one w ~seed ~seconds ~trace ~setup_runs ~smoke ~bench ~out =
  let o = measure w ~seed ~seconds ~trace ~setup_runs ~smoke ~bench in
  List.iter
    (fun (m : Workload.metric) -> Printf.printf "%s %s %s %s\n" w.name m.name (Json.number m.value) m.unit)
    o.result.metrics;
  Option.iter (fun dir -> write_outputs o ~dir ~seconds ~trace) out;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool o.correct);
            ("attempted", Json.Num (float_of_int o.result.attempted));
            ("failed", Json.Num (float_of_int o.result.failed));
            ("metrics", metrics_json o.reported);
          ]));
  if o.correct then 0 else 1

(* --- commands ------------------------------------------------------------------ *)

let bench_arg =
  Arg.(
    value & opt string "BENCHMARK.json"
    & info [ "benchmark" ] ~docv:"FILE" ~doc:"The benchmark definition (metric names, units, bounds).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed (cluster S, loader S+1, driver S+2).")

let run_cmd =
  let go workload all seed seconds trace out setup_runs smoke bench =
    let trace = trace <> 0 in
    match (workload, all) with
    | Some name, false -> (
        match Workload.find name with
        | Some w -> run_one w ~seed ~seconds ~trace ~setup_runs ~smoke ~bench ~out
        | None ->
            Printf.eprintf "unknown workload %s (one of: %s)\n" name
              (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
            2)
    | None, true ->
        (* One fresh process per workload, never two at once: the
           simulator is single-threaded and a workload holds ~1.5 GB. *)
        List.fold_left
          (fun code (w : Workload.t) ->
            let lines, ok =
              child
                ([
                   "run"; "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
                   string_of_int seconds; "--trace"; (if trace then "1" else "0"); "--setup-runs";
                   string_of_int setup_runs; "--benchmark"; bench;
                 ]
                @ (match out with Some d -> [ "--out"; d ] | None -> [])
                @ if smoke then [ "--smoke" ] else [])
            in
            List.iter print_endline (List.filter (fun l -> l.[0] <> '{') lines);
            flush stdout;
            if ok then code else 1)
          0 Workload.all
    | _ ->
        prerr_endline "run: give exactly one of --workload NAME or --all";
        2
  in
  let workload = Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.") in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Run every workload, each in its own child process.") in
  let seconds =
    Arg.(value & opt int 12 & info [ "seconds" ] ~doc:"Host seconds to measure; sets the virtual window.")
  in
  let trace =
    Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1" ~doc:"1: the traced run that reports per-layer metrics.")
  in
  let out = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc:"Write result JSON (and trace) files here.") in
  let setup_runs = Arg.(value & opt int 3 & info [ "setup-runs" ] ~doc:"Set-ups timed for the setup_s median.") in
  let smoke = Arg.(value & flag & info [ "smoke" ] ~doc:"2 warehouses, 20 ms window: the test-suite size.") in
  Cmd.v (Cmd.info "run" ~doc:"Measure workloads")
    Term.(const go $ workload $ all $ seed_arg $ seconds $ trace $ out $ setup_runs $ smoke $ bench_arg)

let setup_cmd =
  let go seed warehouses =
    let d = Workload.setup ~seed ~warehouses in
    print_endline (Json.number (Workload.setup_s d));
    0
  in
  let warehouses = Arg.(value & opt int 32 & info [ "warehouses" ] ~doc:"TPC-C warehouses.") in
  Cmd.v (Cmd.info "setup" ~doc:"Time one deployment set-up (used by run for the setup_s median)")
    Term.(const go $ seed_arg $ warehouses)

let compare_cmd =
  let go a b bench = Compare.run ~specs:(specs bench "end_to_end") ~a ~b in
  let dir n = Arg.(required & pos n (some dir) None & info [] ~docv:(if n = 0 then "A" else "B")) in
  Cmd.v (Cmd.info "compare" ~doc:"Compare two result directories against the bounds")
    Term.(const go $ dir 0 $ dir 1 $ bench_arg)

let smoke_cmd =
  let go bench =
    let ok =
      List.for_all
        (fun (w : Workload.t) ->
          let o = measure w ~seed:1 ~seconds:1 ~trace:true ~setup_runs:1 ~smoke:true ~bench in
          Printf.printf "%-24s %s (%d per-layer metrics, %d transactions)\n%!" w.name
            (if o.correct then "ok" else "FAILED")
            (List.length o.reported) o.result.attempted;
          o.correct)
        Workload.all
    in
    if ok then 0 else 1
  in
  Cmd.v (Cmd.info "smoke" ~doc:"Every workload at test size, traced against untraced")
    Term.(const go $ bench_arg)

let () =
  let info = Cmd.info "suite" ~doc:"Benchmark of the Tell shared-data database reproduction" in
  exit (Cmd.eval' (Cmd.group info [ run_cmd; setup_cmd; compare_cmd; smoke_cmd ]))
