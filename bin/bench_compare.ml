(* bench_compare: regression gate over tell_bench --json summaries.

     bench_compare BASELINE.json CURRENT.json
     bench_compare --elastic ELASTIC.json
     bench_compare --cm CM.json

   Fails (exit 1) when the current run's TpmC drops by more than 15%, its
   requests-per-new-order rises by more than 10%, or its abort rate rises
   by more than 0.5 percentage points (the snapshot-sharing budget of the
   begin coalescer) versus the baseline.  The files
   are the flat JSON summaries tell_bench writes; fields are scraped
   textually so the tool has no dependencies beyond the stdlib.

   The --elastic mode gates the storage-elasticity contract instead,
   against the summary examples/elastic_scaling.exe writes: at least one
   completed migration, {e zero} migration-caused aborts (an elastic
   operation must never surface a timeout or fence bounce to a
   transaction — stale routes bounce with Wrong_master and are absorbed
   by a directory refresh), no failed rebalance moves, and both the
   add-SN and drain-SN throughput-recovery windows within 200 ms.

   The --cm mode gates the commit-manager scale-out contract, against
   the summary the fig_cm experiment writes: begin throughput must
   scale by at least 3.0x from 1 to 4 managers, the TPC-C abort rate at
   the multi-manager point must not exceed the single-manager rate by
   more than 1.0 percentage point (merged snapshots are at most one
   gossip interval delayed, which SI pays for only in aborts), and
   every configured manager must have served begins. *)

let tpmc_tolerance_pct = 15.0
let rpno_tolerance_pct = 10.0
let abort_tolerance_pp = 0.5
let cm_abort_tolerance_pp = 1.0
let cm_scaling_bound = 3.0
let recovery_bound_ms = 200.0

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Extract the number following ["field": ] in a flat JSON object. *)
let field contents name =
  let needle = Printf.sprintf "\"%s\":" name in
  let rec find from =
    if from + String.length needle > String.length contents then None
    else if String.sub contents from (String.length needle) = needle then Some from
    else find (from + 1)
  in
  match find 0 with
  | None -> None
  | Some at ->
      let start = at + String.length needle in
      let stop = ref start in
      while
        !stop < String.length contents
        && (match contents.[!stop] with
           | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' | ' ' -> true
           | _ -> false)
      do
        incr stop
      done;
      float_of_string_opt (String.trim (String.sub contents start (!stop - start)))

let require path contents name =
  match field contents name with
  | Some v -> v
  | None ->
      Printf.eprintf "bench_compare: field %S not found in %s\n" name path;
      exit 2

(* The storage-elasticity gate (ELASTIC.json from elastic_scaling.exe). *)
let check_elastic path =
  let contents = read_file path in
  let migrations = require path contents "migrations_done" in
  let aborts = require path contents "migration_aborts" in
  let failed_moves = require path contents "rebalance_failed" in
  let add_window = require path contents "add_recovery_window_ms" in
  let drain_window = require path contents "drain_recovery_window_ms" in
  Printf.printf "migrations done       %10.0f  (required > 0)\n" migrations;
  Printf.printf "migration aborts      %10.0f  (required 0)\n" aborts;
  Printf.printf "rebalance failures    %10.0f  (required 0)\n" failed_moves;
  Printf.printf "add-SN recovery       %8.1f ms  (bound %.0f ms)\n" add_window recovery_bound_ms;
  Printf.printf "drain-SN recovery     %8.1f ms  (bound %.0f ms)\n" drain_window
    recovery_bound_ms;
  let failed = ref false in
  if migrations < 1.0 then begin
    print_endline "FAIL: no partition migration completed";
    failed := true
  end;
  if aborts > 0.0 then begin
    Printf.printf "FAIL: %.0f transactions aborted because of migration (must be 0)\n" aborts;
    failed := true
  end;
  if failed_moves > 0.0 then begin
    Printf.printf "FAIL: %.0f rebalance moves failed (must be 0)\n" failed_moves;
    failed := true
  end;
  if add_window > recovery_bound_ms then begin
    Printf.printf "FAIL: add-SN recovery window %.1f ms exceeds %.0f ms\n" add_window
      recovery_bound_ms;
    failed := true
  end;
  if drain_window > recovery_bound_ms then begin
    Printf.printf "FAIL: drain-SN recovery window %.1f ms exceeds %.0f ms\n" drain_window
      recovery_bound_ms;
    failed := true
  end;
  if !failed then exit 1 else print_endline "bench_compare: elastic contract holds"

(* The commit-manager scale-out gate (CM.json from the fig_cm experiment). *)
let check_cm path =
  let contents = read_file path in
  let tps1 = require path contents "begin_tps_1cm" in
  let tps4 = require path contents "begin_tps_4cm" in
  let scaling = require path contents "begin_scaling_4v1" in
  let abort1 = require path contents "tpcc_abort_1cm_pct" in
  let abortm = require path contents "tpcc_abort_multi_pct" in
  let cms = require path contents "tpcc_multi_cms" in
  let serving = require path contents "tpcc_begin_managers" in
  let abort_rise = abortm -. abort1 in
  Printf.printf "begin throughput      %10.0f -> %10.0f begins/s (1 -> 4 managers)\n" tps1 tps4;
  Printf.printf "begin scaling 4-vs-1  %9.2fx  (required >= %.1fx)\n" scaling cm_scaling_bound;
  Printf.printf "TPC-C abort rate      %9.3f%% -> %9.3f%%  (%+.3f pp, tolerance +%.2f pp)\n"
    abort1 abortm abort_rise cm_abort_tolerance_pp;
  Printf.printf "managers serving      %10.0f  (required %.0f)\n" serving cms;
  let failed = ref false in
  if scaling < cm_scaling_bound then begin
    Printf.printf "FAIL: begin throughput scaled only %.2fx from 1 to 4 managers (< %.1fx)\n"
      scaling cm_scaling_bound;
    failed := true
  end;
  if abort_rise > cm_abort_tolerance_pp then begin
    Printf.printf "FAIL: abort rate rose %.3f pp with merged snapshots (> %.2f pp)\n" abort_rise
      cm_abort_tolerance_pp;
    failed := true
  end;
  if serving < cms then begin
    Printf.printf "FAIL: only %.0f of %.0f managers served begins\n" serving cms;
    failed := true
  end;
  if !failed then exit 1 else print_endline "bench_compare: commit-manager contract holds"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--elastic"; path ] -> check_elastic path
  | [ "--cm"; path ] -> check_cm path
  | [ baseline_path; current_path ] ->
      let baseline = read_file baseline_path in
      let current = read_file current_path in
      let b_tpmc = require baseline_path baseline "tpmc" in
      let c_tpmc = require current_path current "tpmc" in
      let b_rpno = require baseline_path baseline "requests_per_new_order" in
      let c_rpno = require current_path current "requests_per_new_order" in
      let b_abort = require baseline_path baseline "abort_rate_pct" in
      let c_abort = require current_path current "abort_rate_pct" in
      let tpmc_drop_pct = 100.0 *. (b_tpmc -. c_tpmc) /. b_tpmc in
      let rpno_rise_pct = 100.0 *. (c_rpno -. b_rpno) /. b_rpno in
      let abort_rise_pp = c_abort -. b_abort in
      Printf.printf "TpmC                  %10.1f -> %10.1f  (%+.1f%%, tolerance -%.0f%%)\n"
        b_tpmc c_tpmc (-.tpmc_drop_pct) tpmc_tolerance_pct;
      Printf.printf "requests/new-order    %10.2f -> %10.2f  (%+.1f%%, tolerance +%.0f%%)\n"
        b_rpno c_rpno rpno_rise_pct rpno_tolerance_pct;
      Printf.printf "abort rate            %9.3f%% -> %9.3f%%  (%+.3f pp, tolerance +%.2f pp)\n"
        b_abort c_abort abort_rise_pp abort_tolerance_pp;
      let failed = ref false in
      if tpmc_drop_pct > tpmc_tolerance_pct then begin
        Printf.printf "FAIL: TpmC regressed %.1f%% (> %.0f%%)\n" tpmc_drop_pct tpmc_tolerance_pct;
        failed := true
      end;
      if rpno_rise_pct > rpno_tolerance_pct then begin
        Printf.printf "FAIL: requests/new-order regressed %.1f%% (> %.0f%%)\n" rpno_rise_pct
          rpno_tolerance_pct;
        failed := true
      end;
      if abort_rise_pp > abort_tolerance_pp then begin
        Printf.printf "FAIL: abort rate rose %.3f pp (> %.2f pp)\n" abort_rise_pp
          abort_tolerance_pp;
        failed := true
      end;
      if !failed then exit 1 else print_endline "bench_compare: within tolerance"
  | _ ->
      prerr_endline
        "usage: bench_compare BASELINE.json CURRENT.json\n\
        \       bench_compare --elastic ELASTIC.json\n\
        \       bench_compare --cm CM.json";
      exit 2
