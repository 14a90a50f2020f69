(* suite.exe compare A/ B/: per workload, the median of every end-to-end
   metric over the result files in each directory, the change, the bound
   from BENCHMARK.json and a verdict.  A metric whose spread within one
   side — (max - min) / median over that side's runs — exceeds its bound
   cannot be judged: it is "unresolved" unless every B run beats every A
   run.  Compare directories holding the same seeds. *)

(* One metric of BENCHMARK.json's [end_to_end] or [per_layer] list. *)
type spec = { name : string; unit : string; better : string; bound : float }

let specs bench key =
  List.map
    (fun m ->
      let str k = Option.value ~default:"" (Json.to_str (Json.member k m)) in
      {
        name = str "name";
        unit = str "unit";
        better = str "better";
        bound = Option.value ~default:0.0 (Json.to_float (Json.member "bound" m));
      })
    (Json.to_list (Json.member key bench))

let runs dir workload =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f ->
         String.starts_with ~prefix:(workload ^ ".s") f
         && Filename.check_suffix f ".json"
         && not (Filename.check_suffix f ".trace.json"))
  |> List.map (fun f -> Json.read_file (Filename.concat dir f))

let values runs name =
  List.filter_map
    (fun j -> Json.to_float (Json.member "value" (Json.member name (Json.member "metrics" j))))
    runs

(* Quartiles by the "exclusive" method of Python's statistics.quantiles. *)
let quartile a i =
  let n = Array.length a in
  let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
  let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
  ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0

(* Interquartile range over the median from four runs on, full range below. *)
let spread xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  let m = Float.abs (Workload.median_float xs) in
  if n < 2 || m = 0.0 then 0.0
  else if n >= 4 then (quartile a 3 -. quartile a 1) /. m
  else (a.(n - 1) -. a.(0)) /. m

let run ~specs ~a ~b =
  let bad = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      match (runs a w.name, runs b w.name) with
      | [], _ | _, [] -> Printf.printf "%s: no results on both sides, skipped\n" w.name
      | ra, rb ->
          Printf.printf "%s (%d vs %d runs)\n" w.name (List.length ra) (List.length rb);
          Printf.printf "  %-24s %14s %14s %9s %7s  %s\n" "metric" "A" "B" "delta" "bound" "verdict";
          List.iter
            (fun s ->
              let va = values ra s.name and vb = values rb s.name in
              if va = [] || vb = [] then Printf.printf "  %-24s missing\n" s.name
              else begin
                let ma = Workload.median_float va and mb = Workload.median_float vb in
                let delta = if ma = 0.0 then 0.0 else (mb -. ma) /. Float.abs ma in
                let worse = if s.better = "higher" then -.delta else delta in
                let b_wins =
                  if s.better = "higher" then List.fold_left min infinity vb > List.fold_left max neg_infinity va
                  else List.fold_left max neg_infinity vb < List.fold_left min infinity va
                in
                let verdict =
                  if Float.max (spread va) (spread vb) > s.bound then if b_wins then "better" else "unresolved"
                  else if worse > s.bound then "REGRESSION"
                  else if worse < -.s.bound then "better"
                  else "ok"
                in
                if verdict = "REGRESSION" || verdict = "unresolved" then incr bad;
                Printf.printf "  %-24s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n" s.name ma mb (100.0 *. delta)
                  (100.0 *. s.bound) verdict
              end)
            specs)
    Workload.all;
  if !bad = 0 then 0 else 1
