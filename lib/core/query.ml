type binop =
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Add | Sub | Mul | Div | Mod

type expr =
  | Col of int
  | Lit of Value.t
  | Binop of binop * expr * expr
  | Not of expr
  | Is_null of expr
  | Like of expr * string

exception Type_error of string

let bool_value b = Value.Int (if b then 1 else 0)

let truthy = function
  | Value.Null -> false
  | Value.Int i -> i <> 0
  | Value.Float f -> f <> 0.0
  | Value.Str s -> s <> ""

let arith op a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> (
      Value.Int
        (match op with
        | Add -> x + y
        | Sub -> x - y
        | Mul -> x * y
        | Div -> if y = 0 then raise (Type_error "division by zero") else x / y
        | Mod -> if y = 0 then raise (Type_error "division by zero") else x mod y
        | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> assert false))
  | a, b ->
      let x = Value.as_float a and y = Value.as_float b in
      Value.Float
        (match op with
        | Add -> x +. y
        | Sub -> x -. y
        | Mul -> x *. y
        | Div -> x /. y
        | Mod -> Float.rem x y
        | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> assert false)

(* SQL LIKE matching: '%' matches any sequence, '_' any single char. *)
let like_match ~pattern text =
  let np = String.length pattern and nt = String.length text in
  let rec go p t =
    if p = np then t = nt
    else begin
      match pattern.[p] with
      | '%' ->
          let rec try_from t' = t' <= nt && (go (p + 1) t' || try_from (t' + 1)) in
          try_from t
      | '_' -> t < nt && go (p + 1) (t + 1)
      | c -> t < nt && text.[t] = c && go (p + 1) (t + 1)
    end
  in
  go 0 0

let rec eval row expr =
  match expr with
  | Col i ->
      if i < 0 || i >= Array.length row then
        raise (Type_error (Printf.sprintf "column %d out of range (row width %d)" i (Array.length row)))
      else row.(i)
  | Lit v -> v
  | Not e -> bool_value (not (truthy (eval row e)))
  | Is_null e -> bool_value (Value.is_null (eval row e))
  | Like (e, pattern) -> (
      match eval row e with
      | Value.Null -> Value.Null
      | v -> bool_value (like_match ~pattern (Value.to_string v)))
  | Binop (op, e1, e2) -> (
      match op with
      | And -> bool_value (truthy (eval row e1) && truthy (eval row e2))
      | Or -> bool_value (truthy (eval row e1) || truthy (eval row e2))
      | Add | Sub | Mul | Div | Mod -> arith op (eval row e1) (eval row e2)
      | Eq | Ne | Lt | Le | Gt | Ge ->
          let a = eval row e1 and b = eval row e2 in
          if Value.is_null a || Value.is_null b then Value.Null
          else begin
            let c = Value.compare a b in
            bool_value
              (match op with
              | Eq -> c = 0
              | Ne -> c <> 0
              | Lt -> c < 0
              | Le -> c <= 0
              | Gt -> c > 0
              | Ge -> c >= 0
              | And | Or | Add | Sub | Mul | Div | Mod -> assert false)
          end)

let eval_bool row expr = truthy (eval row expr)

(* --- iterators ----------------------------------------------------------------- *)

type iter = unit -> Value.t array option

let next it = it ()

let to_list it =
  let rec drain acc = match it () with Some row -> drain (row :: acc) | None -> List.rev acc in
  drain []

let iter_rows it f =
  let rec loop () =
    match it () with
    | Some row ->
        f row;
        loop ()
    | None -> ()
  in
  loop ()

let of_list rows =
  let remaining = ref rows in
  fun () ->
    match !remaining with
    | [] -> None
    | row :: rest ->
        remaining := rest;
        Some row

let scan_batch_size = 128

let seq_scan txn ~table =
  let top = Pn.max_rid (Txn.pn txn) ~table in
  let pending = ref (List.sort (fun (a, _) (b, _) -> Int.compare a b) (Txn.pending_rows txn ~table)) in
  let batch = ref [] in
  let cursor = ref 1 in
  let rec pull () =
    match !batch with
    | (rid, tuple) :: rest ->
        batch := rest;
        (* Pending writes already include updated tuples; skip the rid in
           the pending list so it is not emitted twice. *)
        pending := List.filter (fun (r, _) -> r <> rid) !pending;
        ignore tuple;
        Some tuple
    | [] ->
        if !cursor > top then begin
          match !pending with
          | [] -> None
          | (rid, tuple) :: rest ->
              pending := rest;
              ignore rid;
              Some tuple
        end
        else begin
          let stop = min top (!cursor + scan_batch_size - 1) in
          let rids = List.init (stop - !cursor + 1) (fun i -> !cursor + i) in
          cursor := stop + 1;
          batch := Txn.read_batch txn ~table ~rids;
          pull ()
        end
  in
  pull

let index_scan txn ~table ~index ~lo ~hi =
  let schema = Pn.schema (Txn.pn txn) ~table in
  let idx =
    match List.find_opt (fun (i : Schema.index) -> i.idx_name = index) (Schema.all_indexes schema) with
    | Some i -> i
    | None -> raise (Schema.Schema_error (Printf.sprintf "no index %s on %s" index table))
  in
  let entries = ref (Txn.index_range txn ~index ~lo ~hi) in
  let rec pull () =
    match !entries with
    | [] -> None
    | (entry_key, rid) :: rest -> (
        entries := rest;
        match Txn.read txn ~table ~rid with
        | Some tuple
          when Codec.encode_key (Schema.key_of_tuple ~columns:idx.idx_columns tuple) = entry_key ->
            Some tuple
        | Some _ | None ->
            (* Version-unaware index: the entry may be left over from an
               old version, or belong to a commit whose record write has
               not landed yet (its stripe append can arrive first).  One
               observation cannot tell the two apart, so the scan only
               skips it; the GC index sweep retires dead entries (§5.4). *)
            pull ())
  in
  pull

let filter pred it =
  let rec pull () =
    match it () with
    | None -> None
    | Some row -> if eval_bool row pred then Some row else pull ()
  in
  pull

let project exprs it =
  fun () ->
    match it () with
    | None -> None
    | Some row -> Some (Array.of_list (List.map (eval row) exprs))

let nested_loop_join ~outer ~inner =
  let current_outer = ref None in
  let current_inner = ref (of_list []) in
  let rec pull () =
    match !current_inner () with
    | Some inner_row -> (
        match !current_outer with
        | Some outer_row -> Some (Array.append outer_row inner_row)
        | None -> assert false)
    | None -> (
        match outer () with
        | None -> None
        | Some outer_row ->
            current_outer := Some outer_row;
            current_inner := inner outer_row;
            pull ())
  in
  pull

let sort ~by it =
  let materialized = lazy (
    let rows = to_list it in
    let compare_rows a b =
      let rec go = function
        | [] -> 0
        | (expr, dir) :: rest -> (
            let c = Value.compare (eval a expr) (eval b expr) in
            let c = match dir with `Asc -> c | `Desc -> -c in
            match c with 0 -> go rest | c -> c)
      in
      go by
    in
    ref (List.stable_sort compare_rows rows))
  in
  fun () ->
    let rows = Lazy.force materialized in
    match !rows with
    | [] -> None
    | row :: rest ->
        rows := rest;
        Some row

let limit n it =
  let emitted = ref 0 in
  fun () ->
    if !emitted >= n then None
    else begin
      match it () with
      | None -> None
      | Some row ->
          incr emitted;
          Some row
    end

let distinct it =
  let seen = Hashtbl.create 64 in
  let rec pull () =
    match it () with
    | None -> None
    | Some row ->
        let key = String.concat "\x00" (Array.to_list (Array.map Value.to_string row)) in
        if Hashtbl.mem seen key then pull ()
        else begin
          Hashtbl.replace seen key ();
          Some row
        end
  in
  pull

(* --- aggregation --------------------------------------------------------------- *)

type agg =
  | Count_star
  | Count of expr
  | Sum of expr
  | Min of expr
  | Max of expr
  | Avg of expr

type acc = { mutable count : int; mutable sum : float; mutable sum_is_int : bool; mutable vmin : Value.t; mutable vmax : Value.t }

let fresh_acc () = { count = 0; sum = 0.0; sum_is_int = true; vmin = Value.Null; vmax = Value.Null }

let feed acc (v : Value.t) =
  if not (Value.is_null v) then begin
    acc.count <- acc.count + 1;
    (match v with
    | Value.Int i -> acc.sum <- acc.sum +. float_of_int i
    | Value.Float f ->
        acc.sum <- acc.sum +. f;
        acc.sum_is_int <- false
    | Value.Str _ | Value.Null -> ());
    if Value.is_null acc.vmin || Value.compare v acc.vmin < 0 then acc.vmin <- v;
    if Value.is_null acc.vmax || Value.compare v acc.vmax > 0 then acc.vmax <- v
  end

let finish agg acc =
  match agg with
  | Count_star | Count _ -> Value.Int acc.count
  | Sum _ ->
      if acc.count = 0 then Value.Null
      else if acc.sum_is_int then Value.Int (int_of_float acc.sum)
      else Value.Float acc.sum
  | Min _ -> acc.vmin
  | Max _ -> acc.vmax
  | Avg _ -> if acc.count = 0 then Value.Null else Value.Float (acc.sum /. float_of_int acc.count)

let aggregate ~group_by ~aggs it =
  let groups : (Value.t list, acc array) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  iter_rows it (fun row ->
      let key = List.map (eval row) group_by in
      let accs =
        match Hashtbl.find_opt groups key with
        | Some accs -> accs
        | None ->
            let accs = Array.of_list (List.map (fun _ -> fresh_acc ()) aggs) in
            Hashtbl.replace groups key accs;
            order := key :: !order;
            accs
      in
      List.iteri
        (fun i agg ->
          match agg with
          | Count_star -> accs.(i).count <- accs.(i).count + 1
          | Count e | Sum e | Min e | Max e | Avg e -> feed accs.(i) (eval row e))
        aggs);
  let rows_of key accs =
    Array.of_list (key @ List.mapi (fun i agg -> finish agg accs.(i)) aggs)
  in
  let results =
    match (group_by, Hashtbl.length groups) with
    | [], 0 ->
        (* SQL: aggregates over an empty input produce a single row. *)
        [ rows_of [] (Array.of_list (List.map (fun _ -> fresh_acc ()) aggs)) ]
    | _ -> List.rev_map (fun key -> rows_of key (Hashtbl.find groups key)) !order
  in
  of_list results
