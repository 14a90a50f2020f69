(* Planning and execution of parsed SQL statements against a transaction.

   The planner is deliberately simple but does the load-bearing things
   right: equality-prefix index selection on base tables, left-deep
   nested-loop joins with per-outer-row index lookups when a join
   predicate matches an index prefix, aggregation with grouping, and
   ORDER BY / DISTINCT / LIMIT. *)

open Sql_ast

exception Plan_error of string

type result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int
  | Created

(* --- scopes -------------------------------------------------------------------- *)

type binding = { alias : string; table : Schema.table; offset : int }

let bindings_of_from pn from =
  let offset = ref 0 in
  List.map
    (fun { fi_table; fi_alias } ->
      let table = Pn.schema pn ~table:fi_table in
      let b =
        {
          alias = (match fi_alias with Some a -> a | None -> fi_table);
          table;
          offset = !offset;
        }
      in
      offset := !offset + Array.length table.columns;
      b)
    from

let find_column bindings ~qualifier ~name =
  let matches =
    List.filter_map
      (fun b ->
        match qualifier with
        | Some q when q <> b.alias -> None
        | _ -> (
            match
              Array.find_index
                (fun (c : Schema.column) ->
                  String.lowercase_ascii c.col_name = String.lowercase_ascii name)
                b.table.columns
            with
            | Some i -> Some (b, b.offset + i)
            | None -> None))
      bindings
  in
  match matches with
  | [ (_, pos) ] -> pos
  | [] -> raise (Plan_error (Printf.sprintf "unknown column %s" name))
  | _ :: _ :: _ -> raise (Plan_error (Printf.sprintf "ambiguous column %s" name))

let aggregate_names = [ "count"; "sum"; "min"; "max"; "avg" ]

let rec contains_aggregate = function
  | E_func (name, _) when List.mem name aggregate_names -> true
  | E_func (_, args) -> List.exists contains_aggregate args
  | E_binop (_, a, b) -> contains_aggregate a || contains_aggregate b
  | E_between (e, lo, hi) -> contains_aggregate e || contains_aggregate lo || contains_aggregate hi
  | E_in (e, vs) -> contains_aggregate e || List.exists contains_aggregate vs
  | E_not e | E_is_null (e, _) | E_like (e, _) -> contains_aggregate e
  | E_col _ | E_lit _ | E_star -> false

(* IN and BETWEEN desugar to boolean combinations before planning, so
   every later stage sees only core connectives. *)
let rec desugar = function
  | E_in (e, values) ->
      let e = desugar e in
      List.fold_left
        (fun acc v ->
          let eq = E_binop (Query.Eq, e, desugar v) in
          match acc with None -> Some eq | Some prior -> Some (E_binop (Query.Or, prior, eq)))
        None values
      |> Option.value ~default:(E_lit (Value.Int 0))
  | E_between (e, lo, hi) ->
      let e = desugar e in
      E_binop (Query.And, E_binop (Query.Ge, e, desugar lo), E_binop (Query.Le, e, desugar hi))
  | E_binop (op, a, b) -> E_binop (op, desugar a, desugar b)
  | E_not e -> E_not (desugar e)
  | E_is_null (e, p) -> E_is_null (desugar e, p)
  | E_like (e, pattern) -> E_like (desugar e, pattern)
  | E_func (name, args) -> E_func (name, List.map desugar args)
  | (E_col _ | E_lit _ | E_star) as e -> e

(* Resolve an AST expression into a positional [Query.expr] over rows laid
   out according to [bindings]. *)
let rec resolve bindings = function
  | E_col (qualifier, name) -> Query.Col (find_column bindings ~qualifier ~name)
  | E_lit v -> Query.Lit v
  | E_binop (op, a, b) -> Query.Binop (op, resolve bindings a, resolve bindings b)
  | E_not e -> Query.Not (resolve bindings e)
  | E_is_null (e, positive) ->
      if positive then Query.Is_null (resolve bindings e)
      else Query.Not (Query.Is_null (resolve bindings e))
  | E_like (e, pattern) -> Query.Like (resolve bindings e, pattern)
  | (E_in _ | E_between _) as e -> resolve bindings (desugar e)
  | E_func (name, _) when List.mem name aggregate_names ->
      raise (Plan_error ("aggregate " ^ name ^ " not allowed here"))
  | E_func (name, _) -> raise (Plan_error ("unknown function " ^ name))
  | E_star -> raise (Plan_error "* not allowed here")

(* --- predicate analysis --------------------------------------------------------- *)

let rec conjuncts = function
  | E_binop (Query.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let rec references_only bindings expr =
  match expr with
  | E_col (qualifier, name) -> (
      match find_column bindings ~qualifier ~name with
      | _ -> true
      | exception Plan_error _ -> false)
  | E_lit _ -> true
  | E_binop (_, a, b) -> references_only bindings a && references_only bindings b
  | E_not e | E_is_null (e, _) | E_like (e, _) -> references_only bindings e
  | E_between (e, lo, hi) ->
      references_only bindings e && references_only bindings lo && references_only bindings hi
  | E_in (e, vs) -> references_only bindings e && List.for_all (references_only bindings) vs
  | E_func (_, args) -> List.for_all (references_only bindings) args
  | E_star -> false

(* An equality conjunct [col = probe] where [col] belongs to [binding] and
   [probe] only references [outer_bindings] (literals included). *)
let equality_for ~binding ~outer_bindings conj =
  let local_column e =
    match e with
    | E_col (qualifier, name) -> (
        match qualifier with
        | Some q when q <> binding.alias -> None
        | _ -> (
            match
              Array.find_index
                (fun (c : Schema.column) ->
                  String.lowercase_ascii c.col_name = String.lowercase_ascii name)
                binding.table.columns
            with
            | Some i -> Some i
            | None -> None))
    | _ -> None
  in
  match conj with
  | E_binop (Query.Eq, lhs, rhs) -> (
      match (local_column lhs, local_column rhs) with
      | Some col, None when references_only outer_bindings rhs -> Some (col, rhs)
      | None, Some col when references_only outer_bindings lhs -> Some (col, lhs)
      | _ -> None)
  | _ -> None

(* Pick the index of [binding.table] with the longest fully-bound
   equality prefix.  Returns the index and, per prefix column, the probe
   expression (resolved against the outer scope). *)
let choose_index ~binding ~outer_bindings conjs =
  let equalities = List.filter_map (equality_for ~binding ~outer_bindings) conjs in
  let candidates =
    List.filter_map
      (fun (idx : Schema.index) ->
        let probes =
          List.map
            (fun col ->
              List.find_opt (fun (c, _) -> c = col) equalities)
            idx.idx_columns
        in
        (* Longest all-bound prefix. *)
        let rec prefix acc = function
          | Some (_, probe) :: rest -> prefix (probe :: acc) rest
          | (None :: _ | []) -> List.rev acc
        in
        match prefix [] probes with
        | [] -> None
        | bound -> Some (idx, bound))
      (Schema.all_indexes binding.table)
  in
  List.fold_left
    (fun best candidate ->
      match (best, candidate) with
      | None, c -> Some c
      | Some (_, b), (_, bound) when List.length bound > List.length b -> Some candidate
      | Some _, _ -> best)
    None candidates

(* --- access paths ---------------------------------------------------------------- *)

(* Build the iterator producing rows of [binding.table], given the rows of
   the outer scope (empty array for the leftmost table). *)
let access_path txn ~binding ~outer_bindings conjs : Value.t array -> Query.iter =
  match choose_index ~binding ~outer_bindings conjs with
  | Some (idx, probes) ->
      let resolved = List.map (resolve outer_bindings) probes in
      fun outer_row ->
        let key = List.map (fun e -> Query.eval outer_row e) resolved in
        let lo = Codec.encode_key key in
        let hi =
          if List.length key = List.length idx.idx_columns then lo ^ "\x00"
          else Codec.encode_key_successor key
        in
        Query.index_scan txn ~table:binding.table.tbl_name ~index:idx.idx_name ~lo ~hi
  | None -> fun _outer_row -> Query.seq_scan txn ~table:binding.table.tbl_name

(* Join the FROM list left-deep; push every conjunct down to the first
   point where all its columns are in scope. *)
let plan_from txn bindings conjs =
  match bindings with
  | [] -> raise (Plan_error "empty FROM clause")
  | first :: rest ->
      let applicable scope conj = references_only scope conj in
      let filter_for scope prior conjs =
        List.filter (fun c -> applicable scope c && not (applicable prior c)) conjs
      in
      let apply_filters scope filters it =
        List.fold_left (fun it c -> Query.filter (resolve scope c) it) it filters
      in
      let first_scope = [ first ] in
      let base = access_path txn ~binding:first ~outer_bindings:[] conjs [||] in
      let base = apply_filters first_scope (filter_for first_scope [] conjs) base in
      let _, joined =
        List.fold_left
          (fun (scope, outer) binding ->
            let scope' = scope @ [ binding ] in
            let inner = access_path txn ~binding ~outer_bindings:scope conjs in
            let joined = Query.nested_loop_join ~outer ~inner in
            let joined = apply_filters scope' (filter_for scope' scope conjs) joined in
            (scope', joined))
          (first_scope, base) rest
      in
      joined

(* --- SELECT ------------------------------------------------------------------------ *)

let star_items bindings =
  List.concat_map
    (fun b ->
      Array.to_list
        (Array.mapi
           (fun i (c : Schema.column) -> (E_col (Some b.alias, c.col_name), Some c.col_name, b.offset + i))
           b.table.columns))
    bindings

let item_name i (e, alias) =
  match alias with
  | Some a -> a
  | None -> (
      match e with
      | E_col (_, name) -> name
      | E_func (f, _) -> f
      | _ -> Printf.sprintf "col%d" i)

(* Structural equality of AST expressions, for matching SELECT items with
   GROUP BY / ORDER BY expressions. *)
let rec same_expr a b =
  match (a, b) with
  | E_col (q1, n1), E_col (q2, n2) -> n1 = n2 && (q1 = q2 || q1 = None || q2 = None)
  | E_lit v1, E_lit v2 -> Value.equal v1 v2
  | E_binop (o1, a1, b1), E_binop (o2, a2, b2) -> o1 = o2 && same_expr a1 a2 && same_expr b1 b2
  | E_not e1, E_not e2 -> same_expr e1 e2
  | E_is_null (e1, p1), E_is_null (e2, p2) -> p1 = p2 && same_expr e1 e2
  | E_like (e1, p1), E_like (e2, p2) -> p1 = p2 && same_expr e1 e2
  | E_between (e1, l1, h1), E_between (e2, l2, h2) ->
      same_expr e1 e2 && same_expr l1 l2 && same_expr h1 h2
  | E_in (e1, v1), E_in (e2, v2) ->
      same_expr e1 e2 && List.length v1 = List.length v2 && List.for_all2 same_expr v1 v2
  | E_func (f1, a1), E_func (f2, a2) ->
      f1 = f2 && List.length a1 = List.length a2 && List.for_all2 same_expr a1 a2
  | E_star, E_star -> true
  | _ -> false

let agg_of bindings name args =
  match (name, args) with
  | "count", [ E_star ] -> Query.Count_star
  | "count", [ e ] -> Query.Count (resolve bindings e)
  | "sum", [ e ] -> Query.Sum (resolve bindings e)
  | "min", [ e ] -> Query.Min (resolve bindings e)
  | "max", [ e ] -> Query.Max (resolve bindings e)
  | "avg", [ e ] -> Query.Avg (resolve bindings e)
  | _ -> raise (Plan_error (Printf.sprintf "bad aggregate %s/%d" name (List.length args)))

(* Rewrite a SELECT/ORDER BY expression over the aggregated layout
   [group exprs @ aggregates]: aggregates map to their slot, anything else
   must be (part of) a grouping expression. *)
let rec rewrite_aggregated ~group_by ~aggs bindings e =
  let n_groups = List.length group_by in
  match List.find_index (same_expr e) group_by with
  | Some i -> Query.Col i
  | None -> (
      match e with
      | E_func (name, args) when List.mem name aggregate_names -> (
          let target = agg_of bindings name args in
          match List.find_index (fun a -> a = target) !aggs with
          | Some i -> Query.Col (n_groups + i)
          | None ->
              aggs := !aggs @ [ target ];
              Query.Col (n_groups + List.length !aggs - 1))
      | E_binop (op, a, b) ->
          Query.Binop
            (op, rewrite_aggregated ~group_by ~aggs bindings a, rewrite_aggregated ~group_by ~aggs bindings b)
      | E_not e -> Query.Not (rewrite_aggregated ~group_by ~aggs bindings e)
      | E_lit v -> Query.Lit v
      | E_col _ ->
          raise (Plan_error "column must appear in GROUP BY or inside an aggregate")
      | E_is_null (e, positive) ->
          let r = Query.Is_null (rewrite_aggregated ~group_by ~aggs bindings e) in
          if positive then r else Query.Not r
      | E_like (e, pattern) -> Query.Like (rewrite_aggregated ~group_by ~aggs bindings e, pattern)
      | (E_in _ | E_between _) as e -> rewrite_aggregated ~group_by ~aggs bindings (desugar e)
      | E_star | E_func _ -> raise (Plan_error "unsupported expression over aggregation"))

let run_select txn (q : select) =
  let pn = Txn.pn txn in
  Pn.charge pn (Pn.cost pn).cpu_per_statement_ns;
  let bindings = bindings_of_from pn q.from in
  let conjs = match q.where with None -> [] | Some w -> conjuncts (desugar w) in
  let source = plan_from txn bindings conjs in
  let items =
    if q.sel_star then List.map (fun (e, alias, _) -> (e, alias)) (star_items bindings)
    else q.sel_exprs
  in
  let columns = List.mapi item_name items in
  let aggregated =
    q.group_by <> [] || List.exists (fun (e, _) -> contains_aggregate e) items
  in
  let projected =
    if aggregated then begin
      let aggs = ref [] in
      let projections =
        List.map (fun (e, _) -> rewrite_aggregated ~group_by:q.group_by ~aggs bindings e) items
      in
      let order =
        List.map
          (fun (e, dir) ->
            ( rewrite_aggregated ~group_by:q.group_by ~aggs bindings e,
              match dir with Asc -> `Asc | Desc -> `Desc ))
          q.order_by
      in
      let having =
        Option.map (fun h -> rewrite_aggregated ~group_by:q.group_by ~aggs bindings h) q.having
      in
      let grouped =
        Query.aggregate ~group_by:(List.map (resolve bindings) q.group_by) ~aggs:!aggs source
      in
      let filtered = match having with None -> grouped | Some h -> Query.filter h grouped in
      let sorted = match order with [] -> filtered | _ :: _ -> Query.sort ~by:order filtered in
      Query.project projections sorted
    end
    else begin
      let source =
        match q.having with
        | None -> source
        | Some h -> Query.filter (resolve bindings h) source
      in
      let order =
        List.map
          (fun (e, dir) -> (resolve bindings e, (match dir with Asc -> `Asc | Desc -> `Desc)))
          q.order_by
      in
      let sorted = match order with [] -> source | _ :: _ -> Query.sort ~by:order source in
      Query.project (List.map (fun (e, _) -> resolve bindings e) items) sorted
    end
  in
  let deduped = if q.sel_distinct then Query.distinct projected else projected in
  let final = match q.limit with Some n -> Query.limit n deduped | None -> deduped in
  Rows { columns; rows = Query.to_list final }

(* --- UPDATE / DELETE --------------------------------------------------------------- *)

(* Candidate (rid, tuple) pairs of [table] matching the conjuncts, found
   through an index when one applies. *)
let matching_rids txn ~binding conjs =
  let table = binding.table.tbl_name in
  let residual_ok tuple =
    List.for_all (fun c -> Query.eval_bool tuple (resolve [ binding ] c)) conjs
  in
  let candidates =
    match choose_index ~binding ~outer_bindings:[] conjs with
    | Some (idx, probes) ->
        let key = List.map (fun p -> Query.eval [||] (resolve [] p)) probes in
        let lo = Codec.encode_key key in
        let hi =
          if List.length key = List.length idx.idx_columns then lo ^ "\x00"
          else Codec.encode_key_successor key
        in
        List.filter_map
          (fun (_, rid) -> Option.map (fun tuple -> (rid, tuple)) (Txn.read txn ~table ~rid))
          (Txn.index_range txn ~index:idx.idx_name ~lo ~hi)
    | None ->
        let top = Pn.max_rid (Txn.pn txn) ~table in
        let rec batches acc cursor =
          if cursor > top then acc
          else begin
            let stop = min top (cursor + 255) in
            let rids = List.init (stop - cursor + 1) (fun i -> cursor + i) in
            batches (acc @ Txn.read_batch txn ~table ~rids) (stop + 1)
          end
        in
        let scanned = batches [] 1 in
        let scanned_rids = List.map fst scanned in
        scanned
        @ List.filter (fun (rid, _) -> not (List.mem rid scanned_rids)) (Txn.pending_rows txn ~table)
  in
  List.sort_uniq compare (List.filter (fun (_, tuple) -> residual_ok tuple) candidates)

let run_update txn ~table ~sets ~where =
  let pn = Txn.pn txn in
  Pn.charge pn (Pn.cost pn).cpu_per_statement_ns;
  let binding =
    match bindings_of_from pn [ { fi_table = table; fi_alias = None } ] with
    | [ b ] -> b
    | _ -> assert false
  in
  let conjs = match where with None -> [] | Some w -> conjuncts (desugar w) in
  let assignments =
    List.map (fun (col, e) -> (Schema.column_index binding.table col, resolve [ binding ] e)) sets
  in
  let victims = matching_rids txn ~binding conjs in
  List.iter
    (fun (rid, tuple) ->
      let updated = Array.copy tuple in
      List.iter (fun (col, e) -> updated.(col) <- Query.eval tuple e) assignments;
      Txn.update txn ~table ~rid updated)
    victims;
  Affected (List.length victims)

let run_delete txn ~table ~where =
  let pn = Txn.pn txn in
  Pn.charge pn (Pn.cost pn).cpu_per_statement_ns;
  let binding =
    match bindings_of_from pn [ { fi_table = table; fi_alias = None } ] with
    | [ b ] -> b
    | _ -> assert false
  in
  let conjs = match where with None -> [] | Some w -> conjuncts (desugar w) in
  let victims = matching_rids txn ~binding conjs in
  List.iter (fun (rid, _) -> Txn.delete txn ~table ~rid) victims;
  Affected (List.length victims)

let run_insert txn ~table ~columns ~values =
  let pn = Txn.pn txn in
  Pn.charge pn (Pn.cost pn).cpu_per_statement_ns;
  let schema = Pn.schema pn ~table in
  let width = Array.length schema.columns in
  let positions =
    match columns with
    | None -> List.init width (fun i -> i)
    | Some names -> List.map (Schema.column_index schema) names
  in
  List.iter
    (fun row_exprs ->
      if List.length row_exprs <> List.length positions then
        raise (Plan_error "INSERT arity mismatch");
      let tuple = Array.make width Value.Null in
      List.iter2 (fun pos e -> tuple.(pos) <- Query.eval [||] (resolve [] e)) positions row_exprs;
      ignore (Txn.insert txn ~table tuple))
    values;
  Affected (List.length values)

(* --- DDL ---------------------------------------------------------------------------- *)

let run_create_table pn ~table ~cols ~primary_key =
  let schema =
    Schema.make_table ~name:table
      ~columns:(List.map (fun (name, ty) -> { Schema.col_name = name; col_type = ty }) cols)
      ~primary_key ~secondary:[]
  in
  Tell_kv.Client.put (Pn.kv pn) (Keys.schema ~table) (Schema.encode_table schema);
  List.iter
    (fun (idx : Schema.index) -> Btree.create (Pn.kv pn) ~name:idx.idx_name)
    (Schema.all_indexes schema);
  Pn.forget_schema pn ~table;
  Created

(* Backfill: conservatively index the key of every stored version
   (indexes are version-unaware, so over-approximation is correct), one
   batched insert per 128-rid chunk. *)
let backfill_index pn ~table ~(index : Schema.index) =
  let tree = Btree.attach (Pn.kv pn) ~name:index.idx_name in
  let top = Pn.max_rid pn ~table in
  let rec sweep cursor =
    if cursor <= top then begin
      let stop = min top (cursor + 127) in
      let keys = List.init (stop - cursor + 1) (fun i -> Keys.record ~table ~rid:(cursor + i)) in
      let replies = Tell_kv.Client.multi_get (Pn.kv pn) keys in
      let entries =
        List.concat
          (List.mapi
             (fun i reply ->
               match reply with
               | None -> []
               | Some (data, _) ->
                   List.filter_map
                     (fun (v : Record.version) ->
                       match v.payload with
                       | Record.Tombstone -> None
                       | Record.Tuple tuple ->
                           Some
                             ( Codec.encode_key
                                 (Schema.key_of_tuple ~columns:index.idx_columns tuple),
                               cursor + i ))
                     (Record.versions (Record.decode data)))
             replies)
      in
      Btree.insert_many tree ~entries;
      sweep (stop + 1)
    end
  in
  sweep 1

let run_create_index pn ~index ~table ~columns ~unique =
  let schema = Pn.schema pn ~table in
  if List.exists (fun (i : Schema.index) -> i.idx_name = index) (Schema.all_indexes schema) then
    raise (Plan_error (Printf.sprintf "index %s already exists" index));
  let idx =
    {
      Schema.idx_name = index;
      idx_columns = List.map (Schema.column_index schema) columns;
      idx_unique = unique;
    }
  in
  let schema' = { schema with secondary = schema.secondary @ [ idx ] } in
  Btree.create (Pn.kv pn) ~name:index;
  backfill_index pn ~table ~index:idx;
  Tell_kv.Client.put (Pn.kv pn) (Keys.schema ~table) (Schema.encode_table schema');
  Pn.forget_schema pn ~table;
  Created

(* --- entry point --------------------------------------------------------------------- *)

let execute txn statement =
  match statement with
  | Select q -> run_select txn q
  | Insert { table; columns; values } -> run_insert txn ~table ~columns ~values
  | Update { table; sets; where } -> run_update txn ~table ~sets ~where
  | Delete { table; where } -> run_delete txn ~table ~where
  | Create_table { table; cols; primary_key } ->
      run_create_table (Txn.pn txn) ~table ~cols ~primary_key
  | Create_index { index; table; columns; unique } ->
      run_create_index (Txn.pn txn) ~index ~table ~columns ~unique

let execute_string txn sql = execute txn (Sql_parser.parse sql)
