(* Tell-side bulk loader: maps the engine-agnostic population rows of
   [Population] to rid-keyed version-0 records, bulk-built B+tree indexes,
   schemas, and counters, installed directly in the storage nodes (zero
   virtual time) by one [Cluster.install_cells] call.  Version 0 is below
   every transaction id, hence visible to every snapshot. *)

module Kv = Tell_kv
open Tell_core

type state = {
  rids : (string, int) Hashtbl.t;
  index_entries : (string, (string * int) list ref) Hashtbl.t;
  schemas : (string, Schema.table) Hashtbl.t;
  mutable records_loaded : int;
  (* Every cell, in install order, as parallel arrays (the first
     [n_cells] slots are used). *)
  mutable keys : string array;
  mutable data : string array;
  mutable n_cells : int;
}

let add_cell state key data =
  if state.n_cells = Array.length state.keys then begin
    let grow a =
      let bigger = Array.make (2 * Array.length a) "" in
      Array.blit a 0 bigger 0 state.n_cells;
      bigger
    in
    state.keys <- grow state.keys;
    state.data <- grow state.data
  end;
  state.keys.(state.n_cells) <- key;
  state.data.(state.n_cells) <- data;
  state.n_cells <- state.n_cells + 1

let encode_record tuple =
  Record.encode (Record.of_versions [ { Record.version = 0; payload = Record.Tuple tuple } ])

let add_row state ~table tuple =
  let schema =
    match Hashtbl.find_opt state.schemas table with
    | Some s -> s
    | None -> raise (Schema.Schema_error ("loader: unknown table " ^ table))
  in
  let rid = 1 + Option.value ~default:0 (Hashtbl.find_opt state.rids table) in
  Hashtbl.replace state.rids table rid;
  add_cell state (Keys.record ~table ~rid) (encode_record tuple);
  List.iter
    (fun (idx : Schema.index) ->
      let key = Codec.encode_key (Schema.key_of_tuple ~columns:idx.idx_columns tuple) in
      let bucket =
        match Hashtbl.find_opt state.index_entries idx.idx_name with
        | Some bucket -> bucket
        | None ->
            let bucket = ref [] in
            Hashtbl.replace state.index_entries idx.idx_name bucket;
            bucket
      in
      bucket := (key, rid) :: !bucket)
    (Schema.all_indexes schema);
  state.records_loaded <- state.records_loaded + 1

let finalize state =
  List.iter
    (fun (schema : Schema.table) ->
      add_cell state (Keys.schema ~table:schema.tbl_name) (Schema.encode_table schema);
      add_cell state
        (Keys.rid_counter ~table:schema.tbl_name)
        (Kv.Storage_node.encode_counter
           (Option.value ~default:0 (Hashtbl.find_opt state.rids schema.tbl_name)));
      List.iter
        (fun (idx : Schema.index) ->
          let entries =
            match Hashtbl.find_opt state.index_entries idx.idx_name with
            | Some bucket -> !bucket
            | None -> []
          in
          List.iter
            (fun (key, data) -> add_cell state key data)
            (Btree.bulk_cells ~name:idx.idx_name ~entries))
        (Schema.all_indexes schema))
    Tell_schema.all_tables

(* Every cell of the population, in install order: the records as the
   population emits them, then per table its schema, rid counter and
   index cells.  Also returns the number of records. *)
let cells ~(scale : Spec.scale) ~seed =
  let state =
    {
      rids = Hashtbl.create 16;
      index_entries = Hashtbl.create 16;
      schemas = Hashtbl.create 16;
      records_loaded = 0;
      keys = Array.make 4096 "";
      data = Array.make 4096 "";
      n_cells = 0;
    }
  in
  List.iter
    (fun (schema : Schema.table) -> Hashtbl.replace state.schemas schema.tbl_name schema)
    Tell_schema.all_tables;
  Population.generate ~scale ~seed ~emit:(fun ~table ~key:_ tuple -> add_row state ~table tuple);
  finalize state;
  (Seq.init state.n_cells (fun i -> (state.keys.(i), state.data.(i))), state.records_loaded)

let load cluster ~scale ~seed =
  let cells, records = cells ~scale ~seed in
  Kv.Cluster.install_cells cluster cells;
  records
