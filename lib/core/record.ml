type payload = Tuple of Value.t array | Tombstone

type version = { version : int; payload : payload }

type t = version list (* newest first *)

let empty = []

let of_versions versions =
  List.sort (fun a b -> Int.compare b.version a.version) versions

let versions t = t
let version_numbers t = List.map (fun v -> v.version) t

let add_version t ~version payload =
  let entry = { version; payload } in
  let rec insert = function
    | [] -> [ entry ]
    | v :: rest when v.version = version -> entry :: rest
    | v :: rest when v.version < version -> entry :: v :: rest
    | v :: rest -> v :: insert rest
  in
  insert t

let latest_visible t ~visible = List.find_opt (fun v -> visible v.version) t

let newest = function [] -> None | v :: _ -> Some v

(* C = versions <= lav (visible to every transaction); everything in C but
   its newest member is unreachable.  A tombstone surviving as the sole
   remaining version makes the record empty. *)
let gc t ~lav =
  let rec split = function
    | [] -> ([], [])
    | v :: rest when v.version <= lav -> ([], v :: rest)
    | v :: rest ->
        let above, c = split rest in
        (v :: above, c)
  in
  let above, c = split t in
  match c with
  | [] -> (t, [])
  | survivor :: dropped ->
      let survivors =
        match (above, survivor.payload) with
        | [], Tombstone ->
            (* Nothing newer and the latest state is "deleted". *)
            []
        | _ -> above @ [ survivor ]
      in
      let removed =
        List.map (fun v -> v.version) dropped
        @ (if survivors = [] then [ survivor.version ] else [])
      in
      (survivors, removed)

let is_empty t = t = []

let remove_version t ~version = List.filter (fun v -> v.version <> version) t

let encode t =
  let buf = Buffer.create 128 in
  Codec.put_int buf (List.length t);
  List.iter
    (fun v ->
      Codec.put_int buf v.version;
      match v.payload with
      | Tombstone -> Buffer.add_char buf '\x00'
      | Tuple tuple ->
          Buffer.add_char buf '\x01';
          Codec.put_tuple buf tuple)
    t;
  Buffer.contents buf

let decode s =
  let n, pos = Codec.get_int s 0 in
  let rec read acc pos remaining =
    if remaining = 0 then List.rev acc
    else begin
      let version, pos = Codec.get_int s pos in
      match s.[pos] with
      | '\x00' -> read ({ version; payload = Tombstone } :: acc) (pos + 1) (remaining - 1)
      | '\x01' ->
          let tuple, pos = Codec.decode_tuple s (pos + 1) in
          read ({ version; payload = Tuple tuple } :: acc) pos (remaining - 1)
      | c -> invalid_arg (Printf.sprintf "Record.decode: bad payload tag %C" c)
    end
  in
  read [] pos n

let approx_bytes t = String.length (encode t)
