(* Property tests for the data-mapping layer: tuple/record codecs, the
   order-preserving key encoding, and record garbage collection (§5.1,
   §5.4). *)

open Tell_core

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) (float_bound_inclusive 1e12);
        map (fun f -> Value.Float (-.f)) (float_bound_inclusive 1e12);
        map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 20));
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let tuple_arb =
  QCheck.make
    ~print:(fun t -> String.concat "," (Array.to_list (Array.map Value.to_string t)))
    QCheck.Gen.(array_size (int_range 0 12) value_gen)

let test_tuple_roundtrip =
  QCheck.Test.make ~name:"tuple encode/decode round trip" ~count:500 tuple_arb (fun tuple ->
      let decoded, _ = Codec.decode_tuple (Codec.encode_tuple tuple) 0 in
      Array.length decoded = Array.length tuple
      && Array.for_all2 Value.equal decoded tuple)

(* Key encoding must be order-preserving for homogeneously typed columns
   (the only case the schema produces): byte-wise comparison of encoded
   keys equals lexicographic Value.compare of the component lists. *)
let typed_value_gen ty =
  QCheck.Gen.(
    match ty with
    | `Int -> map (fun i -> Value.Int i) int
    | `Float ->
        let* sign = bool in
        let* f = float_bound_inclusive 1e12 in
        return (Value.Float (if sign then f else -.f))
    | `Str -> map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 20)))

(* A pair of keys over the same column-type signature. *)
let key_pair_gen =
  QCheck.Gen.(
    let* signature = list_size (int_range 1 4) (oneofl [ `Int; `Float; `Str ]) in
    let* a = flatten_l (List.map typed_value_gen signature) in
    let* b = flatten_l (List.map typed_value_gen signature) in
    return (a, b))

let key_pair_arb =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "(%s) vs (%s)"
        (String.concat "," (List.map Value.to_string a))
        (String.concat "," (List.map Value.to_string b)))
    key_pair_gen

let key_arb =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map Value.to_string l))
    QCheck.Gen.(
      let* signature = list_size (int_range 1 4) (oneofl [ `Int; `Float; `Str ]) in
      flatten_l (List.map typed_value_gen signature))

let rec compare_components a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys -> ( match Value.compare x y with 0 -> compare_components xs ys | c -> c)

let test_key_order =
  QCheck.Test.make ~name:"key encoding is order-preserving (typed columns)" ~count:1000
    key_pair_arb
    (fun (a, b) ->
      let ea = Codec.encode_key a and eb = Codec.encode_key b in
      let c = compare_components a b in
      if c = 0 then String.equal ea eb
      else if c < 0 then String.compare ea eb < 0
      else String.compare ea eb > 0)

let test_key_prefix_successor =
  QCheck.Test.make ~name:"prefix scans: prefix <= extended key < successor" ~count:500
    QCheck.(pair key_arb value_arb)
    (fun (prefix, extra) ->
      let has_nan = List.exists (function Value.Float f -> Float.is_nan f | _ -> false) in
      QCheck.assume (not (has_nan prefix || has_nan [ extra ]));
      let lo = Codec.encode_key prefix in
      let hi = Codec.encode_key_successor prefix in
      let extended = Codec.encode_key (prefix @ [ extra ]) in
      String.compare lo extended <= 0 && String.compare extended hi < 0)

(* --- records ------------------------------------------------------------------- *)

let record_gen =
  QCheck.Gen.(
    let* versions = list_size (int_range 0 8) (int_range 1 40) in
    let versions = List.sort_uniq Int.compare versions in
    let* payloads =
      flatten_l
        (List.map
           (fun v ->
             let* tombstone = bool in
             if tombstone then return (v, Record.Tombstone)
             else
               let* t = array_size (int_range 1 4) value_gen in
               return (v, Record.Tuple t))
           versions)
    in
    return
      (List.fold_left
         (fun acc (v, p) -> Record.add_version acc ~version:v p)
         Record.empty payloads))

let record_arb =
  QCheck.make ~print:(fun r -> String.concat "," (List.map string_of_int (Record.version_numbers r))) record_gen

let test_record_roundtrip =
  QCheck.Test.make ~name:"record encode/decode round trip" ~count:300 record_arb (fun r ->
      Record.version_numbers (Record.decode (Record.encode r)) = Record.version_numbers r)

let test_versions_sorted =
  QCheck.Test.make ~name:"versions kept newest-first" ~count:300 record_arb (fun r ->
      let vs = Record.version_numbers r in
      List.sort (fun a b -> Int.compare b a) vs = vs)

(* GC safety: for any lav, (1) versions above the lav survive, (2) the
   newest version at or below the lav survives (unless the whole record is
   a dead tombstone), (3) any snapshot whose base is >= lav reads the same
   visible version before and after GC. *)
let test_gc_safety =
  QCheck.Test.make ~name:"gc never changes what a live snapshot reads" ~count:500
    QCheck.(pair record_arb (int_range 0 45))
    (fun (r, lav) ->
      let compacted, _removed = Record.gc r ~lav in
      let snapshots = List.init 10 (fun i -> lav + i) in
      List.for_all
        (fun base ->
          let visible v = v <= base in
          let before = Record.latest_visible r ~visible in
          let after = Record.latest_visible compacted ~visible in
          match (before, after) with
          | None, None -> true
          | Some b, Some a -> b.version = a.version
          | Some b, None ->
              (* Permitted only when the surviving version was a tombstone
                 wholly below the lav (the record is logically deleted for
                 everyone). *)
              b.payload = Record.Tombstone && Record.is_empty compacted
          | None, Some _ -> false)
        snapshots)

let test_gc_keeps_newest =
  QCheck.Test.make ~name:"gc keeps at least the newest version of live records" ~count:300
    QCheck.(pair record_arb (int_range 0 45))
    (fun (r, lav) ->
      let compacted, _ = Record.gc r ~lav in
      match Record.newest r with
      | None -> Record.is_empty compacted
      | Some { payload = Record.Tombstone; version } ->
          Record.is_empty compacted || Record.version_numbers compacted = Record.version_numbers r
          || List.mem version (Record.version_numbers compacted)
      | Some { version; _ } -> List.mem version (Record.version_numbers compacted))

let test_remove_version =
  QCheck.Test.make ~name:"remove_version removes exactly that version" ~count:300
    QCheck.(pair record_arb (int_range 1 40))
    (fun (r, v) ->
      let r' = Record.remove_version r ~version:v in
      (not (List.mem v (Record.version_numbers r')))
      && List.for_all
           (fun u -> u = v || List.mem u (Record.version_numbers r'))
           (Record.version_numbers r))

(* Golden bytes: the wire format is part of the simulated system's cost
   model (storage-node charges and network bytes scale with encoded
   length), so an encoder change must leave every byte where it was.  The
   hex strings are the output of the original allocate-per-integer codec. *)
let hex s = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let encoded f =
  let buf = Buffer.create 8 in
  f buf;
  hex (Buffer.contents buf)

let check_hex name expected actual = Alcotest.(check string) name expected actual

let test_golden_ints () =
  List.iter
    (fun (i, expected) -> check_hex (Printf.sprintf "put_int %d" i) expected (encoded (fun b -> Codec.put_int b i)))
    [
      (0, "0000000000000000");
      (1, "0100000000000000");
      (-1, "ffffffffffffffff");
      (max_int, "ffffffffffffff3f");
      (min_int, "00000000000000c0");
    ];
  List.iter
    (fun (i, expected) ->
      check_hex (Printf.sprintf "put_int64 %Ld" i) expected (encoded (fun b -> Codec.put_int64 b i)))
    [
      (0x0123456789abcdefL, "efcdab8967452301");
      (Int64.min_int, "0000000000000080");
      (-2L, "feffffffffffffff");
    ];
  List.iter
    (fun i ->
      let buf = Buffer.create 8 in
      Codec.put_int buf i;
      Alcotest.(check int) "get_int inverts put_int" i (fst (Codec.get_int (Buffer.contents buf) 0)))
    [ 0; 1; -1; max_int; min_int ]

let test_golden_floats () =
  List.iter
    (fun (bits, expected) ->
      check_hex (Printf.sprintf "float bits %Lx" bits) expected
        (encoded (fun b -> Codec.put_value b (Value.Float (Int64.float_of_bits bits)))))
    [
      (0x8000000000000000L, "020000000000000080") (* -0.0 *);
      (0x4000000000000001L, "020100000000000040") (* 2^62 bit set *);
      (0x7ff8000000000123L, "02230100000000f87f") (* NaN with a payload *);
      (0xfff0000000000001L, "02010000000000f0ff") (* negative signalling NaN *);
    ]

let test_golden_keys () =
  List.iter
    (fun (name, components, expected) -> check_hex name expected (hex (Codec.encode_key components)))
    [
      ("int key", [ Value.Int 42; Value.Int (-7) ], "02800000000000002a027ffffffffffffff9");
      ("float key", [ Value.Float (-1.5); Value.Float 2.0 ], "034007ffffffffffff03c000000000000000");
      ("string key with NUL", [ Value.Str "a\x00b" ], "046100ff620000");
      ("null key", [ Value.Null ], "01");
    ]

let test_golden_records () =
  check_hex "tuple"
    "040000000000000001050000000000000003020000000000000061620002000000000000e03f"
    (hex (Codec.encode_tuple [| Value.Int 5; Value.Str "ab"; Value.Null; Value.Float 0.5 |]));
  let r =
    Record.of_versions
      [
        { Record.version = 3; payload = Record.Tombstone };
        { Record.version = 7; payload = Record.Tuple [| Value.Int 1; Value.Str "x"; Value.Float 2.5; Value.Null |] };
      ]
  in
  check_hex "two-version record"
    ("0200000000000000" ^ "0700000000000000" ^ "01" ^ "0400000000000000" ^ "010100000000000000"
   ^ "03010000000000000078" ^ "020000000000000440" ^ "00" ^ "0300000000000000" ^ "00")
    (hex (Record.encode r))

let () =
  Alcotest.run "record_codec"
    [
      ( "codec",
        List.map QCheck_alcotest.to_alcotest
          [ test_tuple_roundtrip; test_key_order; test_key_prefix_successor ] );
      ( "golden",
        [
          Alcotest.test_case "integers" `Quick test_golden_ints;
          Alcotest.test_case "floats" `Quick test_golden_floats;
          Alcotest.test_case "index keys" `Quick test_golden_keys;
          Alcotest.test_case "tuple and record" `Quick test_golden_records;
        ] );
      ( "record",
        List.map QCheck_alcotest.to_alcotest
          [
            test_record_roundtrip;
            test_versions_sorted;
            test_gc_safety;
            test_gc_keeps_newest;
            test_remove_version;
          ] );
    ]
