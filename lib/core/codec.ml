(* Binary codecs shared by the record store mapping.

   Two families:
   - plain serialisation (length-prefixed, little-endian) for record
     payloads, log entries, and B+tree nodes;
   - order-preserving encoding for index keys, where byte-wise
     lexicographic order must equal {!Value.compare} order. *)

let put_int64 buf v = Buffer.add_int64_le buf v

let get_int64 s pos = (String.get_int64_le s pos, pos + 8)

let put_int buf v = Buffer.add_int64_le buf (Int64.of_int v)

(* Reads the primitive directly: going through [get_int64] would box the
   intermediate [Int64] in its result pair. *)
let get_int s pos = (Int64.to_int (String.get_int64_le s pos), pos + 8)

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let get_string s pos =
  let len, pos = get_int s pos in
  (String.sub s pos len, pos + len)

let put_value buf (v : Value.t) =
  match v with
  | Null -> Buffer.add_char buf '\x00'
  | Int i ->
      Buffer.add_char buf '\x01';
      put_int buf i
  | Float f ->
      (* Raw IEEE-754 bits: converting through a 63-bit OCaml int would
         corrupt the sign of values with the 2^62 bit set. *)
      Buffer.add_char buf '\x02';
      put_int64 buf (Int64.bits_of_float f)
  | Str s ->
      Buffer.add_char buf '\x03';
      put_string buf s

let get_value s pos : Value.t * int =
  match s.[pos] with
  | '\x00' -> (Null, pos + 1)
  | '\x01' ->
      let i, pos = get_int s (pos + 1) in
      (Int i, pos)
  | '\x02' ->
      let bits, pos = get_int64 s (pos + 1) in
      (Float (Int64.float_of_bits bits), pos)
  | '\x03' ->
      let str, pos = get_string s (pos + 1) in
      (Str str, pos)
  | c -> invalid_arg (Printf.sprintf "Codec.get_value: bad tag %C" c)

let put_tuple buf (tuple : Value.t array) =
  put_int buf (Array.length tuple);
  Array.iter (put_value buf) tuple

let encode_tuple tuple =
  let buf = Buffer.create 64 in
  put_tuple buf tuple;
  Buffer.contents buf

let decode_tuple s pos : Value.t array * int =
  let n, pos = get_int s pos in
  let tuple = Array.make n Value.Null in
  let pos = ref pos in
  for i = 0 to n - 1 do
    let v, next = get_value s !pos in
    tuple.(i) <- v;
    pos := next
  done;
  (tuple, !pos)

(* {1 Order-preserving key encoding}

   Byte-wise lexicographic comparison of encoded keys equals
   {!Value.compare} order for components of the same type — the case that
   matters, since index columns are homogeneously typed.  Across types the
   order is NULL < INT < FLOAT < TEXT (by tag), which can differ from
   {!Value.compare}'s numeric Int/Float interleaving; an exact
   order-preserving encoding across the two numeric types at full 63-bit
   precision does not exist in a fixed-width prefix code.

   Integers flip the sign bit and use big-endian bytes; floats use the
   standard IEEE total-order trick (flip all bits for negatives, flip the
   sign for positives); strings escape '\x00' as "\x00\xff" and terminate
   with "\x00\x00" so that prefixes sort first and embedded zero bytes
   stay ordered. *)

let add_be_int64 buf v = Buffer.add_int64_be buf v

let add_key_int buf i =
  add_be_int64 buf (Int64.logxor (Int64.of_int i) Int64.min_int)

let add_key_float buf f =
  let bits = Int64.bits_of_float f in
  let ordered =
    if Int64.compare bits 0L >= 0 then Int64.logxor bits Int64.min_int else Int64.lognot bits
  in
  add_be_int64 buf ordered

let add_key_string buf s =
  String.iter
    (fun c ->
      if c = '\x00' then Buffer.add_string buf "\x00\xff" else Buffer.add_char buf c)
    s;
  Buffer.add_string buf "\x00\x00"

let add_key_value buf (v : Value.t) =
  match v with
  | Null -> Buffer.add_char buf '\x01'
  | Int i ->
      Buffer.add_char buf '\x02';
      add_key_int buf i
  | Float f ->
      Buffer.add_char buf '\x03';
      add_key_float buf f
  | Str s ->
      Buffer.add_char buf '\x04';
      add_key_string buf s

let encode_key (components : Value.t list) =
  let buf = Buffer.create 32 in
  List.iter (add_key_value buf) components;
  Buffer.contents buf

(* Smallest key strictly greater than every key having [components] as a
   prefix — used as an exclusive upper bound for prefix range scans. *)
let encode_key_successor components = encode_key components ^ "\xff"
