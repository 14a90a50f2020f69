(** Relational query engine: expressions and pull-based iterators
    ("data is shipped to the query", §2.1/§5).

    Rows are positional value arrays; operators compose into pipelines via
    the iterator (Volcano) model.  Scans fetch records through the
    transaction layer, so every operator observes exactly the
    transaction's snapshot, including its own uncommitted writes. *)

(** {1 Expressions} *)

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
  | Like of expr * string  (** SQL LIKE: [%] = any sequence, [_] = any char *)

val eval : Value.t array -> expr -> Value.t
val eval_bool : Value.t array -> expr -> bool
(** SQL three-valued logic collapsed: NULL comparisons are false. *)

(** {1 Iterators} *)

type iter

val next : iter -> Value.t array option
val to_list : iter -> Value.t array list
val iter_rows : iter -> (Value.t array -> unit) -> unit
val of_list : Value.t array list -> iter

(** {1 Operators} *)

val seq_scan : Txn.t -> table:string -> iter
(** Full-table scan: walks the rid space in store batches, appends the
    transaction's own pending inserts. *)

val index_scan :
  Txn.t -> table:string -> index:string -> lo:string -> hi:string -> iter
(** Range scan over a B+tree.  Because indexes are version-unaware
    (§5.3.2), the visible tuple is re-checked against the entry key, and
    entries whose visible tuple does not carry the key are skipped.  Dead
    entries are retired only by the GC index sweep (§5.4). *)

val filter : expr -> iter -> iter
val project : expr list -> iter -> iter
val nested_loop_join : outer:iter -> inner:(Value.t array -> iter) -> iter
(** Re-opens the inner side per outer row; rows are concatenated. *)

val sort : by:(expr * [ `Asc | `Desc ]) list -> iter -> iter
val limit : int -> iter -> iter
val distinct : iter -> iter

type agg =
  | Count_star
  | Count of expr
  | Sum of expr
  | Min of expr
  | Max of expr
  | Avg of expr

val aggregate : group_by:expr list -> aggs:agg list -> iter -> iter
(** Output rows: group-by values followed by aggregate values.  Without
    grouping, emits exactly one row (SQL semantics on empty input:
    COUNT = 0, other aggregates NULL). *)
