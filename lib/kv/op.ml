(* Wire-level operations of the record store.

   Values are opaque byte strings.  Every stored cell carries a {e token}:
   a per-key write counter that implements load-link / store-conditional.
   [Get] returns the current token (the "load-link"); a subsequent
   [Put_if (key, Some token, v)] succeeds only if the cell has not been
   written in between (the "store-conditional").  Because the token counts
   writes rather than comparing values, the ABA problem does not arise. *)

type key = string

type t =
  | Get of key
  | Put of key * string  (** unconditional upsert (transaction-log entries, CM state) *)
  | Put_if of key * int option * string
      (** conditional write: [Some token] = store-conditional against that
          load-link token; [None] = succeed only if the key is absent *)
  | Remove of key * int option  (** conditional delete; [None] = unconditional *)
  | Increment of key * int  (** atomic fetch-and-add on an integer cell, returns new value *)
  | Scan of string  (** all live cells whose key has the given prefix *)
  | Scan_eval of string * string
      (** push-down scan (§5.2 extension): [Scan_eval (prefix, program)]
          runs the node-registered evaluator over every cell under
          [prefix] and returns only the (typically much smaller) outputs
          — selection and projection execute inside the storage layer *)
  | Append of key * string
      (** atomic blind append: concatenate the suffix onto the cell's
          current value (creating the cell from the suffix alone if it is
          absent).  Never conflicts — the Bε-tree index buffers use it to
          enqueue messages without a read-modify-write round trip. *)

type result =
  | Value of (string * int) option  (** reply to [Get]: (value, token) *)
  | Token of int  (** conditional write succeeded; the new token *)
  | Conflict  (** store-conditional failed: the cell changed (or existed) *)
  | Count of int * int
      (** reply to [Increment]: (post-increment value, master token).
          The token rides along for the replication channel — backups
          install the value under the master's token with the same
          monotone guard as [Put_if], so a delayed or reordered
          replicate can never step a counter backwards (a regressed
          counter re-issues allocation ranges after a fail-over) *)
  | Keys of (key * string * int) list  (** reply to [Scan] *)
  | Appended of int * int
      (** reply to [Append]: (post-append length, new token).  Only the
          length travels back and into the replay cache: the cell body
          reaches the backups through the replication stream, which ships
          an append as the master's whole cell (see
          [Storage_node.replica_outcome]). *)
  | Done  (** reply to [Put] / unconditional [Remove] *)
  | Fenced_reply
      (** the write carried an epoch token from before its sender's
          declared-dead epoch; the node refused it (zombie fencing) *)
  | Wrong_master_reply
      (** the node is not (or no longer) the master of the key's
          partition — the client routed on a stale directory, e.g. across
          a live partition migration.  Refresh the directory and retry. *)

exception Unavailable of string
(** The responsible storage node could not be reached (crash + fail-over in
    progress).  Clients retry after refreshing the partition directory. *)

exception Fenced of string
(** The management node declared this client's owner dead and fenced its
    epoch: the storage nodes reject all of its writes.  Not retryable —
    the owner must stop treating itself as a cluster member (a zombie
    coming back from a partition must not complete rolled-back work). *)

exception Capacity_exceeded of int
(** The storage node identified by the payload ran out of memory. *)

exception Wrong_master of string
(** The addressed storage node is not the master of the key's partition:
    the client's cached directory went stale (a migration or fail-over
    re-pointed the partition).  Retryable immediately after a directory
    refresh — no timeout is involved, the node answered. *)

let key_of = function
  | Get k | Put (k, _) | Put_if (k, _, _) | Remove (k, _) | Increment (k, _) | Append (k, _) -> k
  | Scan p | Scan_eval (p, _) -> p

let is_write = function
  | Get _ | Scan _ | Scan_eval _ -> false
  | Put _ | Put_if _ | Remove _ | Increment _ | Append _ -> true

(* Conditional mutations are not idempotent under at-least-once delivery:
   a client retrying after a lost reply would observe its own first
   attempt and report a spurious [Conflict] (or double-apply an
   [Increment]).  These ops carry a client-unique operation id; the
   storage node caches the first result and replays it on a retry. *)
let needs_dedup = function
  | Put_if _ | Increment _ | Remove (_, Some _) | Append _ -> true
  | Get _ | Put _ | Remove (_, None) | Scan _ | Scan_eval _ -> false

(* Approximate wire sizes, for the network model. *)
let per_op_overhead = 24

let request_bytes = function
  | Get k -> String.length k + per_op_overhead
  | Put (k, v) | Put_if (k, _, v) -> String.length k + String.length v + per_op_overhead
  | Remove (k, _) -> String.length k + per_op_overhead
  | Increment (k, _) -> String.length k + 8 + per_op_overhead
  | Scan p -> String.length p + per_op_overhead
  | Scan_eval (p, program) -> String.length p + String.length program + per_op_overhead
  | Append (k, suffix) -> String.length k + String.length suffix + per_op_overhead

let result_bytes = function
  | Value (Some (v, _)) -> String.length v + per_op_overhead
  | Value None | Token _ | Conflict | Count _ | Done | Fenced_reply | Wrong_master_reply ->
      per_op_overhead
  | Appended (_, _) -> 8 + per_op_overhead
  | Keys entries ->
      List.fold_left
        (fun acc (k, v, _) -> acc + String.length k + String.length v + per_op_overhead)
        per_op_overhead entries
