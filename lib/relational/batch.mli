(** Columnar batches: typed structure-of-arrays mirrors of relations.

    A batch stores one unboxed array per column ([int array],
    [float array], [string array], bools in [Bytes]) plus a per-column
    null bitmap, so the hot kernels — morsel filter, hash-join build
    and probe, nest partitioning — run column-at-a-time over flat
    memory instead of chasing a [Value.t] pointer and matching a
    variant tag per cell.  Rows remain the engine's carrier: kernels
    use batches to {e decide} (selection vectors, key-hash vectors)
    and then gather the {e original} rows by index, which is what
    makes the columnar path bit-identical to row-at-a-time execution
    at every pool size and frame budget.

    Columns are built lazily.  Forcing happens on the owning domain
    only — {!filter_plan} and {!hash_on} force the columns they need
    at compile time, before any [Pool.parallel_chunks] region starts;
    worker domains only ever see plain arrays.  A column is typed only
    when all its non-null cells share one constructor; mixed columns
    (legal under [Ttype.Float] admitting [Int] values) fall back to a
    boxed representation so that {!of_relation} → {!to_relation} is
    structurally exact for every relation.

    See docs/PERF.md ("Columnar batches") for layout and the
    vectorizable predicate subset, docs/STORAGE.md for the columnar
    spill page format built on {!pack}. *)

(** {1 Toggle}

    [NRA_COLUMNAR] (default on; "0"/"false"/"off"/"no" disable) or
    [--columnar] on the CLI.  Disabling clears the scan cache; every
    kernel then takes its row-at-a-time path. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Null and selection bitmaps} *)

module Bitset : sig
  type t = Bytes.t

  val create : int -> t
  (** All bits clear. *)

  val set : t -> int -> unit
  val get : t -> int -> bool
end

(** {1 Batches} *)

type col =
  | Ints of int array
  | Floats of float array
  | Strings of string array
  | Bools of Bytes.t  (** one byte per cell, ['\001'] = true *)
  | Dates of int array
  | Boxed of Value.t array
      (** mixed-constructor columns: exact but unvectorized *)

type t

val of_relation : Relation.t -> t
(** Wrap a relation; columns build lazily on first access. *)

val to_relation : t -> Relation.t
(** Rebuild rows.  [to_relation (of_relation r)] is structurally
    identical to [r] for every value mix, NULLs included. *)

val length : t -> int
val schema : t -> Schema.t

val column : t -> int -> col * Bitset.t
(** Force and return column [i] with its null bitmap (bit set = NULL).
    Owner-domain only (columns are lazy). *)

(** {1 Scan-time cache}

    Keyed on the physical identity of the relation's rows array —
    sound because relations are immutable (DML builds fresh arrays and
    [Table.alias] shares the existing one).  At most 32 entries, least
    recently used evicted first; a {!find}, {!prime} or memo hit counts
    as a use.  Owner-domain only.

    Each entry also memoizes up to 16 row selections made over it
    ({!select_memo}), keyed on the predicate compared structurally and
    evicted with the entry.  A selection depends only on the rows and
    the predicate, so a block whose predicate does not change between
    statements (Query 1's [l_commitdate < l_receiptdate]) is filtered
    once.

    The entry's rows and each of its selections are the {e shared}
    arrays.  Over each one the entry also keeps up to 8 groupings
    ({!group_memo}) and up to 8 join build tables ({!build_memo}),
    keyed structurally on what they were built by and evicted with the
    array they were built over.  The §4.2.4 push-down grouping, the
    shared value set of an uncorrelated subquery and the serial hash
    join's right build are therefore built once across statements.

    Nothing here is charged: the scan itself is still charged every
    time ([Frame.block_relation]) and no build ticks the guard, so only
    CPU is saved.  [Catalog] drops a table's entry when DML, a
    re-registration or a drop replaces its rows ({!forget}), so a dead
    table version pins nothing; a later use of the old array only
    misses.  See docs/PERF.md ("Statement-invariant scan reuse"). *)

val prime : Relation.t -> unit
(** Build (lazily) and cache a batch for a base relation; called at
    scan time by [Frame.block_relation].  No-op when disabled or
    already cached. *)

val find : Relation.t -> t option
val for_relation : Relation.t -> t
(** Cached batch if primed, otherwise a fresh transient one. *)

val forget : Relation.t -> unit
(** Drop the entry for [rel]'s rows, with everything memoized over
    them.  No-op when they are not cached. *)

val select_memo :
  Expr.pred -> Relation.t -> (unit -> Row.t array) -> Row.t array
(** [select_memo pred rel filter] is the rows of [rel] satisfying
    [pred]: the memoized array (physically shared) when [rel]'s rows
    are cached and [pred] was seen over them, otherwise [filter ()],
    stored when the rows are cached.  [filter] must compute exactly
    that selection. *)

type grouping = Row.t list ref Row.Tbl.t
(** Element rows by key, each list in build order.  Never mutated once
    built: a memoized grouping is read by every later statement. *)

val group_memo :
  Row.t array -> keys:Expr.scalar array -> elems:Expr.scalar array ->
  (unit -> grouping) -> grouping
(** [group_memo rows ~keys ~elems build] is the grouping memoized over
    the shared array [rows] under [(keys, elems)], or [build ()],
    stored when [rows] is shared.  [build] must depend on nothing but
    [rows], [keys] and [elems]. *)

val build_memo :
  Row.t array -> int array -> (unit -> (int, Row.t) Hashtbl.t) ->
  (int, Row.t) Hashtbl.t option
(** [build_memo rows key build] is the hash-join build table over the
    shared array [rows] on key positions [key], built by [build] on
    the first use; [None] (and [build] not called) when [rows] is not
    shared. *)

val memoized : Relation.t -> int
(** Number of selections memoized over [rel]'s rows (0 when they are
    not cached).  Does not count as a use. *)

val derived : Relation.t -> int
(** Number of groupings and build tables memoized over [rel]'s rows
    and over its memoized selections (0 when they are not cached).
    Does not count as a use. *)

val drop_cache : unit -> unit

(** {1 Kernel services} *)

val hash_on : t -> int array -> int array * Bitset.t
(** Per-row key-hash vector over the given column positions: element
    [i] equals [Row.hash_on idxs row_i] exactly (same fold, computed
    column-at-a-time through [Value.hash_int]/[hash_float] on unboxed
    cells), and the bitmap flags rows with a NULL in any key position
    ([Row.has_null_on]).  Forces the key columns; call owner-side. *)

val filter_plan :
  Expr.pred -> Relation.t -> (lo:int -> hi:int -> int array) option
(** Compile a predicate to a vectorized evaluator.  [Some plan] when
    the whole predicate falls in the vectorizable subset — [Lit3],
    [Cmp] over [Col]/[Const], [Is_null]/[Is_not_null], [In_list],
    [Between], closed under [And]/[Or] ({!vectorizable}) — where
    evaluation is total and agrees with [Expr.holds] on every row.
    [plan ~lo ~hi] returns the ascending indices in [\[lo, hi)]
    satisfying the predicate (a selection vector); safe to call from
    worker domains once compiled.
    [None] when disabled, on an empty relation, or when any part of
    the predicate is outside the subset ([Not] does not decompose
    under WHERE semantics; [Like] and arithmetic can raise) — callers
    then fall back to [Expr.holds] rows. *)

val vectorizable : Expr.pred -> bool
(** Is the predicate in the subset {!filter_plan} compiles?  A
    syntactic check: comparisons, null tests, [IN] and [BETWEEN] over
    columns and constants only.  No predicate in the subset can raise
    under [Expr.holds]. *)

(** {1 Columnar spill pages}

    [Bufpool.Spill] packs each flushed page column-wise when the
    columnar core is enabled: unboxed cell storage instead of per-cell
    [Value.t] blocks, reconstructed exactly on re-read. *)

type packed

val pack : Row.t array -> packed option
(** [None] if rows disagree on arity (never the case for spill pages). *)

val packed_length : packed -> int
val packed_iter : packed -> (Row.t -> unit) -> unit
(** Rebuild and visit rows in order; pure, callable from workers. *)
