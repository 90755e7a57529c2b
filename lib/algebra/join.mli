(** Joins.

    The paper's approach needs exactly two physical joins — hash
    equi-join and left outer hash join — while the classical-unnesting
    baseline additionally uses semijoin and antijoin, and the
    nested-iteration baseline uses index nested loops.  All variants
    share one entry point that extracts equi-conjuncts as hash keys and
    evaluates the residual conjuncts in 3VL on each candidate pair; with
    no equi-conjunct the join degrades to a nested loop.

    NULL join keys never match (SQL equi-join semantics).  For
    [Left_outer], an unmatched left row is padded with NULLs on the
    right — including the right relation's key columns, which is what
    lets the nested relational operators recognize empty groups. *)

open Nra_relational

type kind =
  | Inner
  | Left_outer
  | Semi   (** left rows with at least one match; left schema only *)
  | Anti   (** left rows with no match (condition never [True]);
               left schema only *)

val join : kind -> on:Expr.pred -> Relation.t -> Relation.t -> Relation.t
(** [on] is over the concatenated frame (left columns then right
    columns), even for [Semi]/[Anti]. *)

(** The serial in-memory hash join normally builds its table on the
    right input and probes it with the left rows.  When the left input
    is strictly smaller and the residual (the non-equi conjuncts)
    cannot raise — trivially true or {!Nra_relational.Batch.vectorizable}
    — it builds on the left instead and streams the right rows through.
    The output, the checkpoint count and {!stats_probes} are the same
    either way.  The grace (spilling) and parallel paths always build
    on the right. *)

val hash_join_serial :
  build:[ `Left | `Right ] -> kind -> on:Expr.pred -> Relation.t ->
  Relation.t -> Relation.t
(** The serial in-memory hash join with the build side forced,
    whatever the sizes and residual; used by tests to pin the two
    builds against each other.
    @raise Invalid_argument if [on] has no equi-conjunct. *)

val nested_loop : kind -> on:Expr.pred -> Relation.t -> Relation.t ->
  Relation.t
(** Reference implementation; used by tests to validate [join] and by
    the baseline executor when no index applies. *)

val stats_probes : int ref
(** Total hash probes since program start — a cheap cost counter used by
    benchmark sanity checks. *)
