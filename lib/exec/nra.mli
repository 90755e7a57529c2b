(** The nested relational approach — Section 4 of the paper.

    Algorithm 1: unnest top-down by reducing every block to a relation
    (local selections pushed down) and left-outer-hash-joining it under
    its correlated predicates into one wide intermediate relation; then
    compute the linking predicates bottom-up, each as a [nest]
    (υ{_ N1,N2}) followed by a linking selection — σ when failing tuples
    may be discarded (outermost predicate, or all enclosing predicates
    positive), σ̄ (pad the owning block's attributes, including its
    carried primary key, with NULL) otherwise.

    The variants of Section 4.2 — pipelined nest + linking selection
    (§4.2.1–4.2.2), bottom-up reduction for linear correlation (§4.2.3),
    nest push-down (§4.2.4) and positive simplification (§4.2.5) — are
    chosen per linking site, once, by {!Plan.lift}; the driver walks
    that plan's nodes and takes each site's implementation and σ/σ̄
    mode from its node.

    No indexes are required anywhere: hash joins, sorts and hashes only. *)

open Nra_relational
open Nra_storage
open Nra_planner

type options = Plan.options = {
  pipelined : bool;
  nest_impl : [ `Sort | `Hash ];
  bottom_up_linear : bool;
  push_down_nest : bool;
  positive_simplify : bool;
}

val original : options
val optimized : options
val full : options
(** {!Plan.original}, {!Plan.optimized}, {!Plan.full}. *)

type stats = {
  mutable peak_intermediate_rows : int;
      (** largest wide relation materialized *)
  mutable total_intermediate_rows : int;
  mutable nest_select_seconds : float;
      (** time in nest + linking selection — the cost the paper reports
          separately *)
  mutable join_seconds : float;
}

val run_where :
  ?options:options ->
  ?directives:Plan.t ->
  Catalog.t ->
  Analyze.t ->
  Relation.t * stats
(** Outer-frame rows satisfying WHERE, plus cost counters.  Runs
    [Plan.lift ~base:options t], or [directives] (a plan lifted from
    this same [t], e.g. rewritten by [lib/opt]) after
    {!Plan.renormalize}: a site whose [impl] does not fit runs [lift]'s
    choice instead, so the plan never changes the result. *)

val run :
  ?options:options ->
  ?directives:Plan.t ->
  Catalog.t ->
  Analyze.t ->
  Relation.t
(** [run_where] followed by output post-processing. *)

val plan_description :
  ?options:options -> ?directives:Plan.t -> Analyze.t -> string
(** The operator pipeline {!run_where} would run with the same
    arguments (the paper's Figure 3b query tree, linearized), without
    executing anything: the plan's nodes rendered one line per join /
    nest / linking selection, annotated with the σ-vs-σ̄ choice and any
    §4.2 shortcut taken. *)
