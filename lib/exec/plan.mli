(** The NRA plan IR: the paper's §4.2 choice, made once per linking
    site.

    {!lift} walks the planner's block tree and gives every linking site
    one node: which of five implementations runs there and whether its
    linking selection may discard failing tuples (σ) or must NULL-pad
    the owning block (σ̄).  It is the only code that reads the
    {!options} presets' §4.2 switches.  {!Nra.run_where} executes the
    nodes, {!Nra.plan_description} renders them, [Nra_stats.Cost]
    prices them and [lib/opt] rewrites their [impl] fields.

    {!fits} is the one structural applicability test.  [lift] only
    chooses implementations that fit, the rewriter only proposes ones
    that fit, and {!renormalize} — applied by the executor to every plan
    it is handed — puts [lift]'s own choice at any site whose [impl]
    does not fit, so a wrong plan can change speed but never results. *)

open Nra_planner

type options = {
  pipelined : bool;
  nest_impl : [ `Sort | `Hash ];
  bottom_up_linear : bool;
  push_down_nest : bool;
  positive_simplify : bool;
}
(** The paper's variants as presets; only {!lift} reads them (and the
    executor takes [nest_impl] from the plan's [base]). *)

val original : options
(** The paper's "original nested relational approach": sort-based nest
    materialized, separate linking-selection pass. *)

val optimized : options
(** The paper's "optimized" variant: pipelined nest + linking selection
    (one pass over the intermediate result). *)

val full : options
(** Everything in Section 4.2 switched on. *)

type nest = {
  pipelined : bool;
      (** evaluate the linking selection during the group scan instead of
          materializing υ (§4.2.1–4.2.2) *)
  assume_sorted : bool;
      (** fuse with the upstream sort: when the wide input is already
          key-sorted at runtime, skip the re-sort and stream groups off
          the run scan.  Checked against the executor's own sorted-prefix
          tracking, so an over-optimistic flag degrades to the
          materialized path rather than changing results. *)
}

type impl =
  | Shared_set  (** uncorrelated: evaluate once, share the value set *)
  | Push_down  (** §4.2.4 group-by-correlation-key probe *)
  | Semijoin  (** §4.2.5 positive linking → plain semijoin *)
  | Bottom_up of nest  (** §4.2.3 reduce standalone, then join + nest *)
  | Top_down of nest  (** Algorithm 1 general case *)

type node = {
  child : Analyze.child;
  impl : impl;
  sub : node list;  (** one node per child of [child.block], in order *)
  discard_ok : bool;  (** σ when true, σ̄ when false *)
}

type t = { analyzed : Analyze.t; base : options; roots : node list }

val fits : discard_ok:bool -> Analyze.child -> impl -> bool
(** Can [impl] run at this site with this σ/σ̄ mode?  [Top_down] always
    can; nest flags never matter. *)

val lift : ?base:options -> Analyze.t -> t
(** The plan the strategy [base] (default {!optimized}) runs. *)

val fold : ('a -> node -> 'a) -> 'a -> t -> 'a
val nodes : t -> node list
val find : t -> int -> node option

val replace : t -> id:int -> impl:impl -> t
(** Set the [impl] of the node for block [id]; nothing else changes
    (apply {!renormalize} to settle the rest). *)

val renormalize : t -> t
(** Recompute every node's [discard_ok] from its (possibly rewritten)
    ancestors, top-down, replacing each [impl] that does not {!fits}
    with [lift]'s choice for that site.  The identity on lifted plans. *)

val impl_to_string : impl -> string
val describe : t -> string
