(** Cost-gated rewrite engine over the {!Nra_exec.Plan} IR.

    Each enabled rule proposes [impl] edits node by node; an edit is
    applied only when the whole-plan Iosim estimate strictly improves.
    The engine iterates to a bounded fixpoint and returns the rewritten
    plan, which the executor runs as is, and the fired / skipped trace
    for [explain --costs]. *)

open Nra_storage
open Nra_planner
module Plan := Nra_exec.Plan

type costline = { seq : float; rand : float; fetch : float; ms : float }

val cost_of : Catalog.t -> Plan.t -> costline
(** The IR-level Iosim estimate: {!Nra_stats.Cost}'s NRA walk extended
    with nest materialize / sort / pipeline charges, so two plans that
    differ only in a nest flag still cost differently. *)

val propose : Config.rule -> Plan.node -> Plan.impl option
(** The rule's edit at this node, when {!Nra_exec.Plan.fits} accepts it
    (before any costing). *)

type verdict = Fired | Skipped of string

type trace_entry = {
  rule : Config.rule;
  block_id : int;
  site : string;
  cost_before : costline;
  cost_after : costline;
  verdict : verdict;
}

type result = {
  dirs : Plan.t;
      (** the rewritten plan, settled by {!Nra_exec.Plan.renormalize};
          pass it as [Nra_exec.Nra.run_where ~directives] *)
  changed : bool;
  trace : trace_entry list;
  before : costline;
  after : costline;
}

val rewrite :
  ?rules:Config.rule list ->
  Catalog.t ->
  Analyze.t ->
  base:Plan.options ->
  result
(** Rules default to {!Config.rules} (the global toggle state). *)

val trace_lines : result -> string list
