(* The rewrite engine: rules propose [impl] edits on the plan IR, and an
   edit is applied only when the whole-plan Iosim estimate strictly
   improves.

   The cost walk below is [Nra_stats.Cost.nra_cost] extended to price
   what a rewrite can change: a materialized nest pays a
   materialize-and-rescan pass over its staging, a sort-based nest pays
   a sort pass unless the input is already key-sorted, and a pipelined
   nest pays only the sort (when needed).  Sortedness is tracked as a
   conservative boolean — "the relation is fully key-sorted for the
   current frame" — mirroring the executor's sorted-prefix tracking;
   where the static analysis cannot be sure (e.g. below a top-down
   recursion) it assumes unsorted, which can only under-fire the fusion
   rule, never mis-fire it. *)

open Nra_storage
open Nra_planner
module A = Analyze
module C = Nra_stats.Cardinality
module Plan = Nra_exec.Plan

type costline = { seq : float; rand : float; fetch : float; ms : float }

let pages rows =
  let rpp = float_of_int (max 1 (Iosim.config ()).Iosim.rows_per_page) in
  Float.max 1.0 (Float.ceil (rows /. rpp))

let block_scan_pages (b : A.block) =
  List.fold_left
    (fun acc (bd : A.binding) ->
      acc +. pages (float_of_int (Table.cardinality bd.A.table)))
    0.0 b.A.bindings

type acc = { mutable seq : float; mutable rand : float; mutable fetch : float }

let price seq rand fetch =
  let c = Iosim.config () in
  (seq *. c.Iosim.t_seq_ms)
  +. (rand *. c.Iosim.t_rand_ms)
  +. (fetch *. c.Iosim.t_fetch_ms)

(* Charge one nest+linking-selection over [rows] staged tuples; return
   whether its output is key-sorted (the executor's [emitted_sorted]).
   [sorted] is the staging input's static sortedness. *)
let charge_nest (base : Plan.options) (nf : Plan.nest) ~sorted ~rows acc =
  let p2 = 2.0 *. pages rows in
  let pipelined = nf.Plan.pipelined || (nf.Plan.assume_sorted && sorted) in
  if pipelined then begin
    (* single pass; one re-sort when the input is not already sorted *)
    if not sorted then acc.seq <- acc.seq +. p2;
    true
  end
  else begin
    (* materialize the nested relation, then a separate selection pass *)
    acc.seq <- acc.seq +. p2;
    match base.Plan.nest_impl with
    | `Sort ->
        acc.seq <- acc.seq +. p2;
        true
    | `Hash -> false
  end

let cost_of cat (p : Plan.t) =
  let env = C.make_env cat p.Plan.analyzed in
  let acc = { seq = 0.0; rand = 0.0; fetch = 0.0 } in
  let root = p.Plan.analyzed.A.root in
  acc.seq <- acc.seq +. block_scan_pages root;
  let loj_out ~outer b = outer *. Float.max 1.0 (C.fanout env b) in
  (* returns the static sortedness of the frame after this site *)
  let rec go ~outer ~sorted (n : Plan.node) =
    let b = n.Plan.child.A.block in
    acc.seq <- acc.seq +. block_scan_pages b;
    let standalone_sub () =
      (* the subtree is reduced on its own frame, which starts unsorted *)
      ignore
        (List.fold_left
           (fun s c -> go ~outer:(C.block_card env b) ~sorted:s c)
           false n.Plan.sub)
    in
    match n.Plan.impl with
    | Plan.Shared_set | Plan.Push_down ->
        standalone_sub ();
        sorted && n.Plan.discard_ok
    | Plan.Semijoin -> sorted
    | Plan.Bottom_up nf ->
        standalone_sub ();
        let rows = loj_out ~outer b in
        acc.fetch <- acc.fetch +. rows;
        let emitted = charge_nest p.Plan.base nf ~sorted ~rows acc in
        emitted && n.Plan.discard_ok
    | Plan.Top_down nf ->
        let rows = loj_out ~outer b in
        acc.fetch <- acc.fetch +. rows;
        (* grandchildren widen the frame, so their sortedness (and the
           wide relation's, once they have run) is conservatively lost *)
        ignore
          (List.fold_left
             (fun s c -> go ~outer:rows ~sorted:s c)
             false n.Plan.sub);
        let sorted_mid = sorted && n.Plan.sub = [] in
        let emitted = charge_nest p.Plan.base nf ~sorted:sorted_mid ~rows acc in
        emitted && n.Plan.discard_ok
  in
  ignore
    (List.fold_left
       (fun s n -> go ~outer:(C.block_card env root) ~sorted:s n)
       false p.Plan.roots);
  {
    seq = acc.seq;
    rand = acc.rand;
    fetch = acc.fetch;
    ms = price acc.seq acc.rand acc.fetch;
  }

(* ---------- rules ---------- *)

(* A rule proposes a new impl for one node, or nothing.  The structural
   precondition is [Plan.fits], the test the executor settles every plan
   with, so a proposal that survives the cost gate always takes effect. *)
let propose (rule : Config.rule) (n : Plan.node) : Plan.impl option =
  let candidate =
    match (rule, n.Plan.impl) with
    | Config.Semijoin, (Plan.Bottom_up _ | Plan.Top_down _) ->
        Some Plan.Semijoin
    | Config.Push_down, (Plan.Bottom_up _ | Plan.Top_down _) ->
        Some Plan.Push_down
    | Config.Pipeline, Plan.Bottom_up nf when not nf.Plan.pipelined ->
        Some (Plan.Bottom_up { nf with Plan.pipelined = true })
    | Config.Pipeline, Plan.Top_down nf when not nf.Plan.pipelined ->
        Some (Plan.Top_down { nf with Plan.pipelined = true })
    | Config.Fuse_nests, Plan.Bottom_up nf
      when (not nf.Plan.pipelined) && not nf.Plan.assume_sorted ->
        Some (Plan.Bottom_up { nf with Plan.assume_sorted = true })
    | Config.Fuse_nests, Plan.Top_down nf
      when (not nf.Plan.pipelined) && not nf.Plan.assume_sorted ->
        Some (Plan.Top_down { nf with Plan.assume_sorted = true })
    | _ -> None
  in
  match candidate with
  | Some impl when Plan.fits ~discard_ok:n.Plan.discard_ok n.Plan.child impl
    ->
      candidate
  | _ -> None

(* ---------- the engine ---------- *)

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
  changed : bool;
  trace : trace_entry list;
  before : costline;
  after : costline;
}

(* rule application order: structural conversions first (they remove
   whole intermediates), then the nest-shape refinements *)
let rule_order =
  [ Config.Semijoin; Config.Push_down; Config.Pipeline; Config.Fuse_nests ]

let max_passes = 4
let eps = 1e-9

let rewrite ?rules cat (analyzed : A.t) ~(base : Plan.options) : result =
  let rules =
    match rules with Some rs -> rs | None -> Config.rules ()
  in
  let active = List.filter (fun r -> List.mem r rules) rule_order in
  let plan = ref (Plan.lift ~base analyzed) in
  let cost = ref (cost_of cat !plan) in
  let before = !cost in
  let trace = ref [] in
  let changed = ref false in
  let pass_no = ref 0 in
  let progressed = ref true in
  while !progressed && !pass_no < max_passes do
    progressed := false;
    incr pass_no;
    List.iter
      (fun rule ->
        List.iter
          (fun (n : Plan.node) ->
            match propose rule n with
            | None -> ()
            | Some impl ->
                let id = n.Plan.child.A.block.A.id in
                let site =
                  Printf.sprintf "block %d: %s → %s" id
                    (Plan.impl_to_string n.Plan.impl)
                    (Plan.impl_to_string impl)
                in
                let candidate =
                  Plan.renormalize (Plan.replace !plan ~id ~impl)
                in
                let cost' = cost_of cat candidate in
                if cost'.ms < !cost.ms -. eps then begin
                  trace :=
                    {
                      rule;
                      block_id = id;
                      site;
                      cost_before = !cost;
                      cost_after = cost';
                      verdict = Fired;
                    }
                    :: !trace;
                  plan := candidate;
                  cost := cost';
                  changed := true;
                  progressed := true
                end
                else if !pass_no = 1 then
                  (* record the gate's refusals once, for explain *)
                  trace :=
                    {
                      rule;
                      block_id = id;
                      site;
                      cost_before = !cost;
                      cost_after = cost';
                      verdict = Skipped "no estimated improvement";
                    }
                    :: !trace)
          (Plan.nodes !plan))
      active
  done;
  {
    dirs = !plan;
    changed = !changed;
    trace = List.rev !trace;
    before;
    after = !cost;
  }

(* ---------- rendering for explain --costs ---------- *)

let trace_lines (r : result) =
  let line (e : trace_entry) =
    let verdict =
      match e.verdict with
      | Fired -> "fired"
      | Skipped reason -> Printf.sprintf "skipped (%s)" reason
    in
    Printf.sprintf "  %-10s %-45s %8.1f → %8.1f ms  %s"
      (Config.rule_to_string e.rule)
      e.site e.cost_before.ms e.cost_after.ms verdict
  in
  List.map line r.trace
