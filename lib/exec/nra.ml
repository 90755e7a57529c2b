open Nra_relational
open Nra_planner
module A = Analyze
module R = Resolved
module T3 = Three_valued
module J = Nra_algebra.Join
module Ast = Nra_sql.Ast

type options = Plan.options = {
  pipelined : bool;
  nest_impl : [ `Sort | `Hash ];
  bottom_up_linear : bool;
  push_down_nest : bool;
  positive_simplify : bool;
}

let original = Plan.original
let optimized = Plan.optimized
let full = Plan.full

type stats = {
  mutable peak_intermediate_rows : int;
  mutable total_intermediate_rows : int;
  mutable nest_select_seconds : float;
  mutable join_seconds : float;
}

let now () = Unix.gettimeofday ()

let block_positions schema (blk : A.block) =
  let uids = A.block_uids blk in
  let acc = ref [] in
  Array.iteri
    (fun i (c : Schema.column) ->
      if List.mem c.Schema.table uids then acc := i :: !acc)
    (Schema.columns schema);
  Array.of_list (List.rev !acc)

(* ---------- nest + linking selection ---------- *)

type mode = Discard | Pad of int array

let apply_mode mode verdict key elems out =
  match mode with
  | Discard -> if T3.to_bool (verdict key elems) then key :: out else out
  | Pad pad ->
      if T3.to_bool (verdict key elems) then key :: out
      else begin
        let padded = Array.copy key in
        Array.iter (fun i -> padded.(i) <- Value.Null) pad;
        padded :: out
      end

(* The staging relation holds the nest-by attributes as a prefix and the
   keep columns after them; [nest_select] computes υ followed by the
   linking selection, either as two materialized passes (original) or
   fused into one group scan over sorted input (optimized). *)
let nest_select ~nest_impl (nf : Plan.nest) st ~key_schema ~keep ~verdict
    ~mode ~sorted wide =
  let t0 = now () in
  (* a fused nest ([assume_sorted] confirmed by the runtime [sorted]
     flag) takes the single-pass run scan, which on key-sorted input
     produces exactly the groups (and group order) the materialized nest
     would *)
  let pipelined = nf.Plan.pipelined || (nf.Plan.assume_sorted && sorted) in
  let key_arity = Schema.arity key_schema in
  let prefix =
    List.init key_arity (fun i -> (Expr.Col i, Schema.col key_schema i))
  in
  let staging = Nra_algebra.Basic.project_exprs (prefix @ keep) wide in
  let by = Array.init key_arity Fun.id in
  let keep_pos =
    Array.init (List.length keep) (fun i -> key_arity + i)
  in
  (* the pre-nest flat staging is governed: charged to the memory
     ledger and routed through a spill partition when it would not fit
     the frame budget (byte-identical either way) *)
  let result, emitted_sorted =
    Nra_storage.Governor.with_staged ~label:"nest-staging" staging
    @@ fun staging ->
    if not pipelined then begin
      (* original: materialize the nested relation, then select *)
      let grouped =
        match nest_impl with
        | `Sort -> Nra_nested.Grouped.nest_sort ~by ~keep:keep_pos staging
        | `Hash -> Nra_nested.Grouped.nest_hash ~by ~keep:keep_pos staging
      in
      let out = ref [] in
      Array.iter
        (fun (key, elems) ->
          Nra_guard.Guard.tick ();
          out := apply_mode mode verdict key (Array.to_list elems) !out)
        grouped.Nra_nested.Grouped.groups;
      (Relation.of_rows key_schema (List.rev !out), nest_impl = `Sort)
    end
    else begin
      (* optimized: single pass over (at most once re-)sorted input; the
         run scan needs adjacent groups, so sortedness is mandatory *)
      let staging =
        if sorted then staging else Relation.sort_by by staging
      in
      let rows = Relation.rows staging in
      let n = Array.length rows in
      let out = ref [] in
      let i = ref 0 in
      while !i < n do
        Nra_guard.Guard.tick ();
        let start = !i in
        let key = Row.project_arr rows.(start) by in
        let elems = ref [] in
        while !i < n && Row.equal_on by rows.(start) rows.(!i) do
          elems := Row.project_arr rows.(!i) keep_pos :: !elems;
          incr i
        done;
        out := apply_mode mode verdict key (List.rev !elems) !out
      done;
      (Relation.of_rows key_schema (List.rev !out), true)
    end
  in
  st.nest_select_seconds <- st.nest_select_seconds +. (now () -. t0);
  (result, emitted_sorted)

(* ---------- the recursive driver ---------- *)

(* Allocation-pressure injection fires where a real row-budget
   exhaustion would: as an intermediate materializes under a finite row
   budget.  (A budget of [max_int] rows is effectively unlimited —
   benchmarks use it to measure pure checkpoint overhead — so it cannot
   "exhaust".)  The kill is the guard's own, so the unwind, the
   structured error, and Auto's fallback protocol are identical to the
   organic case. *)
let inject_alloc_pressure () =
  match Nra_guard.Guard.active () with
  | Some { Nra_guard.Guard.max_rows = Some m; _ }
    when m < max_int && Nra_storage.Fault.alloc_should_fail () ->
      raise
        (Nra_guard.Guard.Killed
           (Nra_guard.Guard.Budget_exceeded Nra_guard.Guard.Rows))
  | _ -> ()

let record_intermediate st rel =
  let n = Relation.cardinality rel in
  st.total_intermediate_rows <- st.total_intermediate_rows + n;
  if n > st.peak_intermediate_rows then st.peak_intermediate_rows <- n;
  inject_alloc_pressure ();
  Nra_guard.Guard.add_rows n;
  (* the stored-procedure setting of the paper's Section 5.1 pays a
     per-tuple cost to fetch the intermediate result from the engine *)
  Nra_storage.Fault.with_retries (fun () ->
      Nra_storage.Iosim.charge_fetch_rows n)

(* Per-row application of a linking predicate whose element set comes
   from a closure (virtual-cartesian-product and push-down paths). *)
let rowwise mode verdict elems_of rel =
  let out = ref [] in
  Array.iter
    (fun row ->
      Nra_guard.Guard.tick ();
      out := apply_mode mode verdict row (elems_of row) !out)
    (Relation.rows rel);
  Relation.of_rows (Relation.schema rel) (List.rev !out)

(* Element rows by key, NULL keys dropped, each list in build order:
   [elems] evaluated over every row of [rows] whose [keys] are all
   non-NULL.  No checkpoint and no charge, so a memoized grouping
   leaves the statement's guard and I/O accounts unchanged. *)
let group ~keys ~elems rows : Batch.grouping =
  let tbl = Row.Tbl.create (max 16 (Array.length rows)) in
  Array.iter
    (fun row ->
      let key = Array.map (Expr.eval_scalar row) keys in
      if not (Array.exists Value.is_null key) then begin
        let elem = Array.map (Expr.eval_scalar row) elems in
        match Row.Tbl.find_opt tbl key with
        | Some cell -> cell := elem :: !cell
        | None -> Row.Tbl.add tbl key (ref [ elem ])
      end)
    rows;
  Row.Tbl.iter (fun _ cell -> cell := List.rev !cell) tbl;
  tbl

(* The driver walks the plan's nodes: each [impl] and σ/σ̄ mode was
   chosen by [Plan.lift] (and possibly rewritten, then settled by
   [Plan.renormalize]), so nothing is decided here.  [parent] is the
   block whose children [nodes] are: σ̄ pads its attributes. *)
let rec process nest_impl st ~parent (rel, sorted_prefix) nodes =
  List.fold_left (apply_node nest_impl st ~parent) (rel, sorted_prefix) nodes

and reduce_standalone nest_impl st (n : Plan.node) : Relation.t =
  let b = n.Plan.child.A.block in
  let rel = Frame.block_relation b in
  fst (process nest_impl st ~parent:b (rel, 0) n.Plan.sub)

and apply_node nest_impl st ~parent (rel, sorted_prefix) (n : Plan.node) =
  let c = n.Plan.child in
  let b = c.A.block in
  let key_schema = Relation.schema rel in
  let key_arity = Schema.arity key_schema in
  let mode =
    if n.Plan.discard_ok then Discard
    else Pad (block_positions key_schema parent)
  in
  let sp_after_select =
    match mode with
    | Discard -> key_arity
    | Pad pad -> key_arity - Array.length pad
  in
  match n.Plan.impl with
  | Plan.Shared_set | Plan.Push_down ->
      (* §4.2.4: group the reduced child by its correlation key once;
         probe per outer tuple.  With no key (an uncorrelated child)
         the one group is the value set every outer tuple shares — the
         virtual Cartesian product.  Over a shared rows array (a base
         table or its memoized selection) the grouping is built once
         across statements. *)
      let child_red = reduce_standalone nest_impl st n in
      let cschema = Relation.schema child_red in
      (* no pairs for the shared set: [equi_correlation] is [None] on an
         uncorrelated block *)
      let pairs = Option.value ~default:[] (A.equi_correlation b) in
      let keep, verdict =
        Linkeval.verdict_and_keep ~key_schema ~wide_schema:cschema
          ~with_marker:false c
      in
      let keys =
        Array.of_list
          (List.map (fun (col, _) -> Frame.to_scalar cschema (R.RCol col))
             pairs)
      in
      let outer_keys =
        Array.of_list
          (List.map (fun (_, e) -> Frame.to_scalar key_schema e) pairs)
      in
      let elems = Array.of_list (List.map fst keep) in
      let rows = Relation.rows child_red in
      let groups =
        Batch.group_memo rows ~keys ~elems (fun () -> group ~keys ~elems rows)
      in
      let elems_of outer_row =
        let key = Array.map (Expr.eval_scalar outer_row) outer_keys in
        if Array.exists Value.is_null key then []
        else
          match Row.Tbl.find_opt groups key with
          | Some cell -> !cell
          | None -> []
      in
      let rel' = rowwise mode verdict elems_of rel in
      (rel', min sorted_prefix sp_after_select)
  | Plan.Semijoin ->
      (* §4.2.5: σ_{AθSOME{B}}(υ(R ⟕_C S)) = R ⋉_{C ∧ AθB} S *)
      let child_rel = Frame.block_relation b in
      let concat = Schema.append key_schema (Relation.schema child_rel) in
      let corr = Frame.to_pred concat b.A.correlated in
      let on =
        match (c.A.link, b.A.linked_attr) with
        | A.L_exists, _ -> corr
        | A.L_in a, Some e ->
            Expr.And
              (corr,
               Expr.Cmp (T3.Eq, Frame.to_scalar concat a,
                         Frame.to_scalar concat e))
        | A.L_quant (a, op, `Any), Some e ->
            Expr.And
              (corr,
               Expr.Cmp (op, Frame.to_scalar concat a,
                         Frame.to_scalar concat e))
        | _ -> assert false
      in
      let t0 = now () in
      let rel' = J.join J.Semi ~on rel child_rel in
      st.join_seconds <- st.join_seconds +. (now () -. t0);
      (rel', sorted_prefix) (* semijoin preserves left order *)
  | Plan.Bottom_up nf ->
      (* §4.2.3: reduce the subquery standalone, then one outer join
         and one nest+selection at this level *)
      let child_red = reduce_standalone nest_impl st n in
      join_nest_select nest_impl st nf ~mode ~sorted_prefix ~sp_after_select
        rel n child_red ~recurse:false
  | Plan.Top_down nf ->
      (* Algorithm 1, general top-down case *)
      let child_rel = Frame.block_relation b in
      join_nest_select nest_impl st nf ~mode ~sorted_prefix ~sp_after_select
        rel n child_rel ~recurse:true

and join_nest_select nest_impl st nf ~mode ~sorted_prefix ~sp_after_select
    rel (n : Plan.node) child_rel ~recurse =
  let c = n.Plan.child in
  let b = c.A.block in
  let key_schema = Relation.schema rel in
  let concat = Schema.append key_schema (Relation.schema child_rel) in
  let t0 = now () in
  let wide =
    if b.A.correlated = [] then
      (* genuine Cartesian product is required when the subquery is
         correlated deeper down but not at this level *)
      J.nested_loop J.Left_outer ~on:Expr.true_ rel child_rel
    else
      J.join J.Left_outer
        ~on:(Frame.to_pred concat b.A.correlated)
        rel child_rel
  in
  st.join_seconds <- st.join_seconds +. (now () -. t0);
  record_intermediate st wide;
  let wide, wide_sorted_prefix =
    if recurse then
      process nest_impl st ~parent:b (wide, sorted_prefix) n.Plan.sub
    else (wide, sorted_prefix)
  in
  let keep, verdict =
    Linkeval.verdict_and_keep ~key_schema ~wide_schema:(Relation.schema wide)
      ~with_marker:true c
  in
  let rel', emitted_sorted =
    (* the wide join product stays live while its staging is projected
       and nested — charge it for that extent so the governor's
       high-water mark reflects both *)
    Nra_storage.Governor.with_charged
      ~rows:(Relation.cardinality wide)
      ~width:(Schema.arity (Relation.schema wide))
      (fun () ->
        nest_select ~nest_impl nf st ~key_schema ~keep ~verdict ~mode
          ~sorted:(wide_sorted_prefix >= Schema.arity key_schema)
          wide)
  in
  (rel', if emitted_sorted then sp_after_select else 0)

(* ---------- entry points ---------- *)

(* A handed-in plan is settled first, so a site it got wrong runs
   [lift]'s choice; one lifted from another analysis is not used. *)
let plan_of ~options ?directives (t : A.t) =
  match directives with
  | Some p when p.Plan.analyzed == t -> Plan.renormalize p
  | _ -> Plan.lift ~base:options t

let run_where ?(options = optimized) ?directives _cat (t : A.t) =
  let plan = plan_of ~options ?directives t in
  let st =
    {
      peak_intermediate_rows = 0;
      total_intermediate_rows = 0;
      nest_select_seconds = 0.0;
      join_seconds = 0.0;
    }
  in
  let rel = Frame.block_relation t.A.root in
  let rel', _ =
    process plan.Plan.base.nest_impl st ~parent:t.A.root (rel, 0)
      plan.Plan.roots
  in
  (rel', st)

let run ?options ?directives cat t =
  let rel, _ = run_where ?options ?directives cat t in
  Post.apply t.A.output rel

(* ---------- plan rendering (no execution) ---------- *)

let plan_description ?(options = optimized) ?directives (t : A.t) =
  let buf = Buffer.create 256 in
  let line depth fmt =
    Format.kasprintf
      (fun s ->
        Buffer.add_string buf (String.make (2 * depth) ' ');
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let conds cs =
    String.concat " ∧ " (List.map (Format.asprintf "%a" R.pp_cond) cs)
  in
  let block_label (b : A.block) =
    let base =
      String.concat " ⨯ "
        (List.map (fun (bd : A.binding) -> bd.A.uid) b.A.bindings)
    in
    if b.A.local <> [] then Printf.sprintf "σ[%s](%s)" (conds b.A.local) base
    else base
  in
  let link_str (c : A.child) =
    (* a JA site compares against the per-group aggregate, not the raw
       element set — make that visible in the rendered plan *)
    let set =
      match c.A.block.A.scalar_agg with
      | Some (f, _) -> Printf.sprintf "{%s(…)}" (A.agg_name f)
      | None -> "{…}"
    in
    match c.A.link with
    | A.L_exists -> "EXISTS"
    | A.L_not_exists -> "NOT EXISTS"
    | A.L_in e -> Format.asprintf "%a IN %s" R.pp_expr e set
    | A.L_not_in e -> Format.asprintf "%a NOT IN %s" R.pp_expr e set
    | A.L_quant (e, op, q) ->
        Format.asprintf "%a %s %s %s" R.pp_expr e (T3.cmpop_to_string op)
          (match q with `Any -> "ANY" | `All -> "ALL")
          set
    | A.L_scalar (e, op) ->
        Format.asprintf "%a %s scalar%s" R.pp_expr e (T3.cmpop_to_string op)
          set
  in
  let sel_str ~discard_ok (c : A.child) =
    if discard_ok then Format.sprintf "σ[%s]" (link_str c)
    else Format.sprintf "σ̄[%s] (pad the owning block)" (link_str c)
  in
  let rec walk depth ~frame nodes =
    List.iter
      (fun (n : Plan.node) ->
        let c = n.Plan.child in
        let b = c.A.block in
        let sel = sel_str ~discard_ok:n.Plan.discard_ok c in
        match n.Plan.impl with
        | Plan.Shared_set ->
            line depth "· subquery T%d is uncorrelated: evaluate once" b.A.id;
            walk (depth + 1) ~frame:(block_label b) n.Plan.sub;
            line depth "%s, against the shared value set" sel
        | Plan.Push_down ->
            line depth "· §4.2.4 push-down: reduce T%d standalone" b.A.id;
            walk (depth + 1) ~frame:(block_label b) n.Plan.sub;
            line depth "group T%d by [%s]; probe per outer tuple; %s" b.A.id
              (conds b.A.correlated) sel
        | Plan.Semijoin ->
            line depth "· §4.2.5: %s ⋉[%s ∧ %s] %s" frame
              (conds b.A.correlated) (link_str c) (block_label b)
        | Plan.Bottom_up _ ->
            line depth "· §4.2.3 bottom-up: reduce T%d standalone" b.A.id;
            walk (depth + 1) ~frame:(block_label b) n.Plan.sub;
            line depth "%s ⟕[%s] T%d; ν by frame keep {linked, key#}; %s" frame
              (conds b.A.correlated) b.A.id sel
        | Plan.Top_down nf ->
            line depth "%s ⟕[%s] %s" frame
              (if b.A.correlated = [] then "⨯" else conds b.A.correlated)
              (block_label b);
            walk (depth + 1)
              ~frame:(frame ^ " ⟕ " ^ block_label b)
              n.Plan.sub;
            line depth "ν by {%s …} keep {linked T%d attrs, %s#}; %s%s" frame
              b.A.id
              (Format.asprintf "%a" R.pp_expr (R.RCol b.A.marker))
              sel
              (if nf.Plan.pipelined then " (pipelined)"
               else if nf.Plan.assume_sorted then " (fused)"
               else ""))
      nodes
  in
  line 0 "T1 := %s" (block_label t.A.root);
  walk 0 ~frame:"T1" (plan_of ~options ?directives t).Plan.roots;
  Buffer.contents buf
