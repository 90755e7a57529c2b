(* The NRA plan IR: one node per linking site (the planner's
   [Analyze.child]), carrying the site's implementation and whether its
   linking selection discards failing tuples (σ) or NULL-pads them (σ̄).

   [lift] is the only code that makes the paper's §4.2 choice from the
   strategy options.  Everything else reads the plan it builds: the
   executor ([Nra.run_where]) runs its nodes, [Nra.plan_description]
   renders them, [Nra_stats.Cost] prices them and [lib/opt] rewrites
   them.  [fits] is the one structural applicability test: [lift]
   chooses among the implementations that fit a site, the rewriter only
   proposes ones that fit, and [renormalize] (which the executor applies
   to every plan it is handed) replaces one that does not with [lift]'s
   own choice — so a wrong plan can change speed, never results. *)

open Nra_planner
module A = Analyze

type options = {
  pipelined : bool;
  nest_impl : [ `Sort | `Hash ];
  bottom_up_linear : bool;
  push_down_nest : bool;
  positive_simplify : bool;
}

let original =
  {
    pipelined = false;
    nest_impl = `Sort;
    bottom_up_linear = false;
    push_down_nest = false;
    positive_simplify = false;
  }

let optimized = { original with pipelined = true }

let full =
  {
    pipelined = true;
    nest_impl = `Sort;
    bottom_up_linear = true;
    push_down_nest = true;
    positive_simplify = true;
  }

type nest = { pipelined : bool; assume_sorted : bool }

type impl =
  | Shared_set
  | Push_down
  | Semijoin
  | Bottom_up of nest
  | Top_down of nest

type node = {
  child : A.child;
  impl : impl;
  sub : node list;
  discard_ok : bool;
}

type t = { analyzed : A.t; base : options; roots : node list }

(* ---------- the one applicability predicate ---------- *)

let fits ~discard_ok (c : A.child) impl =
  let b = c.A.block in
  match impl with
  | Shared_set -> A.self_contained b && b.A.correlated = []
  | Push_down -> A.self_contained b && A.equi_correlation b <> None
  | Semijoin ->
      (* JA sites are never positive: an empty group aggregates to a
         value, so it must reach the linking selection *)
      b.A.children = [] && discard_ok && A.child_positive c
      && b.A.correlated <> []
  | Bottom_up _ -> A.self_contained b
  | Top_down _ -> true

(* Discarding holds at the outermost level and propagates through
   positive links only; a standalone reduction makes its subtree
   outermost again. *)
let sub_discard ~discard_ok (c : A.child) = function
  | Top_down _ -> discard_ok && A.child_positive c
  | _ -> true

(* ---------- lifting: the §4.2 choice, made once ---------- *)

let choose (base : options) ~discard_ok c =
  let fits = fits ~discard_ok c in
  let nest = { pipelined = base.pipelined; assume_sorted = false } in
  if fits Shared_set then Shared_set
  else if base.push_down_nest && fits Push_down then Push_down
  else if base.positive_simplify && fits Semijoin then Semijoin
  else if base.bottom_up_linear && fits (Bottom_up nest) then Bottom_up nest
  else Top_down nest

let rec lift_child base ~discard_ok (c : A.child) =
  let impl = choose base ~discard_ok c in
  {
    child = c;
    impl;
    discard_ok;
    sub =
      List.map
        (lift_child base ~discard_ok:(sub_discard ~discard_ok c impl))
        c.A.block.A.children;
  }

let lift ?(base = optimized) (analyzed : A.t) =
  {
    analyzed;
    base;
    roots =
      List.map (lift_child base ~discard_ok:true) analyzed.A.root.A.children;
  }

(* ---------- traversal ---------- *)

let rec fold_node f acc n = List.fold_left (fold_node f) (f acc n) n.sub
let fold f acc p = List.fold_left (fold_node f) acc p.roots
let nodes p = List.rev (fold (fun acc n -> n :: acc) [] p)

let find p id =
  fold
    (fun acc n -> if n.child.A.block.A.id = id then Some n else acc)
    None p

(* ---------- rewriting ---------- *)

let rec map_node f n =
  let n = f n in
  { n with sub = List.map (map_node f) n.sub }

let replace p ~id ~impl =
  {
    p with
    roots =
      List.map
        (map_node (fun n ->
             if n.child.A.block.A.id = id then { n with impl } else n))
        p.roots;
  }

let renormalize p =
  let rec settle ~discard_ok n =
    let impl =
      if fits ~discard_ok n.child n.impl then n.impl
      else choose p.base ~discard_ok n.child
    in
    {
      n with
      impl;
      discard_ok;
      sub =
        List.map
          (settle ~discard_ok:(sub_discard ~discard_ok n.child impl))
          n.sub;
    }
  in
  { p with roots = List.map (settle ~discard_ok:true) p.roots }

(* ---------- rendering ---------- *)

let nest_to_string n =
  if n.pipelined then "υ-pipelined"
  else if n.assume_sorted then "υ-fused"
  else "υ-materialized"

let impl_to_string = function
  | Shared_set -> "shared-set"
  | Push_down -> "push-down"
  | Semijoin -> "semijoin"
  | Bottom_up n -> Printf.sprintf "bottom-up(%s)" (nest_to_string n)
  | Top_down n -> Printf.sprintf "top-down(%s)" (nest_to_string n)

let describe p =
  let buf = Buffer.create 128 in
  let rec go depth n =
    Buffer.add_string buf
      (Printf.sprintf "%sblock %d: %s%s\n"
         (String.make (2 * depth) ' ')
         n.child.A.block.A.id (impl_to_string n.impl)
         (if n.discard_ok then "" else " σ̄"));
    List.iter (go (depth + 1)) n.sub
  in
  List.iter (go 0) p.roots;
  Buffer.contents buf
