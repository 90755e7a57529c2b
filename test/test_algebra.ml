open Nra
open Test_support
module B = Algebra.Basic
module J = Algebra.Join
module S = Algebra.Setops
module Agg = Algebra.Aggregate
module T = Three_valued

let schema2 t =
  Schema.of_columns
    [ Schema.column ~table:t "a" Ttype.Int; Schema.column ~table:t "b" Ttype.Int ]

let rel t rows =
  Relation.make (schema2 t)
    (Array.of_list (List.map (fun (a, b) -> [| a; b |]) rows))

let left () =
  rel "l" [ (vi 1, vi 10); (vi 2, vi 20); (vi 3, vnull); (vnull, vi 40) ]

let right () =
  rel "r" [ (vi 1, vi 100); (vi 1, vi 101); (vi 3, vi 300); (vnull, vi 400) ]

let eq_on_a = Expr.Cmp (T.Eq, Expr.Col 0, Expr.Col 2)

let test_select () =
  let r = B.select (Expr.Cmp (T.Ge, Expr.Col 0, Expr.Const (vi 2))) (left ()) in
  (* NULL comparison is unknown: row (null, 40) is dropped *)
  Alcotest.(check int) "rows" 2 (Relation.cardinality r)

let test_project_exprs () =
  let r =
    B.project_exprs
      [
        (Expr.Add (Expr.Col 0, Expr.Col 1), Schema.column "s" Ttype.Int);
        (Expr.Const (vi 7), Schema.column "k" Ttype.Int);
      ]
      (left ())
  in
  check_rows "computed"
    [
      [ None; Some 7 ];
      [ None; Some 7 ];
      [ Some 11; Some 7 ];
      [ Some 22; Some 7 ];
    ]
    r

let test_product_limit_distinct () =
  let p = B.product (left ()) (right ()) in
  Alcotest.(check int) "product" 16 (Relation.cardinality p);
  Alcotest.(check int) "limit" 3 (Relation.cardinality (B.limit 3 p));
  Alcotest.(check int) "limit beyond" 16
    (Relation.cardinality (B.limit 99 p));
  let dup = Relation.append (left ()) (left ()) in
  Alcotest.(check int) "distinct" 4 (Relation.cardinality (B.distinct dup))

let test_inner_join () =
  let r = J.join J.Inner ~on:eq_on_a (left ()) (right ()) in
  (* 1 matches twice, 3 once; NULL keys never match *)
  check_rows "inner"
    [
      [ Some 1; Some 10; Some 1; Some 100 ];
      [ Some 1; Some 10; Some 1; Some 101 ];
      [ Some 3; None; Some 3; Some 300 ];
    ]
    r

let test_left_outer_join () =
  let r = J.join J.Left_outer ~on:eq_on_a (left ()) (right ()) in
  check_rows "outer"
    [
      [ None; Some 40; None; None ];
      [ Some 1; Some 10; Some 1; Some 100 ];
      [ Some 1; Some 10; Some 1; Some 101 ];
      [ Some 2; Some 20; None; None ];
      [ Some 3; None; Some 3; Some 300 ];
    ]
    r

let test_semi_anti () =
  let s = J.join J.Semi ~on:eq_on_a (left ()) (right ()) in
  check_rows "semi" [ [ Some 1; Some 10 ]; [ Some 3; None ] ] s;
  let a = J.join J.Anti ~on:eq_on_a (left ()) (right ()) in
  check_rows "anti" [ [ None; Some 40 ]; [ Some 2; Some 20 ] ] a

let test_residual_join () =
  (* equi on a plus a residual inequality on the b columns *)
  let on =
    Expr.And (eq_on_a, Expr.Cmp (T.Gt, Expr.Col 3, Expr.Const (vi 100)))
  in
  let r = J.join J.Inner ~on (left ()) (right ()) in
  check_rows "residual"
    [
      [ Some 1; Some 10; Some 1; Some 101 ];
      [ Some 3; None; Some 3; Some 300 ];
    ]
    r

let test_pure_theta_join () =
  (* no equi conjunct: must fall back to nested loop *)
  let on = Expr.Cmp (T.Lt, Expr.Col 0, Expr.Col 2) in
  let r = J.join J.Inner ~on (left ()) (right ()) in
  (* 1<3 and 2<3; NULLs on either side never qualify *)
  Alcotest.(check int) "theta join" 2 (Relation.cardinality r)

let qtest = QCheck_alcotest.to_alcotest

let arb_pairs =
  QCheck.(
    small_list
      (pair
         (oneof [ always Value.Null; map (fun i -> Value.Int i) (int_bound 5) ])
         (map (fun i -> Value.Int i) (int_bound 5))))

let prop_hash_eq_nested_loop =
  QCheck.Test.make ~name:"hash join = nested loop join (all kinds)"
    (QCheck.pair arb_pairs arb_pairs)
    (fun (l, r) ->
      let lrel = rel "l" l and rrel = rel "r" r in
      let on =
        Expr.And (eq_on_a, Expr.Cmp (T.Le, Expr.Col 1, Expr.Col 3))
      in
      List.for_all
        (fun kind ->
          Relation.equal_bag
            (J.join kind ~on lrel rrel)
            (J.nested_loop kind ~on lrel rrel))
        [ J.Inner; J.Left_outer; J.Semi; J.Anti ])

let prop_outer_join_left_preserving =
  QCheck.Test.make ~name:"left outer join preserves every left row"
    (QCheck.pair arb_pairs arb_pairs)
    (fun (l, r) ->
      let lrel = rel "l" l and rrel = rel "r" r in
      let o = J.join J.Left_outer ~on:eq_on_a lrel rrel in
      let left_part = Relation.project o [ 0; 1 ] in
      Relation.cardinality o >= Relation.cardinality lrel
      && List.for_all
           (fun row -> List.exists (Row.equal row) (Relation.sorted_rows left_part))
           (Relation.sorted_rows lrel))

let prop_semi_anti_partition =
  QCheck.Test.make ~name:"semi and anti partition the left side"
    (QCheck.pair arb_pairs arb_pairs)
    (fun (l, r) ->
      let lrel = rel "l" l and rrel = rel "r" r in
      let s = J.join J.Semi ~on:eq_on_a lrel rrel in
      let a = J.join J.Anti ~on:eq_on_a lrel rrel in
      Relation.equal_bag lrel (Relation.append s a))

(* The smaller-side build must be invisible: building on the left and
   streaming the right rows through gives the right-side build's exact
   output (same rows, same order), the same probe count and the same
   number of guard checkpoints — for every kind, with NULL and
   duplicate keys, Int/Float keys that compare equal, and residuals in
   and out of the vectorizable subset. *)
let arb_keyed =
  QCheck.(
    list_of_size (Gen.int_range 0 12)
      (pair
         (oneof
            [
              always Value.Null;
              map (fun i -> Value.Int i) (int_bound 4);
              map (fun i -> Value.Float (float_of_int i)) (int_bound 4);
            ])
         (oneof [ always Value.Null; map (fun i -> Value.Int i) (int_bound 5) ])))

let build_residuals =
  let c i = Expr.Col i and k v = Expr.Const (vi v) in
  [
    eq_on_a;
    Expr.And (eq_on_a, Expr.Cmp (T.Le, c 1, c 3));
    Expr.And (eq_on_a, Expr.Cmp (T.Eq, c 1, c 3));
    Expr.And (eq_on_a, Expr.Or (Expr.Is_null (c 1), Expr.Cmp (T.Gt, c 3, k 2)));
    Expr.And (eq_on_a, Expr.Not (Expr.Cmp (T.Lt, c 1, c 3)));
  ]

(* The join's rows, or the exception it raised, with the probes and
   checkpoints it made on the way. *)
let counted f =
  let ticks = ref 0 in
  let probes = !J.stats_probes in
  Guard.set_yield_hook (Some (fun () -> incr ticks));
  let out =
    Fun.protect
      ~finally:(fun () -> Guard.set_yield_hook None)
      (fun () ->
        match f () with
        | r -> Ok (Relation.rows r)
        | exception e -> Error (Printexc.to_string e))
  in
  (out, !J.stats_probes - probes, !ticks)

let prop_left_build_identical =
  QCheck.Test.make ~count:500
    ~name:"left build = right build (rows, order, probes, ticks)"
    (QCheck.pair arb_keyed arb_keyed)
    (fun (l, r) ->
      let lrel = rel "l" l and rrel = rel "r" r in
      let same kind on =
        let ((rows, _, _) as right) =
          counted (fun () -> J.hash_join_serial ~build:`Right kind ~on lrel rrel)
        in
        counted (fun () -> J.hash_join_serial ~build:`Left kind ~on lrel rrel)
        = right
        (* [join] may take the parallel path, whose checkpoints are
           merged at the barrier: compare its rows only *)
        && Ok (Relation.rows (J.join kind ~on lrel rrel)) = rows
      in
      let all () =
        List.for_all
          (fun on ->
            List.for_all
              (fun kind -> same kind on)
              [ J.Inner; J.Left_outer; J.Semi; J.Anti ])
          build_residuals
      in
      (* unprimed, then primed: the key-hash vectors of cached batches
         must give the answers inline row hashing gives *)
      all ()
      &&
      (Batch.prime lrel;
       Batch.prime rrel;
       all ()))

(* Over a shared right side (a cached base relation) [join] probes a
   build table memoized in the scan cache, one per key.  It must be the
   right-side build exactly — same rows in the same order, or the same
   exception from the same pair, with the same probes and checkpoints —
   on the call that builds the table and on every call that reuses it,
   whatever kind and residual the earlier calls had.  The residuals use
   two keys ([a], and [a, b]); the extra one raises ([LIKE] over an Int
   column) on the first candidate pair with a non-NULL [b]. *)
let serial_columnar f =
  let on = Batch.enabled () and size = Pool.size ()
  and frames = Bufpool.frames () in
  Batch.set_enabled true;
  Pool.set_size 0;
  Bufpool.set_frames None;
  Fun.protect
    ~finally:(fun () ->
      Batch.set_enabled on;
      Pool.set_size size;
      Bufpool.set_frames frames)
    f

let prop_memo_build_identical =
  let raising = Expr.And (eq_on_a, Expr.Like (Expr.Col 1, "%")) in
  QCheck.Test.make ~count:500
    ~name:"memoized build = right build (rows, order, probes, ticks)"
    (QCheck.pair arb_keyed arb_keyed)
    (fun (l, r) ->
      (* the memo serves the serial in-memory join with the columnar
         core on, whatever the environment configures *)
      serial_columnar @@ fun () ->
      let lrel = rel "l" l and rrel = rel "r" r in
      Batch.drop_cache ();
      Batch.prime rrel;
      let same kind on =
        let right =
          counted (fun () -> J.hash_join_serial ~build:`Right kind ~on lrel rrel)
        in
        counted (fun () -> J.join kind ~on lrel rrel) = right
        && counted (fun () -> J.join kind ~on lrel rrel) = right
      in
      List.for_all
        (fun on ->
          List.for_all
            (fun kind -> same kind on)
            [ J.Inner; J.Left_outer; J.Semi; J.Anti ])
        (raising :: build_residuals)
      && Batch.derived rrel = if Relation.is_empty rrel then 0 else 2)

let test_setops () =
  let a = rel "x" [ (vi 1, vi 1); (vi 1, vi 1); (vi 2, vi 2) ] in
  let b = rel "x" [ (vi 1, vi 1); (vi 3, vi 3) ] in
  Alcotest.(check int) "union dedups" 3 (Relation.cardinality (S.union a b));
  Alcotest.(check int) "union_all" 5 (Relation.cardinality (S.union_all a b));
  Alcotest.(check int) "intersect" 1 (Relation.cardinality (S.intersect a b));
  Alcotest.(check int) "intersect_all min multiplicity" 1
    (Relation.cardinality (S.intersect_all a b));
  Alcotest.(check int) "except" 1 (Relation.cardinality (S.except a b));
  Alcotest.(check int) "except_all subtracts multiplicity" 2
    (Relation.cardinality (S.except_all a b))

let test_division () =
  (* students × courses: who takes every required course? *)
  let takes =
    rel "t"
      [
        (vi 1, vi 10); (vi 1, vi 20); (vi 1, vi 30);
        (vi 2, vi 10); (vi 2, vi 30);
        (vi 3, vi 20);
      ]
  in
  let required = rel "req" [ (vi 0, vi 10); (vi 0, vi 30) ] in
  let d = S.divide takes ~by:required ~on:[ (1, 1) ] in
  check_rows "students covering the divisor" [ [ Some 1 ]; [ Some 2 ] ] d;
  (* empty divisor: universally true *)
  let d = S.divide takes ~by:(rel "req" []) ~on:[ (1, 1) ] in
  Alcotest.(check int) "for-all over empty set" 3 (Relation.cardinality d);
  (* duplicate divisor rows don't change the answer *)
  let required2 =
    rel "req" [ (vi 0, vi 10); (vi 9, vi 10); (vi 0, vi 30) ]
  in
  let d = S.divide takes ~by:required2 ~on:[ (1, 1) ] in
  Alcotest.(check int) "divisor is a set" 2 (Relation.cardinality d)

let qtest2 = QCheck_alcotest.to_alcotest

(* division agrees with its double-negation definition:
   x qualifies iff ¬∃ s ∈ S. ¬∃ (x, s) ∈ R *)
let prop_division_vs_double_negation =
  QCheck.Test.make ~name:"division = double NOT EXISTS"
    QCheck.(
      pair
        (small_list (pair (int_bound 3) (int_bound 3)))
        (small_list (int_bound 3)))
    (fun (pairs, ys) ->
      let takes = rel "t" (List.map (fun (x, y) -> (vi x, vi y)) pairs) in
      let req = rel "r" (List.map (fun y -> (vi 0, vi y)) ys) in
      let d = S.divide takes ~by:req ~on:[ (1, 1) ] in
      let xs = List.sort_uniq compare (List.map fst pairs) in
      let expected =
        List.filter
          (fun x ->
            List.for_all (fun y -> List.mem (x, y) pairs)
              (List.sort_uniq compare ys))
          xs
      in
      List.length expected = Relation.cardinality d
      && List.for_all
           (fun x ->
             Array.exists
               (fun row -> Value.equal row.(0) (vi x))
               (Relation.rows d))
           expected)

let test_aggregates () =
  let r =
    rel "x"
      [ (vi 1, vi 10); (vi 1, vnull); (vi 2, vi 5); (vi 2, vi 7); (vi 1, vi 2) ]
  in
  let g =
    Agg.group_by ~keys:[ 0 ]
      [
        { Agg.func = Agg.Count_star; as_name = "n" };
        { Agg.func = Agg.Count (Expr.Col 1); as_name = "nv" };
        { Agg.func = Agg.Sum (Expr.Col 1); as_name = "s" };
        { Agg.func = Agg.Min (Expr.Col 1); as_name = "mn" };
        { Agg.func = Agg.Max (Expr.Col 1); as_name = "mx" };
      ]
      r
  in
  check_rows "group_by"
    [
      [ Some 1; Some 3; Some 2; Some 12; Some 2; Some 10 ];
      [ Some 2; Some 2; Some 2; Some 12; Some 5; Some 7 ];
    ]
    g;
  let empty = rel "x" [] in
  let glob =
    Agg.global
      [
        { Agg.func = Agg.Count_star; as_name = "n" };
        { Agg.func = Agg.Sum (Expr.Col 0); as_name = "s" };
      ]
      empty
  in
  check_rows "global over empty: COUNT 0, SUM NULL" [ [ Some 0; None ] ] glob

let test_avg () =
  let r = rel "x" [ (vi 1, vi 10); (vi 1, vi 20); (vi 1, vnull) ] in
  let g =
    Agg.group_by ~keys:[ 0 ] [ { Agg.func = Agg.Avg (Expr.Col 1); as_name = "a" } ] r
  in
  let row = (Relation.rows g).(0) in
  Alcotest.check value_testable "avg ignores nulls" (vf 15.0) row.(1)

let test_sort () =
  let r = rel "x" [ (vi 2, vi 1); (vnull, vi 2); (vi 1, vi 3) ] in
  let s =
    Algebra.Sort.sort
      [ { Algebra.Sort.pos = 0; dir = Algebra.Sort.Desc } ]
      r
  in
  let first = (Relation.rows s).(0) in
  Alcotest.check value_testable "desc puts nulls last... first is 2" (vi 2)
    first.(0);
  let last = (Relation.rows s).(2) in
  Alcotest.(check bool) "null last on desc" true (Value.is_null last.(0))

let () =
  Alcotest.run "algebra"
    [
      ( "basic",
        [
          Alcotest.test_case "select (3VL)" `Quick test_select;
          Alcotest.test_case "project_exprs" `Quick test_project_exprs;
          Alcotest.test_case "product/limit/distinct" `Quick
            test_product_limit_distinct;
        ] );
      ( "joins",
        [
          Alcotest.test_case "inner" `Quick test_inner_join;
          Alcotest.test_case "left outer" `Quick test_left_outer_join;
          Alcotest.test_case "semi/anti" `Quick test_semi_anti;
          Alcotest.test_case "residual" `Quick test_residual_join;
          Alcotest.test_case "pure theta" `Quick test_pure_theta_join;
        ] );
      ( "setops",
        [
          Alcotest.test_case "all six" `Quick test_setops;
          Alcotest.test_case "division" `Quick test_division;
          qtest2 prop_division_vs_double_negation;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "group_by" `Quick test_aggregates;
          Alcotest.test_case "avg" `Quick test_avg;
        ] );
      ("sort", [ Alcotest.test_case "directions" `Quick test_sort ]);
      ( "properties",
        [
          qtest prop_hash_eq_nested_loop;
          qtest prop_left_build_identical;
          qtest prop_memo_build_identical;
          qtest prop_outer_join_left_preserving;
          qtest prop_semi_anti_partition;
        ] );
    ]
