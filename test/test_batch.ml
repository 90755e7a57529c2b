(* The columnar batch layer: round-trip exactness, kernel-service
   equivalence with the row-at-a-time primitives, and the packed spill
   page format.

   The properties here are what the bit-identity argument in
   docs/PERF.md rests on: [to_relation (of_relation r) = r]
   structurally (constructors preserved, NULLs included),
   [Batch.hash_on] computes exactly [Row.hash_on]/[Row.has_null_on],
   and a compiled [filter_plan] agrees with [Expr.holds] on every row
   and every morsel split. *)

open Nra
open Test_support

let qtest = QCheck_alcotest.to_alcotest
let () = Batch.set_enabled true

(* ---------- generators ---------- *)

type colkind = KInt | KFloat | KString | KBool | KDate | KMixed

let ttype_of = function
  | KInt -> Ttype.Int
  | KFloat | KMixed -> Ttype.Float
  | KString -> Ttype.String
  | KBool -> Ttype.Bool
  | KDate -> Ttype.Date

(* small value domains so predicates and join keys actually collide *)
let gen_cell kind st =
  let open QCheck.Gen in
  match kind with
  | KInt -> vi (int_range (-20) 20 st)
  | KFloat -> vf (float_of_int (int_range (-80) 80 st) /. 4.0)
  | KString -> vs (oneofl [ ""; "a"; "ab"; "b"; "ba"; "zzz" ] st)
  | KBool -> Value.Bool (bool st)
  | KDate -> Value.Date (int_range 0 30 st)
  | KMixed ->
      if bool st then vi (int_range (-20) 20 st)
      else vf (float_of_int (int_range (-80) 80 st) /. 4.0)

(* a relation with per-column kinds and null densities: typed columns,
   mixed Int/Float columns (the Boxed fallback), and null-heavy /
   all-null columns all appear *)
let gen_relation st =
  let open QCheck.Gen in
  let ncols = int_range 1 5 st in
  let nrows = int_range 0 60 st in
  let kinds =
    Array.init ncols (fun _ ->
        oneofl [ KInt; KFloat; KString; KBool; KDate; KMixed ] st)
  in
  let null_p =
    Array.init ncols (fun _ -> oneofl [ 0.0; 0.1; 0.5; 0.9; 1.0 ] st)
  in
  let schema =
    Schema.of_columns
      (List.init ncols (fun i ->
           Schema.column (Printf.sprintf "c%d" i) (ttype_of kinds.(i))))
  in
  let rows =
    Array.init nrows (fun _ ->
        Array.init ncols (fun c ->
            if float_bound_inclusive 1.0 st < null_p.(c) then Value.Null
            else gen_cell kinds.(c) st))
  in
  Relation.make schema rows

let print_relation rel = Relation.to_csv rel

let arb_relation = QCheck.make ~print:print_relation gen_relation

(* predicates drawn from the vectorizable subset (plus cross-typed and
   NULL constants, which exercise the generic and constant plans) *)
let gen_pred ncols st =
  let open QCheck.Gen in
  let col st = Expr.Col (int_range 0 (ncols - 1) st) in
  let op st =
    oneofl
      [
        Three_valued.Eq;
        Three_valued.Neq;
        Three_valued.Lt;
        Three_valued.Le;
        Three_valued.Gt;
        Three_valued.Ge;
      ]
      st
  in
  let const st =
    if int_range 0 9 st = 0 then Value.Null
    else gen_cell (oneofl [ KInt; KFloat; KString; KBool; KDate ] st) st
  in
  let leaf st =
    match int_range 0 5 st with
    | 0 | 1 -> Expr.Cmp (op st, col st, Expr.Const (const st))
    | 2 -> Expr.Cmp (op st, col st, col st)
    | 3 ->
        if bool st then Expr.Is_null (col st) else Expr.Is_not_null (col st)
    | 4 ->
        Expr.In_list
          (col st, List.init (int_range 0 3 st) (fun _ -> const st))
    | _ -> Expr.Between (col st, Expr.Const (const st), Expr.Const (const st))
  in
  let rec tree depth st =
    if depth = 0 then leaf st
    else
      match int_range 0 2 st with
      | 0 -> Expr.And (tree (depth - 1) st, tree (depth - 1) st)
      | 1 -> Expr.Or (tree (depth - 1) st, tree (depth - 1) st)
      | _ -> leaf st
  in
  tree 2 st

let arb_rel_pred =
  QCheck.make
    ~print:(fun (rel, pred) ->
      Format.asprintf "%a@.%s" Expr.pp_pred pred (print_relation rel))
    (fun st ->
      let rel = gen_relation st in
      let pred = gen_pred (Schema.arity (Relation.schema rel)) st in
      (rel, pred))

(* structural equality on rows pins constructors: Value.compare treats
   Int 3 and Float 3.0 as equal, but a round-trip must not rewrite one
   into the other.  No NaN in the generated domain, so (=) is sound. *)
let rows_identical a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (x : Row.t) (y : Row.t) -> x = y) a b

(* ---------- properties ---------- *)

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"of_relation |> to_relation is identity"
    arb_relation (fun rel ->
      let rel' = Batch.to_relation (Batch.of_relation rel) in
      Schema.equal_names (Relation.schema rel) (Relation.schema rel')
      && rows_identical (Relation.rows rel) (Relation.rows rel'))

let prop_pack_roundtrip =
  QCheck.Test.make ~count:500 ~name:"pack |> packed_iter rebuilds rows"
    arb_relation (fun rel ->
      let rows = Relation.rows rel in
      match Batch.pack rows with
      | None -> false (* uniform arity: pack must succeed *)
      | Some p ->
          let out = ref [] in
          Batch.packed_iter p (fun r -> out := r :: !out);
          Batch.packed_length p = Array.length rows
          && rows_identical rows (Array.of_list (List.rev !out)))

let prop_hash_on =
  QCheck.Test.make ~count:500 ~name:"hash_on matches Row.hash_on exactly"
    arb_relation (fun rel ->
      let rows = Relation.rows rel in
      let arity = Schema.arity (Relation.schema rel) in
      let idx_sets = [ Array.init arity Fun.id; [| 0 |] ] in
      List.for_all
        (fun idxs ->
          let h, nulls = Batch.hash_on (Batch.of_relation rel) idxs in
          Array.length h = Array.length rows
          && Array.for_all
               (fun i ->
                 h.(i) = Row.hash_on idxs rows.(i)
                 && Batch.Bitset.get nulls i = Row.has_null_on idxs rows.(i))
               (Array.init (Array.length rows) Fun.id))
        idx_sets)

let prop_filter_plan =
  QCheck.Test.make ~count:1000
    ~name:"filter_plan agrees with Expr.holds on every morsel split"
    arb_rel_pred (fun (rel, pred) ->
      let rows = Relation.rows rel in
      let n = Array.length rows in
      let expect =
        List.filter (fun i -> Expr.holds pred rows.(i)) (List.init n Fun.id)
      in
      match Batch.filter_plan pred rel with
      | None -> n = 0 (* the generated subset must always compile *)
      | Some plan ->
          let whole = Array.to_list (plan ~lo:0 ~hi:n) in
          let mid = n / 2 in
          let split =
            Array.to_list (plan ~lo:0 ~hi:mid)
            @ Array.to_list (plan ~lo:mid ~hi:n)
          in
          whole = expect && split = expect)

(* The selection memo: over a cached relation, a second [select] with
   the same predicate returns the first one's array itself, and both
   hold exactly the rows [Expr.holds] keeps, physically the input's
   own. *)
let prop_select_memo =
  QCheck.Test.make ~count:500
    ~name:"memoized selection is shared and equals Expr.holds"
    arb_rel_pred (fun (rel, pred) ->
      Batch.drop_cache ();
      Batch.prime rel;
      let first = Algebra.Basic.select pred rel in
      let again = Algebra.Basic.select pred rel in
      let expect = Relation.rows (Relation.filter (Expr.holds pred) rel) in
      let same_rows a =
        Array.length a = Array.length expect
        && Array.for_all2 ( == ) a expect
      in
      same_rows (Relation.rows first)
      && same_rows (Relation.rows again)
      && (Relation.is_empty rel
         || Relation.rows first == Relation.rows again))

(* ---------- unit cases ---------- *)

let mk schema rows = Relation.make (Schema.of_columns schema) rows

let test_empty_roundtrip () =
  let rel = mk [ Schema.column "a" Ttype.Int ] [||] in
  let rel' = Batch.to_relation (Batch.of_relation rel) in
  Alcotest.(check int) "no rows" 0 (Relation.cardinality rel')

let test_mixed_column_preserved () =
  (* Ttype.Float admits Int cells: the column must come back with the
     same constructors, not coerced either way *)
  let rel =
    mk
      [ Schema.column "x" Ttype.Float ]
      [| [| vi 1 |]; [| vf 2.5 |]; [| vnull |]; [| vi 3 |] |]
  in
  let rel' = Batch.to_relation (Batch.of_relation rel) in
  Alcotest.(check bool)
    "constructors preserved" true
    (rows_identical (Relation.rows rel) (Relation.rows rel'))

let test_all_null_column () =
  let rel =
    mk
      [ Schema.column "a" Ttype.Int; Schema.column "b" Ttype.String ]
      [| [| vnull; vs "x" |]; [| vnull; vnull |]; [| vnull; vs "y" |] |]
  in
  let rel' = Batch.to_relation (Batch.of_relation rel) in
  Alcotest.(check bool)
    "all-null column survives" true
    (rows_identical (Relation.rows rel) (Relation.rows rel'))

let test_pack_ragged () =
  Alcotest.(check bool)
    "ragged arity refuses to pack" true
    (Batch.pack [| [| vi 1 |]; [| vi 1; vi 2 |] |] = None)

let test_cache_identity () =
  let rel =
    mk [ Schema.column "a" Ttype.Int ] [| [| vi 1 |]; [| vi 2 |] |]
  in
  Batch.prime rel;
  (match Batch.find rel with
  | Some b -> Alcotest.(check int) "cached batch length" 2 (Batch.length b)
  | None -> Alcotest.fail "primed relation not found in cache");
  (* same rows, different relation wrapper: keyed on rows identity *)
  let alias = Relation.make (Relation.schema rel) (Relation.rows rel) in
  Alcotest.(check bool) "alias shares the batch" true
    (Batch.find alias <> None);
  Batch.drop_cache ();
  Alcotest.(check bool) "dropped" true (Batch.find rel = None)

let test_cache_lru () =
  Batch.drop_cache ();
  let one i = mk [ Schema.column "a" Ttype.Int ] [| [| vi i |] |] in
  let hot = one 0 in
  Batch.prime hot;
  for i = 1 to 32 do
    Batch.prime (one i);
    ignore (Batch.find hot)
  done;
  Alcotest.(check bool) "a hot entry survives 32 cold primes" true
    (Batch.find hot <> None);
  let cold = one 99 in
  Batch.prime cold;
  for i = 100 to 131 do
    Batch.prime (one i)
  done;
  Alcotest.(check bool) "an unused entry is evicted" true
    (Batch.find cold = None)

let test_disabled_falls_back () =
  let rel =
    mk [ Schema.column "a" Ttype.Int ] [| [| vi 1 |]; [| vi 2 |] |]
  in
  Batch.set_enabled false;
  Alcotest.(check bool)
    "no plan when disabled" true
    (Batch.filter_plan Expr.(Cmp (Three_valued.Gt, Col 0, Const (vi 1))) rel
    = None);
  Batch.set_enabled true;
  match
    Batch.filter_plan Expr.(Cmp (Three_valued.Gt, Col 0, Const (vi 1))) rel
  with
  | Some plan ->
      Alcotest.(check (list int)) "plan selects" [ 1 ]
        (Array.to_list (plan ~lo:0 ~hi:2))
  | None -> Alcotest.fail "vectorizable predicate did not compile"

let test_unvectorizable () =
  let rel =
    mk [ Schema.column "a" Ttype.String ] [| [| vs "ab" |] |]
  in
  List.iter
    (fun pred ->
      Alcotest.(check bool)
        "outside the subset" true
        (Batch.filter_plan pred rel = None))
    Expr.
      [
        Not (Is_null (Col 0));
        Like (Col 0, "a%");
        Cmp (Three_valued.Eq, Add (Col 0, Const (vi 1)), Const (vi 2));
      ]

(* ---------- the memo across statements ---------- *)

module Q = Tpch.Queries

let tpch_catalog () =
  let cat =
    Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.002 }
  in
  Tpch.Gen.add_benchmark_indexes cat;
  cat

let q1 ~fraction =
  let lo, hi = Q.q1_window ~outer_fraction:fraction in
  Q.q1 ~date_lo:lo ~date_hi:hi

let base cat name = Table.relation (Catalog.table cat name)

let csv strategy cat sql =
  match Nra.query ~strategy cat sql with
  | Ok rel -> Relation.to_csv rel
  | Error m -> Alcotest.fail m

(* Query 1's inner block ([l_commitdate < l_receiptdate and l_shipdate
   < l_commitdate]) does not depend on the date window: two windows
   add a second orders selection but share the one lineitem selection. *)
let test_memo_across_windows () =
  Batch.drop_cache ();
  let cat = tpch_catalog () in
  let a = q1 ~fraction:0.01 and b = q1 ~fraction:0.05 in
  Alcotest.(check string) "window a matches classical"
    (csv Nra.Classical cat a) (csv Nra.Nra_optimized cat a);
  let lineitem = Batch.memoized (base cat "lineitem") in
  let orders = Batch.memoized (base cat "orders") in
  Alcotest.(check bool) "lineitem selection memoized" true (lineitem > 0);
  Alcotest.(check string) "window b matches classical"
    (csv Nra.Classical cat b) (csv Nra.Nra_optimized cat b);
  Alcotest.(check int) "window b reuses the lineitem selection" lineitem
    (Batch.memoized (base cat "lineitem"));
  Alcotest.(check bool) "window b adds an orders selection" true
    (Batch.memoized (base cat "orders") > orders)

(* DML builds a fresh rows array: the next statement misses (a new
   cache entry, filtered from scratch) and still agrees with the
   classical strategy. *)
let test_memo_after_dml () =
  Batch.drop_cache ();
  let cat = tpch_catalog () in
  let sql = q1 ~fraction:0.05 in
  ignore (csv Nra.Nra_optimized cat sql);
  let before = base cat "lineitem" in
  Alcotest.(check bool) "memoized before the DML" true
    (Batch.memoized before > 0);
  (match
     Nra.exec cat "delete from lineitem where l_commitdate < l_receiptdate \
                   and l_linenumber = 1"
   with
  | Ok (Nra.Count n) -> Alcotest.(check bool) "rows deleted" true (n > 0)
  | Ok _ -> Alcotest.fail "expected a count"
  | Error m -> Alcotest.fail m);
  let after = base cat "lineitem" in
  Alcotest.(check bool) "DML made a fresh array" true
    (Relation.rows after != Relation.rows before);
  Alcotest.(check int) "nothing memoized for the new rows" 0
    (Batch.memoized after);
  let got = csv Nra.Nra_optimized cat sql in
  Alcotest.(check bool) "the next statement misses and stores" true
    (Batch.memoized after > 0);
  Alcotest.(check string) "and matches classical" (csv Nra.Classical cat sql)
    got

(* A lineitem row priced above its order's total flips that order's
   Query 1 verdict ([o_totalprice > all ...]) and its JA verdict.
   Inserting it, deleting it again, and a WAL undo that reinstalls an
   older rows array must each leave every NRA strategy equal to
   classical (no stale grouping or build table survives), and drop the
   replaced array's cache entry. *)
let test_memo_verdict_flip () =
  Batch.drop_cache ();
  let cat = tpch_catalog () in
  let lo, hi = Q.q1_window ~outer_fraction:0.05 in
  let texts =
    [
      Q.q1 ~date_lo:lo ~date_hi:hi;
      Q.q1_ja ~link:Q.Ja_gt_all ~date_lo:lo ~date_hi:hi;
    ]
  in
  let check step =
    List.map
      (fun sql ->
        let expect = csv Nra.Classical cat sql in
        List.iter
          (fun s ->
            Alcotest.(check string)
              (Printf.sprintf "%s, %s = classical" step
                 (Nra.strategy_to_string s))
              expect (csv s cat sql))
          [ Nra.Nra_full; Nra.Nra_optimized; Nra.Auto ];
        expect)
      texts
  in
  let gone step rel =
    Alcotest.(check bool) (step ^ ": replaced rows uncached") true
      (Batch.find rel = None)
  in
  let exec sql =
    match Nra.exec cat sql with Ok _ -> () | Error m -> Alcotest.fail m
  in
  let first sql =
    match Nra.query ~strategy:Nra.Classical cat sql with
    | Ok rel when not (Relation.is_empty rel) -> (Relation.rows rel).(0).(0)
    | Ok _ -> Alcotest.fail ("no rows: " ^ sql)
    | Error m -> Alcotest.fail m
  in
  let original = check "start" in
  let start = base cat "lineitem" in
  Alcotest.(check bool) "lineitem cached" true (Batch.find start <> None);
  Alcotest.(check bool) "hash tables memoized over it" true
    (Batch.derived start > 0);
  let key = Value.to_string (first (List.hd texts)) in
  let price =
    match first ("select o_totalprice from orders where o_orderkey = " ^ key)
    with
    | Value.Float f -> f
    | v -> Alcotest.fail ("o_totalprice " ^ Value.to_string v)
  in
  exec
    (Printf.sprintf
       "insert into lineitem values (%s, 1, 1, 99, 1, %.2f, 0.0, 0.0, 'N', \
        'O', date '1992-01-02', date '1992-01-03', date '1992-01-04', \
        'NONE', 'MAIL', 'flip')"
       key (price +. 1.0));
  gone "insert" start;
  let flipped = check "insert" in
  Alcotest.(check bool) "the insert flips Query 1" true
    (List.hd flipped <> List.hd original);
  let inserted = base cat "lineitem" in
  exec
    ("delete from lineitem where l_linenumber = 99 and l_orderkey = " ^ key);
  gone "delete" inserted;
  Alcotest.(check (list string)) "delete restores" original (check "delete");
  (* undo: re-apply the flip under a statement, then abort it *)
  let current = base cat "lineitem" in
  let stmt = Wal.begin_stmt () in
  let after = Array.copy (Relation.rows inserted) in
  Wal.log_update stmt ~table:"lineitem" ~before:(Relation.rows current) ~after;
  Catalog.update_rows cat "lineitem" after;
  gone "redo" current;
  Alcotest.(check (list string)) "re-applied" flipped (check "re-applied");
  let applied = base cat "lineitem" in
  Wal.abort cat stmt;
  Alcotest.(check bool) "undo reinstalls the old array" true
    (Relation.rows (base cat "lineitem") == Relation.rows current);
  gone "undo" applied;
  Alcotest.(check (list string)) "undo restores" original (check "undo")

let () =
  Alcotest.run "batch"
    [
      ( "units",
        [
          Alcotest.test_case "empty round-trip" `Quick test_empty_roundtrip;
          Alcotest.test_case "mixed int/float column" `Quick
            test_mixed_column_preserved;
          Alcotest.test_case "all-null column" `Quick test_all_null_column;
          Alcotest.test_case "ragged pack" `Quick test_pack_ragged;
          Alcotest.test_case "scan cache identity" `Quick test_cache_identity;
          Alcotest.test_case "scan cache is LRU" `Quick test_cache_lru;
          Alcotest.test_case "toggle fallback" `Quick
            test_disabled_falls_back;
          Alcotest.test_case "unvectorizable forms" `Quick
            test_unvectorizable;
        ] );
      ( "properties",
        [
          qtest prop_roundtrip;
          qtest prop_pack_roundtrip;
          qtest prop_hash_on;
          qtest prop_filter_plan;
          qtest prop_select_memo;
        ] );
      ( "memo",
        [
          Alcotest.test_case "Query 1 windows share the inner selection"
            `Quick test_memo_across_windows;
          Alcotest.test_case "DML misses, result matches classical" `Quick
            test_memo_after_dml;
          Alcotest.test_case "verdict flip by DML and WAL undo" `Quick
            test_memo_verdict_flip;
        ] );
    ]
