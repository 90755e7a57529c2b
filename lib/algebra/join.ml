open Nra_relational
module Pool = Nra_pool.Pool

type kind = Inner | Left_outer | Semi | Anti

let stats_probes = ref 0

let out_schema kind left right =
  match kind with
  | Inner | Left_outer ->
      Schema.append (Relation.schema left) (Relation.schema right)
  | Semi | Anti -> Relation.schema left

(* Emit output rows for one left row given its matching right rows. *)
let emit kind ~right_arity lrow matches acc =
  match kind with
  | Inner -> List.fold_left (fun a r -> Row.concat lrow r :: a) acc matches
  | Left_outer -> (
      match matches with
      | [] -> Row.concat lrow (Row.nulls right_arity) :: acc
      | ms -> List.fold_left (fun a r -> Row.concat lrow r :: a) acc ms)
  | Semi -> if matches <> [] then lrow :: acc else acc
  | Anti -> if matches = [] then lrow :: acc else acc

(* ---------- nested loop (no equi-conjunct) ---------- *)

let nested_loop kind ~on left right =
  let left_rows = Relation.rows left in
  let right_rows = Relation.rows right in
  let right_arity = Schema.arity (Relation.schema right) in
  (* hoisted: one list conversion for the whole join, not one per left
     row *)
  let right_list = Array.to_list right_rows in
  (* a trivially-true predicate (the Cartesian fallback in join-nest
     fusion) needs no per-pair concat just to test it *)
  let all_match =
    match on with Expr.Lit3 Three_valued.True -> true | _ -> false
  in
  let matches_of lrow =
    if all_match then right_list
    else
      List.filter (fun rrow -> Expr.holds on (Row.concat lrow rrow)) right_list
  in
  let out =
    if Pool.use_parallel (Array.length left_rows) then begin
      let morsels =
        Pool.parallel_chunks ~n:(Array.length left_rows)
          (fun ledger ~lo ~hi ->
            let acc = ref [] in
            for i = lo to hi - 1 do
              Pool.Ledger.tick ledger;
              acc :=
                emit kind ~right_arity left_rows.(i)
                  (matches_of left_rows.(i))
                  !acc
            done;
            List.rev !acc)
      in
      List.concat (Array.to_list morsels)
    end
    else begin
      let acc = ref [] in
      Array.iter
        (fun lrow ->
          Nra_guard.Guard.tick ();
          acc := emit kind ~right_arity lrow (matches_of lrow) !acc)
        left_rows;
      List.rev !acc
    end
  in
  Relation.of_rows (out_schema kind left right) out

(* ---------- hash join ---------- *)

(* Key-hash vectors: per-row [Row.hash_on] plus a has-null-key bitmap,
   computed column-at-a-time over unboxed cells when the columnar core
   is on ([Batch.hash_on] produces bit-identical hashes, so partition
   assignment, build order and probe results are unchanged).  [None]
   falls back to hashing boxed rows inline, exactly the pre-columnar
   code.  Vectors are computed owner-side; workers only index into the
   resulting plain arrays. *)
(* Only a *cached* batch (primed at scan time for a base relation)
   qualifies: for an unprimed intermediate, building a transient batch
   of the key columns just to hash them costs more than hashing the
   boxed rows inline, so those sides keep the row path. *)
let key_vectors rel idxs =
  if Batch.enabled () && not (Relation.is_empty rel) then
    match Batch.find rel with
    | Some b -> Some (Batch.hash_on b idxs)
    | None -> None
  else None

let vec_null vecs idxs row i =
  match vecs with
  | Some (_, nulls) -> Batch.Bitset.get nulls i
  | None -> Row.has_null_on idxs row

let vec_hash vecs idxs row i =
  match vecs with
  | Some (h, _) -> Array.unsafe_get h i
  | None -> Row.hash_on idxs row

(* Equal keys and a residual that holds; a trivially true residual
   needs no concatenated row to test. *)
let pair_matches ~lpos ~rpos ~residual_pred lrow rrow =
  Array.for_all2 (fun li ri -> Value.equal lrow.(li) rrow.(ri)) lpos rpos
  &&
  match residual_pred with
  | Expr.Lit3 Three_valued.True -> true
  | p -> Expr.holds p (Row.concat lrow rrow)

(* The shared probe step: the same expression in the serial and
   parallel paths, so their match lists are identical by construction.
   The key hash is the caller's — precomputed columnar vector entry or
   an inline [Row.hash_on]. *)
let probe_one tbl ~h ~lpos ~rpos ~residual_pred lrow =
  Hashtbl.find_all tbl h
  |> List.rev (* restore build order *)
  |> List.filter (pair_matches ~lpos ~rpos ~residual_pred lrow)

(* The serial build table: the right rows with non-NULL keys, under
   their key hash, in build order.  A function of the rows and [rpos]
   alone, so over a shared array it is memoized ([Batch.build_memo]). *)
let build_table ~rpos ~rvecs right_rows =
  let tbl = Hashtbl.create (max 16 (Array.length right_rows)) in
  Array.iteri
    (fun i rrow ->
      if not (vec_null rvecs rpos rrow i) then
        Hashtbl.add tbl (vec_hash rvecs rpos rrow i) rrow)
    right_rows;
  tbl

let probe_serial kind tbl ~lpos ~rpos ~residual_pred ~right_arity ~lvecs
    left_rows =
  let acc = ref [] in
  Array.iteri
    (fun i lrow ->
      Nra_guard.Guard.tick ();
      incr stats_probes;
      let matches =
        if vec_null lvecs lpos lrow i then []
        else
          probe_one tbl
            ~h:(vec_hash lvecs lpos lrow i)
            ~lpos ~rpos ~residual_pred lrow
      in
      acc := emit kind ~right_arity lrow matches !acc)
    left_rows;
  List.rev !acc

let join_serial kind ~lpos ~rpos ~residual_pred ~right_arity ~lvecs ~rvecs
    left_rows right_rows =
  probe_serial kind
    (build_table ~rpos ~rvecs right_rows)
    ~lpos ~rpos ~residual_pred ~right_arity ~lvecs left_rows

(* The same join built on the left input, for when it is the smaller
   side: hash the left rows' indices, stream the right rows through
   that table, and collect each left row's matches.  Streaming the
   right side backwards and consing leaves each list in right (build)
   order — exactly what [probe_one] returns — so emitting in left order
   reproduces [join_serial]'s output, with the same one checkpoint and
   one probe count per left row.  The pairs are tested in a different
   order, so this is only equivalent when the residual cannot raise
   (see [join]). *)
let join_serial_left_build kind ~lpos ~rpos ~residual_pred ~right_arity
    ~lvecs ~rvecs left_rows right_rows =
  let nl = Array.length left_rows in
  let tbl = Hashtbl.create (max 16 nl) in
  Array.iteri
    (fun i lrow ->
      if not (vec_null lvecs lpos lrow i) then
        Hashtbl.add tbl (vec_hash lvecs lpos lrow i) i)
    left_rows;
  let matches = Array.make nl [] in
  for j = Array.length right_rows - 1 downto 0 do
    let rrow = right_rows.(j) in
    if not (vec_null rvecs rpos rrow j) then
      List.iter
        (fun i ->
          if pair_matches ~lpos ~rpos ~residual_pred left_rows.(i) rrow then
            matches.(i) <- rrow :: matches.(i))
        (Hashtbl.find_all tbl (vec_hash rvecs rpos rrow j))
  done;
  let acc = ref [] in
  Array.iteri
    (fun i lrow ->
      Nra_guard.Guard.tick ();
      incr stats_probes;
      acc := emit kind ~right_arity lrow matches.(i) !acc)
    left_rows;
  List.rev !acc

(* Parallel variant: radix-partition the build side by key hash (each
   key's rows land in exactly one partition, in build order), build the
   partition tables in parallel, then probe left-side morsels in
   parallel — each morsel fills its own buffer and the owner
   concatenates the buffers in morsel order, so the result is
   bit-identical to [join_serial].  Workers run only pure row/predicate
   code; checkpoints accrue to the morsel's ledger and are charged at
   the barrier (the guard contract in docs/PERF.md). *)
let join_parallel kind ~lpos ~rpos ~residual_pred ~right_arity ~lvecs ~rvecs
    left_rows right_rows =
  let nparts = Pool.executors () in
  let nright = Array.length right_rows in
  let rhash = Array.make nright 0 in
  let parts = Array.make nparts [] in
  (* reverse iteration so each partition's index list is in build order *)
  for i = nright - 1 downto 0 do
    if not (vec_null rvecs rpos right_rows.(i) i) then begin
      let h = vec_hash rvecs rpos right_rows.(i) i in
      rhash.(i) <- h;
      let p = h land max_int mod nparts in
      parts.(p) <- i :: parts.(p)
    end
  done;
  let part_idx = Array.map Array.of_list parts in
  let tables =
    Pool.parallel_chunks ~min_chunk:1 ~n:nparts (fun _ledger ~lo ~hi ->
        Array.init (hi - lo) (fun k ->
            let ids = part_idx.(lo + k) in
            let tbl = Hashtbl.create (max 16 (Array.length ids)) in
            Array.iter (fun i -> Hashtbl.add tbl rhash.(i) right_rows.(i)) ids;
            tbl))
    |> Array.to_list |> Array.concat
  in
  let morsels =
    Pool.parallel_chunks ~n:(Array.length left_rows) (fun ledger ~lo ~hi ->
        let acc = ref [] in
        for i = lo to hi - 1 do
          let lrow = left_rows.(i) in
          Pool.Ledger.tick ledger;
          let matches =
            if vec_null lvecs lpos lrow i then []
            else
              let h = vec_hash lvecs lpos lrow i in
              probe_one
                tables.(h land max_int mod nparts)
                ~h ~lpos ~rpos ~residual_pred lrow
          in
          acc := emit kind ~right_arity lrow matches !acc
        done;
        List.rev !acc)
  in
  stats_probes := !stats_probes + Array.length left_rows;
  List.concat (Array.to_list morsels)

(* Grace/hybrid variant: when the build side exceeds the buffer pool's
   frame budget, partition both inputs by key hash into [nparts]
   buckets sized so one bucket's build table fits the budget.  Bucket 0
   is kept in memory and probed on the fly during the left pass (the
   "hybrid" refinement); the others spill through Bufpool.Spill —
   charged page writes under the budget, charged page reads when each
   partition is processed build-then-probe.

   Bit-identical to [join_serial] by the same argument as
   [join_parallel]: every row with key hash [h] lands in partition
   [h mod nparts], spills preserve arrival order so each partition
   table is built in build order, and [probe_one] against the
   partition table sees exactly the rows the global table's
   [find_all h] would return.  Left matches are collected into a
   per-row array indexed by the original position (spilled left rows
   carry their index) and emitted in one ordered pass at the end. *)
let join_grace kind ~lpos ~rpos ~residual_pred ~right_arity ~frames ~lvecs
    ~rvecs left_rows right_rows =
  let module B = Nra_storage.Bufpool in
  let build_pages = Nra_storage.Iosim.pages (Array.length right_rows) in
  let budget = max 1 (frames - 1) in
  let nparts = min 64 (max 2 ((build_pages + budget - 1) / budget)) in
  let tbl0 = Hashtbl.create 1024 in
  let rspills =
    Array.init (nparts - 1) (fun p -> B.Spill.create (Printf.sprintf "jr%d" p))
  in
  let lspills =
    Array.init (nparts - 1) (fun p -> B.Spill.create (Printf.sprintf "jl%d" p))
  in
  let free_all () =
    Array.iter B.Spill.free rspills;
    Array.iter B.Spill.free lspills
  in
  Fun.protect ~finally:free_all @@ fun () ->
  (* build pass: partition the right side *)
  Array.iteri
    (fun i rrow ->
      Nra_guard.Guard.tick ();
      if not (vec_null rvecs rpos rrow i) then begin
        let h = vec_hash rvecs rpos rrow i in
        let p = h land max_int mod nparts in
        if p = 0 then Hashtbl.add tbl0 h rrow
        else B.Spill.add rspills.(p - 1) rrow
      end)
    right_rows;
  Array.iter B.Spill.finish rspills;
  (* probe pass: partition 0 resolved immediately, the rest deferred
     with the row's original index prepended *)
  let n = Array.length left_rows in
  let matches = Array.make n [] in
  Array.iteri
    (fun i lrow ->
      Nra_guard.Guard.tick ();
      if not (vec_null lvecs lpos lrow i) then begin
        let h = vec_hash lvecs lpos lrow i in
        let p = h land max_int mod nparts in
        if p = 0 then
          matches.(i) <- probe_one tbl0 ~h ~lpos ~rpos ~residual_pred lrow
        else B.Spill.add lspills.(p - 1) (Array.append [| Value.Int i |] lrow)
      end)
    left_rows;
  Array.iter B.Spill.finish lspills;
  (* spilled partitions run under the Domain pool, one chunk per
     partition: workers walk spill data with [iter_raw] (pure heap
     reads — the pool stays owner-side state) and record the consumed
     partitions in their ledger; the owner replays each partition's
     page reads and frees it at the join barrier, in partition order,
     so charges and fault draws are identical at every pool size.
     [matches] writes are race-free: each left row lives in exactly
     one partition, and one partition belongs to exactly one chunk. *)
  if nparts > 1 then
    ignore
      (Pool.parallel_chunks ~min_chunk:1
         ~n:(nparts - 1)
         (fun ledger ~lo ~hi ->
           for k = lo to hi - 1 do
             Pool.Ledger.tick ledger;
             let rsp = rspills.(k) in
             let tbl = Hashtbl.create (max 16 (B.Spill.length rsp)) in
             B.Spill.iter_raw rsp (fun rrow ->
                 Hashtbl.add tbl (Row.hash_on rpos rrow) rrow);
             B.Spill.iter_raw lspills.(k) (fun packed ->
                 Pool.Ledger.tick ledger;
                 let i =
                   match packed.(0) with Value.Int i -> i | _ -> assert false
                 in
                 let lrow = Array.sub packed 1 (Array.length packed - 1) in
                 matches.(i) <-
                   probe_one tbl ~h:(Row.hash_on lpos lrow) ~lpos ~rpos
                     ~residual_pred lrow);
             Pool.Ledger.consumed_spill ledger rsp;
             Pool.Ledger.consumed_spill ledger lspills.(k)
           done));
  stats_probes := !stats_probes + n;
  let acc = ref [] in
  for i = 0 to n - 1 do
    acc := emit kind ~right_arity left_rows.(i) matches.(i) !acc
  done;
  List.rev !acc

(* The equi-join set-up shared by [join] and [hash_join_serial]: key
   positions, residual and key-hash vectors, handed to [k] with the
   row arrays.  The vectors are lazy: a probe of a memoized build
   table needs none for the right side. *)
let with_equi kind left right equi residual k =
  let lpos = Array.of_list (List.map fst equi) in
  let rpos = Array.of_list (List.map snd equi) in
  let right_arity = Schema.arity (Relation.schema right) in
  let residual_pred = Expr.conj residual in
  let lvecs = lazy (key_vectors left lpos)
  and rvecs = lazy (key_vectors right rpos) in
  let rows =
    k ~lpos ~rpos ~residual_pred ~right_arity ~lvecs ~rvecs
      (Relation.rows left) (Relation.rows right)
  in
  Relation.of_rows (out_schema kind left right) rows

let hash_join_serial ~build kind ~on left right =
  let left_arity = Schema.arity (Relation.schema left) in
  match Expr.split_equi ~left_arity on with
  | [], _ -> invalid_arg "Join.hash_join_serial: no equi-conjunct"
  | equi, residual ->
      with_equi kind left right equi residual
      @@ fun ~lpos ~rpos ~residual_pred ~right_arity ~lvecs ~rvecs ->
      (match build with
      | `Left -> join_serial_left_build kind
      | `Right -> join_serial kind)
        ~lpos ~rpos ~residual_pred ~right_arity ~lvecs:(Lazy.force lvecs)
        ~rvecs:(Lazy.force rvecs)

let join kind ~on left right =
  let left_arity = Schema.arity (Relation.schema left) in
  let equi, residual = Expr.split_equi ~left_arity on in
  if equi = [] then nested_loop kind ~on left right
  else
    with_equi kind left right equi residual
    @@ fun ~lpos ~rpos ~residual_pred ~right_arity ~lvecs ~rvecs left_rows
           right_rows ->
    let nl = Array.length left_rows and nr = Array.length right_rows in
    let lvecs = Lazy.force lvecs in
    match Nra_storage.Bufpool.frames () with
    | Some frames when Nra_storage.Iosim.pages nr > frames ->
        (* the grace/hybrid path runs its spilled partitions under the
           Domain pool itself (iter_raw workers + owner-side ledger
           replay), so out-of-core and parallel compose *)
        join_grace kind ~lpos ~rpos ~residual_pred ~right_arity ~frames
          ~lvecs ~rvecs:(Lazy.force rvecs) left_rows right_rows
    | _ when Pool.use_parallel (max nl nr) ->
        join_parallel kind ~lpos ~rpos ~residual_pred ~right_arity ~lvecs
          ~rvecs:(Lazy.force rvecs) left_rows right_rows
    | _ -> (
        (* a shared right side (a cached base relation or one of its
           memoized selections) keeps its build table across
           statements: probing it is the right-build join exactly *)
        match
          Batch.build_memo right_rows rpos (fun () ->
              build_table ~rpos ~rvecs:(Lazy.force rvecs) right_rows)
        with
        | Some tbl ->
            probe_serial kind tbl ~lpos ~rpos ~residual_pred ~right_arity
              ~lvecs left_rows
        | None ->
            let rvecs = Lazy.force rvecs in
            if nl < nr && Batch.vectorizable residual_pred then
              join_serial_left_build kind ~lpos ~rpos ~residual_pred
                ~right_arity ~lvecs ~rvecs left_rows right_rows
            else
              join_serial kind ~lpos ~rpos ~residual_pred ~right_arity ~lvecs
                ~rvecs left_rows right_rows)
