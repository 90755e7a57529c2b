(* paper-olap: the paper's Section 5 statements (Figures 4-9 and the
   JA sweep, 62 texts), each under nra-optimized, nra-full and auto, in
   a closed loop through [Nra.run] with the result rendered to CSV.  One
   client, no server: the plan cache, admission, DML and spill paths
   are bypassed, so joins, nest/linking selection and the columnar
   kernels carry the load. *)

module Q = Nra.Tpch.Queries

let settings = { Common.scale = 0.01; pool_size = 0; frames = None; columnar = true }
let strategies = [ Nra.Nra_optimized; Nra.Nra_full; Nra.Auto ]

(* the paper's block sizes as fractions of the base tables, as in
   bench/main.ml *)
let q1_fractions = List.map (fun n -> n /. 1_500_000.) [ 500.; 1_500.; 4_000.; 8_000.; 12_000.; 16_000. ]
let ja_fractions = List.map (fun n -> n /. 1_500_000.) [ 500.; 4_000.; 16_000. ]
let part_fractions = List.map (fun n -> n /. 200_000.) [ 12_000.; 24_000.; 36_000.; 48_000. ]
let availqty_max = Q.availqty_bound ~fraction:(16_000. /. 800_000.)

let q1 f =
  let lo, hi = Q.q1_window ~outer_fraction:f in
  Q.q1 ~date_lo:lo ~date_hi:hi

let q1_ja link f =
  let lo, hi = Q.q1_window ~outer_fraction:f in
  Q.q1_ja ~link ~date_lo:lo ~date_hi:hi

let q2 quant f =
  let size_lo, size_hi = Q.size_window ~outer_fraction:f in
  Q.q2 ~quant ~size_lo ~size_hi ~availqty_max ~quantity:25

let q3 ~quant ~exists ~variant f =
  let size_lo, size_hi = Q.size_window ~outer_fraction:f in
  Q.q3 ~quant ~exists ~variant ~size_lo ~size_hi ~availqty_max ~quantity:25

(* Figure 4, Figures 5-6, Figures 7-9 (3 link combinations x variants
   a/b/c) and the JA sweep *)
let texts () =
  List.map q1 q1_fractions
  @ List.map (q2 Q.Any) part_fractions
  @ List.map (q2 Q.All) part_fractions
  @ List.concat_map
      (fun (quant, exists) ->
        List.concat_map
          (fun variant -> List.map (q3 ~quant ~exists ~variant) part_fractions)
          [ Q.A; Q.B; Q.C ])
      [ (Q.All, true); (Q.All, false); (Q.Any, true) ]
  @ List.concat_map
      (fun link -> List.map (q1_ja link) ja_fractions)
      [ Q.Ja_in; Q.Ja_not_in; Q.Ja_gt_all; Q.Ja_scalar_eq ]

(* one round: every (text, strategy) pair, in a seeded order fixed for
   the whole run *)
let round ~seed =
  let items =
    Array.of_list
      (List.concat_map (fun sql -> List.map (fun s -> (s, sql)) strategies) (texts ()))
  in
  let d = Common.Draw.create seed in
  for i = Array.length items - 1 downto 1 do
    let j = Common.Draw.int d (i + 1) in
    let x = items.(i) in
    items.(i) <- items.(j);
    items.(j) <- x
  done;
  Array.to_list items

let query cat strategy sql =
  match Nra.run ~strategy cat sql with
  | Ok (Nra.Rows r) -> Ok r
  | Ok _ -> Error "not a query result"
  | Error e -> Error (Nra.Exec_error.to_string e)

let run ~tr ~seed ~seconds =
  Common.apply settings;
  let items = round ~seed in
  let warmup cat = List.iter (fun (s, sql) -> ignore (query cat s sql)) items in
  let cat, (), st = Common.setup ~scale:settings.Common.scale ~seed ~warmup in
  (* the timed phase: whole rounds until [seconds] have passed *)
  let digests = Hashtbl.create 256 in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let virt_ms = ref [] and rounds = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let io = ref Counters.zero in
  let speed = Common.Speed.create () in
  let t0 = Common.now () in
  while Common.now () -. t0 < seconds do
    let host_ms = ref [] in
    List.iter
      (fun (strategy, sql) ->
        Common.Speed.tick speed;
        incr attempted;
        let s0 = Common.Speed.now speed in
        let res, d =
          Trace.statement tr "stmt" (fun () ->
              match Trace.span tr "core.run" (fun () -> query cat strategy sql) with
              | Ok r -> Ok (Trace.span tr "render.csv" (fun () -> Nra.Relation.to_csv r))
              | Error e -> Error e)
        in
        host_ms := (1000.0 *. (Common.Speed.now speed -. s0)) :: !host_ms;
        virt_ms := (1000.0 *. Counters.sim_seconds d) :: !virt_ms;
        io := Counters.add !io d;
        match res with
        | Error e ->
            incr failed;
            problem "%s under %s failed: %s" sql (Nra.strategy_to_string strategy) e
        | Ok csv -> (
            let dg = Digest.string csv in
            match Hashtbl.find_opt digests sql with
            | None -> Hashtbl.add digests sql (dg, strategy)
            | Some (dg', s') when dg <> dg' ->
                problem "result of %s differs: %s vs %s" sql
                  (Nra.strategy_to_string strategy) (Nra.strategy_to_string s')
            | Some _ -> ()))
      items;
    rounds :=
      let ms = Array.of_list !host_ms in
      { Common.query_ms = ms; step_ms = ms; statements = List.length items;
        probes = Common.Speed.take speed }
      :: !rounds
  done;
  let heap = Common.peak_heap_mb () in
  (* every text must match classical, run once, untimed *)
  Hashtbl.iter
    (fun sql (dg, _) ->
      match query cat Nra.Classical sql with
      | Ok r when Digest.string (Nra.Relation.to_csv r) = dg -> ()
      | Ok _ -> problem "%s differs from classical" sql
      | Error e -> problem "%s failed under classical: %s" sql e)
    digests;
  let host = Common.host_metrics !rounds in
  let n_rounds = List.length !rounds in
  let e2e =
    host
    @ [
        ("virtual_p50_ms", Common.percentile !virt_ms 0.5);
        ("virtual_p95_ms", Common.percentile !virt_ms 0.95);
        ("sim_io_s", Counters.sim_seconds ~per:n_rounds !io);
        ("peak_heap_mb", heap);
      ]
  in
  let layers =
    if not (Trace.enabled tr) then []
    else
      let pairs = items @ List.map (fun sql -> (Nra.Classical, sql)) (texts ()) in
      let sum = Attr.run tr cat ~budget_s:seconds pairs in
      Layer.setup st @ Layer.storage !io @ Attr.metrics tr sum
      @ [ ("trace.throughput_sps", List.assoc "throughput_sps" host) ]
  in
  ( {
      Common.correct = !problems = [];
      problems = List.rev !problems;
      attempted = !attempted;
      failed = !failed;
      e2e;
      layers;
      samples =
        [ ("statements", !attempted); ("rounds", n_rounds); ("texts", Hashtbl.length digests) ];
      settings;
    },
    st )
