(* Layer attribution for a traced run.  After the timed phase (so it
   cannot disturb the measured statements or their counters), each
   sampled query is run once more as an "attr" statement: first through
   the facade ([Nra.prepare] then [Nra.run_prepared], together exactly
   [Nra.run]), then through each layer's public function in the order
   the facade calls them — parse, analyze, cost estimation, rewrite,
   the chosen executor's [run_where], post-processing — each in its own
   span, and finally CSV rendering.  The facade time the layer spans do
   not cover is reported as [trace.unattributed_ms].  The simulated I/O
   charged here is rolled back so the run's Iosim tallies are
   untouched. *)

module Nx = Nra.Exec.Nra_exec
module Cost = Nra.Stats.Cost

type summary = {
  mutable unattributed_ms : float list;
  mutable q_errors : float list;  (** Auto's estimate of its pick vs actual *)
  mutable nra_join_ms : float list;
  mutable nra_nest_ms : float list;
  mutable nra_other_ms : float list;
  mutable nra_peak_rows : int;
  mutable nra_rows : float list;
  mutable naive_probes : int;
  mutable naive_loops : int;
}

let create () =
  {
    unattributed_ms = [];
    q_errors = [];
    nra_join_ms = [];
    nra_nest_ms = [];
    nra_other_ms = [];
    nra_peak_rows = 0;
    nra_rows = [];
    naive_probes = 0;
    naive_loops = 0;
  }

let of_cost = function
  | Cost.Naive -> Nra.Naive
  | Cost.Classical -> Nra.Classical
  | Cost.Magic -> Nra.Magic
  | Cost.Nra_original -> Nra.Nra_original
  | Cost.Nra_optimized -> Nra.Nra_optimized
  | Cost.Nra_full -> Nra.Nra_full

let q_error ~est ~actual =
  let e = Float.max est 1e-3 and a = Float.max actual 1e-3 in
  Float.max (e /. a) (a /. e)

(* a span that also adds its duration to the layer total *)
type layer = { layer : 'a. string -> (unit -> 'a) -> 'a }

(* the executor behind one concrete strategy, as the facade dispatches *)
let run_executor sum { layer } cat t ~pick ~rewrite =
  match (pick, Nra.nra_base_options pick) with
  | (Nra.Nra_original | Nra.Nra_optimized | Nra.Nra_full), Some options ->
      let directives =
        Option.map (fun r -> r.Nra.Opt.Rewrite.dirs) (rewrite options)
      in
      let t0 = Common.now () in
      let rel, st =
        layer "exec.nra.run_where" (fun () -> Nx.run_where ~options ?directives cat t)
      in
      let rw = 1000.0 *. (Common.now () -. t0)
      and j = 1000.0 *. st.Nx.join_seconds
      and n = 1000.0 *. st.Nx.nest_select_seconds in
      sum.nra_join_ms <- j :: sum.nra_join_ms;
      sum.nra_nest_ms <- n :: sum.nra_nest_ms;
      sum.nra_other_ms <- (rw -. j -. n) :: sum.nra_other_ms;
      sum.nra_peak_rows <- max sum.nra_peak_rows st.Nx.peak_intermediate_rows;
      sum.nra_rows <- float_of_int st.Nx.total_intermediate_rows :: sum.nra_rows;
      rel
  | Nra.Naive, _ ->
      let rel = layer "exec.naive.run_where" (fun () -> Nra.Exec.Naive.run_where cat t) in
      let st = Nra.Exec.Naive.stats in
      sum.naive_probes <- sum.naive_probes + st.Nra.Exec.Naive.index_probes;
      sum.naive_loops <- sum.naive_loops + st.Nra.Exec.Naive.inner_loops;
      rel
  | Nra.Classical, _ ->
      layer "exec.classical.run_where" (fun () -> Nra.Exec.Classical.run_where cat t)
  | Nra.Magic, _ -> layer "exec.magic.run_where" (fun () -> Nra.Exec.Magic.run_where cat t)
  | _ -> failwith "attribution: no single executor for this strategy"

(* one traced attribution of the SELECT [sql] under [strategy] *)
let attribute sum tr cat ~strategy sql =
  let cp = Nra.Iosim.checkpoint () in
  let facade_s = ref 0.0 and layers_s = ref 0.0 in
  let in_span : 'a. float ref -> string -> (unit -> 'a) -> 'a = fun acc name f ->
    let t0 = Common.now () in
    let v = Trace.span tr name f in
    acc := !acc +. (Common.now () -. t0);
    v
  in
  let layer : 'a. string -> (unit -> 'a) -> 'a = fun name f -> in_span layers_s name f in
  let _ =
    Trace.statement tr "attr" (fun () ->
        (match in_span facade_s "core.prepare" (fun () -> Nra.prepare ~strategy cat sql) with
        | Ok p -> ignore (in_span facade_s "core.run_prepared" (fun () -> Nra.run_prepared cat p))
        | Error e -> failwith (Nra.Exec_error.to_string e));
        let q =
          match layer "sql.parse" (fun () -> Nra.Sql.Parser.parse_command sql) with
          | Nra.Sql.Ast.Cmd_query (Nra.Sql.Ast.Select q) -> q
          | _ -> failwith "attribution takes plain SELECT statements"
        in
        let t = layer "planner.analyze" (fun () -> Nra.Planner.Analyze.analyze cat q) in
        let pick, est =
          match strategy with
          | Nra.Auto ->
              let es = layer "stats.estimate" (fun () -> Nra.estimates_with_rewrites cat t) in
              let best = Cost.pick ~remaining_io_ms:None ~remaining_rows:None es in
              (of_cost best.Cost.strategy, Some best.Cost.cost_ms)
          | s -> (s, None)
        in
        let rewrite o = layer "opt.rewrite" (fun () -> Nra.rewrite_for cat t o) in
        let c0 = Counters.snap () in
        let rel = run_executor sum { layer } cat t ~pick ~rewrite in
        let io = Counters.sub (Counters.snap ()) c0 in
        Option.iter
          (fun est ->
            sum.q_errors <-
              q_error ~est ~actual:(1000.0 *. Counters.sim_seconds io) :: sum.q_errors)
          est;
        let out =
          layer "exec.post" (fun () -> Nra.Exec.Post.apply t.Nra.Planner.Analyze.output rel)
        in
        Trace.span tr "render.csv" (fun () -> ignore (Nra.Relation.to_csv out)))
  in
  Nra.Iosim.rollback cp;
  sum.unattributed_ms <- (1000.0 *. (!facade_s -. !layers_s)) :: sum.unattributed_ms

(* attribute each (strategy, sql) pair in turn, stopping after [budget_s] *)
let run tr cat ~budget_s pairs =
  let sum = create () in
  if Trace.enabled tr then begin
    let t0 = Common.now () in
    List.iter
      (fun (strategy, sql) ->
        if Common.now () -. t0 < budget_s then attribute sum tr cat ~strategy sql)
      pairs
  end;
  sum

(* mean ms per occurrence of a span *)
let span_mean_ms spans name =
  Common.mean (List.map (fun s -> 1000.0 *. Trace.duration s) (Trace.named spans name))

let metrics tr sum =
  let m = span_mean_ms (Trace.spans tr) in
  [
    ("core.prepare_ms", m "core.prepare");
    ("core.run_prepared_ms", m "core.run_prepared");
    ("trace.unattributed_ms", Common.mean sum.unattributed_ms);
    ("sql.parse_ms", m "sql.parse");
    ("planner.analyze_ms", m "planner.analyze");
    ("stats.estimate_ms", m "stats.estimate");
    ("opt.rewrite_ms", m "opt.rewrite");
    ("stats.q_error_p50", Common.median sum.q_errors);
    ("stats.q_error_max", List.fold_left Float.max 0.0 sum.q_errors);
    ("exec.nra.run_where_ms", m "exec.nra.run_where");
    ("exec.naive.run_where_ms", m "exec.naive.run_where");
    ("exec.classical.run_where_ms", m "exec.classical.run_where");
    ("exec.post_ms", m "exec.post");
    ("exec.nra.peak_intermediate_rows", float_of_int sum.nra_peak_rows);
    ("exec.nra.intermediate_rows", Common.mean sum.nra_rows);
    ("exec.naive.index_probes", float_of_int sum.naive_probes);
    ("exec.naive.inner_loops", float_of_int sum.naive_loops);
    ("algebra.join_ms", Common.mean sum.nra_join_ms);
    ("nested.nest_select_ms", Common.mean sum.nra_nest_ms);
    ("exec.nra.other_ms", Common.mean sum.nra_other_ms);
    ("render.csv_ms", m "render.csv");
  ]
