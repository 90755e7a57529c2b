(* served-lookups: short parametrised nested statements from four
   sessions through the server ([Server.submit] / [drain] / [finish]),
   open loop in virtual time with a fixed arrival gap, under the
   server's default strategy (Auto).  Keys come from a seeded Zipf
   draw, so some texts repeat and most do not.  Parse, planning, Auto's
   estimation, the plan cache, admission and the scheduler carry this
   load; the join and nest kernels barely run. *)

module Server = Nra_server.Server

let settings = { Common.scale = 0.01; pool_size = 0; frames = None; columnar = true }
let sessions_n = 4
let round_len = 240

(* One execution slot in front of the default 16-deep queue and 1 s
   queue timeout, with arrivals 1.2 x the mean service time (measured
   in the first warm-up round) apart: the single disk runs at about 83%
   load, so about a quarter of the statements queue while the seeds
   tried see no rejections or timeouts.  With two slots a queue formed
   only at 100% load, where the virtual latencies swung by 15% from
   seed to seed. *)
let admission =
  { Nra_server.Admission.default_config with Nra_server.Admission.max_concurrent = 1 }

let gap_factor = 1.2

let cust_all k =
  Printf.sprintf
    "select o_orderkey, o_totalprice from orders where o_custkey = %d and \
     o_totalprice > all (select l_extendedprice from lineitem where \
     l_orderkey = o_orderkey and l_commitdate < l_receiptdate)"
    k

let cust_ja k =
  Printf.sprintf
    "select o1.o_orderkey, o1.o_totalprice from orders o1 where o1.o_custkey = \
     %d and o1.o_totalprice = (select max(o2.o_totalprice) from orders o2 \
     where o2.o_custkey = o1.o_custkey)"
    k

let part_any k =
  Printf.sprintf
    "select p_partkey, p_name from part where p_partkey = %d and \
     p_retailprice > any (select ps_supplycost from partsupp where \
     ps_partkey = p_partkey and not exists (select * from lineitem where \
     ps_partkey = l_partkey and ps_suppkey = l_suppkey and l_quantity = 25))"
    k

let supp_in k r =
  Printf.sprintf
    "select s_suppkey, s_name from supplier where s_suppkey = %d and \
     s_nationkey in (select n_nationkey from nation where n_regionkey = %d)"
    k r

let cardinality cat name =
  Nra.Table.cardinality (Nra.Catalog.table cat name)

(* [n] statements drawn from the four templates *)
let statements cat ~seed n =
  let d = Common.Draw.create seed in
  let zipf table = Common.Draw.zipf d ~n:(cardinality cat table) ~s:1.0 in
  let cust = zipf "customer" and part = zipf "part" and supp = zipf "supplier" in
  List.init n (fun i ->
      match i mod 4 with
      | 0 -> cust_all (cust ())
      | 1 -> cust_ja (cust ())
      | 2 -> part_any (part ())
      | _ -> supp_in (supp ()) (Common.Draw.int d 5))

type world = {
  srv : Server.t;
  sessions : Nra_server.Session.t array;
  stmts : string list;
  gap : float;
}

type round_log = {
  mutable outcomes : (Server.outcome * float) list;  (** with host ms *)
  mutable submit_ms : float list;
  mutable finish_ms : float;
  mutable io : Counters.t;
}

(* One open-loop round: statement i arrives [i * gap] after the clock. *)
let play ?(tr = Trace.create ~on:false) ?speed w log =
  let clock () = match speed with Some sp -> Common.Speed.now sp | None -> Common.now () in
  let start = Hashtbl.create 512 in
  let collect outs =
    List.iter
      (fun (o : Server.outcome) ->
        let h0 = Hashtbl.find start o.Server.submitted_at in
        log.outcomes <- (o, 1000.0 *. (clock () -. h0)) :: log.outcomes)
      outs
  in
  let t0 = Server.now w.srv +. w.gap in
  List.iteri
    (fun i sql ->
      Option.iter Common.Speed.tick speed;
      let at = t0 +. (float_of_int i *. w.gap) in
      let h0 = clock () in
      Hashtbl.replace start at h0;
      let outs, d =
        Trace.statement tr "server.submit" (fun () ->
            let r = Server.submit w.srv ~at w.sessions.(i mod sessions_n) sql in
            let now_done = match r with `Done o -> [ o ] | `Running _ | `Queued -> [] in
            now_done @ Trace.span tr "server.drain" (fun () -> Server.drain w.srv))
      in
      log.submit_ms <- (1000.0 *. (clock () -. h0)) :: log.submit_ms;
      log.io <- Counters.add log.io d;
      collect outs)
    w.stmts;
  let h0 = clock () in
  let outs, d = Trace.statement tr "server.finish" (fun () -> Server.finish w.srv) in
  log.finish_ms <- 1000.0 *. (clock () -. h0);
  log.io <- Counters.add log.io d;
  collect outs

(* a round's host latencies in arrival order, the same order every round *)
let arrival_order outcomes =
  let a = Array.of_list outcomes in
  Array.sort
    (fun ((o : Server.outcome), _) ((o' : Server.outcome), _) ->
      Float.compare o.Server.submitted_at o'.Server.submitted_at)
    a;
  Array.map snd a

let new_log () = { outcomes = []; submit_ms = []; finish_ms = 0.0; io = Counters.zero }

let warmup ~seed cat =
  let srv =
    Server.create
      ~config:
        { Server.default_config with
          Server.admission; domains = Some settings.Common.pool_size }
      cat
  in
  let sessions = Array.init sessions_n (fun i -> Server.session srv ~label:(Printf.sprintf "client-%d" i) ()) in
  let w = { srv; sessions; stmts = statements cat ~seed round_len; gap = 0.0 } in
  (* calibration round, far apart: every latency is a pure service time *)
  let log = new_log () in
  play { w with gap = 1000.0 } log;
  let service = Common.mean (List.map (fun (o, _) -> Server.latency_ms o) log.outcomes) in
  let w = { w with gap = gap_factor *. service } in
  (* a second round at the measured gap leaves the server, plan cache
     and buffer cache exactly as every timed round leaves them *)
  play w (new_log ());
  w

let run ~tr ~seed ~seconds =
  Common.apply settings;
  let cat, w, st = Common.setup ~scale:settings.Common.scale ~seed ~warmup:(warmup ~seed) in
  let before = Layer.server_snap w.srv in
  let logs = ref [] and rounds = ref [] in
  let speed = Common.Speed.create () in
  let t0 = Common.now () in
  while Common.now () -. t0 < seconds do
    let log = new_log () in
    play ~tr ~speed w log;
    rounds :=
      { Common.query_ms = arrival_order log.outcomes;
        step_ms = Array.of_list (List.rev (log.finish_ms :: log.submit_ms));
        statements = round_len; probes = Common.Speed.take speed }
      :: !rounds;
    logs := log :: !logs
  done;
  let outcomes = List.concat_map (fun l -> l.outcomes) !logs in
  let io = List.fold_left (fun acc l -> Counters.add acc l.io) Counters.zero !logs in
  let n_rounds = List.length !rounds in
  let heap = Common.peak_heap_mb () in
  let after = Layer.server_snap w.srv in
  (* every result must equal the same text through Nra.run under
     nra-optimized, outside the server, untimed *)
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let reference = Hashtbl.create 512 in
  let failed = ref 0 in
  List.iter
    (fun ((o : Server.outcome), _) ->
      match o.Server.result with
      | Error _ -> incr failed
      | Ok (Nra.Rows r) -> (
          let dg = Common.csv_digest r in
          let want =
            match Hashtbl.find_opt reference o.Server.sql with
            | Some v -> v
            | None ->
                let v =
                  match Nra.run ~strategy:Nra.Nra_optimized cat o.Server.sql with
                  | Ok (Nra.Rows r) -> Common.csv_digest r
                  | Ok _ | Error _ -> "no reference result"
                in
                Hashtbl.add reference o.Server.sql v;
                v
          in
          if dg <> want then problem "served result differs for %s" o.Server.sql)
      | Ok _ -> problem "not a query result: %s" o.Server.sql)
    outcomes;
  let attempted = n_rounds * round_len in
  if List.length outcomes <> attempted then
    problem "%d outcomes for %d statements" (List.length outcomes) attempted;
  (* latencies are differences of a clock that grows round by round;
     rounding off the float noise of that makes them identical for
     every round count *)
  let virt =
    List.map (fun (o, _) -> Float.round (Server.latency_ms o *. 1e6) /. 1e6) outcomes
  in
  let host = Common.host_metrics !rounds in
  let e2e =
    host
    @ [
        ("virtual_p50_ms", Common.percentile virt 0.5);
        ("virtual_p95_ms", Common.percentile virt 0.95);
        ("sim_io_s", Counters.sim_seconds ~per:n_rounds io);
        ("peak_heap_mb", heap);
      ]
  in
  let layers =
    if not (Trace.enabled tr) then []
    else
      let waits =
        List.filter_map
          (fun ((o : Server.outcome), _) ->
            Option.map (fun s -> s -. o.Server.submitted_at) o.Server.started_at)
          outcomes
      in
      let distinct = List.sort_uniq String.compare w.stmts in
      let sum =
        Attr.run tr cat ~budget_s:seconds (List.map (fun sql -> (Nra.Auto, sql)) distinct)
      in
      Layer.setup st @ Layer.storage io
      @ Layer.server ~before ~after
          ~submit_ms:(List.concat_map (fun l -> l.submit_ms) !logs)
          ~queue_wait_ms:waits
      @ Attr.metrics tr sum
      @ [ ("trace.throughput_sps", List.assoc "throughput_sps" host) ]
  in
  ( {
      Common.correct = !problems = [];
      problems = List.rev !problems;
      attempted;
      failed = !failed;
      e2e;
      layers;
      samples =
        [ ("statements", List.length outcomes); ("rounds", n_rounds);
          ("distinct_texts", Hashtbl.length reference) ];
      settings;
    },
    st )
