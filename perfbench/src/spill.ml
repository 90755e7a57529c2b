(* write-spill: one client in a closed loop through [Server.exec], under
   a frame budget far below the largest intermediate, so grace joins and
   nests spill through the buffer pool and the governor.  Reads (Query 1
   and 2b mid windows, the served-lookups templates) alternate with
   single-row DML by key on orders, customer, partsupp and lineitem, a
   small INSERT ... SELECT and an ANALYZE of orders.  Every round deletes
   what it inserted, so each round starts from the same tables.  The
   strategy is a server setting, so the client holds one session on each
   of two servers over the one catalog: Auto (the default, which also
   takes the DML) and nra-optimized. *)

module Server = Nra_server.Server

let settings = { Common.scale = 0.01; pool_size = 0; frames = Some 32; columnar = true }

(* keys no generated row uses; the same every round *)
let new_key = 9_000_001

(* Two statements from each lookup template per write: with one each,
   the reads split evenly into short lookups and long queries and the
   median fell in the gap between them, where it jumped run to run. *)
let reads ~seed cat =
  let q1 = Olap.q1 (8_000. /. 1_500_000.)
  and q2b = Olap.q2 Olap.Q.All (24_000. /. 200_000.) in
  [ (Nra.Nra_optimized, q1); (Nra.Auto, q1); (Nra.Nra_optimized, q2b); (Nra.Auto, q2b) ]
  @ List.map (fun sql -> (Nra.Auto, sql)) (Served.statements cat ~seed 8)

let writes =
  [
    Printf.sprintf
      "insert into orders values (%d, 1, 'O', 123456.5, date '1995-03-15', \
       '1-URGENT', 'Clerk#000000001', 0, 'perfbench')"
      new_key;
    Printf.sprintf
      "insert into customer values (%d, 'Customer#perfbench', 'addr', 3, \
       '13-0000000', 100.5, 'BUILDING', 'perfbench')"
      new_key;
    Printf.sprintf
      "insert into lineitem values (%d, 1, 1, 1, 25, 1000.5, 0.05, 0.01, 'N', \
       'O', date '1995-03-20', date '1995-03-25', date '1995-04-01', 'NONE', \
       'MAIL', 'perfbench')"
      new_key;
    Printf.sprintf "insert into partsupp values (%d, 1, 500, 10.5, 'perfbench')" new_key;
    Printf.sprintf
      "insert into customer select c_custkey + %d, c_name, c_address, \
       c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment from customer \
       where c_custkey <= 3"
      new_key;
    Printf.sprintf "delete from lineitem where l_orderkey = %d" new_key;
    Printf.sprintf "delete from orders where o_orderkey = %d" new_key;
    Printf.sprintf "delete from partsupp where ps_partkey = %d" new_key;
    Printf.sprintf "delete from customer where c_custkey >= %d" new_key;
    "analyze orders";
  ]

type kind = Read | Write

(* one round: each write followed by every read *)
let round ~seed cat =
  let rs = List.map (fun (s, q) -> (Read, s, q)) (reads ~seed cat) in
  List.concat_map (fun w -> (Write, Nra.Auto, w) :: rs) writes

let tables = [ "orders"; "customer"; "lineitem"; "partsupp"; "part"; "supplier"; "nation"; "region" ]

(* (cardinality, order-independent checksum) of every table *)
let fingerprint cat =
  List.map
    (fun name ->
      let t = Nra.Catalog.table cat name in
      let rows = Nra.Relation.rows (Nra.Table.relation t) in
      (name, Array.length rows, Array.fold_left (fun acc r -> acc + Nra.Row.hash r) 0 rows))
    tables

type world = {
  servers : (Nra.strategy * (Server.t * Nra_server.Session.t)) list;
  stmts : (kind * Nra.strategy * string) list;
}

let world ~seed cat =
  let server strategy =
    let srv =
      Server.create
        ~config:
          { Server.default_config with
            Server.strategy; domains = Some settings.Common.pool_size }
        cat
    in
    (strategy, (srv, Server.session srv ()))
  in
  { servers = [ server Nra.Auto; server Nra.Nra_optimized ]; stmts = round ~seed cat }

let exec w strategy sql =
  let srv, sess = List.assoc strategy w.servers in
  Server.exec srv sess sql

let warmup ~seed cat =
  let w = world ~seed cat in
  List.iter (fun (_, s, sql) -> ignore (exec w s sql)) w.stmts;
  w

let run ~tr ~seed ~seconds =
  Common.apply settings;
  let cat, w, st = Common.setup ~scale:settings.Common.scale ~seed ~warmup:(warmup ~seed) in
  let start = fingerprint cat in
  let before = List.map (fun (s, (srv, _)) -> (s, Layer.server_snap srv)) w.servers in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let first = Hashtbl.create 16 in
  let dml_ms = ref [] and virt_ms = ref [] and exec_ms = ref [] and rounds = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let io = ref Counters.zero in
  let busy = ref 0.0 and speed = Common.Speed.create () in
  while !busy < seconds do
    let t0 = Common.Speed.now speed and query_ms = ref [] and step_ms = ref [] in
    List.iteri
      (fun i (kind, strategy, sql) ->
        Common.Speed.tick speed;
        incr attempted;
        let s0 = Common.Speed.now speed in
        let res, d =
          Trace.statement tr "stmt" (fun () ->
              Trace.span tr "server.exec" (fun () -> exec w strategy sql))
        in
        let ms = 1000.0 *. (Common.Speed.now speed -. s0) in
        exec_ms := ms :: !exec_ms;
        step_ms := ms :: !step_ms;
        (match kind with Read -> query_ms := ms :: !query_ms | Write -> dml_ms := ms :: !dml_ms);
        virt_ms := (1000.0 *. Counters.sim_seconds d) :: !virt_ms;
        io := Counters.add !io d;
        match res with
        | Error e ->
            incr failed;
            problem "%s failed: %s" sql (Nra.Exec_error.to_string e)
        | Ok (Nra.Rows r) -> (
            (* a read sees the same tables every round, so the same result *)
            let dg = Common.csv_digest r in
            match Hashtbl.find_opt first i with
            | None -> Hashtbl.add first i dg
            | Some dg' ->
                if dg <> dg' then problem "round %d: %s changed result" (List.length !rounds) sql)
        | Ok _ -> ())
      w.stmts;
    let elapsed = Common.Speed.now speed -. t0 in
    busy := !busy +. elapsed;
    rounds :=
      { Common.query_ms = Array.of_list !query_ms; step_ms = Array.of_list !step_ms;
        statements = List.length w.stmts;
        probes = Common.Speed.take speed }
      :: !rounds;
    (* untimed: every table back at its start size and checksum *)
    if fingerprint cat <> start then problem "round %d left the tables changed" (List.length !rounds)
  done;
  let n_rounds = List.length !rounds in
  let host = Common.host_metrics !rounds in
  let heap = Common.peak_heap_mb () in
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
      let srv = fst (List.assoc Nra.Auto w.servers) in
      let reads = List.filter_map (fun (k, s, q) -> if k = Read then Some (s, q) else None) w.stmts in
      let sum = Attr.run tr cat ~budget_s:seconds reads in
      Layer.setup st @ Layer.storage !io
      @ Layer.server ~before:(List.assoc Nra.Auto before) ~after:(Layer.server_snap srv)
          ~submit_ms:!exec_ms ~queue_wait_ms:[ 0.0 ]
      @ Attr.metrics tr sum
      @ [
          ("dml.p50_ms", Common.percentile !dml_ms 0.5);
          ("dml.p95_ms", Common.percentile !dml_ms 0.95);
          ("trace.throughput_sps", List.assoc "throughput_sps" host);
        ]
  in
  ( {
      Common.correct = !problems = [];
      problems = List.rev !problems;
      attempted = !attempted;
      failed = !failed;
      e2e;
      layers;
      samples =
        [ ("statements", !attempted);
          ("queries", List.fold_left (fun n r -> n + Array.length r.Common.query_ms) 0 !rounds);
          ("dml", List.length !dml_ms); ("rounds", n_rounds) ];
      settings;
    },
    st )
