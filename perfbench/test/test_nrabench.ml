(* The benchmark's own checks: spans nest within their parents, self
   times are non-negative, and the per-statement counter deltas a
   traced run records add up exactly to the workload's totals. *)

open Nrabench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let spin () = ignore (Sys.opaque_identity (List.init 2000 Fun.id))

let test_nesting () =
  let tr = Trace.create ~on:true in
  let (), _ =
    Trace.statement tr "stmt" (fun () ->
        Trace.span tr "a" (fun () ->
            spin ();
            Trace.span tr "a.1" spin;
            Trace.span tr "a.2" spin);
        Trace.span tr "b" spin)
  in
  let _ = Trace.statement tr "stmt" (fun () -> Trace.span tr "c" spin) in
  let spans = Trace.spans tr in
  check "spans recorded" (List.length spans = 7);
  check "children nest in their parents" (Trace.check spans = []);
  check "self times are non-negative"
    (List.for_all (fun (_, self) -> self >= 0.0) (Trace.self_times spans));
  check "statements have their own ids"
    (List.length (List.sort_uniq compare (List.map (fun s -> s.Trace.stmt) spans)) = 2);
  (* a child moved outside its parent is reported *)
  let a = List.find (fun s -> s.Trace.name = "a.1") spans in
  let moved = { a with Trace.stop = a.Trace.stop +. 10.0 } in
  check "a child outside its parent is caught"
    (Trace.check (moved :: List.filter (fun s -> s != a) spans) <> []);
  let off = Trace.create ~on:false in
  let v, _ = Trace.statement off "stmt" (fun () -> Trace.span off "x" (fun () -> 42)) in
  check "an off recorder runs the body and records nothing" (v = 42 && Trace.spans off = [])

(* the root statement spans' deltas against snapshots around the phase *)
let sums_exactly name tr phase =
  let c0 = Counters.snap () in
  phase ();
  let total = Counters.sub (Counters.snap ()) c0 in
  let spans = Trace.spans tr in
  check (name ^ ": spans nest") (Trace.check spans = []);
  check (name ^ ": statement deltas sum to the totals") (Trace.statement_total spans = total);
  check (name ^ ": simulated time of the sum is the total's")
    (Counters.sim_seconds (Trace.statement_total spans) = Counters.sim_seconds total);
  total

let test_served_sums cat =
  let tr = Trace.create ~on:true in
  let w = Served.warmup ~seed:3 cat in
  let log = Served.new_log () in
  let total = sums_exactly "served" tr (fun () -> Served.play ~tr w log) in
  check "served: the round's own sum is the total" (log.Served.io = total);
  check "served: every statement completed" (List.length log.Served.outcomes = Served.round_len)

let test_spill_sums cat =
  Nra.Bufpool.set_frames (Some 8);
  let tr = Trace.create ~on:true in
  let w = Spill.world ~seed:3 cat in
  let before = Spill.fingerprint cat in
  let total =
    sums_exactly "write-spill" tr (fun () ->
        List.iter
          (fun (_, strategy, sql) ->
            match Trace.statement tr "stmt" (fun () -> Spill.exec w strategy sql) with
            | Ok _, _ -> ()
            | Error e, _ -> failwith (Nra.Exec_error.to_string e))
          w.Spill.stmts)
  in
  check "write-spill: the buffer pool missed" (total.Counters.bp_misses > 0);
  check "write-spill: the WAL was written" (total.Counters.wal_records > 0);
  check "write-spill: a round leaves the tables as it found them"
    (Spill.fingerprint cat = before);
  Nra.Bufpool.set_frames None

let () =
  test_nesting ();
  Common.apply { Common.scale = 0.002; pool_size = 0; frames = None; columnar = true };
  let cat, _ = Common.build ~scale:0.002 ~seed:3 in
  test_served_sums cat;
  test_spill_sums cat;
  if !failures > 0 then exit 1
