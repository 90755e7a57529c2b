(* Per-layer metrics read from the layers' public counters: set-up
   phases, storage (Iosim, Bufpool, Governor, WAL, Guard) over the timed
   phase, and the serving layer's plan cache, admission controller and
   scheduler. *)

module Server = Nra_server.Server
module Plan_cache = Nra_server.Plan_cache
module Scheduler = Nra_server.Scheduler

let setup (t : Common.setup_times) =
  [
    ("setup.gen_s", t.Common.gen_s);
    ("setup.index_s", t.Common.index_s);
    ("setup.analyze_s", t.Common.analyze_s);
    ("setup.warmup_s", t.Common.warmup_s);
  ]

let storage (io : Counters.t) =
  let f = float_of_int in
  let open Counters in
  [
    ("iosim.seq_pages", f io.seq_pages);
    ("iosim.rand_pages", f io.rand_pages);
    ("iosim.fetched_rows", f io.fetched_rows);
    ("iosim.cache_hit_ratio", ratio io.cache_hits (io.cache_hits + io.cache_misses));
    ("bufpool.hit_ratio", ratio io.bp_hits (io.bp_hits + io.bp_misses));
    ("bufpool.misses", f io.bp_misses);
    ("bufpool.evictions", f io.bp_evictions);
    ("bufpool.writebacks", f io.bp_writebacks);
    ("bufpool.spilled_pages", f io.bp_spilled_pages);
    ("governor.high_water_bytes", f (Nra.Governor.stats ()).Nra.Governor.high_water_bytes);
    ("governor.spilled_stagings", f io.gov_spilled);
    ("wal.records", f io.wal_records);
    ("guard.auto_fallbacks", f io.fallbacks);
  ]

(* the serving layer's counters, snapshotted around the timed phase *)
type server_snap = {
  pc : Plan_cache.stats;
  adm : Nra_server.Admission.stats;
  sch : Scheduler.stats;
}

let server_snap srv =
  {
    pc = Plan_cache.stats (Server.cache srv);
    adm = Server.admission_stats srv;
    sch = Scheduler.stats (Server.scheduler srv);
  }

let server ~before ~after ~submit_ms ~queue_wait_ms =
  let f = float_of_int in
  let d g = f (g after - g before) in
  let lookups = d (fun s -> s.pc.Plan_cache.hits + s.pc.Plan_cache.misses) in
  [
    ("server.submit_ms", Common.mean submit_ms);
    ("server.queue_wait_p95_ms", Common.percentile queue_wait_ms 0.95);
    ( "plan_cache.hit_ratio",
      if lookups = 0.0 then 0.0 else d (fun s -> s.pc.Plan_cache.hits) /. lookups );
    ("plan_cache.evictions", d (fun s -> s.pc.Plan_cache.evictions));
    ("plan_cache.invalidations", d (fun s -> s.pc.Plan_cache.invalidations));
    ("admission.queued", d (fun s -> s.adm.Nra_server.Admission.queued));
    ("admission.peak_queue", f after.adm.Nra_server.Admission.peak_queue);
    ("admission.rejected_full", d (fun s -> s.adm.Nra_server.Admission.rejected_full));
    ("admission.timed_out", d (fun s -> s.adm.Nra_server.Admission.timed_out));
    ("scheduler.slices", d (fun s -> s.sch.Scheduler.slices));
    ("scheduler.yields", d (fun s -> s.sch.Scheduler.yields));
    ("scheduler.max_live", f after.sch.Scheduler.max_live);
  ]
