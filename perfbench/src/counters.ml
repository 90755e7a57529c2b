(* Snapshots of the storage layer's public counters.  Every statement the
   benchmark issues is bracketed by two snapshots; the per-statement
   deltas add up to the workload's totals exactly (all fields are
   integers), and simulated time is derived from the summed page counts
   with Iosim's own formula, so no float rounding separates a sum of
   statements from the total. *)

module Iosim = Nra.Iosim
module Bufpool = Nra.Bufpool

type t = {
  seq_pages : int;
  rand_pages : int;
  fetched_rows : int;
  cache_hits : int;  (** Iosim's rowid buffer cache *)
  cache_misses : int;
  bp_hits : int;
  bp_misses : int;
  bp_evictions : int;
  bp_writebacks : int;
  bp_spilled_pages : int;
  gov_spilled : int;
  wal_records : int;
  fallbacks : int;  (** Auto kill-and-fallback events *)
}

let zero =
  {
    seq_pages = 0;
    rand_pages = 0;
    fetched_rows = 0;
    cache_hits = 0;
    cache_misses = 0;
    bp_hits = 0;
    bp_misses = 0;
    bp_evictions = 0;
    bp_writebacks = 0;
    bp_spilled_pages = 0;
    gov_spilled = 0;
    wal_records = 0;
    fallbacks = 0;
  }

let snap () =
  let io = Iosim.counters () and bp = Bufpool.stats () in
  {
    seq_pages = io.Iosim.seq_pages;
    rand_pages = io.Iosim.rand_pages;
    fetched_rows = io.Iosim.fetched_rows;
    cache_hits = Iosim.cache_hits ();
    cache_misses = Iosim.cache_misses ();
    bp_hits = bp.Bufpool.hits;
    bp_misses = bp.Bufpool.misses;
    bp_evictions = bp.Bufpool.evictions;
    bp_writebacks = bp.Bufpool.writebacks;
    bp_spilled_pages = bp.Bufpool.spilled_pages;
    gov_spilled = (Nra.Governor.stats ()).Nra.Governor.spilled_stagings;
    wal_records = Nra.Wal.records ();
    fallbacks = (Nra.Guard.events ()).Nra.Guard.auto_fallbacks;
  }

let map2 f a b =
  {
    seq_pages = f a.seq_pages b.seq_pages;
    rand_pages = f a.rand_pages b.rand_pages;
    fetched_rows = f a.fetched_rows b.fetched_rows;
    cache_hits = f a.cache_hits b.cache_hits;
    cache_misses = f a.cache_misses b.cache_misses;
    bp_hits = f a.bp_hits b.bp_hits;
    bp_misses = f a.bp_misses b.bp_misses;
    bp_evictions = f a.bp_evictions b.bp_evictions;
    bp_writebacks = f a.bp_writebacks b.bp_writebacks;
    bp_spilled_pages = f a.bp_spilled_pages b.bp_spilled_pages;
    gov_spilled = f a.gov_spilled b.gov_spilled;
    wal_records = f a.wal_records b.wal_records;
    fallbacks = f a.fallbacks b.fallbacks;
  }

let add = map2 ( + )
let sub = map2 ( - )

(* Iosim.simulated_seconds, applied to a delta — or, with [~per:n], to
   an n-th of it.  The counts are divided before pricing, so n identical
   rounds price exactly as one of them does, whatever n is. *)
let sim_seconds ?(per = 1) c =
  let k = Iosim.config () and f n = float_of_int n /. float_of_int per in
  ((f c.seq_pages *. k.Iosim.t_seq_ms)
  +. (f c.rand_pages *. k.Iosim.t_rand_ms)
  +. (f c.fetched_rows *. k.Iosim.t_fetch_ms))
  /. 1000.0

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
