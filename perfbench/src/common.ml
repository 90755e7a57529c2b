(* What every workload shares: execution settings applied through the
   library's public setters, the timed catalog set-up, sample
   statistics, and the per-run result record. *)

(* ---------- settings ---------- *)

type settings = {
  scale : float;
  pool_size : int;  (** worker domains beside the owner *)
  frames : int option;  (** buffer-pool frame budget; [None] = unbounded *)
  columnar : bool;
}

let apply s =
  Nra.Pool.set_size s.pool_size;
  Nra.Bufpool.set_frames s.frames;
  Nra.set_columnar s.columnar;
  Nra.set_rewrite_rules [];
  Nra.Fault.disable ()

(* ---------- sample statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile, [p] in [0, 1] *)
let percentile xs p =
  let a = sorted xs in
  match Array.length a with
  | 0 -> 0.0
  | n ->
      let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let median xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> 0.0
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let now = Unix.gettimeofday

(* ---------- host speed ---------- *)

(* The host's own speed, probed between statements.  On a shared host it
   drifts by tens of percent over seconds to minutes with other tenants'
   load, and the engine's time drifts with it.  The probe is fixed work
   of the two kinds the engine does most: reading boxed values of mixed
   kinds with a tag dispatch on each, and copying memory (as spilled pages
   are).  It is independent of the engine and allocates nothing, so
   neither the engine's code nor its heap moves it; its copy buffers live
   outside the OCaml heap, so they do not count in [peak_heap_mb]. *)
module Speed = struct
  type v = I of int | F of float | S of string | N

  let values =
    lazy
      (let st = Random.State.make [| 11 |] in
       Array.init 200_000 (fun i ->
           match Random.State.int st 4 with
           | 0 -> I i
           | 1 -> F (float_of_int i)
           | 2 -> S (string_of_int i)
           | _ -> N))

  let pass () =
    let h = ref 0 in
    Array.iter
      (fun v ->
        let x =
          match v with
          | I i -> i
          | F f -> int_of_float f
          | S s -> String.length s + Char.code (String.unsafe_get s 0)
          | N -> 7
        in
        h := ((!h * 31) + x) land 0xFFFFFFF)
      (Lazy.force values);
    ignore (Sys.opaque_identity !h)

  let buffers =
    lazy
      (let b () = Bigarray.Array1.init Bigarray.char Bigarray.c_layout (16 lsl 20) (fun _ -> 'x') in
       (b (), b ()))

  (* seconds of two passes over the values, after an untimed one brings
     them into cache, and of copying 16 MB there and back *)
  let probe () =
    let a, b = Lazy.force buffers in
    pass ();
    let t0 = Unix.gettimeofday () in
    pass ();
    pass ();
    Bigarray.Array1.blit a b;
    Bigarray.Array1.blit b a;
    Unix.gettimeofday () -. t0

  (* about the probe's time on the reference host, a 2-vCPU Xeon VM, when
     quiet: host times are reported as if measured at that speed *)
  let reference = 0.012

  type t = { mutable last : float; mutable probes : float list; mutable spent : float }

  let create () = { last = Float.neg_infinity; probes = []; spent = 0.0 }

  (* the host clock less the time spent probing *)
  let now t = Unix.gettimeofday () -. t.spent

  (* probe if a quarter second has passed since the last probe *)
  let tick t =
    let t0 = Unix.gettimeofday () in
    if t0 -. t.last >= 0.25 then begin
      t.probes <- probe () :: t.probes;
      t.last <- Unix.gettimeofday ();
      t.spent <- t.spent +. (t.last -. t0)
    end

  (* the probes since the last [take], forcing one if there were none *)
  let take t =
    if t.probes = [] then begin
      let t0 = Unix.gettimeofday () in
      t.probes <- [ probe () ];
      t.spent <- t.spent +. (Unix.gettimeofday () -. t0)
    end;
    let ps = t.probes in
    t.probes <- [];
    ps
end

(* ---------- catalog set-up ---------- *)

type setup_times = {
  gen_s : float;
  index_s : float;
  analyze_s : float;
  warmup_s : float;
  probes : float list;  (** speed probes taken just before and after the build *)
}

let build_s t = t.gen_s +. t.index_s +. t.analyze_s

(* set-up time at the reference speed: the median of the builds plus the
   first one's warm-up, scaled by the median of the builds' probes *)
let setup_s = function
  | [] -> 0.0
  | first :: _ as builds ->
      let host = median (List.map build_s builds) +. first.warmup_s in
      host *. Speed.reference /. median (List.concat_map (fun t -> t.probes) builds)

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* the TPC-H catalog from the workload seed, with the paper's Section
   5.1 indexes and statistics; [warmup_s] is left at 0 *)
let build ~scale ~seed =
  let before = Speed.probe () in
  let cat, gen_s =
    timed (fun () ->
        Nra.Tpch.Gen.generate
          { Nra.Tpch.Gen.default with scale; seed = Int64.of_int seed })
  in
  let (), index_s = timed (fun () -> Nra.Tpch.Gen.add_benchmark_indexes cat) in
  let (), analyze_s =
    timed (fun () ->
        match Nra.exec cat "analyze" with
        | Ok _ -> ()
        | Error e -> failwith ("analyze: " ^ e))
  in
  (cat, { gen_s; index_s; analyze_s; warmup_s = 0.0; probes = [ before; Speed.probe () ] })

(* [build], then the workload's warm-up round on the catalog *)
let setup ~scale ~seed ~warmup =
  let cat, t = build ~scale ~seed in
  let w, warmup_s = timed (fun () -> warmup cat) in
  (* every timed phase starts from a freshly collected heap *)
  Gc.compact ();
  (cat, w, { t with warmup_s })

(* ---------- a deterministic draw for statement parameters ---------- *)

module Draw = struct
  type t = Nra.Tpch.Prng.t

  let create seed = Nra.Tpch.Prng.create (Int64.of_int (seed * 7919 + 17))
  let int t n = Nra.Tpch.Prng.int t n

  (* Zipf(s) over 1..n by inversion of the cumulative weights; the
     ranks are then mapped through a seeded permutation so the hot keys
     differ from seed to seed *)
  let zipf t ~n ~s =
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
      cdf.(i) <- !acc
    done;
    let perm = Array.init n (fun i -> i + 1) in
    for i = n - 1 downto 1 do
      let j = int t (i + 1) in
      let x = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- x
    done;
    fun () ->
      let u = float_of_int (int t 1_000_000_000) /. 1e9 *. !acc in
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < u then lo := mid + 1 else hi := mid
      done;
      perm.(!lo)
end

(* ---------- host-time metrics ---------- *)

(* one round of the timed phase, as the host clock saw it (less the
   probes): the host ms of each query and of each step (every statement;
   on served-lookups every submit with its drain, and the finish), in the
   same order every round, and the speed probes taken during the round *)
type round = {
  query_ms : float array;
  step_ms : float array;
  statements : int;
  probes : float list;
}

(* Each step's median over the rounds, at the reference speed.  Every
   time of a round is scaled by [Speed.reference] over the median of the
   probes taken during that round, which takes out most of the host's
   drift, and each query's and each step's median over the scaled rounds
   takes out the rest.  The query percentiles are taken over the queries'
   medians, and throughput is a round's statements over the sum of its
   steps' medians. *)
let host_metrics rounds =
  let scaled =
    List.map
      (fun r ->
        let k = Speed.reference /. median r.probes in
        (Array.map (fun ms -> ms *. k) r.query_ms, Array.map (fun ms -> ms *. k) r.step_ms))
      rounds
  in
  let per_slot f =
    match scaled with
    | [] -> []
    | r :: _ ->
        List.init (Array.length (f r)) (fun i -> median (List.map (fun r -> (f r).(i)) scaled))
  in
  let query = per_slot fst in
  let round_s = List.fold_left ( +. ) 0.0 (per_slot snd) /. 1000.0 in
  let statements = match rounds with [] -> 0 | r :: _ -> r.statements in
  [
    ("query_p50_ms", percentile query 0.5);
    ("query_p95_ms", percentile query 0.95);
    ("throughput_sps", float_of_int statements /. round_s);
  ]

(* ---------- results ---------- *)

type result = {
  correct : bool;
  problems : string list;  (** every failed result check *)
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;
  samples : (string * int) list;  (** sample counts behind the metrics *)
  settings : settings;
}

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1_048_576.0

let csv_digest rel = Digest.to_hex (Digest.string (Nra.Relation.to_csv rel))
