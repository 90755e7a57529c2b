(* The metric catalogue (names and units exactly as BENCHMARK.json lists
   them), host metadata, and the JSON the run prints. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("query_p50_ms", "ms");
    ("query_p95_ms", "ms");
    ("throughput_sps", "stmt/s");
    ("virtual_p50_ms", "ms");
    ("virtual_p95_ms", "ms");
    ("sim_io_s", "s");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("setup.gen_s", "s"); ("setup.index_s", "s"); ("setup.analyze_s", "s"); ("setup.warmup_s", "s");
    ("core.prepare_ms", "ms"); ("core.run_prepared_ms", "ms"); ("trace.unattributed_ms", "ms");
    ("sql.parse_ms", "ms");
    ("planner.analyze_ms", "ms");
    ("stats.estimate_ms", "ms"); ("opt.rewrite_ms", "ms"); ("stats.q_error_p50", "ratio");
    ("stats.q_error_max", "ratio"); ("guard.auto_fallbacks", "count");
    ("exec.nra.run_where_ms", "ms"); ("exec.naive.run_where_ms", "ms");
    ("exec.classical.run_where_ms", "ms"); ("exec.post_ms", "ms");
    ("exec.nra.peak_intermediate_rows", "rows"); ("exec.nra.intermediate_rows", "rows");
    ("exec.naive.index_probes", "count"); ("exec.naive.inner_loops", "count");
    ("algebra.join_ms", "ms"); ("nested.nest_select_ms", "ms"); ("exec.nra.other_ms", "ms");
    ("render.csv_ms", "ms");
    ("iosim.seq_pages", "pages"); ("iosim.rand_pages", "pages"); ("iosim.fetched_rows", "rows");
    ("iosim.cache_hit_ratio", "ratio"); ("bufpool.hit_ratio", "ratio"); ("bufpool.misses", "count");
    ("bufpool.evictions", "count"); ("bufpool.writebacks", "count");
    ("bufpool.spilled_pages", "pages"); ("governor.high_water_bytes", "bytes");
    ("governor.spilled_stagings", "count"); ("wal.records", "count");
    ("server.submit_ms", "ms"); ("server.queue_wait_p95_ms", "ms"); ("plan_cache.hit_ratio", "ratio");
    ("plan_cache.evictions", "count"); ("plan_cache.invalidations", "count");
    ("admission.queued", "count"); ("admission.peak_queue", "count");
    ("admission.rejected_full", "count"); ("admission.timed_out", "count");
    ("scheduler.slices", "count"); ("scheduler.yields", "count"); ("scheduler.max_live", "count");
    ("dml.p50_ms", "ms"); ("dml.p95_ms", "ms"); ("error_rate", "ratio");
    ("trace.throughput_sps", "stmt/s");
  ]

(* [values] in catalogue order; a metric the workload does not exercise
   reads 0, a name outside the catalogue is a programming error *)
let complete catalogue values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then failwith ("unknown metric " ^ name))
    values;
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0.0 (List.assoc_opt name values), unit))
    catalogue

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_char b ' '
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let metrics_json ms =
  obj
    (List.map
       (fun (name, v, unit) ->
         (name, obj [ ("value", json_number v); ("unit", json_string unit) ]))
       ms)

(* the commit of a git checkout, read from .git without running git *)
let git_commit () =
  let read path = try Some (String.trim (In_channel.with_open_text path In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some c -> c
      | None -> (
          match read ".git/packed-refs" with
          | None -> "unknown"
          | Some packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun l ->
                     match String.split_on_char ' ' l with
                     | [ c; name ] when name = r -> Some c
                     | _ -> None)
              |> Option.value ~default:"unknown"))
  | Some c -> c
  | None -> "unknown"

let metadata ~workload ~seed ~seconds ~trace (s : Common.settings) samples =
  let fault = Nra.Fault.config () in
  obj
    [
      ("workload", json_string workload);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("commit", json_string (git_commit ()));
      ("scale", json_number s.Common.scale);
      ("data_seed", string_of_int seed);
      ("param_seed", string_of_int seed);
      ("seconds", json_number seconds);
      ("trace", string_of_bool trace);
      ("pool_size", string_of_int (Nra.Pool.size ()));
      ("frames", match Nra.Bufpool.frames () with Some n -> string_of_int n | None -> "null");
      ("columnar", string_of_bool (Nra.columnar_enabled ()));
      ("rewrite", json_string (Nra.rewrite_signature ()));
      ( "faults",
        json_string
          (if Nra.Fault.enabled () then
             Printf.sprintf "p=%g seed=%d" fault.Nra.Fault.probability fault.Nra.Fault.seed
           else "off") );
      ("samples", obj (List.map (fun (k, n) -> (k, string_of_int n)) samples));
    ]
