(* The benchmark program: runs one workload and prints its result as the
   last line of stdout.

     main.exe --workload paper-olap|served-lookups|write-spill
              --seed N --seconds S --trace 0|1

   With --trace 0 the metrics are the end-to-end ones; with --trace 1
   the run records spans and prints the per-layer metrics.  Host
   metadata and the sample counts go to the line before the result and,
   with the spans of a traced run, under .bench_out/.  See README.md. *)

open Nrabench

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-olap|served-lookups|write-spill --seed N \
     --seconds S --trace 0|1";
  exit 2

let workloads =
  [ ("paper-olap", Olap.run); ("served-lookups", Served.run); ("write-spill", Spill.run) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with Some v -> seed := v | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some v when v > 0.0 -> seconds := v | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* the library reads NRA_* variables at start-up; refuse them so the
     environment cannot change what is measured *)
  Array.iter
    (fun kv ->
      if String.length kv > 4 && String.sub kv 0 4 = "NRA_" then begin
        prerr_endline ("refusing to run with " ^ kv ^ " set: unset every NRA_* variable");
        exit 2
      end)
    (Unix.environment ());
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  let tr = Trace.create ~on:!trace in
  let res, first = run ~tr ~seed:!seed ~seconds:!seconds in
  let problems =
    res.Common.problems @ if !trace then Trace.check (Trace.spans tr) else []
  in
  let metrics =
    if !trace then
      Report.complete Report.per_layer
        (res.Common.layers
        @ [ ("error_rate", Counters.ratio res.Common.failed res.Common.attempted) ])
    else
      (* set-up time from three catalog builds, two of them repeated here *)
      let builds =
        List.init 2 (fun _ -> snd (Common.build ~scale:res.Common.settings.Common.scale ~seed:!seed))
      in
      let setup_s = Common.setup_s (first :: builds) in
      Report.complete Report.end_to_end (("setup_s", setup_s) :: res.Common.e2e)
  in
  let meta =
    Report.metadata ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
      res.Common.settings res.Common.samples
  in
  let result =
    Report.obj
      [
        ("correct", string_of_bool (problems = []));
        ("attempted", string_of_int res.Common.attempted);
        ("failed", string_of_int res.Common.failed);
        ("metrics", Report.metrics_json metrics);
      ]
  in
  let out = ".bench_out" in
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let base =
    Filename.concat out (Printf.sprintf "%s-seed%d-trace%d" !workload !seed (if !trace then 1 else 0))
  in
  Out_channel.with_open_text (base ^ ".json") (fun oc ->
      Printf.fprintf oc "{\"meta\": %s, \"problems\": [%s], \"result\": %s}\n" meta
        (String.concat ", " (List.map Report.json_string problems))
        result);
  if !trace then Trace.write tr (base ^ ".spans.jsonl");
  List.iter (fun p -> prerr_endline ("check failed: " ^ p)) problems;
  print_endline ("# meta " ^ meta);
  print_endline result
