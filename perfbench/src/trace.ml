(* In-memory span recorder.  A span is (name, start, end, parent,
   statement id); spans are opened from the benchmark's own code around
   its calls into each layer, kept in memory, and written out as JSON
   lines when the run ends.  When the recorder is off every function
   runs its body and records nothing. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  stmt : int;  (** statement id shared by a statement's spans *)
  start : float;
  stop : float;
  delta : Counters.t option;  (** counter delta, on statement spans *)
}

type frame = { f_id : int; f_name : string; f_parent : int; f_stmt : int; f_start : float }

type t = {
  on : bool;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable next_stmt : int;
  mutable stack : frame list;
}

let create ~on = { on; spans = []; next_id = 0; next_stmt = 0; stack = [] }
let enabled t = t.on
let spans t = List.rev t.spans

let with_frame t ~stmt name ~delta f =
  let parent = match t.stack with p :: _ -> p.f_id | [] -> -1 in
  let fr =
    { f_id = t.next_id; f_name = name; f_parent = parent; f_stmt = stmt;
      f_start = Unix.gettimeofday () }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- fr :: t.stack;
  let close delta =
    let stop = Unix.gettimeofday () in
    t.stack <- List.tl t.stack;
    t.spans <-
      { id = fr.f_id; name; parent = fr.f_parent; stmt = fr.f_stmt;
        start = fr.f_start; stop; delta }
      :: t.spans
  in
  match f () with
  | v ->
      close (delta ());
      v
  | exception e ->
      close None;
      raise e

(* a child of the innermost open span, in its statement *)
let span t name f =
  if not t.on then f ()
  else
    let stmt = match t.stack with p :: _ -> p.f_stmt | [] -> 0 in
    with_frame t ~stmt name ~delta:(fun () -> None) f

(* A statement: a new statement id, and the storage-counter delta of
   [f], returned always and recorded on the span when tracing. *)
let statement t name f =
  let c0 = Counters.snap () in
  let d = ref Counters.zero in
  let body () =
    let v = f () in
    d := Counters.sub (Counters.snap ()) c0;
    v
  in
  let v =
    if not t.on then body ()
    else begin
      t.next_stmt <- t.next_stmt + 1;
      with_frame t ~stmt:t.next_stmt name ~delta:(fun () -> Some !d) body
    end
  in
  (v, !d)

let duration s = s.stop -. s.start

(* A span's self time: its duration minus what its children cover.
   Children of one parent run one after another, so their durations add. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

(* The trace's own invariants: every child lies inside its parent and
   shares its statement id, and no self time is negative.  Returns the
   violations found. *)
let check spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let bad = ref [] in
  let err fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
  List.iter
    (fun s ->
      if s.stop < s.start then err "span %d (%s) ends before it starts" s.id s.name;
      if s.parent >= 0 then
        match Hashtbl.find_opt by_id s.parent with
        | None -> err "span %d (%s) has no parent %d" s.id s.name s.parent
        | Some p ->
            if s.start < p.start || s.stop > p.stop then
              err "span %d (%s) is outside its parent %s" s.id s.name p.name;
            if s.stmt <> p.stmt then
              err "span %d (%s) changes statement id" s.id s.name)
    spans;
  List.iter
    (fun (s, self) ->
      if self < 0.0 then err "span %d (%s) has self time %g s" s.id s.name self)
    (self_times spans);
  List.rev !bad

(* the counter deltas of the root statement spans, summed *)
let statement_total spans =
  List.fold_left
    (fun acc s ->
      match s.delta with
      | Some d when s.parent < 0 -> Counters.add acc d
      | _ -> acc)
    Counters.zero spans

let named spans name = List.filter (fun s -> s.name = name) spans

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": \"%s\", \"parent\": %d, \"stmt\": %d, \
         \"start_us\": %.1f, \"end_us\": %.1f%s}\n"
        s.id s.name s.parent s.stmt (s.start *. 1e6) (s.stop *. 1e6)
        (match s.delta with
        | None -> ""
        | Some d ->
            Printf.sprintf
              ", \"seq_pages\": %d, \"rand_pages\": %d, \"fetched_rows\": %d, \
               \"bufpool_misses\": %d, \"wal_records\": %d"
              d.Counters.seq_pages d.Counters.rand_pages d.Counters.fetched_rows
              d.Counters.bp_misses d.Counters.wal_records))
    (spans t);
  close_out oc
