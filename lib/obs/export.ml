(* Exporters over a Recorder: Chrome trace_event JSON (open in Perfetto
   / chrome://tracing), a compact text timeline, and a structural
   validator shared by the CLI and the test suite.

   Chrome mapping (docs/observability.md): one process (pid 0), one
   thread per node (tid = node id, named via thread_name metadata);
   Complete events become "X", async begin/end become "b"/"e" keyed by
   (cat, id), instants become thread-scoped "i". Timestamps are
   microseconds of simulated time.

   Output is deterministic: events are stable-sorted by timestamp
   (ties keep emission order), floats print through Jsonw's fixed
   format — golden-file tests compare the bytes. *)

let us t = t *. 1e6

(* Events stable-sorted by timestamp, emission order breaking ties. *)
let sorted_events r =
  List.stable_sort
    (fun (a : Recorder.event) b -> Float.compare a.ev_ts b.ev_ts)
    (Recorder.events r)

let args_json args =
  Jsonw.Obj (List.map (fun (k, v) -> (k, Jsonw.Str v)) args)

let event_json (e : Recorder.event) =
  let base =
    [
      ("name", Jsonw.Str e.ev_name);
      ("cat", Jsonw.Str e.ev_cat);
      ("pid", Jsonw.Int 0);
      ("tid", Jsonw.Int e.ev_node);
      ("ts", Jsonw.Float (us e.ev_ts));
    ]
  in
  let tail =
    match e.ev_kind with
    | Recorder.Complete ->
      [ ("ph", Jsonw.Str "X"); ("dur", Jsonw.Float (us e.ev_dur)) ]
    | Recorder.Async_b -> [ ("ph", Jsonw.Str "b"); ("id", Jsonw.Int e.ev_id) ]
    | Recorder.Async_e -> [ ("ph", Jsonw.Str "e"); ("id", Jsonw.Int e.ev_id) ]
    | Recorder.Instant -> [ ("ph", Jsonw.Str "i"); ("s", Jsonw.Str "t") ]
  in
  let args =
    if e.ev_args = [] then [] else [ ("args", args_json e.ev_args) ]
  in
  Jsonw.Obj (base @ tail @ args)

let metadata r =
  let process =
    Jsonw.Obj
      [
        ("name", Jsonw.Str "process_name");
        ("ph", Jsonw.Str "M");
        ("pid", Jsonw.Int 0);
        ("args", Jsonw.Obj [ ("name", Jsonw.Str "ncc_sim") ]);
      ]
  in
  process
  :: List.map
       (fun (node, name) ->
         Jsonw.Obj
           [
             ("name", Jsonw.Str "thread_name");
             ("ph", Jsonw.Str "M");
             ("pid", Jsonw.Int 0);
             ("tid", Jsonw.Int node);
             ("args", Jsonw.Obj [ ("name", Jsonw.Str name) ]);
           ])
       (Recorder.tracks r)

let chrome_trace r =
  Jsonw.Obj
    [
      ("displayTimeUnit", Jsonw.Str "ms");
      ("traceEvents",
       Jsonw.List (metadata r @ List.map event_json (sorted_events r)));
    ]

let chrome_trace_string r = Jsonw.to_string (chrome_trace r)

(* --- text timeline ----------------------------------------------------- *)

let timeline ?last r ppf =
  let evs = sorted_events r in
  let evs =
    match last with
    | Some k ->
      let n = List.length evs in
      if n > k then List.filteri (fun i _ -> i >= n - k) evs else evs
    | None -> evs
  in
  List.iter
    (fun (e : Recorder.event) ->
      let track =
        match Recorder.track_name r e.ev_node with
        | Some n -> n
        | None -> Printf.sprintf "node %d" e.ev_node
      in
      let mark =
        match e.ev_kind with
        | Recorder.Complete -> Printf.sprintf "%s %.0fus" e.ev_name (us e.ev_dur)
        | Recorder.Async_b -> Printf.sprintf "b %s #%d" e.ev_name e.ev_id
        | Recorder.Async_e -> Printf.sprintf "e %s #%d" e.ev_name e.ev_id
        | Recorder.Instant -> Printf.sprintf "! %s" e.ev_name
      in
      let args =
        if e.ev_args = [] then ""
        else
          " "
          ^ String.concat " "
              (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) e.ev_args)
      in
      Format.fprintf ppf "%12.6f  %-11s %-9s %s%s@." e.ev_ts track e.ev_cat mark
        args)
    evs

(* --- replay digest ------------------------------------------------------ *)

(* MD5 over a compact binary encoding of the retained events in
   emission order, then the overflow count. Times go in as their IEEE
   bits, so a one-ulp difference changes the digest; equal digests
   mean two runs recorded the same events. *)
let digest r =
  let b = Buffer.create 4096 in
  let str s = Buffer.add_string b s; Buffer.add_char b '\000' in
  let int i = Buffer.add_int64_le b (Int64.of_int i) in
  let float f = Buffer.add_int64_le b (Int64.bits_of_float f) in
  List.iter
    (fun (e : Recorder.event) ->
      Buffer.add_char b
        (match e.ev_kind with
         | Recorder.Complete -> 'X'
         | Recorder.Async_b -> 'b'
         | Recorder.Async_e -> 'e'
         | Recorder.Instant -> 'i');
      str e.ev_name; str e.ev_cat;
      int e.ev_node; int e.ev_id;
      float e.ev_ts; float e.ev_dur;
      int (List.length e.ev_args);
      List.iter (fun (k, v) -> str k; str v) e.ev_args)
    (Recorder.events r);
  int (Recorder.n_dropped r);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- structural validation --------------------------------------------- *)

type summary = {
  v_events : int;       (* total events *)
  v_complete : int;     (* Complete spans *)
  v_async_pairs : int;  (* matched b/e pairs *)
  v_open : int;         (* async spans still open at the end *)
}

(* Check the span invariants over the sorted stream: finite nonnegative
   times, nonnegative durations, every async end matching an earlier
   begin of the same (cat, id) with end time >= begin time. Spans still
   open at the end of the trace are an error unless [allow_open] (a
   truncated-at-horizon trace legitimately leaves in-flight spans
   open). *)
let validate ?(allow_open = false) r =
  let evs = sorted_events r in
  let open_spans : (string * int, float list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let pairs = ref 0 and complete = ref 0 in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  List.iter
    (fun (e : Recorder.event) ->
      if not (Float.is_finite e.ev_ts) || e.ev_ts < 0.0 then
        fail "%s %S: bad timestamp" e.ev_cat e.ev_name;
      match e.ev_kind with
      | Recorder.Complete ->
        incr complete;
        if not (Float.is_finite e.ev_dur) || e.ev_dur < 0.0 then
          fail "complete span %S: negative or non-finite duration" e.ev_name
      | Recorder.Async_b ->
        let key = (e.ev_cat, e.ev_id) in
        let stack =
          match Hashtbl.find_opt open_spans key with
          | Some s -> s
          | None ->
            let s = ref [] in
            Hashtbl.replace open_spans key s;
            s
        in
        stack := e.ev_ts :: !stack
      | Recorder.Async_e -> (
        let key = (e.ev_cat, e.ev_id) in
        match Hashtbl.find_opt open_spans key with
        | Some ({ contents = b_ts :: rest } as stack) ->
          if e.ev_ts < b_ts then
            fail "async span %s#%d %S ends before it begins" e.ev_cat e.ev_id
              e.ev_name;
          incr pairs;
          stack := rest
        | Some { contents = [] } | None ->
          fail "async end %s#%d %S without a begin" e.ev_cat e.ev_id e.ev_name)
      | Recorder.Instant -> ())
    evs;
  let n_open =
    List.fold_left
      (fun acc (_, stack) -> acc + List.length !stack)
      0
      (Kernel.Detmap.sorted_bindings open_spans)
  in
  if n_open > 0 && not allow_open then
    fail "%d async spans never closed" n_open;
  match !err with
  | Some e -> Error e
  | None ->
    Ok
      {
        v_events = List.length evs;
        v_complete = !complete;
        v_async_pairs = !pairs;
        v_open = n_open;
      }
