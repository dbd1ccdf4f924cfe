(* One repetition of one benchmark workload, in a fresh process.

   Runs every cell of the workload through [Harness.Runner.run] on one
   domain (streaming checker inline, no pool fan-out), times set-up
   and the measured run on the host, and prints one JSON object on
   stdout: per-cell simulated digests and host figures, the process's
   top heap and, with --trace, the timing shim's per-layer spans.
   perfbench/run.py spawns this once per repetition and turns the
   objects into the benchmark's metrics.

     bench.exe --workload f1-paper --seed 1 [--trace] [--no-check]
               [--small] [--plant-tapir] *)

open Harness

type cell = {
  label : string;
  proto : Protocol.t;
  mk : unit -> Workload_sig.t;
  cfg : Runner.config;
}

let roster =
  [
    ("NCC", Ncc.protocol);
    ("dOCC", Baselines.docc);
    ("d2PL-NW", Baselines.d2pl_no_wait);
    ("d2PL-WW", Baselines.d2pl_wound_wait);
    ("Janus-CC", Baselines.janus_cc);
  ]

(* Fig 6a's headline point: the paper topology (8 servers x 24
   clients, asymmetric latency, skewed clocks — Runner.default) at
   20k txn/s. *)
let f1_paper ~small ~seed ~check =
  let duration, warmup = if small then (0.2, 0.05) else (1.5, 0.25) in
  [
    {
      label = "NCC";
      proto = Ncc.protocol;
      mk = (fun () -> Workload.Google_f1.make ());
      cfg =
        {
          Runner.default with
          Runner.seed;
          offered_load = 20_000.0;
          duration;
          warmup;
          drain = warmup;
          check;
        };
    };
  ]

(* The strict roster on hot-key traffic, one cell after another.
   [plant] appends TAPIR-CC, which the strict check flags by design:
   the smoke test uses it to prove the failure gate fires. *)
let hotspot_roster ~small ~seed ~check ~plant =
  let duration, warmup = if small then (0.1, 0.05) else (0.4, 0.1) in
  let protos = if plant then roster @ [ ("TAPIR-CC", Baselines.tapir_cc) ] else roster in
  List.map
    (fun (label, proto) ->
      {
        label;
        proto;
        mk = (fun () -> Workload.Hotspot.make Workload.Hotspot.default);
        cfg =
          {
            Runner.default with
            Runner.seed;
            offered_load = 12_000.0;
            duration;
            warmup;
            drain = warmup;
            check;
          };
      })
    protos

(* --- one cell ----------------------------------------------------------- *)

let gauge mx name =
  match List.assoc_opt (name, Obs.Metrics.run_scope) (Obs.Metrics.gauges mx) with
  | Some v -> v
  | None -> 0.0

let verdict_ok s = String.length s >= 2 && String.sub s 0 2 = "ok"

(* Every simulated fact the benchmark pins; floats in hex so the
   comparison is exact. *)
let digest (r : Runner.result) =
  Printf.sprintf
    "committed=%d gave_up=%d dropped=%d attempts=%d aborts=[%s] p50=%h p99=%h \
     messages=%d verdict=%s"
    r.committed r.gave_up r.dropped r.attempts
    (String.concat ","
       (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) r.aborts))
    r.p50 r.p99 r.messages r.check_result

(* Set-up alone, repeated: each pass starts from a compacted heap, as
   the measured cell does, builds the workload and the cluster through
   [Runner.run] and is cut at its first submit. Passes repeat for at
   least [setup_min] times and [budget] host seconds; the fastest is
   the cell's set-up time, steadier than the measured cell's single
   cold set-up on a host whose speed varies. An exception ends the
   passes: the measured cell then records it. *)
let start_cell c =
  Shim.start_cell ~window_start:c.cfg.Runner.warmup
    ~window_end:(c.cfg.Runner.warmup +. c.cfg.Runner.duration)

let setup_min = 5
let setup_max = 2_000

let time_setups ~budget c =
  let t_start = Shim.now () in
  let rec loop acc n =
    if n >= setup_max || (n >= setup_min && Shim.now () -. t_start >= budget) then acc
    else begin
      Gc.compact ();
      let t0 = Shim.now () in
      start_cell c;
      Shim.setup_only := true;
      let cut =
        match Runner.run ~label:c.label (Shim.wrap ~traced:false c.proto) (c.mk ()) c.cfg with
        | _ -> false
        | exception Shim.Setup_done -> true
        | exception _ -> false
      in
      Shim.setup_only := false;
      Shim.end_cell ();
      if cut then loop ((!Shim.first_submit -. t0) :: acc) (n + 1) else acc
    end
  in
  match loop [] 0 with [] -> Float.nan | xs -> List.fold_left Float.min Float.infinity xs

(* The measured cell: its cold set-up time and its JSON fields. *)
let run_cell ~traced c =
  let open Obs.Jsonw in
  (* every cell starts from a compacted heap, so its set-up and run do
     not pay for the previous cell's garbage *)
  Gc.compact ();
  let t0 = Shim.now () in
  start_cell c;
  let w = c.mk () in
  let create_s = Shim.now () -. t0 in
  let w = if traced then Shim.trace_workload w else w in
  let mx = Obs.Metrics.create () in
  let events0 = !Shim.events in
  let outcome =
    match Runner.run ~label:c.label ~metrics:mx (Shim.wrap ~traced c.proto) w c.cfg with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let t_end = Shim.now () in
  if not (Float.is_nan !Shim.first_submit) then Shim.push_boundary t_end;
  Shim.end_cell ();
  let first = if Float.is_nan !Shim.first_submit then t_end else !Shim.first_submit in
  let versions, chain_max = if traced then Shim.store_stats () else (0, 0) in
  let lat_samples, lat_p50 = Shim.latency_median () in
  let common =
    [
      ("label", Str c.label);
      ("create_s", Float create_s);
      ("setup_cold_s", Float (first -. t0));
      ("host_s", Float (t_end -. first));
      ("segments", List (List.map (fun t -> Float t) (Shim.segments ())));
      ("commits", Int !Shim.commits);
      ("events", Int (!Shim.events - events0));
      ("versions", Int versions);
      ("chain_max", Int chain_max);
      ("gc_minor_words", Float (gauge mx "gc.minor_words"));
      ("gc_major", Float (gauge mx "gc.major_collections"));
      ("live_hw", Float (gauge mx "checker.live_high_water"));
      ("epochs", Float (gauge mx "checker.epochs"));
      ("checker_commits", Float (gauge mx "checker.commits"));
      ("lat_samples", Int lat_samples);
      ("p50_exact_ms", Float (lat_p50 *. 1e3));
    ]
  in
  ( first -. t0,
    match outcome with
    | Ok r ->
      common
      @ [
          ("ok", Bool (c.cfg.Runner.check = Runner.No_check || verdict_ok r.check_result));
          ("digest", Str (digest r));
          ("committed", Int r.committed);
          ("gave_up", Int r.gave_up);
          ("dropped", Int r.dropped);
          ("attempts", Int r.attempts);
          ("messages", Int r.messages);
          ("p50_ms", Float (r.p50 *. 1e3));
          ("p99_ms", Float (r.p99 *. 1e3));
        ]
    | Error msg ->
      (* an exception fails every arrival of the cell; the offered
         volume stands in for the arrival count the run never reported *)
      let arrivals = int_of_float (c.cfg.Runner.offered_load *. c.cfg.Runner.duration) in
      common
      @ [
          ("ok", Bool false);
          ("digest", Str ("EXCEPTION: " ^ msg));
          ("committed", Int 0);
          ("gave_up", Int arrivals);
          ("dropped", Int 0);
          ("attempts", Int 0);
          ("messages", Int 0);
          ("p50_ms", Float 0.0);
          ("p99_ms", Float 0.0);
        ])

(* --- main ----------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and traced = ref false in
  let no_check = ref false and small = ref false and plant = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME f1-paper | hotspot-roster");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Set traced, " attach the timing shim");
      ("--no-check", Arg.Set no_check, " run without the streaming checker (ablation)");
      ("--small", Arg.Set small, " smoke-test sizes");
      ("--plant-tapir", Arg.Set plant, " add a TAPIR-CC cell to hotspot-roster");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N [options]";
  let small = !small and seed = !seed in
  let check = if !no_check then Runner.No_check else Runner.Streaming in
  let cells =
    match !workload with
    | "f1-paper" -> f1_paper ~small ~seed ~check
    | "hotspot-roster" -> hotspot_roster ~small ~seed ~check ~plant:!plant
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  let span_s, span_words = if !traced then Shim.calibrate 100_000 else (0.0, 0.0) in
  let runs = List.map (run_cell ~traced:!traced) cells in
  let top_heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6
  in
  let open Obs.Jsonw in
  (* Set-up passes run after the measured cells and the top-heap
     reading, so they cannot move peak_heap_mb; about 0.3 s of them per
     repetition, split over the cells. A traced repetition reports its
     cold set-up. *)
  let setup_budget = (if small then 0.02 else 0.3) /. float_of_int (List.length cells) in
  let results =
    List.map2
      (fun c (cold, fields) ->
        let s = if !traced then Float.nan else time_setups ~budget:setup_budget c in
        Obj (("setup_s", Float (if Float.is_nan s then cold else s)) :: fields))
      cells runs
  in
  let layers =
    if not !traced then []
    else
      [
        ( "spans",
          List
            (List.map
               (fun (phase, layer, parent, n, tot, self, words) ->
                 Obj
                   [
                     ("phase", Str phase);
                     ("layer", Str layer);
                     ("parent", Str parent);
                     ("count", Int n);
                     ("total_s", Float tot);
                     ("self_s", Float self);
                     ("minor_words", Float words);
                   ])
               (Shim.rows ())) );
        ("measured_self_s", Float (Shim.measured_self ()));
        ("measured_top_s", Float (Shim.measured_top ()));
        ("pending_max", Int !Shim.pending_max);
        ("span_s", Float span_s);
        ("span_words", Float span_words);
      ]
  in
  print_endline
    (to_string
       (Obj
          ([
             ("workload", Str !workload);
             ("seed", Int seed);
             ("traced", Bool !traced);
             ("check", Bool (not !no_check));
             ("cells", List results);
             ("top_heap_mb", Float top_heap_mb);
           ]
          @ layers)))
