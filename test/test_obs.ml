(* The observability plane: span recorder invariants, exporter golden
   files over a tiny deterministic run, the metrics registry, and the
   observer-effect property — attaching a recorder and a metrics
   registry to a run changes nothing about its result. *)

open Kernel

(* --- recorder + validator invariants ---------------------------------- *)

let recorder_basics () =
  let r = Obs.Recorder.create () in
  Obs.Recorder.name_track r ~node:0 "server 0";
  Obs.Recorder.name_track r ~node:1 "client 1";
  Obs.Recorder.complete r ~node:0 ~name:"execute" ~cat:"rpc" ~ts:1.0 ~dur:0.5 ();
  Obs.Recorder.async_b r ~node:1 ~name:"txn" ~cat:"txn" ~id:7 ~ts:1.0 ();
  Obs.Recorder.async_b r ~node:1 ~name:"attempt" ~cat:"txn" ~id:7 ~ts:1.1 ();
  Obs.Recorder.async_e r ~node:1 ~name:"attempt" ~cat:"txn" ~id:7 ~ts:1.8 ();
  Obs.Recorder.async_e r ~node:1 ~name:"txn" ~cat:"txn" ~id:7 ~ts:2.0 ();
  Obs.Recorder.instant r ~node:0 ~name:"shed" ~cat:"txn" ~ts:2.5 ();
  Alcotest.(check int) "events retained" 6 (Obs.Recorder.n_events r);
  Alcotest.(check int) "nothing dropped" 0 (Obs.Recorder.n_dropped r);
  Alcotest.(check (list (pair int string)))
    "tracks sorted by node"
    [ (0, "server 0"); (1, "client 1") ]
    (Obs.Recorder.tracks r);
  (match Obs.Export.validate r with
   | Ok s ->
     Alcotest.(check int) "complete spans" 1 s.Obs.Export.v_complete;
     Alcotest.(check int) "async pairs" 2 s.Obs.Export.v_async_pairs;
     Alcotest.(check int) "none open" 0 s.Obs.Export.v_open
   | Error e -> Alcotest.failf "balanced trace rejected: %s" e)

let recorder_limit () =
  let r = Obs.Recorder.create ~limit:3 () in
  for i = 1 to 5 do
    Obs.Recorder.instant r ~node:0 ~name:"tick" ~cat:"t"
      ~ts:(float_of_int i) ()
  done;
  Alcotest.(check int) "capped" 3 (Obs.Recorder.n_events r);
  Alcotest.(check int) "overflow counted" 2 (Obs.Recorder.n_dropped r);
  (* the retained prefix is the oldest events, deterministically *)
  match Obs.Recorder.events r with
  | { Obs.Recorder.ev_ts = 1.0; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected the oldest event first"

let validate_catches_imbalance () =
  let err r =
    match Obs.Export.validate r with Ok _ -> None | Error e -> Some e
  in
  (* end without begin *)
  let r1 = Obs.Recorder.create () in
  Obs.Recorder.async_e r1 ~node:0 ~name:"txn" ~cat:"txn" ~id:1 ~ts:1.0 ();
  Alcotest.(check bool) "unmatched end rejected" true (err r1 <> None);
  (* begin without end: error by default, fine when open spans allowed *)
  let r2 = Obs.Recorder.create () in
  Obs.Recorder.async_b r2 ~node:0 ~name:"txn" ~cat:"txn" ~id:1 ~ts:1.0 ();
  Alcotest.(check bool) "open span rejected" true (err r2 <> None);
  (match Obs.Export.validate ~allow_open:true r2 with
   | Ok s -> Alcotest.(check int) "open span counted" 1 s.Obs.Export.v_open
   | Error e -> Alcotest.failf "allow_open still rejected: %s" e);
  (* negative duration *)
  let r3 = Obs.Recorder.create () in
  Obs.Recorder.complete r3 ~node:0 ~name:"x" ~cat:"rpc" ~ts:1.0 ~dur:(-0.1) ();
  Alcotest.(check bool) "negative duration rejected" true (err r3 <> None);
  (* same (cat, id) nests stack-wise: inner end matches inner begin *)
  let r4 = Obs.Recorder.create () in
  Obs.Recorder.async_b r4 ~node:0 ~name:"txn" ~cat:"txn" ~id:1 ~ts:1.0 ();
  Obs.Recorder.async_b r4 ~node:0 ~name:"attempt" ~cat:"txn" ~id:1 ~ts:2.0 ();
  Obs.Recorder.async_e r4 ~node:0 ~name:"attempt" ~cat:"txn" ~id:1 ~ts:3.0 ();
  Alcotest.(check bool) "inner closed, outer still open" true (err r4 <> None);
  Obs.Recorder.async_e r4 ~node:0 ~name:"txn" ~cat:"txn" ~id:1 ~ts:4.0 ();
  Alcotest.(check bool) "balanced after outer end" true (err r4 = None)

(* --- replay digest ------------------------------------------------------ *)

(* Equal event streams give equal digests; a one-ulp timestamp, a
   changed arg value, or only a different overflow count changes it. *)
let export_digest () =
  let digest ?limit ?(ts = 1.5) ?(dst = "3") ?(extra = 0) () =
    let r = Obs.Recorder.create ?limit () in
    Obs.Recorder.complete r ~node:0 ~name:"execute" ~cat:"rpc" ~ts:1.0 ~dur:0.5 ();
    Obs.Recorder.instant r ~node:1 ~name:"dropped" ~cat:"fault" ~ts
      ~args:[ ("dst", dst); ("cause", "drop") ]
      ();
    Obs.Recorder.async_b r ~node:1 ~name:"txn" ~cat:"txn" ~id:7 ~ts:2.0 ();
    for _ = 1 to extra do
      Obs.Recorder.instant r ~node:0 ~name:"tick" ~cat:"t" ~ts:3.0 ()
    done;
    Obs.Export.digest r
  in
  let base = digest () in
  Alcotest.(check string) "same events, same digest" base (digest ());
  Alcotest.(check string) "an unreached limit is invisible" base
    (digest ~limit:3 ());
  let differs name d = Alcotest.(check bool) name true (d <> base) in
  differs "one-ulp ts" (digest ~ts:(Float.succ 1.5) ());
  differs "arg value" (digest ~dst:"4" ());
  differs "n_dropped" (digest ~limit:3 ~extra:1 ())

(* --- JSON writer ------------------------------------------------------- *)

let jsonw_format () =
  let s v = Obs.Jsonw.to_string v in
  Alcotest.(check string) "integral float" "42" (s (Obs.Jsonw.Float 42.0));
  Alcotest.(check string) "fractional float" "0.25" (s (Obs.Jsonw.Float 0.25));
  Alcotest.(check string) "non-finite is null" "null"
    (s (Obs.Jsonw.Float Float.infinity));
  Alcotest.(check string) "nan is null" "null" (s (Obs.Jsonw.Float Float.nan));
  Alcotest.(check string) "escaping" {|"a\"b\\c\n"|}
    (s (Obs.Jsonw.Str "a\"b\\c\n"));
  Alcotest.(check string) "object"
    {|{"a":1,"b":[true,null]}|}
    (s
       (Obs.Jsonw.Obj
          [
            ("a", Obs.Jsonw.Int 1);
            ("b", Obs.Jsonw.List [ Obs.Jsonw.Bool true; Obs.Jsonw.Null ]);
          ]))

(* --- metrics registry -------------------------------------------------- *)

let metrics_registry () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.add m ~node:0 "execs" 2.0;
  Obs.Metrics.add m ~node:1 "execs" 3.0;
  Obs.Metrics.add m "net.dropped" 1.0;
  Obs.Metrics.set_gauge m "run.throughput_tps" 123.0;
  Obs.Metrics.observe m "txn.latency_s" 0.1;
  Obs.Metrics.observe m "txn.latency_s" 0.2;
  Alcotest.(check (list (pair string (float 1e-9))))
    "totals sum across nodes, sorted by name"
    [ ("execs", 5.0); ("net.dropped", 1.0) ]
    (Obs.Metrics.counter_totals m);
  let h = Obs.Metrics.hist m "txn.latency_s" in
  Alcotest.(check int) "hist samples" 2 (Stats.Hist.count h);
  Alcotest.(check bool) "p999 defined" true (Stats.Hist.p999 h > 0.0);
  (* empty histogram: every summary statistic is the defined 0.0 *)
  let e = Stats.Hist.create () in
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Stats.Hist.mean e);
  Alcotest.(check (float 0.0)) "empty p999" 0.0 (Stats.Hist.p999 e);
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Stats.Hist.percentile e 0.5)

(* --- exporter golden files over a tiny deterministic run -------------- *)

(* Two servers, two clients, two transactions through the Testbed with
   a recorder attached; the exported Chrome trace and text timeline are
   compared byte-for-byte against checked-in goldens. On mismatch the
   actual bytes are written next to the test so the golden can be
   inspected and refreshed deliberately. *)
let golden_dir =
  if Sys.file_exists "golden" && Sys.is_directory "golden" then "golden"
  else Filename.concat "test" "golden"

let tiny_traced_run () =
  let r = Obs.Recorder.create () in
  let bed =
    Harness.Testbed.make ~n_servers:2 ~n_clients:2 ~obs:r Ncc.protocol
      ~on_outcome:(fun ~client:_ _ -> ())
  in
  (match bed.Harness.Testbed.clients with
   | c0 :: c1 :: _ ->
     bed.Harness.Testbed.submit ~client:c0
       (Txn.make ~client:c0 [ [ Types.Write (1, 7); Types.Read 2 ] ]);
     bed.Harness.Testbed.after 0.001 (fun () ->
         bed.Harness.Testbed.submit ~client:c1
           (Txn.make ~client:c1 [ [ Types.Read 1 ] ]));
     bed.Harness.Testbed.run_until_quiet ()
   | _ -> Alcotest.fail "expected two clients");
  r

let check_golden ~name actual =
  let path = Filename.concat golden_dir name in
  if not (Sys.file_exists path) then begin
    let out = name ^ ".actual" in
    let oc = open_out out in
    output_string oc actual;
    close_out oc;
    Alcotest.failf "golden %s missing; actual bytes written to %s" path out
  end
  else begin
    let ic = open_in_bin path in
    let expected = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if not (String.equal expected actual) then begin
      let out = name ^ ".actual" in
      let oc = open_out out in
      output_string oc actual;
      close_out oc;
      Alcotest.failf
        "%s differs from golden (actual bytes written to %s; diff and copy \
         over the golden if the change is intended)"
        name out
    end
  end

let exporter_goldens () =
  let r = tiny_traced_run () in
  (* quiet network: every message delivered and serviced, so the trace
     must be fully balanced with no open spans *)
  (match Obs.Export.validate r with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "tiny run trace invalid: %s" e);
  check_golden ~name:"trace_ncc_tiny.json" (Obs.Export.chrome_trace_string r);
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.Export.timeline r ppf;
  Format.pp_print_flush ppf ();
  check_golden ~name:"timeline_ncc_tiny.txt" (Buffer.contents buf)

(* --- observer effect --------------------------------------------------- *)

(* Attaching a recorder and metrics registry must not change the run:
   recording draws no randomness and schedules no events, so the
   result records are field-for-field identical. Checked for NCC and a
   baseline with a different message/abort structure (dOCC), fault-free
   and under a chaos schedule (faults, crashes and a request timeout:
   the fault instants are sink sites of their own). *)
let observer_effect ?(chaos = false) (pname, p) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "observer effect is zero (%s%s)" pname
         (if chaos then ", chaos faults" else ""))
    ~count:3
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let cfg =
        if chaos then Harness.Chaos.config ~seed ()
        else {
          Harness.Runner.default with
          Harness.Runner.seed;
          n_servers = 3;
          n_clients = 6;
          offered_load = 800.0;
          duration = 0.4;
          warmup = 0.1;
          drain = 0.3;
          check = Harness.Runner.Strict;
          series_width = Some 0.1;
        }
      in
      let run ?obs ?metrics () =
        Harness.Runner.run ?obs ?metrics p
          (Workload.Google_f1.make ~n_keys:500 ())
          cfg
      in
      let a = run () in
      let rec_ = Obs.Recorder.create () in
      let mx = Obs.Metrics.create () in
      let b = run ~obs:rec_ ~metrics:mx () in
      (* the instrumented run did record something... *)
      if Obs.Recorder.n_events rec_ = 0 then
        QCheck.Test.fail_report "instrumented run recorded no events";
      (match Obs.Export.validate ~allow_open:true rec_ with
       | Ok _ -> ()
       | Error e -> QCheck.Test.fail_reportf "trace invalid: %s" e);
      (* ...and changed nothing. *)
      let open Harness.Runner in
      let feq f = compare (f a) (f b) = 0 in
      let diffs =
        List.filter_map
          (fun (name, eq) -> if eq then None else Some name)
          [
            ("protocol", a.protocol = b.protocol);
            ("workload", a.workload = b.workload);
            ("offered", feq (fun r -> r.offered));
            ("committed", a.committed = b.committed);
            ("gave_up", a.gave_up = b.gave_up);
            ("attempts", a.attempts = b.attempts);
            ("aborts", a.aborts = b.aborts);
            ("dropped", a.dropped = b.dropped);
            ("throughput", feq (fun r -> r.throughput));
            ("mean_latency", feq (fun r -> r.mean_latency));
            ("p50", feq (fun r -> r.p50));
            ("p90", feq (fun r -> r.p90));
            ("p99", feq (fun r -> r.p99));
            ("p999", feq (fun r -> r.p999));
            ("messages", a.messages = b.messages);
            ("msgs_per_commit", feq (fun r -> r.msgs_per_commit));
            ("max_utilization", feq (fun r -> r.max_utilization));
            ("counters", feq (fun r -> r.counters));
            ("series", feq (fun r -> r.series));
            ("check_result", a.check_result = b.check_result);
          ]
      in
      if diffs = [] then true
      else
        QCheck.Test.fail_reportf "observer changed the run: %s"
          (String.concat ", " diffs))

let suite =
  [
    Alcotest.test_case "recorder basics" `Quick recorder_basics;
    Alcotest.test_case "recorder event limit" `Quick recorder_limit;
    Alcotest.test_case "validator catches imbalance" `Quick
      validate_catches_imbalance;
    Alcotest.test_case "export digest" `Quick export_digest;
    Alcotest.test_case "json writer format" `Quick jsonw_format;
    Alcotest.test_case "metrics registry" `Quick metrics_registry;
    Alcotest.test_case "exporter goldens (tiny NCC run)" `Quick exporter_goldens;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        observer_effect ("NCC", Ncc.protocol);
        observer_effect ("dOCC", Baselines.docc);
        observer_effect ~chaos:true ("NCC", Ncc.protocol);
        observer_effect ~chaos:true ("dOCC", Baselines.docc);
      ]
