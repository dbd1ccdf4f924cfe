(* ncc_sim: command-line driver for the NCC reproduction.

     ncc_sim list                              protocols, workloads, scenarios
     ncc_sim run -p NCC -w google-f1 -l 20000  one simulation, full stats
     ncc_sim run -p NCC --faults 7             ... under a seeded fault schedule
     ncc_sim chaos -p NCC --seeds 20           seeded chaos sweep, strict checks
     ncc_sim chaos -p NCC --replay 7           replay one chaos seed
     ncc_sim atlas smoke --quick --jobs 4      scenario sweep -> phase diagram
     ncc_sim fig fig6a [--quick]               regenerate a paper figure
     ncc_sim trace -p NCC --out trace.json     traced run -> Chrome/Perfetto JSON
     ncc_sim profile -p NCC                    instrumented run -> metrics JSON *)

open Cmdliner

let protocols =
  [
    ("NCC", Ncc.protocol);
    ("NCC-RW", Ncc.protocol_rw);
    ("NCC-noSR", Ncc.protocol_no_smart_retry);
    ("NCC-noAAT", Ncc.protocol_no_async_aware);
    ("NCC-noRTC", Ncc.protocol_no_rtc);  (* negative control: must fail strict *)
    ("dOCC", Baselines.docc);
    ("d2PL-NW", Baselines.d2pl_no_wait);
    ("d2PL-WW", Baselines.d2pl_wound_wait);
    ("Janus-CC", Baselines.janus_cc);
    ("TAPIR-CC", Baselines.tapir_cc);
    ("MVTO", Baselines.mvto);
    ("NCC-R", Ncc_r.protocol);
    ("NCC-R-def", Ncc_r.protocol_deferred);
  ]

(* Workload lookup is case-insensitive and alias-tolerant ("tao",
   "TAO" and "facebook-tao" all name the TAO workload) — see
   Workload.Registry. Unknown names exit 2 with the valid list. *)
let find_workload ~n_servers wname =
  match Workload.Registry.find ~n_servers wname with
  | Some mk -> mk
  | None ->
    Printf.eprintf "unknown workload %S (one of: %s)\n" wname
      (String.concat ", " (Workload.Registry.names ~n_servers));
    exit 2

let print_dropped_note rec_ =
  if Obs.Recorder.n_dropped rec_ > 0 then
    Printf.printf "note: %d events past the recorder limit were dropped\n"
      (Obs.Recorder.n_dropped rec_)

let figures =
  [
    ("params", fun ~jobs:_ ~scale:_ -> Experiments.params ());
    ("fig6a", fun ~jobs ~scale -> ignore (Experiments.fig6a ~jobs ~scale ()));
    ("fig6b", fun ~jobs ~scale -> ignore (Experiments.fig6b ~jobs ~scale ()));
    ("fig6c", fun ~jobs ~scale -> ignore (Experiments.fig6c ~jobs ~scale ()));
    ("fig7a", fun ~jobs ~scale -> ignore (Experiments.fig7a ~jobs ~scale ()));
    ("fig7b", fun ~jobs ~scale -> ignore (Experiments.fig7b ~jobs ~scale ()));
    ("fig7c", fun ~jobs ~scale -> ignore (Experiments.fig7c ~jobs ~scale ()));
    ("fig8", fun ~jobs ~scale -> ignore (Experiments.fig8 ~jobs ~scale ()));
    ("ablations", fun ~jobs ~scale -> ignore (Experiments.ablations ~jobs ~scale ()));
    ("internals", fun ~jobs:_ ~scale -> ignore (Experiments.ncc_internals ~scale ()));
    ( "replication",
      fun ~jobs ~scale -> ignore (Experiments.replication ~jobs ~scale ()) );
    ("geo", fun ~jobs ~scale -> ignore (Experiments.geo ~jobs ~scale ()));
  ]

(* Case-insensitive protocol lookup ("ncc", "NCC" and "Ncc" all name
   the same protocol), used by the observability subcommands. *)
let protocol_conv =
  let parse s =
    let ls = String.lowercase_ascii s in
    match
      List.find_opt (fun (n, _) -> String.lowercase_ascii n = ls) protocols
    with
    | Some np -> Ok np
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown protocol %S (one of: %s)" s
              (String.concat ", " (List.map fst protocols))))
  in
  let print ppf (n, _) = Format.pp_print_string ppf n in
  Arg.conv (parse, print)

(* Shared --jobs argument: 1 = sequential (the default, so goldens and
   CI are untouched unless opted in), 0 = one worker per available
   core, N > 1 = that many domains. Parallel output is byte-identical
   to sequential — see docs/performance.md. *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run independent simulations on N domains (0 = one per core; default \
           sequential). Output is byte-identical to --jobs 1.")

let resolve_jobs n = if n = 0 then Harness.Pool.cpu_count () else max 1 n

(* --- list ------------------------------------------------------------- *)

let list_cmd =
  let doc = "List available protocols, workloads, figures and atlas scenarios." in
  let f () =
    Printf.printf "protocols: %s\n" (String.concat ", " (List.map fst protocols));
    Printf.printf "workloads: %s\n"
      (String.concat ", " (Workload.Registry.names ~n_servers:8));
    Printf.printf "figures:   %s\n" (String.concat ", " (List.map fst figures));
    Printf.printf "scenarios: %s\n" (String.concat ", " Atlas.Scenario.names)
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const f $ const ())

(* --- run --------------------------------------------------------------- *)

let run_cmd =
  let doc = "Run one simulation and print its statistics." in
  let protocol =
    Arg.(
      value
      & opt (enum (List.map (fun (n, p) -> (n, (n, p))) protocols)) ("NCC", Ncc.protocol)
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:"Concurrency-control protocol.")
  in
  let workload =
    Arg.(
      value & opt string "google-f1"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload name.")
  in
  let load =
    Arg.(
      value & opt float 10_000.0
      & info [ "l"; "load" ] ~docv:"TXN/S" ~doc:"Offered load, transactions/second.")
  in
  let servers = Arg.(value & opt int 8 & info [ "servers" ] ~doc:"Number of servers.") in
  let clients = Arg.(value & opt int 24 & info [ "clients" ] ~doc:"Number of clients.") in
  let duration =
    Arg.(value & opt float 2.0 & info [ "duration" ] ~doc:"Measured seconds (simulated).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let replicas =
    Arg.(
      value & opt int 0
      & info [ "replicas" ]
          ~doc:"Replica nodes per server (use 2 with NCC-R / NCC-R-def).")
  in
  let trace =
    Arg.(
      value & opt int 0
      & info [ "trace" ]
          ~doc:
            "Attach a span recorder and print the last N recorded events as a \
             text timeline after the run.")
  in
  let check =
    Arg.(
      value
      & opt
          (enum
             [
               (* on = streaming (windowed, bounded memory); post =
                  post-hoc strict; off = none. Legacy spellings kept. *)
               ("on", Harness.Runner.Streaming);
               ("post", Harness.Runner.Strict);
               ("off", Harness.Runner.No_check);
               ("none", Harness.Runner.No_check);
               ("ser", Harness.Runner.Serializable);
               ("strict", Harness.Runner.Strict);
             ])
          Harness.Runner.No_check
      & info [ "check" ]
          ~doc:
            "History check: $(b,on) (streaming, bounded memory), $(b,post) \
             (post-hoc strict) or $(b,off). $(b,none)/$(b,ser)/$(b,strict) \
             are accepted as legacy spellings.")
  in
  let faults_seed =
    Arg.(
      value & opt int 0
      & info [ "faults" ] ~docv:"SEED"
          ~doc:
            "Inject a randomized network/node fault schedule derived from SEED \
             (0 = no faults). Pair with $(b,--request-timeout).")
  in
  let drop =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ] ~docv:"P" ~doc:"Probability each message is dropped.")
  in
  let dup =
    Arg.(
      value & opt float 0.0
      & info [ "dup" ] ~docv:"P" ~doc:"Probability each message is duplicated.")
  in
  let request_timeout =
    Arg.(
      value & opt (some float) None
      & info [ "request-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-attempt client timeout; the attempt is cancelled and retried \
             when it fires. Required for liveness under message loss.")
  in
  let check_window =
    Arg.(
      value & opt int 1024
      & info [ "check-window" ] ~docv:"N"
          ~doc:"Streaming check: commits per checker epoch (the GC window).")
  in
  let check_ceiling =
    Arg.(
      value & opt (some int) None
      & info [ "check-ceiling" ] ~docv:"N"
          ~doc:
            "Streaming check: fail (exit 1) if the checker's live-set \
             high-water mark exceeds N. CI's memory-bound smoke uses this.")
  in
  let f (pname, p) wname load n_servers n_clients duration seed replicas trace check
      check_window check_ceiling faults_seed drop dup request_timeout =
    let mk = find_workload ~n_servers wname in
    let w = mk () in
    let warmup = Harness.Runner.default.Harness.Runner.warmup in
      let faults =
        if faults_seed <> 0 then begin
          let topo =
            Cluster.Topology.make ~replicas_per_server:replicas ~n_servers ~n_clients ()
          in
          let f =
            Cluster.Faults.random ~seed:faults_seed
              ~nodes:(List.init (Cluster.Topology.n_nodes topo) Fun.id)
              ~crashable:(Cluster.Topology.servers topo)
              ~horizon:(warmup +. duration)
          in
          { f with Cluster.Faults.drop = max f.Cluster.Faults.drop drop;
                   duplicate = max f.Cluster.Faults.duplicate dup }
        end
        else if drop > 0.0 || dup > 0.0 then
          { Cluster.Faults.none with Cluster.Faults.drop; duplicate = dup }
        else Cluster.Faults.none
      in
      if not (Cluster.Faults.is_none faults) then
        Format.printf "faults: %a@." Cluster.Faults.pp faults;
      let cfg =
        {
          Harness.Runner.default with
          Harness.Runner.seed;
          n_servers;
          n_clients;
          offered_load = load;
          duration;
          check;
          check_window;
          replicas_per_server = replicas;
          faults;
          request_timeout;
        }
      in
      let mx = Obs.Metrics.create () in
      let obs = if trace > 0 then Some (Obs.Recorder.create ()) else None in
      let r = Harness.Runner.run ~label:pname ?obs ~metrics:mx p w cfg in
      Printf.printf
        "protocol=%s workload=%s offered=%.0f/s\n\
         committed=%d (%.0f/s)  gave_up=%d  dropped=%d\n\
         latency p50=%.2fms p90=%.2fms p99=%.2fms mean=%.2fms\n\
         messages=%d (%.1f/txn)  peak server utilization=%.2f\n\
         check=%s\n"
        r.Harness.Runner.protocol r.Harness.Runner.workload load r.Harness.Runner.committed
        r.Harness.Runner.throughput r.Harness.Runner.gave_up r.Harness.Runner.dropped
        (r.Harness.Runner.p50 *. 1e3) (r.Harness.Runner.p90 *. 1e3)
        (r.Harness.Runner.p99 *. 1e3)
        (r.Harness.Runner.mean_latency *. 1e3)
        r.Harness.Runner.messages r.Harness.Runner.msgs_per_commit
        r.Harness.Runner.max_utilization r.Harness.Runner.check_result;
      if r.Harness.Runner.aborts <> [] then begin
        Printf.printf "aborts:";
        List.iter (fun (k, n) -> Printf.printf " %s=%d" k n) r.Harness.Runner.aborts;
        print_newline ()
      end;
      if not (List.is_empty r.Harness.Runner.counters) then begin
        Printf.printf "counters:";
        List.iter
          (fun (k, v) -> Printf.printf " %s=%.0f" k v)
          (List.sort
             (fun (a, _) (b, _) -> String.compare a b)
             r.Harness.Runner.counters);
        print_newline ()
      end;
      (match check with
       | Harness.Runner.Streaming ->
         let gauge name =
           match
             List.assoc_opt (name, Obs.Metrics.run_scope) (Obs.Metrics.gauges mx)
           with
           | Some v -> int_of_float v
           | None -> 0
         in
         let live_hw = gauge "checker.live_high_water" in
         Printf.printf
           "checker: live high-water %d, retired %d, epochs %d, stale residue \
            %d (window %d)\n"
           live_hw
           (gauge "checker.retired")
           (gauge "checker.epochs")
           (gauge "checker.stale_residue")
           check_window;
         (match check_ceiling with
          | Some c when live_hw > c ->
            Printf.eprintf "checker live set exceeded ceiling: %d > %d\n" live_hw c;
            exit 1
          | _ -> ())
       | _ -> ());
      match obs with
      | Some rec_ ->
        Printf.printf "--- last %d traced events (of %d) ---\n" trace
          (Obs.Recorder.n_events rec_);
        Obs.Export.timeline ~last:trace rec_ Format.std_formatter;
        print_dropped_note rec_
      | None -> ()
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const f $ protocol $ workload $ load $ servers $ clients $ duration $ seed
      $ replicas $ trace $ check $ check_window $ check_ceiling $ faults_seed
      $ drop $ dup $ request_timeout)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* --- scale -------------------------------------------------------------- *)

let scale_cmd =
  let doc =
    "Cluster-scale open-loop run: 64+ servers, 10k+ clients, 10-100M offered \
     transactions, stream-checked in bounded memory. Results are \
     byte-identical for any --jobs. Latency is the uniform model (the \
     default per-pair asymmetric table is O(nodes^2) and unusable at this \
     node count)."
  in
  let protocol =
    Arg.(
      value
      & opt (enum (List.map (fun (n, p) -> (n, (n, p))) protocols)) ("NCC", Ncc.protocol)
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:"Concurrency-control protocol.")
  in
  let workload =
    Arg.(
      value & opt string "google-f1"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload name.")
  in
  let servers =
    Arg.(value & opt int 64 & info [ "servers" ] ~doc:"Number of servers.")
  in
  let clients =
    Arg.(value & opt int 10_000 & info [ "clients" ] ~doc:"Number of open-loop clients.")
  in
  let txns =
    Arg.(
      value & opt float 1e6
      & info [ "txns" ] ~docv:"N"
          ~doc:
            "Offered transactions over the measurement window (sets the \
             simulated duration: N / load).")
  in
  let load =
    Arg.(
      value & opt float 0.0
      & info [ "l"; "load" ] ~docv:"TXN/S"
          ~doc:"Offered load, transactions/second (0 = 2000 x servers).")
  in
  let arrival =
    Arg.(
      value
      & opt (enum [ ("constant", `Constant); ("diurnal", `Diurnal); ("bursty", `Bursty) ])
          `Constant
      & info [ "arrival" ]
          ~doc:
            "Arrival-rate curve: $(b,constant) (homogeneous Poisson), \
             $(b,diurnal) (cosine day/night swing) or $(b,bursty) (periodic \
             bursts at 4x the base rate).")
  in
  let curve_period =
    Arg.(
      value & opt float 0.0
      & info [ "curve-period" ] ~docv:"SECONDS"
          ~doc:
            "Period of the diurnal/bursty curve (0 = one diurnal cycle per \
             run, or ten bursts per run).")
  in
  let admission_cap =
    Arg.(
      value & opt int 0
      & info [ "admission-cap" ] ~docv:"N"
          ~doc:
            "System-wide in-flight transaction ceiling; arrivals beyond it \
             are shed (0 = unlimited).")
  in
  let hot_key_threshold =
    Arg.(
      value & opt float 0.0
      & info [ "hot-key-threshold" ] ~docv:"SCORE"
          ~doc:
            "Shed arrivals touching keys whose decaying abort score exceeds \
             SCORE (0 = off).")
  in
  let hot_key_halflife =
    Arg.(
      value & opt float 0.05
      & info [ "hot-key-halflife" ] ~docv:"SECONDS"
          ~doc:"Half-life of the hot-key abort score decay.")
  in
  let store_gc_period =
    Arg.(
      value & opt float 0.0
      & info [ "store-gc" ] ~docv:"SECONDS"
          ~doc:
            "Truncate committed version chains on every server store this \
             often, for bounded-memory long runs (0 = off; pair with --check \
             on or off, never post).")
  in
  let store_gc_keep =
    Arg.(
      value & opt int 4
      & info [ "store-gc-keep" ] ~docv:"N"
          ~doc:"Committed versions kept per key by --store-gc.")
  in
  let check =
    Arg.(
      value
      & opt
          (enum [ ("on", Harness.Runner.Streaming); ("off", Harness.Runner.No_check) ])
          Harness.Runner.Streaming
      & info [ "check" ]
          ~doc:
            "History check: $(b,on) (streaming, bounded memory, the default) \
             or $(b,off). Post-hoc checking is deliberately not offered — it \
             retains the full history.")
  in
  let check_window =
    Arg.(
      value & opt int 4096
      & info [ "check-window" ] ~docv:"N"
          ~doc:"Streaming check: commits per checker epoch (the GC window).")
  in
  let check_ceiling =
    Arg.(
      value & opt (some int) None
      & info [ "check-ceiling" ] ~docv:"N"
          ~doc:
            "Fail (exit 1) if the checker's live-set high-water mark exceeds \
             N. CI's memory-bound smoke uses this.")
  in
  let heap_ceiling_mb =
    Arg.(
      value & opt (some int) None
      & info [ "heap-ceiling-mb" ] ~docv:"MB"
          ~doc:
            "Fail (exit 1) if any run's top-of-heap (Gc top_heap_words, the \
             RSS proxy) exceeds MB megabytes.")
  in
  let seeds =
    Arg.(
      value & opt int 1
      & info [ "seeds" ] ~docv:"N" ~doc:"Run seeds 1..N (fanned over --jobs).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write per-seed results as JSON rows. Deterministic (host stats \
             stay on stdout): byte-identical for any --jobs.")
  in
  let f (pname, p) wname servers clients txns load arrival curve_period
      admission_cap hot_key_threshold hot_key_halflife store_gc_period
      store_gc_keep check check_window check_ceiling heap_ceiling_mb seeds out
      jobs =
    let load = if load > 0.0 then load else 2_000.0 *. float_of_int servers in
    let duration = txns /. load in
    let warmup = Float.min 0.5 (duration *. 0.05) in
    let arrival =
      match arrival with
      | `Constant -> Harness.Runner.Constant
      | `Diurnal ->
        let period = if curve_period > 0.0 then curve_period else duration in
        Harness.Runner.Diurnal { period; trough = 0.25 }
      | `Bursty ->
        let period =
          if curve_period > 0.0 then curve_period else duration /. 10.0
        in
        Harness.Runner.Bursty
          { period; burst_len = period /. 5.0; burst_mult = 4.0 }
    in
    let mk = find_workload ~n_servers:servers wname in
    let cfg seed =
      {
        Harness.Runner.default with
        Harness.Runner.seed;
        n_servers = servers;
        n_clients = clients;
        offered_load = load;
        duration;
        warmup;
        drain = warmup;
        latency = Harness.Runner.Uniform { one_way = 250e-6; jitter = 25e-6 };
        check;
        check_window;
        arrival;
        admission_cap = (if admission_cap > 0 then Some admission_cap else None);
        hot_key_shed =
          (if hot_key_threshold > 0.0 then
             Some
               {
                 Harness.Runner.shed_threshold = hot_key_threshold;
                 shed_halflife = hot_key_halflife;
               }
           else None);
        store_gc =
          (if store_gc_period > 0.0 then Some (store_gc_period, store_gc_keep)
           else None);
      }
    in
    Printf.printf
      "scale: %s on %s — %d servers, %d clients, %.3g txns offered (%.0f/s \
       over %.2fs simulated)\n\
       %!"
      pname wname servers clients txns load duration;
    let runs =
      Harness.Pool.map
        ~jobs:(resolve_jobs jobs)
        (fun seed ->
          let mx = Obs.Metrics.create () in
          let r = Harness.Runner.run ~label:pname ~metrics:mx p (mk ()) (cfg seed) in
          let g name =
            match
              List.assoc_opt (name, Obs.Metrics.run_scope) (Obs.Metrics.gauges mx)
            with
            | Some v -> v
            | None -> 0.0
          in
          (seed, r, g "gc.top_heap_words", g "checker.live_high_water"))
        (List.init (max 1 seeds) (fun i -> i + 1))
    in
    let worst_heap = ref 0.0 and worst_live = ref 0.0 and violated = ref false in
    List.iter
      (fun (seed, r, top_heap, live_hw) ->
        Printf.printf
          "seed %d: committed=%d (%.0f/s) gave_up=%d dropped=%d p50=%.2fms \
           p99=%.2fms msgs/commit=%.1f check=%s\n"
          seed r.Harness.Runner.committed r.Harness.Runner.throughput
          r.Harness.Runner.gave_up r.Harness.Runner.dropped
          (r.Harness.Runner.p50 *. 1e3)
          (r.Harness.Runner.p99 *. 1e3)
          r.Harness.Runner.msgs_per_commit r.Harness.Runner.check_result;
        (match check with
         | Harness.Runner.Streaming ->
           Printf.printf "  checker live high-water %.0f\n" live_hw
         | _ -> ());
        (* host figure, deliberately not in --out: varies per machine *)
        Printf.printf "  [host] top heap %.1f MB\n" (top_heap *. 8.0 /. 1e6);
        worst_heap := Float.max !worst_heap top_heap;
        worst_live := Float.max !worst_live live_hw;
        let cr = r.Harness.Runner.check_result in
        if String.length cr >= 9 && String.sub cr 0 9 = "VIOLATION" then
          violated := true)
      runs;
    (match out with
     | None -> ()
     | Some path ->
       let rows =
         List.map
           (fun (seed, r, _, _) ->
             Harness.Report.bench_row
               ~experiment:
                 (Printf.sprintf "scale:%s:%s:%dx%d:s%d" pname wname servers
                    clients seed)
               r)
           runs
       in
       write_file path (Harness.Report.bench_doc ~suite:"scale" rows);
       Printf.printf "wrote %s (%d rows)\n" path (List.length rows));
    if !violated then begin
      Printf.eprintf "serializability violation detected\n";
      exit 1
    end;
    (match check_ceiling with
     | Some c when !worst_live > float_of_int c ->
       Printf.eprintf "checker live set exceeded ceiling: %.0f > %d\n"
         !worst_live c;
       exit 1
     | _ -> ());
    match heap_ceiling_mb with
    | Some mb when !worst_heap *. 8.0 /. 1e6 > float_of_int mb ->
      Printf.eprintf "top heap exceeded ceiling: %.1f MB > %d MB\n"
        (!worst_heap *. 8.0 /. 1e6)
        mb;
      exit 1
    | _ -> ()
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(
      const f $ protocol $ workload $ servers $ clients $ txns $ load $ arrival
      $ curve_period $ admission_cap $ hot_key_threshold $ hot_key_halflife
      $ store_gc_period $ store_gc_keep $ check $ check_window $ check_ceiling
      $ heap_ceiling_mb $ seeds $ out $ jobs_arg)

(* --- chaos -------------------------------------------------------------- *)

let chaos_cmd =
  let doc =
    "Seeded chaos runs: each seed derives a randomized fault schedule (message \
     drop/duplication/extra delay, link partitions, server crashes); the \
     resulting history is checked strictly. Failing seeds print a one-command \
     replay line."
  in
  let protocol =
    Arg.(
      value
      & opt (enum (List.map (fun (n, p) -> (n, (n, p))) protocols)) ("NCC", Ncc.protocol)
      & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc:"Concurrency-control protocol.")
  in
  let workload =
    Arg.(
      value & opt string "google-f1"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload name.")
  in
  let seeds =
    Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeded runs.")
  in
  let replay =
    Arg.(
      value & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:"Replay the single run for SEED and print its digest and schedule.")
  in
  let replicas =
    Arg.(
      value & opt int 0
      & info [ "replicas" ]
          ~doc:"Replica nodes per server (use 2 with NCC-R / NCC-R-def).")
  in
  let no_crashes =
    Arg.(
      value & flag
      & info [ "no-crashes" ] ~doc:"Restrict schedules to network faults only.")
  in
  let chaos_check =
    Arg.(
      value
      & opt
          (enum
             [
               ("on", Harness.Runner.Streaming);
               ("post", Harness.Runner.Strict);
               ("off", Harness.Runner.No_check);
             ])
          Harness.Runner.Streaming
      & info [ "check" ]
          ~doc:
            "History check per seed: $(b,on) (streaming, the default), \
             $(b,post) (post-hoc strict) or $(b,off).")
  in
  let f (pname, p) wname seeds replay replicas no_crashes check jobs =
    let base =
      {
        Harness.Chaos.base_default with
        Harness.Runner.replicas_per_server = replicas;
        check;
      }
    in
    let allow_crashes = (not no_crashes) && replicas = 0 in
    let mk = find_workload ~n_servers:base.Harness.Runner.n_servers wname in
    (match replay with
       | Some seed ->
         let r = Harness.Chaos.run ~allow_crashes ~base p (mk ()) ~seed in
         Format.printf "%a@.schedule: %a@." Harness.Chaos.pp_report r
           Cluster.Faults.pp r.Harness.Chaos.faults;
         if not r.Harness.Chaos.ok then exit 1
       | None ->
         (* the matrix runs (possibly in parallel) first; reports print
            afterwards in seed order, identically for any --jobs *)
         let reports =
           Harness.Chaos.run_matrix ~jobs:(resolve_jobs jobs) ~allow_crashes ~base p
             ~workload:mk
             ~seeds:(List.init seeds (fun i -> i + 1))
         in
         List.iter
           (fun r ->
             Format.printf "%a@." Harness.Chaos.pp_report r;
             if not r.Harness.Chaos.ok then
               Printf.printf "  replay: %s\n"
                 (Harness.Chaos.replay_command ~protocol:pname ~workload:wname
                    ~seed:r.Harness.Chaos.seed))
           reports;
         let failed =
           List.length (List.filter (fun r -> not r.Harness.Chaos.ok) reports)
         in
         Printf.printf "%d/%d seeds passed\n" (seeds - failed) seeds;
         if failed > 0 then exit 1)
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const f $ protocol $ workload $ seeds $ replay $ replicas $ no_crashes
      $ chaos_check $ jobs_arg)

(* --- atlas -------------------------------------------------------------- *)

let atlas_cmd =
  let doc =
    "Sweep a named scenario grid — (protocol x knob-point x seed) cells on \
     the --jobs pool, every cell stream-checked — and emit the phase diagram \
     as aligned text plus schema-versioned JSON (byte-identical for any \
     --jobs). See docs/atlas.md and 'ncc_sim list' for scenarios."
  in
  let scenario_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO" ~doc:"Scenario name (see 'ncc_sim list').")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Shorter runs and lighter load per cell.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Output file for the phase-diagram JSON (default \
             atlas_<scenario>.json).")
  in
  let seeds =
    Arg.(
      value & opt (some int) None
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Override the scenario's seed list with seeds 1..N.")
  in
  let check =
    Arg.(
      value
      & opt (enum [ ("on", true); ("off", false) ]) true
      & info [ "check" ]
          ~doc:
            "Stream-check every cell ($(b,on), the default — violations \
             surface as per-cell verdicts, never a sweep abort) or skip \
             checking ($(b,off)).")
  in
  let f sname quick jobs out seeds check =
    match Atlas.Scenario.find sname with
    | None ->
      Printf.eprintf "unknown scenario %S (one of: %s)\n" sname
        (String.concat ", " Atlas.Scenario.names);
      exit 2
    | Some s ->
      let seeds = Option.map (fun n -> List.init (max 1 n) (fun i -> i + 1)) seeds in
      let sweep =
        Atlas.Driver.run ~jobs:(resolve_jobs jobs) ~quick ~check ?seeds s
      in
      let diagram = Atlas.Diagram.reduce sweep in
      print_string (Atlas.Report.text sweep diagram);
      let path =
        match out with
        | Some p -> p
        | None -> Printf.sprintf "atlas_%s.json" s.Atlas.Scenario.name
      in
      write_file path (Atlas.Report.json sweep diagram);
      Printf.printf "wrote %s (%d cells, %d violations, schema v%d)\n" path
        diagram.Atlas.Diagram.total_cells diagram.Atlas.Diagram.total_violations
        Atlas.Report.schema_version
  in
  Cmd.v (Cmd.info "atlas" ~doc)
    Term.(const f $ scenario_arg $ quick_arg $ jobs_arg $ out $ seeds $ check)

(* --- trace / profile ---------------------------------------------------- *)

(* Shared arguments for the observability subcommands: a small
   instrumented run (trace files grow with load x duration, so the
   defaults are deliberately short — override with --load/--duration). *)
let obs_run_args =
  let protocol =
    Arg.(
      value
      & opt protocol_conv ("NCC", Ncc.protocol)
      & info [ "p"; "protocol" ] ~docv:"PROTO"
          ~doc:"Concurrency-control protocol (case-insensitive).")
  in
  let workload =
    Arg.(
      value & opt string "google-f1"
      & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload name.")
  in
  let load =
    Arg.(
      value & opt float 2_000.0
      & info [ "l"; "load" ] ~docv:"TXN/S" ~doc:"Offered load, transactions/second.")
  in
  let servers = Arg.(value & opt int 4 & info [ "servers" ] ~doc:"Number of servers.") in
  let clients = Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Number of clients.") in
  let duration =
    Arg.(
      value & opt float 0.2
      & info [ "duration" ] ~doc:"Measured seconds (simulated).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let replicas =
    Arg.(
      value & opt int 0
      & info [ "replicas" ]
          ~doc:"Replica nodes per server (use 2 with NCC-R / NCC-R-def).")
  in
  Term.(
    const (fun p w l s c d seed r -> (p, w, l, s, c, d, seed, r))
    $ protocol $ workload $ load $ servers $ clients $ duration $ seed $ replicas)

let obs_run (((pname : string), p), wname, load, n_servers, n_clients, duration, seed, replicas) =
  let mk = find_workload ~n_servers wname in
  let cfg =
      {
        Harness.Runner.default with
        Harness.Runner.seed;
        n_servers;
        n_clients;
        offered_load = load;
        duration;
        warmup = 0.05;
        drain = 0.05;
        replicas_per_server = replicas;
      }
    in
    let rec_ = Obs.Recorder.create () in
    let mx = Obs.Metrics.create () in
    let result = Harness.Runner.run ~label:pname ~obs:rec_ ~metrics:mx p (mk ()) cfg in
    (result, rec_, mx)

let trace_cmd =
  let doc =
    "Run one instrumented simulation and write its span trace as Chrome \
     trace_event JSON, loadable in Perfetto (ui.perfetto.dev) or \
     chrome://tracing. One timeline track per node; transaction lifecycle, \
     retry back-off, message flight/queueing and handler-execution spans."
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file for the trace JSON.")
  in
  let timeline =
    Arg.(
      value & opt int 0
      & info [ "timeline" ] ~docv:"N"
          ~doc:"Also print the last N span events as a text timeline.")
  in
  let f args out timeline =
    let result, rec_, _mx = obs_run args in
    (* In-flight transactions at the horizon legitimately leave spans
       open; anything else is a bug in the instrumentation. *)
    (match Obs.Export.validate ~allow_open:true rec_ with
     | Ok s ->
       Printf.printf
         "trace: %d events (%d complete spans, %d async pairs, %d open at horizon)\n"
         s.Obs.Export.v_events s.Obs.Export.v_complete s.Obs.Export.v_async_pairs
         s.Obs.Export.v_open
     | Error e ->
       Printf.eprintf "trace: INVALID: %s\n" e;
       exit 1);
    write_file out (Obs.Export.chrome_trace_string rec_);
    Printf.printf
      "wrote %s (protocol=%s committed=%d, %.0f tx/s); open in ui.perfetto.dev\n"
      out result.Harness.Runner.protocol result.Harness.Runner.committed
      result.Harness.Runner.throughput;
    print_dropped_note rec_;
    if timeline > 0 then
      Obs.Export.timeline ~last:timeline rec_ Format.std_formatter
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const f $ obs_run_args $ out $ timeline)

let profile_cmd =
  let doc =
    "Run one instrumented simulation and emit the run profile as JSON: the \
     run summary plus every metrics cell (per-node counters, gauges, latency \
     histograms with p50/p90/p99/p999)."
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the profile JSON to FILE instead of stdout.")
  in
  let f args out =
    let result, _rec, mx = obs_run args in
    let doc = Harness.Report.profile_json result mx in
    match out with
    | None -> print_endline doc
    | Some path ->
      write_file path doc;
      Printf.printf "wrote %s (protocol=%s committed=%d)\n" path
        result.Harness.Runner.protocol result.Harness.Runner.committed
  in
  Cmd.v (Cmd.info "profile" ~doc) Term.(const f $ obs_run_args $ out)

(* --- fig ---------------------------------------------------------------- *)

let fig_cmd =
  let doc = "Regenerate one of the paper's figures or tables." in
  let fig_arg =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun (n, f) -> (n, (n, f))) figures))) None
      & info [] ~docv:"FIGURE")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Small cluster, shorter runs.")
  in
  let f (_, fig) quick jobs =
    let scale = if quick then Experiments.quick_scale else Experiments.full_scale in
    fig ~jobs:(resolve_jobs jobs) ~scale
  in
  Cmd.v (Cmd.info "fig" ~doc) Term.(const f $ fig_arg $ quick_arg $ jobs_arg)

let () =
  let doc = "NCC (OSDI 2023) reproduction: simulated strictly serializable datastores" in
  let info = Cmd.info "ncc_sim" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            scale_cmd;
            chaos_cmd;
            atlas_cmd;
            fig_cmd;
            trace_cmd;
            profile_cmd;
          ]))
