(* Benchmark entry point: regenerates every table and figure of the
   paper's evaluation (§5) on the simulated testbed, then runs Bechamel
   microbenchmarks of the core primitives.

   Usage:
     dune exec bench/main.exe                 # everything, full scale
     dune exec bench/main.exe -- quick        # everything, small scale
     dune exec bench/main.exe -- fig6a fig8   # selected experiments
     dune exec bench/main.exe -- micro        # microbenchmarks only *)

(* ncc-lint: allow R5 — CLI flag, written once before any experiment runs *)
let quick = ref false

(* ncc-lint: allow R5 — CLI flag, written once before any experiment runs *)
let jobs = ref 1

(* ncc-lint: allow R5 — CLI flag, written once before any experiment runs *)
let check_override : Harness.Runner.check_level option ref = ref None

(* --jobs 0 means one worker per available core. *)
let njobs () = if !jobs = 0 then Harness.Pool.cpu_count () else max 1 !jobs

(* Quick runs stream-check every history by default (the scale's
   [check] field); --check on|post|off overrides either tier. *)
let scale () =
  let s = if !quick then Experiments.quick_scale else Experiments.full_scale in
  match !check_override with
  | None -> s
  | Some c -> { s with Experiments.check = c }

(* Scale-adjusted sweeps: the quick cluster (4 servers) saturates at
   roughly half the load of the full one (8 servers). *)
let adj loads = if !quick then List.map (fun l -> l /. 2.0) loads else loads

(* Each experiment also returns its runs as BENCH_*.json rows (the
   tables printed to stdout stay the human-readable face). *)
let sweep_rows fig data =
  List.concat_map
    (fun (pname, points) ->
      List.map
        (fun (load, r) ->
          Harness.Report.bench_row
            ~experiment:(Printf.sprintf "%s:%s@%.0f" fig pname load)
            r)
        points)
    data

let labeled_rows fig data =
  List.map
    (fun (label, r) ->
      Harness.Report.bench_row ~experiment:(fig ^ ":" ^ label) r)
    data

let fig6a () =
  let rows =
    sweep_rows "fig6a"
      (Experiments.fig6a ~jobs:(njobs ()) ~scale:(scale ())
         ~loads:(adj [ 5_000.; 12_000.; 20_000.; 32_000.; 45_000. ])
         ())
  in
  let internals =
    Experiments.ncc_internals ~scale:(scale ())
      ~load:(if !quick then 8_000. else 15_000.)
      ()
  in
  rows @ [ Harness.Report.bench_row ~experiment:"internals:NCC" internals ]

let fig6b () =
  sweep_rows "fig6b"
    (Experiments.fig6b ~jobs:(njobs ()) ~scale:(scale ())
       ~loads:(adj [ 4_000.; 10_000.; 18_000.; 28_000.; 40_000. ])
       ())

let fig6c () =
  sweep_rows "fig6c"
    (Experiments.fig6c ~jobs:(njobs ()) ~scale:(scale ())
       ~loads:(adj [ 4_000.; 9_000.; 15_000.; 21_000.; 27_000. ])
       ())

let fig7a () =
  let load_of name = (if !quick then 0.5 else 1.0) *. Experiments.measured_peak name in
  sweep_rows "fig7a" (Experiments.fig7a ~jobs:(njobs ()) ~scale:(scale ()) ~load_of ())

let fig7b () =
  sweep_rows "fig7b"
    (Experiments.fig7b ~jobs:(njobs ()) ~scale:(scale ())
       ~loads:(adj [ 5_000.; 12_000.; 20_000.; 32_000.; 45_000. ])
       ())

let fig7c () =
  labeled_rows "fig7c"
    (List.map
       (fun (timeout, r) -> (Printf.sprintf "timeout=%g" timeout, r))
       (Experiments.fig7c ~jobs:(njobs ()) ~scale:(scale ())
          ~load:(if !quick then 6_000. else 15_000.)
          ()))

let fig8 () =
  List.concat_map
    (fun (name, ro, rw) ->
      [
        Harness.Report.bench_row ~experiment:("fig8:" ^ name ^ ":ro") ro;
        Harness.Report.bench_row ~experiment:("fig8:" ^ name ^ ":rw") rw;
      ])
    (Experiments.fig8 ~jobs:(njobs ()) ~scale:(scale ()) ())

let ablations () =
  labeled_rows "ablations"
    (Experiments.ablations ~jobs:(njobs ()) ~scale:(scale ()) ())

let replication () =
  labeled_rows "replication"
    (Experiments.replication ~jobs:(njobs ()) ~scale:(scale ())
       ~load:(if !quick then 5_000. else 10_000.)
       ())

let geo () =
  labeled_rows "geo"
    (Experiments.geo ~jobs:(njobs ()) ~scale:(scale ())
       ~load:(if !quick then 4_000. else 8_000.)
       ())

let params () =
  Experiments.params ();
  []

(* --- Bechamel microbenchmarks of the core primitives ----------------- *)

(* In-binary "before" reference for the R16/R17 allocation fixes in
   lib/sim (docs/performance.md, allocation discipline). [Heap_ref]
   replicates the pre-SoA event heap: one entry record per push (the
   float prio field is boxed in the mixed record) and a Some-wrapped
   tuple per pop. Kept here, not in lib/, so the shipped code stays
   on the non-allocating path while the JSON keeps a before/after
   pair. *)
module Heap_ref = struct
  type 'a entry = { prio : float; seq : int; payload : 'a }
  type 'a t = { mutable a : 'a entry array; mutable size : int; mutable next_seq : int }

  let create () = { a = [||]; size = 0; next_seq = 0 }

  let before x y =
    x.prio < y.prio
    (* ncc-lint: allow R8 — reference copy of the heap's exact-tie seq fallback *)
    || (x.prio = y.prio && x.seq < y.seq)

  let swap t i j =
    let tmp = t.a.(i) in
    t.a.(i) <- t.a.(j);
    t.a.(j) <- tmp

  let push t prio payload =
    let e = { prio; seq = t.next_seq; payload } in
    t.next_seq <- t.next_seq + 1;
    if t.size = Array.length t.a then
      t.a <- Array.append t.a (Array.make (max 8 (t.size + 1)) e);
    t.a.(t.size) <- e;
    t.size <- t.size + 1;
    let i = ref t.size in
    decr i;
    while !i > 0 && before t.a.(!i) t.a.((!i - 1) / 2) do
      swap t !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop t =
    if t.size = 0 then None
    else begin
      let root = t.a.(0) in
      t.size <- t.size - 1;
      t.a.(0) <- t.a.(t.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < t.size && before t.a.(l) t.a.(!m) then m := l;
        if r < t.size && before t.a.(r) t.a.(!m) then m := r;
        if !m <> !i then begin
          swap t !i !m;
          i := !m
        end
        else continue := false
      done;
      Some (root.prio, root.payload)
    end
end

(* In-binary "before" reference for the in-flight message arena: one
   fresh delivery closure per message, capturing (src, msg) — the
   discipline Cluster.Net's clean path used before delivery thunks
   were parked in the freelist arena. Kept here, not in lib/, like
   [Heap_ref]: the shipped code stays on the zero-allocation path
   while BENCH_*.json keeps a before/after pair. The ref isolates the
   allocation discipline (latency draw + closure + schedule +
   handler); the net.arena row times the full dispatch path, which
   does strictly more work per message yet allocates nothing. *)
module Net_closure_ref = struct
  type t = {
    engine : Sim.Engine.t;
    rng : Sim.Rng.t;
    latency : Cluster.Latency.t;
    mutable handler : src:int -> int -> unit;
    mutable sent : int;
  }

  let create engine rng latency =
    { engine; rng; latency; handler = (fun ~src:_ _ -> ()); sent = 0 }

  let send t ~src ~dst msg =
    t.sent <- t.sent + 1;
    let delay = Cluster.Latency.sample t.rng t.latency ~src ~dst in
    Sim.Engine.schedule t.engine ~delay (fun () -> t.handler ~src msg)
end

let micro () =
  let open Bechamel in
  let open Toolkit in
  print_string "\n== Microbenchmarks (core primitives) ==\n";
  let store_write =
    Test.make ~name:"store.write+commit x100"
      (Staged.stage (fun () ->
           let s = Mvstore.Store.create () in
           for i = 1 to 100 do
             let v =
               Mvstore.Store.write s (i mod 10) i
                 ~ts:(Kernel.Ts.make ~time:i ~cid:1)
                 ~writer:i
             in
             Mvstore.Store.commit_version v
           done))
  in
  let store_read =
    let s = Mvstore.Store.create () in
    for i = 1 to 10 do
      Mvstore.Store.commit_version
        (Mvstore.Store.write s i i ~ts:(Kernel.Ts.make ~time:i ~cid:1) ~writer:i)
    done;
    Test.make ~name:"store.read x100"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             ignore (Mvstore.Store.read s (i mod 10) ~ts:(Kernel.Ts.make ~time:i ~cid:2))
           done))
  in
  let safeguard =
    let results =
      List.init 16 (fun i ->
          {
            Ncc.Msg.r_key = i;
            r_value = i;
            r_vid = i;
            r_tw = Kernel.Ts.make ~time:10 ~cid:1;
            r_tr = Kernel.Ts.make ~time:20 ~cid:1;
            r_is_write = i mod 4 = 0;
            r_prev_vid = 0;
          })
    in
    Test.make ~name:"safeguard check (16 pairs)"
      (Staged.stage (fun () -> ignore (Ncc.Client.safeguard results)))
  in
  let heap =
    Test.make ~name:"heap push+pop x100"
      (Staged.stage (fun () ->
           let h = Sim.Heap.create () in
           for i = 1 to 100 do
             Sim.Heap.push h (float_of_int (i * 7919 mod 100)) i
           done;
           while not (Sim.Heap.is_empty h) do
             ignore (Sim.Heap.top_prio h);
             ignore (Sim.Heap.pop_min h)
           done))
  in
  (* Before/after pair for the R16/R17 heap fix, in the shape the sim
     engine actually runs it: a persistent 1k-entry timer heap under
     pop+push churn. The SoA heap's non-allocating top_prio/pop_min
     path against the boxed-entry AoS reference it replaced (one mixed
     record with a boxed float per push, one Some-wrapped tuple per
     pop). A cold drain of a tiny heap would hide the difference —
     bump allocation is nearly free until steady-state churn keeps
     the minor collector busy. *)
  let heap_drain =
    let h = Sim.Heap.create () in
    for i = 1 to 1024 do
      Sim.Heap.push h (float_of_int (i * 7919 mod 1000)) i
    done;
    Test.make ~name:"heap churn pop_min+push x100"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             ignore (Sim.Heap.top_prio h);
             let v = Sim.Heap.pop_min h in
             Sim.Heap.push h (float_of_int (i * 7919 mod 1000)) v
           done))
  in
  let heap_boxed_ref =
    let h = Heap_ref.create () in
    for i = 1 to 1024 do
      Heap_ref.push h (float_of_int (i * 7919 mod 1000)) i
    done;
    Test.make ~name:"heap churn boxed-entry ref x100"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             match Heap_ref.pop h with
             | Some (_, v) -> Heap_ref.push h (float_of_int (i * 7919 mod 1000)) v
             | None -> ()
           done))
  in
  (* Before/after rows for the tentpole scheduler change: steady-state
     event churn (top_prio + pop_min + schedule) against a persistent
     structure holding N pending events, at 1k / 100k / 1M. The heap
     pays O(log n) sift per operation — ~20 levels at 1M — while the
     wheel's slot insert and bucket drain are O(1) amortised, so the
     gap must widen with N (the scale CI asserts the 1M pair). Each
     pop reschedules at popped-prio + span, keeping density constant:
     the workload every long open-loop run presents. Density matches
     what a cluster-scale run holds: pending events are in-flight
     messages and timers, all due within a few milliseconds of now
     (one-way delays are ~100us-1ms), so 1M pending events span ~10ms
     of virtual time — about 100 events per 1us tick. *)
  let engine_churn =
    List.concat_map
      (fun (tag, n) ->
        let span_ticks = max 256 (n / 100) in
        let span = float_of_int span_ticks *. 1e-6 in
        let prio i = float_of_int (i * 7919 mod span_ticks) *. 1e-6 in
        let wheel =
          let w = Sim.Wheel.create () in
          for i = 1 to n do
            Sim.Wheel.schedule w (prio i) i
          done;
          Test.make ~name:(Printf.sprintf "engine.wheel churn %s" tag)
            (Staged.stage (fun () ->
                 for _ = 1 to 100 do
                   let p = Sim.Wheel.top_prio w in
                   let v = Sim.Wheel.pop_min w in
                   Sim.Wheel.schedule w (p +. span) v
                 done))
        in
        let heap =
          let h = Sim.Heap.create () in
          for i = 1 to n do
            Sim.Heap.push h (prio i) i
          done;
          Test.make ~name:(Printf.sprintf "engine.heap churn %s" tag)
            (Staged.stage (fun () ->
                 for _ = 1 to 100 do
                   let p = Sim.Heap.top_prio h in
                   let v = Sim.Heap.pop_min h in
                   Sim.Heap.push h (p +. span) v
                 done))
        in
        [ wheel; heap ])
      [ ("1k", 1_000); ("100k", 100_000); ("1M", 1_000_000) ]
  in
  (* Before/after pair for the in-flight message arena: ping-pong one
     message at a time through the real network runtime (send + full
     dispatch, zero words allocated per message at steady state)
     against [Net_closure_ref]'s fresh-closure-per-send discipline. *)
  let net_arena =
    let topo =
      Cluster.Topology.make ~replicas_per_server:0 ~n_servers:1 ~n_clients:1 ()
    in
    let engine = Sim.Engine.create () in
    let rng = Sim.Rng.create 1 in
    let latency = Cluster.Latency.uniform ~one_way:1e-4 ~jitter_mean:1e-6 in
    let net =
      Cluster.Net.create engine rng topo ~latency
        ~clock_of:(fun _ -> Sim.Clock.perfect)
    in
    let served = ref 0 in
    Cluster.Net.set_handler net 0 ~cost:(fun _ -> 10e-6)
      ~handler:(fun ~src:_ _ -> incr served);
    Test.make ~name:"net.arena send+deliver x100"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             Cluster.Net.send net ~src:1 ~dst:0 i;
             Sim.Engine.run engine
           done))
  in
  let net_closure_ref =
    let engine = Sim.Engine.create () in
    let rng = Sim.Rng.create 1 in
    let latency = Cluster.Latency.uniform ~one_way:1e-4 ~jitter_mean:1e-6 in
    let t = Net_closure_ref.create engine rng latency in
    let served = ref 0 in
    t.Net_closure_ref.handler <- (fun ~src:_ _ -> incr served);
    Test.make ~name:"net closure-per-send ref x100"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             Net_closure_ref.send t ~src:1 ~dst:0 i;
             Sim.Engine.run engine
           done))
  in
  let zipf =
    let z = Sim.Rng.zipf_create ~n:1_000_000 ~theta:0.8 in
    let r = Sim.Rng.create 1 in
    Test.make ~name:"zipf draw x100"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             ignore (Sim.Rng.zipf_draw r z)
           done))
  in
  (* Before/after pair for the atlas Zipf memo: a grid re-instantiates
     the same (n, theta) table once per (protocol x seed) cell, and
     each zipf_create pays the zeta partial sum over all n keys. The
     memo hit — an assoc-list probe over the few distinct tables a
     sweep ever holds — is what cells actually pay after the driver's
     sequential prewarm. Sized at the atlas default key space. *)
  let zipf_table_memo_hit =
    let m = Atlas.Driver.Zipf_memo.create () in
    ignore (Atlas.Driver.Zipf_memo.get m ~n:100_000 ~theta:0.8);
    Test.make ~name:"atlas zipf table memo hit"
      (Staged.stage (fun () ->
           ignore (Atlas.Driver.Zipf_memo.get m ~n:100_000 ~theta:0.8)))
  in
  let zipf_table_create_ref =
    Test.make ~name:"atlas zipf table create ref"
      (Staged.stage (fun () ->
           ignore (Sim.Rng.zipf_create ~n:100_000 ~theta:0.8)))
  in
  (* Read lookup on a deep chain: the tw binary search that replaced
     the old linear version-list scan, next to an inline linear-scan
     reference over the same (tw, value) data for an in-binary
     before/after. *)
  let store_lookup_deep =
    let s = Mvstore.Store.create () in
    for i = 1 to 256 do
      Mvstore.Store.commit_version
        (Mvstore.Store.write s 1 i ~ts:(Kernel.Ts.make ~time:i ~cid:1) ~writer:i)
    done;
    Test.make ~name:"store.version_at 256-chain x100"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             ignore
               (Mvstore.Store.version_at s 1
                  ~ts:(Kernel.Ts.make ~time:(i * 2) ~cid:2))
           done))
  in
  let store_lookup_linear_ref =
    let tws = List.init 256 (fun i -> (Kernel.Ts.make ~time:(256 - i) ~cid:1, i)) in
    Test.make ~name:"version lookup linear-list ref x100"
      (Staged.stage (fun () ->
           for i = 1 to 100 do
             let ts = Kernel.Ts.make ~time:(i * 2) ~cid:2 in
             ignore
               (List.find_opt (fun (tw, _) -> Kernel.Ts.(tw <= ts)) tws)
           done))
  in
  (* Message dispatch through the fault-free network runtime (the
     preallocated-completion fast path): one node servicing a burst. *)
  let net_dispatch =
    let topo = Cluster.Topology.make ~replicas_per_server:0 ~n_servers:1 ~n_clients:1 () in
    Test.make ~name:"net.dispatch x100"
      (Staged.stage (fun () ->
           let engine = Sim.Engine.create () in
           let rng = Sim.Rng.create 1 in
           let latency = Cluster.Latency.uniform ~one_way:1e-4 ~jitter_mean:1e-6 in
           let net =
             Cluster.Net.create engine rng topo ~latency
               ~clock_of:(fun _ -> Sim.Clock.perfect)
           in
           let served = ref 0 in
           Cluster.Net.set_handler net 0 ~cost:(fun _ -> 10e-6)
             ~handler:(fun ~src:_ _ -> incr served);
           for i = 1 to 100 do
             Cluster.Net.send net ~src:1 ~dst:0 i
           done;
           Sim.Engine.run engine;
           assert (!served = 100)))
  in
  (* Sorted whole-table traversal: the per-store key cache vs a
     fresh sort every call (the pre-cache behavior). *)
  let tbl = Hashtbl.create 1024 in
  for i = 1 to 1000 do
    Hashtbl.replace tbl (i * 7919 mod 4096) i
  done;
  let detmap_uncached =
    Test.make ~name:"detmap.iter_sorted 1k keys"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           Kernel.Detmap.iter_sorted (fun _ v -> acc := !acc + v) tbl))
  in
  let detmap_cached =
    let kc = Kernel.Detmap.cache () in
    Test.make ~name:"detmap.iter_sorted_cached 1k keys"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           Kernel.Detmap.iter_sorted_cached kc (fun _ v -> acc := !acc + v) tbl))
  in
  let checker =
    Test.make ~name:"checker 1k-txn history"
      (Staged.stage (fun () ->
           let t = Checker.Rsg.create () in
           for i = 1 to 1000 do
             Checker.Rsg.record_commit t ~txn:i
               ~start:(float_of_int (2 * i))
               ~finish:(float_of_int ((2 * i) + 1))
               ~reads:[ (1, 99 + i) ]
               ~writes:[ (1, 100 + i) ]
           done;
           Checker.Rsg.record_version_order t 1 (List.init 1001 (fun i -> 100 + i));
           match Checker.Rsg.check t ~strict:true with
           | Checker.Verdict.Ok -> ()
           | Checker.Verdict.Violation a ->
             failwith (Checker.Verdict.anomaly_to_string a)))
  in
  (* Per-commit cost of the streaming checker on an F1-shaped feed:
     each commit touches a new key (its initial version announced
     first, as google-f1's Zipf draw over 1M keys does ~115k times in
     the f1-paper run), reads 5 or 6 keys, and every 64th commit
     writes one; the 128-commit window runs eight epochs of cycle
     checks, retirement and pruning. The events are built once, so
     the row times the checker, not the caller's lists. Divide by
     1000 for the per-commit figure the docs quote. *)
  let checker_stream =
    let n = 1000 in
    let latest = Array.make n 0 and next_vid = ref 0 in
    let fresh () =
      incr next_vid;
      !next_vid
    in
    let feed =
      Array.init n (fun i ->
          let vid = fresh () in
          latest.(i) <- vid;
          let reads =
            (i, vid)
            :: List.init (4 + (i mod 2)) (fun j ->
                   let k = ((i * 7919) + (j * 104729)) mod (i + 1) in
                   (k, latest.(k)))
          in
          let write =
            if i mod 64 = 63 then begin
              let k = ((i * 7919) + 13) mod i in
              let prev = latest.(k) and w = fresh () in
              latest.(k) <- w;
              Some (k, w, Some prev, [ (k, w) ])
            end
            else None
          in
          (i, vid, reads, write, float_of_int (2 * i), float_of_int ((2 * i) + 1)))
    in
    Test.make ~name:"checker.stream 1k-commit feed"
      (Staged.stage (fun () ->
           let wm = ref 0.0 in
           let t = Checker.Stream.create ~epoch:128 ~watermark:(fun () -> !wm) () in
           Array.iter
             (fun (key, vid, reads, write, start, finish) ->
               Checker.Stream.observe_version t ~key ~vid ~writer:0 ~prev:None
                 ~next:None;
               let writes =
                 match write with
                 | Some (k, w, prev, writes) ->
                   Checker.Stream.observe_version t ~key:k ~vid:w ~writer:1 ~prev
                     ~next:None;
                   writes
                 | None -> []
               in
               wm := start;
               Checker.Stream.observe_commit t ~txn:(key + 1) ~start ~finish ~reads
                 ~writes)
             feed;
           match Checker.Stream.finalize t with
           | Checker.Verdict.Ok -> ()
           | Checker.Verdict.Violation a ->
             failwith (Checker.Verdict.anomaly_to_string a)))
  in
  let tests =
    [
      store_write;
      store_read;
      store_lookup_deep;
      store_lookup_linear_ref;
      net_dispatch;
      detmap_uncached;
      detmap_cached;
      safeguard;
      heap;
      heap_drain;
      heap_boxed_ref;
      net_arena;
      net_closure_ref;
      zipf;
      zipf_table_memo_hit;
      zipf_table_create_ref;
      checker;
      checker_stream;
    ]
    @ engine_churn
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  (* Each estimate also lands in BENCH_*.json as a micro row. Micro
     rows are host timings (not deterministic), so parity byte-diffs of
     the JSON must select experiments that exclude [micro]. *)
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let rows = ref [] in
      Kernel.Detmap.iter_sorted
        (fun sub raw ->
          match Analyze.one ols instance raw with
          | ols_result ->
            (match Analyze.OLS.estimates ols_result with
             | Some [ est ] ->
               Printf.printf "%-36s %12.1f ns/run\n" sub est;
               rows := Harness.Report.micro_row ~name:sub ~ns_per_run:est :: !rows
             | Some _ | None -> Printf.printf "%-36s (no estimate)\n" sub)
          | exception e ->
            Printf.printf "%-36s (failed: %s)\n" sub (Printexc.to_string e))
        results;
      List.rev !rows)
    tests

(* --- GC telemetry: allocation volume of a simulation run --------------- *)

(* One NCC run reported as the gc:NCC row from the runner's GC gauges
   (minor words allocated, major collections, top heap words).
   Host-dependent figures, like micro rows: allocation counts shift
   with the compiler and runtime, so parity byte-diffs must select
   experiments that exclude [gcstats]. *)
let gcstats () =
  print_string "\n== GC telemetry (simulation runs) ==\n";
  let s = scale () in
  let base = Experiments.base_cfg s in
  let cfg =
    { base with Harness.Runner.offered_load = (if !quick then 4_000. else 10_000.) }
  in
  let mk =
    match Workload.Registry.find ~n_servers:s.Experiments.n_servers "google-f1" with
    | Some mk -> mk
    | None -> failwith "gcstats: google-f1 workload missing"
  in
  let mx = Obs.Metrics.create () in
  let r = Harness.Runner.run ~label:"NCC" ~metrics:mx Ncc.protocol (mk ()) cfg in
  let gauge g =
    match List.assoc_opt (g, Obs.Metrics.run_scope) (Obs.Metrics.gauges mx) with
    | Some v -> v
    | None -> 0.0
  in
  let minor_words = gauge "gc.minor_words" in
  let major = int_of_float (gauge "gc.major_collections") in
  let top_heap = int_of_float (gauge "gc.top_heap_words") in
  Printf.printf
    "%-24s committed=%d  minor_words=%.3e  words/commit=%.0f  majors=%d  \
     top_heap=%d\n"
    "NCC" r.Harness.Runner.committed minor_words
    (if r.Harness.Runner.committed = 0 then 0.0
     else minor_words /. float_of_int r.Harness.Runner.committed)
    major top_heap;
  [
    Harness.Report.gc_row ~experiment:"NCC" ~minor_words
      ~major_collections:major ~top_heap_words:top_heap;
  ]

(* --- analyzer cost: the typed lint planes, timed --------------------- *)

(* One full typed-engine pass (R7-R10 + the race plane R12-R15 + the
   allocation plane R16-R19) over the workspace's .cmt files, reported
   as the "lint.typed" micro row, plus a run selecting only the
   allocation plane's rules over the already-loaded units as
   "lint.alloc" (the shared declaration pass included; the other
   planes are skipped), so analyzer cost is tracked next to the
   primitive timings. Host wall-clock figures, like every micro row:
   parity byte-diffs must select experiments that exclude them.
   Contributes no rows when no build tree is visible (an installed
   binary run outside the workspace). *)
let lint () =
  let root = "_build/default" in
  if not (Sys.file_exists root && Sys.is_directory root) then begin
    Printf.printf "lint.typed: no %s under the cwd; skipping\n" root;
    []
  end
  else begin
    let rec walk path acc =
      if Sys.is_directory path then
        Sys.readdir path |> Array.to_list
        |> List.sort String.compare
        |> List.fold_left (fun acc n -> walk (Filename.concat path n) acc) acc
      else if Filename.check_suffix path ".cmt" then path :: acc
      else acc
    in
    let cmts = List.rev (walk root []) in
    (* ncc-lint: allow R2 — wall-clock times the analyzer itself *)
    let t0 = Unix.gettimeofday () in
    let findings, _ = Lint.Typed_engine.lint_cmts cmts in
    (* ncc-lint: allow R2 — wall-clock times the analyzer itself *)
    let elapsed = Unix.gettimeofday () -. t0 in
    Printf.printf "%-36s %12.1f ns/run  (%d units, %d pre-waiver findings)\n"
      "lint.typed" (elapsed *. 1e9) (List.length cmts) (List.length findings);
    let units, _ = Lint.Cmt_graph.load_units cmts in
    (* ncc-lint: allow R2 — wall-clock times the analyzer itself *)
    let t0 = Unix.gettimeofday () in
    let alloc_findings, _ =
      Lint.Typed_engine.lint_units ~only:Lint.Alloc_engine.rules units
    in
    (* ncc-lint: allow R2 — wall-clock times the analyzer itself *)
    let elapsed_alloc = Unix.gettimeofday () -. t0 in
    Printf.printf "%-36s %12.1f ns/run  (%d units, %d pre-waiver findings)\n"
      "lint.alloc" (elapsed_alloc *. 1e9) (List.length units)
      (List.length alloc_findings);
    [
      Harness.Report.micro_row ~name:"lint.typed" ~ns_per_run:(elapsed *. 1e9);
      Harness.Report.micro_row ~name:"lint.alloc"
        ~ns_per_run:(elapsed_alloc *. 1e9);
    ]
  end

(* --- driver ----------------------------------------------------------- *)

let all_experiments =
  [
    ("params", params);
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("fig6c", fig6c);
    ("fig7a", fig7a);
    ("fig7b", fig7b);
    ("fig7c", fig7c);
    ("fig8", fig8);
    ("ablations", ablations);
    ("replication", replication);
    ("geo", geo);
    ("micro", micro);
    ("gcstats", gcstats);
    ("lint", lint);
  ]

let () =
  let rec parse = function
    | [] -> []
    | "quick" :: rest ->
      quick := true;
      parse rest
    | ("-j" | "--jobs") :: n :: rest ->
      jobs := int_of_string n;
      parse rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
      jobs := int_of_string (String.sub arg 7 (String.length arg - 7));
      parse rest
    | "--check" :: lvl :: rest ->
      (check_override :=
         match lvl with
         | "on" -> Some Harness.Runner.Streaming
         | "post" -> Some Harness.Runner.Strict
         | "off" -> Some Harness.Runner.No_check
         | _ ->
           Printf.eprintf "unknown --check level %S (want on, post or off)\n" lvl;
           exit 2);
      parse rest
    | arg :: rest -> arg :: parse rest
  in
  let args = parse (List.tl (Array.to_list Sys.argv)) in
  let selected =
    match args with
    | [] -> all_experiments
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n all_experiments with
          | Some f -> (n, f)
          | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" n
              (String.concat ", " (List.map fst all_experiments));
            exit 2)
        names
  in
  Printf.printf "NCC reproduction benchmarks (%s scale, %d job%s)\n"
    (if !quick then "quick" else "full")
    (njobs ())
    (if njobs () = 1 then "" else "s");
  let rows =
    List.concat_map
      (fun (name, f) ->
        (* ncc-lint: allow R2 — wall-clock times the bench harness itself *)
        let t0 = Unix.gettimeofday () in
        let rows = f () in
        (* ncc-lint: allow R2 — wall-clock times the bench harness itself *)
        let elapsed = Unix.gettimeofday () -. t0 in
        Printf.printf "[%s done in %.1fs host wall-clock — not simulated time]\n%!"
          name elapsed;
        rows)
      selected
  in
  (* Machine-readable mirror of the run: every simulated result as one
     row, for CI artifacts and cross-run diffing. *)
  let suite = if !quick then "quick" else "full" in
  let path = Printf.sprintf "BENCH_%s.json" suite in
  let oc = open_out path in
  output_string oc (Harness.Report.bench_doc ~suite rows);
  close_out oc;
  Printf.printf "[wrote %s: %d rows]\n" path (List.length rows)
