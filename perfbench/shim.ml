(* Host-cost instrumentation for one benchmark process.

   [Probe] is the untraced wrapper: it stamps the first submit of a
   cell (the end of set-up), counts committed attempts and keeps each
   committed latency, nothing more. [Trace] is the timing shim: it
   delegates every protocol function and, on top of [Probe]'s facts,
   times each wrapped call as a span with its parent span. Spans are
   aggregated in flat arrays indexed by (phase, layer, parent) into
   count, total time, self time and minor-words delta, so recording a
   span allocates nothing. Both wrappers only observe: they draw no randomness and
   schedule no events, so a run's simulated result cannot depend on
   which one is attached (the benchmark's passivity gate checks it). *)

(* --- layers --------------------------------------------------------- *)

let l_server = 0       (* P.server_handle *)
let l_client = 1       (* P.client_handle, P.submit, P.cancel *)
let l_timer_fire = 2   (* a protocol timer callback running *)
let l_report = 3       (* the runner's report callback *)
let l_send = 4         (* ctx.send: Cluster.Net *)
let l_timer = 5        (* ctx.timer: scheduling in Sim.Engine *)
let l_gen = 6          (* the workload generator *)
let l_make_server = 7
let l_make_client = 8
let l_make_replica = 9
let l_replica = 10     (* P.replica_handle *)
let n_layers = 11

let layer_names =
  [| "server"; "client"; "timer_fire"; "report"; "send"; "timer"; "gen";
     "make_server"; "make_client"; "make_replica"; "replica" |]

let root = n_layers  (* parent index of a top-level span *)

(* Phase 0 is set-up (before the cell's first submit), phase 1 the
   measured run. *)
let n_parents = n_layers + 1
let slots = 2 * n_layers * n_parents
let slot ~phase ~layer ~parent = (((phase * n_layers) + layer) * n_parents) + parent

let count = Array.make slots 0
let total = Array.make slots 0.0
let self = Array.make slots 0.0
let words = Array.make slots 0.0

let[@inline] now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* --- per-cell facts, shared by both wrappers ------------------------- *)

let first_submit = ref Float.nan
let commits = ref 0
let phase = ref 0

(* Committed latencies in simulated seconds, measured as the runner
   measures them: from a transaction's first submit to its committed
   report, for transactions first submitted inside the measurement
   window [win_start, win_end). The runner reports its p50 as the edge
   of a 4%-wide histogram bucket; these samples give the exact median. *)
let clock : Sim.Engine.t option ref = ref None
let win_start = ref 0.0
let win_end = ref 0.0
let first_start : (int, float) Hashtbl.t = Hashtbl.create 4096
let lat = ref (Array.make 4096 0.0)
let n_lat = ref 0

(* The measured run's host clock at every [seg_commits]-th commit:
   boundary 0 is the first submit, the last one the end of the run.
   Between two boundaries the simulator does the same work in every
   repetition of one seed, so run.py can compare a segment's host time
   across repetitions. *)
let seg_commits = 64
let seg = ref (Array.make 1024 0.0)
let n_seg = ref 0

let push_boundary t =
  if !n_seg = Array.length !seg then begin
    let a = Array.make (2 * !n_seg) 0.0 in
    Array.blit !seg 0 a 0 !n_seg;
    seg := a
  end;
  !seg.(!n_seg) <- t;
  incr n_seg

(* Host seconds of each segment of the cell's measured run. *)
let segments () = List.init (max 0 (!n_seg - 1)) (fun i -> !seg.(i + 1) -. !seg.(i))

let start_cell ~window_start ~window_end =
  first_submit := Float.nan;
  commits := 0;
  phase := 0;
  win_start := window_start;
  win_end := window_end;
  n_lat := 0;
  n_seg := 0

let sim_now () = match !clock with Some e -> Sim.Engine.now e | None -> Float.nan

let note_submit (txn : Kernel.Txn.t) =
  if not (Hashtbl.mem first_start txn.id) then Hashtbl.add first_start txn.id (sim_now ())

let note_report (o : Kernel.Outcome.t) =
  if Kernel.Outcome.committed o then begin
    incr commits;
    if !commits land (seg_commits - 1) = 0 then push_boundary (now ());
    match Hashtbl.find_opt first_start o.txn.id with
    | None -> ()
    | Some t0 ->
      Hashtbl.remove first_start o.txn.id;
      if t0 >= !win_start && t0 < !win_end then begin
        if !n_lat = Array.length !lat then begin
          let a = Array.make (2 * !n_lat) 0.0 in
          Array.blit !lat 0 a 0 !n_lat;
          lat := a
        end;
        !lat.(!n_lat) <- sim_now () -. t0;
        incr n_lat
      end
  end

(* (samples, nearest-rank median) of the cell's committed latencies. *)
let latency_median () =
  let n = !n_lat in
  if n = 0 then (0, 0.0)
  else begin
    let a = Array.sub !lat 0 n in
    Array.sort Float.compare a;
    (n, a.(((n + 1) / 2) - 1))
  end

(* Set while bench.exe times set-up alone: the cell's first submit
   then ends the run by raising [Setup_done]. *)
exception Setup_done

let setup_only = ref false

let stamp_submit () =
  if Float.is_nan !first_submit then begin
    first_submit := now ();
    push_boundary !first_submit;
    phase := 1;
    if !setup_only then raise Setup_done
  end

(* --- the span stack -------------------------------------------------- *)

let max_depth = 256
let depth = ref 0
let st_layer = Array.make max_depth 0
let st_t0 = Array.make max_depth 0.0
let st_child = Array.make max_depth 0.0
let st_w0 = Array.make max_depth 0.0
let st_wchild = Array.make max_depth 0.0

let[@inline] enter layer =
  let d = !depth in
  st_layer.(d) <- layer;
  st_child.(d) <- 0.0;
  st_wchild.(d) <- 0.0;
  st_w0.(d) <- Gc.minor_words ();
  st_t0.(d) <- now ();
  depth := d + 1

let[@inline] leave () =
  let t1 = now () in
  let w1 = Gc.minor_words () in
  let d = !depth - 1 in
  depth := d;
  let layer = st_layer.(d) in
  let dur = t1 -. st_t0.(d) and dw = w1 -. st_w0.(d) in
  let parent = if d = 0 then root else st_layer.(d - 1) in
  let i = slot ~phase:!phase ~layer ~parent in
  count.(i) <- count.(i) + 1;
  total.(i) <- total.(i) +. dur;
  self.(i) <- self.(i) +. (dur -. st_child.(d));
  words.(i) <- words.(i) +. (dw -. st_wchild.(d));
  if d > 0 then begin
    st_child.(d - 1) <- st_child.(d - 1) +. dur;
    st_wchild.(d - 1) <- st_wchild.(d - 1) +. dw
  end

let span layer f x =
  enter layer;
  match f x with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

(* Host cost of one empty span (seconds, minor words): the shim's own
   overhead, measured before any cell runs and then wiped. *)
let calibrate n =
  let w0 = Gc.minor_words () and t0 = now () in
  for _ = 1 to n do
    enter l_gen;
    leave ()
  done;
  let t1 = now () and w1 = Gc.minor_words () in
  Array.fill count 0 slots 0;
  Array.fill total 0 slots 0.0;
  Array.fill self 0 slots 0.0;
  Array.fill words 0 slots 0.0;
  ((t1 -. t0) /. float_of_int n, (w1 -. w0) /. float_of_int n)

(* --- simulator and store probes -------------------------------------- *)

let engine : Sim.Engine.t option ref = ref None
let pending_max = ref 0
let events = ref 0  (* executed events of finished cells *)

let sample_pending eng =
  let p = Sim.Engine.pending eng in
  if p > !pending_max then pending_max := p

(* Every server's stores, registered at construction; read after the
   cell ends. *)
let stores : (unit -> Mvstore.Store.t list) list ref = ref []

(* Drops every reference into the finished cell, so the next cell's
   Gc.compact frees its whole cluster before the next set-up starts. *)
let end_cell () =
  (match !engine with
   | Some e -> events := !events + Sim.Engine.executed_events e
   | None -> ());
  engine := None;
  clock := None;
  Hashtbl.reset first_start

(* (versions created, longest committed chain) over the cell's stores.
   Walks only the chains that exist: a lookup by key would create an
   empty chain in every store that does not own the key. *)
let store_stats () =
  let sts = List.concat_map (fun f -> f ()) !stores in
  stores := [];
  List.fold_left
    (fun (versions, longest) st ->
      ( versions + Mvstore.Store.versions_created st,
        List.fold_left
          (fun m (_, vids) -> max m (List.length vids))
          longest
          (Mvstore.Store.all_committed_orders st) ))
    (0, 0) sts

(* --- wrappers -------------------------------------------------------- *)

module Probe (P : Harness.Protocol.S) : Harness.Protocol.S = struct
  include P

  let make_client (ctx : msg Cluster.Net.ctx) ~report =
    clock := Some ctx.engine;
    P.make_client ctx ~report:(fun o ->
        note_report o;
        report o)

  let submit c txn =
    stamp_submit ();
    note_submit txn;
    P.submit c txn
end

module Trace (P : Harness.Protocol.S) : Harness.Protocol.S = struct
  include P

  let wrap_ctx (ctx : msg Cluster.Net.ctx) =
    let eng = ctx.engine in
    engine := Some eng;
    {
      ctx with
      send =
        (fun ~dst m ->
          sample_pending eng;
          enter l_send;
          match ctx.send ~dst m with
          | () -> leave ()
          | exception e ->
            leave ();
            raise e);
      timer =
        (fun ~delay f ->
          sample_pending eng;
          enter l_timer;
          match ctx.timer ~delay (fun () -> span l_timer_fire f ()) with
          | () -> leave ()
          | exception e ->
            leave ();
            raise e);
    }

  let make_server ctx =
    let s = span l_make_server (fun ctx -> P.make_server (wrap_ctx ctx)) ctx in
    stores := (fun () -> P.server_stores s) :: !stores;
    s

  let server_handle s ~src m =
    enter l_server;
    match P.server_handle s ~src m with
    | () -> leave ()
    | exception e ->
      leave ();
      raise e

  let make_client (ctx : msg Cluster.Net.ctx) ~report =
    clock := Some ctx.engine;
    let report o =
      note_report o;
      span l_report report o
    in
    span l_make_client (fun ctx -> P.make_client (wrap_ctx ctx) ~report) ctx

  let client_handle c ~src m =
    enter l_client;
    match P.client_handle c ~src m with
    | () -> leave ()
    | exception e ->
      leave ();
      raise e

  let submit c txn =
    stamp_submit ();
    note_submit txn;
    span l_client (P.submit c) txn

  let cancel c txn = span l_client (P.cancel c) txn
  let make_replica ctx = span l_make_replica (fun ctx -> P.make_replica (wrap_ctx ctx)) ctx

  let replica_handle r ~src m =
    enter l_replica;
    match P.replica_handle r ~src m with
    | () -> leave ()
    | exception e ->
      leave ();
      raise e
end

let trace_workload (w : Harness.Workload_sig.t) =
  {
    w with
    Harness.Workload_sig.gen =
      (fun rng ~client -> span l_gen (fun rng -> w.Harness.Workload_sig.gen rng ~client) rng);
  }

let wrap ~traced (p : Harness.Protocol.t) : Harness.Protocol.t =
  let module P = (val p) in
  if traced then (module Trace (P)) else (module Probe (P))

(* --- aggregate readout ----------------------------------------------- *)

(* Measured-phase self time over every span, and the total of the
   top-level spans: equal when the nesting bookkeeping is exact. *)
let measured_self () =
  let acc = ref 0.0 in
  for layer = 0 to n_layers - 1 do
    for parent = 0 to n_parents - 1 do
      acc := !acc +. self.(slot ~phase:1 ~layer ~parent)
    done
  done;
  !acc

let measured_top () =
  let acc = ref 0.0 in
  for layer = 0 to n_layers - 1 do
    acc := !acc +. total.(slot ~phase:1 ~layer ~parent:root)
  done;
  !acc

(* Every (phase, layer, parent) cell that saw a span, for the report. *)
let rows () =
  let out = ref [] in
  for ph = 1 downto 0 do
    for l = n_layers - 1 downto 0 do
      for parent = n_parents - 1 downto 0 do
        let i = slot ~phase:ph ~layer:l ~parent in
        if count.(i) > 0 then
          out :=
            ( (if ph = 0 then "setup" else "run"),
              layer_names.(l),
              (if parent = root then "root" else layer_names.(parent)),
              count.(i), total.(i), self.(i), words.(i) )
            :: !out
      done
    done
  done;
  !out
