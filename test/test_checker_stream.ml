(* The streaming checker against the post-hoc one: planted-anomaly
   regression corpus with stable evidence goldens, qcheck equivalence
   on randomized histories (including planted violations), windowed-GC
   coverage (retirement never changes a verdict; the live set stays
   bounded on a 100k-txn history), and runner-level agreement between
   [--check on] and [--check post] across protocols and seeds. *)

module Rsg = Checker.Rsg
module Stream = Checker.Stream
module V = Checker.Verdict
module Runner = Harness.Runner

(* A history is the commit records plus the per-key installed version
   orders; both checkers are driven from the same data. *)
type history = {
  commits : (int * float * float * (int * int) list * (int * int) list) list;
  orders : (int * int list) list;
}

let load h =
  let t = Rsg.create () in
  List.iter
    (fun (txn, start, finish, reads, writes) ->
      Rsg.record_commit t ~txn ~start ~finish ~reads ~writes)
    h.commits;
  List.iter (fun (k, o) -> Rsg.record_version_order t k o) h.orders;
  t

let posthoc h ~strict = Rsg.check (load h) ~strict

let streamed ?gc ?epoch h =
  Stream.replay ?gc ?epoch ~records:(Rsg.records (load h)) ~orders:h.orders ()

(* --- planted-anomaly corpus ----------------------------------------- *)

(* Each entry: a hand-built history, whether plain serializability also
   rejects it, and the expected evidence string. The golden is the
   post-hoc strict verdict rendered by [Verdict.to_string]; the gc-off
   stream must reproduce it field for field, and the windowed stream
   must agree on the anomaly class. *)
let corpus =
  [
    ( "timestamp inversion",
      (* two disjoint-in-time blind writers whose installed order is
         inverted: serializable, not strictly serializable *)
      {
        commits =
          [ (1, 0.0, 1.0, [], [ (1, 102) ]); (2, 5.0, 6.0, [], [ (1, 101) ]) ];
        orders = [ (1, [ 100; 101; 102 ]) ];
      },
      false,
      "strict-serializability cycle: rt1 -> tx2 -> tx1" );
    ( "stale read",
      (* the reader starts after the writer finished yet observes the
         key's initial version *)
      {
        commits =
          [ (1, 0.0, 1.0, [], [ (1, 101) ]); (2, 2.0, 3.0, [ (1, 100) ], []) ];
        orders = [ (1, [ 100; 101 ]) ];
      },
      false,
      "strict-serializability cycle: rt1 -> tx2 -> tx1" );
    ( "lost update",
      (* two overlapping read-modify-writes of the same key both read
         the pre-state: rw and ww edges close a pure execution cycle *)
      {
        commits =
          [
            (1, 0.0, 10.0, [ (1, 100) ], [ (1, 101) ]);
            (2, 0.0, 10.0, [ (1, 100) ], [ (1, 102) ]);
          ];
        orders = [ (1, [ 100; 101; 102 ]) ];
      },
      true,
      "strict-serializability cycle: tx2 -> tx1" );
    ( "real-time edge violation",
      (* the paper's photo-album anecdote: the reader sees the new
         photo but the old ACL, inverting real time transitively *)
      {
        commits =
          [
            (1, 0.0, 1.0, [], [ (1, 101) ]);
            (2, 2.0, 3.0, [], [ (2, 201) ]);
            (3, 4.0, 5.0, [ (2, 201); (1, 100) ], []);
          ];
        orders = [ (1, [ 100; 101 ]); (2, [ 200; 201 ]) ];
      },
      false,
      "strict-serializability cycle: rt2 -> tx3 -> tx1 -> rt1 -> tx2" );
    ( "dirty read",
      {
        commits = [ (1, 0.0, 1.0, [ (1, 999) ], []) ];
        orders = [ (1, [ 100 ]) ];
      },
      true,
      "dirty read: tx1 read aborted/unknown version 999 of key 1" );
  ]

let corpus_case (name, h, also_plain, golden) =
  Alcotest.test_case name `Quick (fun () ->
      let reference = posthoc h ~strict:true in
      Alcotest.(check string) "golden evidence" golden (V.to_string reference);
      if also_plain then
        Alcotest.(check bool)
          "plain serializability rejects too" false
          (V.is_ok (posthoc h ~strict:false));
      (* gc off: field-for-field the post-hoc verdict *)
      let off = Stream.finalize (streamed ~gc:false h) in
      Alcotest.(check string) "gc-off stream verdict" golden (V.to_string off);
      Alcotest.(check bool) "field-for-field" true (V.equal reference off);
      (* gc on, tiny epoch so retirement actually runs: the class (and
         for dirty reads the full evidence) must agree *)
      let on = Stream.finalize (streamed ~gc:true ~epoch:1 h) in
      Alcotest.(check bool)
        (Printf.sprintf "windowed stream agrees (got %S)" (V.to_string on))
        true
        (V.same_class reference on))

(* NCC-noRTC negative control: the deliberately broken variant must be
   caught by the streaming checker in a real run, and stock NCC on the
   same seeds must pass — so a later regression cannot silently turn
   the streaming check into a no-op. *)
let no_rtc_negative_control () =
  let caught = ref 0 in
  for seed = 1 to 10 do
    let w = Workload.Google_f1.make_wf ~write_fraction:0.30 () in
    let r = Harness.Chaos.run Ncc.protocol_no_rtc w ~seed in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d verdict not skipped" seed)
      false
      (r.Harness.Chaos.check = "skipped");
    if not r.Harness.Chaos.ok then incr caught
  done;
  if !caught = 0 then
    Alcotest.fail "NCC-noRTC passed the streaming checker on all 10 seeds"

(* --- randomized histories: stream == post-hoc ----------------------- *)

(* Serial execution of a random op script over keys 0..2 (txn i lives
   in [2i, 2i+1], reads see the latest committed version), with an
   optional planted violation. *)
let build_history (specs, tamper) =
  let next = ref 1000 in
  let latest = Array.init 3 (fun k -> k * 100) in
  let orders = Array.make 3 [] in
  let commits = ref [] in
  List.iteri
    (fun i ops ->
      let reads = ref [] and writes = ref [] in
      List.iter
        (fun (is_write, k) ->
          if is_write then begin
            incr next;
            latest.(k) <- !next;
            orders.(k) <- !next :: orders.(k);
            writes := (k, !next) :: !writes
          end
          else reads := (k, latest.(k)) :: !reads)
        ops;
      commits :=
        ( i + 1,
          float_of_int (2 * i),
          float_of_int ((2 * i) + 1),
          !reads,
          !writes )
        :: !commits)
    specs;
  let n = List.length specs in
  (match tamper with
  | 0 -> () (* clean serial history *)
  | 1 ->
    (* invert the newest two writes of key 0, if there are two *)
    (match orders.(0) with
    | a :: b :: rest -> orders.(0) <- b :: a :: rest
    | _ -> ())
  | 2 ->
    (* a read of a version no server ever committed *)
    commits := (n + 1, 1e6, 1e6 +. 1.0, [ (0, 99999) ], []) :: !commits
  | _ ->
    (* two overlapping txns that each read the other's write *)
    orders.(0) <- 99990 :: orders.(0);
    orders.(1) <- 99991 :: orders.(1);
    commits :=
      (n + 2, 1e6, 1e6 +. 10.0, [ (0, 99990) ], [ (1, 99991) ])
      :: (n + 1, 1e6, 1e6 +. 10.0, [ (1, 99991) ], [ (0, 99990) ])
      :: !commits);
  {
    commits = List.rev !commits;
    orders =
      List.init 3 (fun k -> (k, (k * 100) :: List.rev orders.(k)));
  }

let history_gen =
  QCheck.(
    pair
      (list_of_size Gen.(1 -- 8) (list_of_size Gen.(1 -- 4) (pair bool (0 -- 2))))
      (0 -- 3))

let stream_equals_posthoc =
  QCheck.Test.make
    ~name:"gc-off stream verdict is field-for-field the post-hoc one" ~count:300
    history_gen
    (fun spec ->
      let h = build_history spec in
      V.equal (posthoc h ~strict:true) (Stream.finalize (streamed ~gc:false h)))

let gc_never_changes_verdict =
  QCheck.Test.make
    ~name:"retiring a txn never changes a later verdict (gc on == gc off)"
    ~count:300 history_gen
    (fun spec ->
      let h = build_history spec in
      (* epoch 2 forces retirement sweeps all through the replay *)
      let on = Stream.finalize (streamed ~gc:true ~epoch:2 h) in
      let off = Stream.finalize (streamed ~gc:false h) in
      V.is_ok on = V.is_ok off)

(* The same histories with sparse, large ids: vids spread around 10^6
   with gaps (the planted ones beyond the vid table's dense range),
   txn ids far from dense. Run ids are dense counters, so this pins the
   table growth and absent-id paths rather than the common case. *)
let sparse_ids h =
  let vid v = if v >= 99_990 then (1 lsl 40) + v else 1_000_000 + (13 * v) + (v mod 5) in
  let txn i = (7919 * i) + 3 in
  let pairs = List.map (fun (k, v) -> (k, vid v)) in
  {
    commits =
      List.map
        (fun (i, start, finish, reads, writes) ->
          (txn i, start, finish, pairs reads, pairs writes))
        h.commits;
    orders = List.map (fun (k, vids) -> (k, List.map vid vids)) h.orders;
  }

let sparse_stream_equals_posthoc =
  QCheck.Test.make
    ~name:"sparse large ids: gc-off field-for-field, gc-on same verdict" ~count:300
    history_gen
    (fun spec ->
      let h = sparse_ids (build_history spec) in
      let reference = posthoc h ~strict:true in
      V.equal reference (Stream.finalize (streamed ~gc:false h))
      && V.is_ok reference = V.is_ok (Stream.finalize (streamed ~gc:true ~epoch:2 h)))

(* --- flat tables: footprint and allocation ---------------------------- *)

(* [n] read-only commits, each reading [reads] keys of which the first
   is new (its initial version announced just before the commit) and
   the rest recently touched; every 64th commit also writes a touched
   key (announced after its predecessor). The events are built before
   the checker sees them, so measurements exclude the caller's lists. *)
type event =
  | Version of int * int * int option  (* key, vid, prev *)
  | Commit of int * float * float * (int * int) list * (int * int) list

let f1_shaped ~n ~reads =
  let latest = Hashtbl.create 1024 in
  let next_vid = ref 0 in
  let fresh () =
    incr next_vid;
    !next_vid
  in
  let events = ref [] in
  for i = 1 to n do
    let key = i - 1 in
    let v = fresh () in
    Hashtbl.replace latest key v;
    events := Version (key, v, None) :: !events;
    let old k = (k * 7919) mod i in
    let rs =
      (key, v)
      :: List.init (reads - 1) (fun j ->
             let k = old (i + j) in
             (k, Hashtbl.find latest k))
    in
    let ws =
      if i mod 64 = 0 then begin
        let k = old (3 * i) in
        let prev = Hashtbl.find latest k in
        let w = fresh () in
        Hashtbl.replace latest k w;
        events := Version (k, w, Some prev) :: !events;
        [ (k, w) ]
      end
      else []
    in
    let start = float_of_int (2 * i) in
    events := Commit (i, start, start +. 1.0, rs, ws) :: !events
  done;
  Array.of_list (List.rev !events)

let feed t wm events lo hi =
  for j = lo to hi - 1 do
    match events.(j) with
    | Version (key, vid, prev) ->
      Stream.observe_version t ~key ~vid ~writer:(if prev = None then 0 else 9) ~prev
        ~next:None
    | Commit (txn, start, finish, reads, writes) ->
      wm := start;
      Stream.observe_commit t ~txn ~start ~finish ~reads ~writes
  done

(* A read-only history over 100k keys: what stays live after a full
   major collection is the per-key residue (a version entry, its vid
   cell, its key-table cell) plus the live window of records. The
   entry-record/Hashtbl layout kept 25.6 words a key. The bound is the
   flat layout's: an 8-word entry, a 1-word vid cell and a 3-word key
   table cell at a load of 3/8 to 3/4 (0.38 at 100k keys), plus page
   slack. *)
let footprint_per_key () =
  let n = 100_000 in
  let events = f1_shaped ~n ~reads:1 in
  let wm = ref Float.neg_infinity in
  Gc.full_major ();
  let w0 = (Gc.stat ()).Gc.live_words in
  let t = Stream.create ~watermark:(fun () -> !wm) () in
  feed t wm events 0 (Array.length events);
  Gc.full_major ();
  let w1 = (Gc.stat ()).Gc.live_words in
  (* the events (and so the records' lists) stay live across both readings *)
  ignore (Sys.opaque_identity events);
  Alcotest.(check bool) "verdict ok" true (V.is_ok (Stream.verdict (Sys.opaque_identity t)));
  let per_key = float_of_int (w1 - w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "<= 20 live words per touched key (%.1f)" per_key)
    true (per_key <= 20.0)

(* The feed path allocates nothing per commit once warm: an F1-shaped
   stream (initial-version announcements, 5.5 reads a commit, epoch
   sweeps that retire and prune) measured after a warm-up that grows
   the tables. New pages of the flat tables go straight to the major
   heap; the bound leaves room for the few words a table growth takes
   on the minor heap. The hash-table layout allocated 4,993 words a
   commit here. *)
let feed_allocation () =
  let n = 40_000 in
  let events = f1_shaped ~n ~reads:6 in
  let events =
    Array.map
      (function
        | Commit (txn, s, f, rs, ws) when txn mod 2 = 0 ->
          Commit (txn, s, f, List.filteri (fun i _ -> i < 5) rs, ws)
        | e -> e)
      events
  in
  let wm = ref Float.neg_infinity in
  let t = Stream.create ~watermark:(fun () -> !wm) () in
  let half = Array.length events / 2 in
  feed t wm events 0 half;
  let before = Gc.minor_words () in
  feed t wm events half (Array.length events);
  let words = Gc.minor_words () -. before in
  let st = Stream.stats t in
  Alcotest.(check bool) "verdict ok" true (V.is_ok (Stream.verdict t));
  Alcotest.(check bool) "epochs ran" true (st.Stream.epochs >= 30);
  Alcotest.(check bool) "versions were pruned" true (st.Stream.stale_residue > 0);
  let per_commit = words /. float_of_int (n / 2) in
  Alcotest.(check bool)
    (Printf.sprintf "<= 4 words per commit on the feed path (%.2f)" per_commit)
    true (per_commit <= 4.0)

(* --- windowed GC: bounded memory ------------------------------------ *)

(* A 100k-transaction serial read-modify-write chain on one key: with
   the window at 1024 the live set must stay around the window size
   while nearly everything retires, and the verdict is still ok. *)
let live_set_stays_bounded () =
  let t = Rsg.create () in
  for i = 1 to 100_000 do
    Rsg.record_commit t ~txn:i
      ~start:(float_of_int (2 * i))
      ~finish:(float_of_int ((2 * i) + 1))
      ~reads:[ (1, 100 + i - 1) ]
      ~writes:[ (1, 100 + i) ]
  done;
  Rsg.record_version_order t 1 (List.init 100_001 (fun i -> 100 + i));
  let orders = [ (1, List.init 100_001 (fun i -> 100 + i)) ] in
  let st = Stream.replay ~gc:true ~epoch:1024 ~records:(Rsg.records t) ~orders () in
  let stats = Stream.stats st in
  Alcotest.(check bool) "verdict ok" true (V.is_ok (Stream.finalize st));
  Alcotest.(check int) "all commits observed" 100_000 stats.Stream.commits;
  (* documented ceiling: window plus the concurrency of the history
     (serial here), with slack for the epoch granularity *)
  if stats.Stream.live_high_water > 2 * 1024 then
    Alcotest.fail
      (Printf.sprintf "live high-water %d exceeds 2x the 1024 window"
         stats.Stream.live_high_water);
  if stats.Stream.retired < 100_000 - (2 * 1024) then
    Alcotest.fail (Printf.sprintf "only %d retired" stats.Stream.retired)

(* --- delayed announcements (records ahead of server announcements) -- *)

(* A legal history whose server announcements lag the commit records:
   reader 10 parks on vid 2, writer 20's announcement of vid 2 is in
   flight, and txn 30 — whose version 3 is vid 2's committed
   successor — becomes retirement-eligible by the harness watermark
   alone (every *unobserved* txn starts at >= 10). The retirement gate
   must keep 30 live until the parked records resolve; without it,
   vid 2's announcement tripped the instant retired-edge rules and
   reported a false violation on this strictly serializable history
   (serial order 20, 10, 30 respects real time). *)
let delayed_announcements_stay_ok () =
  let wm = ref Float.neg_infinity in
  let t = Stream.create ~gc:true ~epoch:1 ~watermark:(fun () -> !wm) () in
  Stream.observe_version t ~key:1 ~vid:1 ~writer:0 ~prev:None ~next:None;
  (* reader of vid 2, which no server has announced yet *)
  Stream.observe_commit t ~txn:10 ~start:0.0 ~finish:1.0 ~reads:[ (1, 2) ]
    ~writes:[];
  (* vid 2's writer: record first, announcement in flight *)
  Stream.observe_commit t ~txn:20 ~start:0.5 ~finish:2.0 ~reads:[]
    ~writes:[ (1, 2) ];
  (* txn 30 writes vid 3, the eventual successor of vid 2 *)
  Stream.observe_version t ~key:1 ~vid:3 ~writer:777 ~prev:(Some 1) ~next:None;
  wm := 10.0;
  Stream.observe_commit t ~txn:30 ~start:5.0 ~finish:6.0 ~reads:[]
    ~writes:[ (1, 3) ];
  (* the lagging announcement resolves both parked records *)
  Stream.observe_version t ~key:1 ~vid:2 ~writer:999 ~prev:(Some 1)
    ~next:(Some 3);
  Alcotest.(check string)
    "legal history stays ok" "ok"
    (V.to_string (Stream.finalize t))

(* A genuine timestamp inversion through the same delayed path: txn 30
   retires, then txn 20 — which started after 30 finished — installs
   vid 2 *before* 30's version in the order. Both claim orders (commit
   record before the announcement, and announcement before the record)
   must report the two-cycle with the transaction id, never the
   server's per-attempt wire id (999). *)
let parked_inversion_witness_names_txn () =
  let golden = "strict-serializability cycle: tx20 -> tx30" in
  let check_order name record_first =
    let wm = ref Float.neg_infinity in
    let t = Stream.create ~gc:true ~epoch:1 ~watermark:(fun () -> !wm) () in
    Stream.observe_version t ~key:1 ~vid:1 ~writer:0 ~prev:None ~next:None;
    Stream.observe_version t ~key:1 ~vid:3 ~writer:777 ~prev:(Some 1)
      ~next:None;
    wm := 10.0;
    (* the epoch at 30's commit retires it: nothing is parked *)
    Stream.observe_commit t ~txn:30 ~start:0.0 ~finish:1.0 ~reads:[]
      ~writes:[ (1, 3) ];
    let announce () =
      Stream.observe_version t ~key:1 ~vid:2 ~writer:999 ~prev:(Some 1)
        ~next:(Some 3)
    and record () =
      Stream.observe_commit t ~txn:20 ~start:20.0 ~finish:21.0 ~reads:[]
        ~writes:[ (1, 2) ]
    in
    if record_first then (
      record ();
      announce ())
    else (
      announce ();
      record ());
    Alcotest.(check string) name golden (V.to_string (Stream.finalize t))
  in
  check_order "record then announcement (pend_writes claim)" true;
  check_order "announcement then record (parked evidence)" false

(* --- runner-level agreement ----------------------------------------- *)

let small_cfg seed =
  {
    Runner.default with
    Runner.n_servers = 3;
    n_clients = 4;
    offered_load = 600.0;
    duration = 0.2;
    warmup = 0.05;
    drain = 0.3;
    max_inflight = 4;
    seed;
  }

let agreement_protocols =
  [
    ("NCC", Ncc.protocol);
    ("NCC-RW", Ncc.protocol_rw);
    ("dOCC", Baselines.docc);
    ("d2PL-NW", Baselines.d2pl_no_wait);
    ("Janus-CC", Baselines.janus_cc);
    ("TAPIR-CC", Baselines.tapir_cc);
    ("MVTO", Baselines.mvto);
  ]

(* The streaming verdict must equal the post-hoc one on real runs —
   same string, committed count and all — for every protocol,
   including the two that legitimately violate strictness under
   contention (TAPIR-CC, MVTO). *)
let runner_agreement (name, p) =
  Alcotest.test_case (name ^ " --check on == --check post") `Quick (fun () ->
      List.iter
        (fun seed ->
          let run check =
            let w = Workload.Google_f1.make () in
            Runner.run p w { (small_cfg seed) with Runner.check }
          in
          let on = run Runner.Streaming in
          let post = run Runner.Strict in
          Alcotest.(check int)
            (Printf.sprintf "seed %d committed" seed)
            post.Runner.committed on.Runner.committed;
          Alcotest.(check string)
            (Printf.sprintf "seed %d verdict" seed)
            post.Runner.check_result on.Runner.check_result)
        [ 1; 2 ])

(* Feeding the checker off the critical path must not change anything:
   the async worker consumes the same events in the same order. *)
let async_matches_sync () =
  List.iter
    (fun seed ->
      let run check_async =
        let w = Workload.Google_f1.make () in
        Runner.run Ncc.protocol w
          { (small_cfg seed) with Runner.check = Runner.Streaming; check_async }
      in
      let sync = run false and alist = run true in
      Alcotest.(check string)
        (Printf.sprintf "seed %d verdict" seed)
        sync.Runner.check_result alist.Runner.check_result;
      Alcotest.(check int)
        (Printf.sprintf "seed %d committed" seed)
        sync.Runner.committed alist.Runner.committed)
    [ 1; 2; 3 ]

(* --- the quick tiers really check ----------------------------------- *)

let quick_tiers_not_skipped () =
  let w = Workload.Google_f1.make () in
  let r = Harness.Chaos.run Ncc.protocol w ~seed:1 in
  Alcotest.(check bool) "chaos verdict present" false
    (r.Harness.Chaos.check = "skipped");
  Alcotest.(check bool) "chaos verdict ok" true r.Harness.Chaos.ok;
  (match Experiments.quick_scale.Experiments.check with
  | Runner.No_check -> Alcotest.fail "quick tier runs unchecked"
  | _ -> ());
  let cfg = Experiments.base_cfg ~seed:1 Experiments.quick_scale in
  Alcotest.(check bool) "quick-tier config checks" false
    (cfg.Runner.check = Runner.No_check)

let suite =
  List.map corpus_case corpus
  @ [
      Alcotest.test_case "NCC-noRTC caught, verdicts never skipped" `Quick
        no_rtc_negative_control;
      Alcotest.test_case "100k-txn live set stays bounded under GC" `Quick
        live_set_stays_bounded;
      Alcotest.test_case "delayed announcements never fake a violation" `Quick
        delayed_announcements_stay_ok;
      Alcotest.test_case "parked inversion witness names the txn, not the wire id"
        `Quick parked_inversion_witness_names_txn;
      Alcotest.test_case "async feed matches sync feed" `Quick async_matches_sync;
      Alcotest.test_case "flat tables: live words per touched key" `Quick
        footprint_per_key;
      Alcotest.test_case "flat tables: feed path allocation per commit" `Quick
        feed_allocation;
      Alcotest.test_case "quick tiers are never skipped" `Quick
        quick_tiers_not_skipped;
    ]
  @ List.map runner_agreement agreement_protocols
  @ List.map QCheck_alcotest.to_alcotest
      [ stream_equals_posthoc; gc_never_changes_verdict; sparse_stream_equals_posthoc ]
