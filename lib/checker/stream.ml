(* Streaming strict-serializability checker: an online incremental
   Real-time Serialization Graph with windowed garbage collection.

   The post-hoc {!Rsg} checker keeps the whole history and the final
   per-key version orders, so its memory grows without bound. This
   module consumes the same history *as the run produces it* and
   retires transactions once they can no longer participate in a new
   violation, keeping the live set bounded by the concurrency window.

   Inputs (both must arrive in nondecreasing simulation time):

   - [observe_version]: the owning server committed a version — (key,
     vid, writer txn, nearest committed predecessor / successor vid at
     commit time). The initial version of each key is announced the
     same way with writer 0. Per-key committed orders are rebuilt
     incrementally from these insertions; because a version order is
     total per key, the commit-time coarse adjacency is implied by the
     final fine adjacency, so edges derived from it are always sound.
   - [observe_commit]: a client observed a transaction commit — the
     Rsg record (txn, start, finish, reads, writes).

   Retirement (the GC window invariant): let the watermark W be a
   lower bound on the start time of every transaction whose commit has
   not yet been observed (the harness computes W from its in-flight
   tables). The harness watermark says nothing about records *already*
   observed that still await announcements (reads parked on
   unannounced versions, writes whose server announcement is in
   flight) — such a record may have started arbitrarily early — so
   each epoch clamps W down to the earliest start among those records
   before the sweep. A transaction t with finish(t) < W, no unresolved
   reads and no unannounced writes is *retired* after a passed cycle
   check: every future transaction u — including a parked one whose
   announcement resolves later — has start(u) >= W > finish(t), so the
   real-time edge t -> u is guaranteed. Consequently any *future* edge
   into t closes a 2-cycle with that guaranteed edge and can be
   reported immediately, without keeping t's record:

   - ww into t: a version is committed whose nearest committed
     successor was written by retired t (timestamp inversion);
   - rw into t: a read is observed of a version whose nearest
     committed successor was written by retired t (stale read);
   - wr into t: a write record arrives for a version that a retired
     transaction read (the read preceded its writer's start).

   Edges *out of* a retired transaction need no bookkeeping: a cycle
   through them must re-enter the retired set, which one of the rules
   above reports. Epoch checks (every [epoch] commits) run the shared
   cycle search over the live set only; after a clean check, eligible
   transactions retire and closed versions — committed versions whose
   writer and whose successor's writer are both retired — are pruned
   from the per-key orders. A pruned vid keeps one word for the rest of
   the run: its cell in the vid table records its successor's writer,
   so reading it later is a stale read by construction, and
   distinguishing that from a dirty read is what the residue buys.

   State is flat and int-indexed (docs/checker.md, "The flat layout"):
   a paged vid table with one cell per vid (absent, live entry slot, or
   pruned with its successor's writer), a slot arena for version
   entries whose fields are paged int vectors, an open-addressing
   key -> order-head table, and growable arrays for the live records.
   Vids and txn ids are the run's dense counters, entries and records
   are referenced by slot, and a version keeps a count of its live
   readers rather than their list. Nothing on the feed path allocates
   once the tables have grown (pages arrive 1024 slots at a time); the
   epoch check builds its graph into {!Graph}'s reused CSR arrays.

   With [~gc:false] nothing retires and [finalize] replays the
   retained history through {!Rsg.check} itself, making the two
   checkers equal field for field — the anchor for the equivalence
   property tests. *)

open Kernel

(* --- flat tables ---------------------------------------------------- *)

(* A paged int vector: index [i] lives in page [i lsr 10]. Pages are
   allocated on first write and never copied, so a table grows one
   1024-word page at a time instead of reallocating at twice its size,
   and a read past the written range returns [fill]. Indices are
   non-negative. *)
module Pvec = struct
  let bits = 10
  let mask = (1 lsl bits) - 1

  type t = { mutable dir : int array array; fill : int }

  let create fill = { dir = [||]; fill }

  let get v i =
    let p = i lsr bits in
    if p < Array.length v.dir then begin
      let pg = v.dir.(p) in
      if Array.length pg = 0 then v.fill else pg.(i land mask)
    end
    else v.fill

  let set v i x =
    let p = i lsr bits in
    if p >= Array.length v.dir then begin
      let dir = Array.make (max (p + 1) (2 * Array.length v.dir)) [||] in
      Array.blit v.dir 0 dir 0 (Array.length v.dir);
      v.dir <- dir
    end;
    if Array.length v.dir.(p) = 0 then v.dir.(p) <- Array.make (1 lsl bits) v.fill;
    v.dir.(p).(i land mask) <- x
end

(* key -> the slot of the first entry of its version order, by open
   addressing with linear probing. A head of -1 marks a free cell;
   keys are never removed (an order never empties: its newest version
   is never pruned). [k_stamp] is the last prune sweep that walked the
   key, so a sweep walks each key once. *)
type keytab = {
  mutable k_key : int array;
  mutable k_head : int array;
  mutable k_stamp : int array;
  mutable k_size : int;
}

let key_home k cap =
  let h = k * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 29)) land (cap - 1)

(* The cell holding [key], or the free cell where it would go. *)
let rec key_probe kt key i =
  if kt.k_head.(i) < 0 || kt.k_key.(i) = key then i
  else key_probe kt key ((i + 1) land (Array.length kt.k_head - 1))

let find_key kt key =
  let cap = Array.length kt.k_head in
  if cap = 0 then -1
  else begin
    let i = key_probe kt key (key_home key cap) in
    if kt.k_head.(i) < 0 then -1 else i
  end

(* Insert an absent [key] with order head [head]; returns its cell.
   The table doubles past three-quarters full. *)
let add_key kt key head =
  let cap = Array.length kt.k_head in
  if 4 * (kt.k_size + 1) > 3 * cap then begin
    let ncap = max 64 (2 * cap) in
    let ok = kt.k_key and oh = kt.k_head and os = kt.k_stamp in
    kt.k_key <- Array.make ncap 0;
    kt.k_head <- Array.make ncap (-1);
    kt.k_stamp <- Array.make ncap 0;
    for j = 0 to cap - 1 do
      if oh.(j) >= 0 then begin
        let i = key_probe kt ok.(j) (key_home ok.(j) ncap) in
        kt.k_key.(i) <- ok.(j);
        kt.k_head.(i) <- oh.(j);
        kt.k_stamp.(i) <- os.(j)
      end
    done
  end;
  let i = key_probe kt key (key_home key (Array.length kt.k_head)) in
  kt.k_key.(i) <- key;
  kt.k_head.(i) <- head;
  kt.k_size <- kt.k_size + 1;
  i

let grow_to a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* --- state ---------------------------------------------------------- *)

(* Version entries: one committed version in a per-key order, doubly
   linked through slots (-1 = none) so that mid-chain inserts (MVTO)
   and pruning are O(1). Freed slots are chained through [e_next].

   The server announces versions under per-attempt wire ids, not
   transaction ids, so identity comes from commit records: a record
   listing (key, vid) among its writes *claims* the entry, setting
   [e_writer] to the transaction id and [e_wslot] to its record's slot
   (exactly how {!Rsg} learns writers). Until then the writer is
   unknown (-1): mid-run epoch checks skip its edges (dropping edges
   never creates a false cycle), and the final check collapses a
   still-unclaimed writer to the initial writer 0, matching Rsg's
   treatment of unknown writers. Transaction ids are positive (the
   graph's node encoding), so a claimed writer is retired exactly when
   [e_writer > 0] and [e_wslot] is -1: retirement clears the slot. *)

type t = {
  gc : bool;
  epoch_len : int;
  watermark : unit -> float;
  on_epoch : (live:int -> retired:int -> unit) option;
  mutable verdict : Verdict.t;  (* sticky: first violation wins *)
  (* the vid table: 0 absent, s + 1 live entry in slot s, -w pruned
     with its successor written by w; vids outside the dense range go
     to [vfar] *)
  vcell : Pvec.t;
  vfar : (int, int) Hashtbl.t;
  keys : keytab;
  (* the entry arena *)
  e_vid : Pvec.t;
  e_writer : Pvec.t;  (* txn id; 0 = initial, -1 = unclaimed *)
  e_wslot : Pvec.t;  (* the claiming record's slot while it is live *)
  e_prev : Pvec.t;
  e_next : Pvec.t;
  e_readers : Pvec.t;  (* live readers *)
  e_rreader : Pvec.t;
      (* a reader that retired before this version's writer record
         arrived (instant wr-into-retired evidence), or -1 *)
  e_rsucc : Pvec.t;
      (* the retired writer of this version's nearest committed
         successor, seen at announcement time before the entry was
         claimed (instant ww-into-retired evidence, parked so the
         witness can name the transaction id instead of the server's
         wire id once the record arrives), or -1 *)
  mutable e_free : int;
  mutable e_count : int;  (* slots ever handed out *)
  (* the record arena: live commit records by slot *)
  mutable r_txn : int array;
  mutable r_start : float array;
  mutable r_finish : float array;
  mutable r_reads : (Types.key * int) list array;
  mutable r_writes : (Types.key * int) list array;
  mutable r_pending : int array;  (* reads of not-yet-announced versions *)
  mutable r_unobserved : int array;  (* writes not yet announced by a server *)
  mutable r_mark : int array;  (* graph build that numbered the record *)
  mutable r_node : int array;  (* its node in that build *)
  mutable r_free : int array;
  mutable n_free : int;
  mutable r_count : int;
  mutable live : int array;  (* live record slots, oldest first *)
  mutable n_live : int;
  mutable scratch : int array;  (* per-epoch: finish order, then retirees *)
  wm : float array;  (* per-epoch: the gated watermark *)
  graph : Graph.t;
  mutable build : int;
  mutable init_node : int;
  mutable sweep : int;
  pend_reads : (int, int list ref) Hashtbl.t;  (* vid -> waiting reader slots *)
  pend_writes : (int, int) Hashtbl.t;  (* vid -> writer slot awaiting announce *)
  mutable n_seen : int;
  mutable since_epoch : int;
  mutable n_epochs : int;
  mutable n_retired : int;
  mutable n_stale : int;
  mutable hw : int;
  mutable pending_hw : int;
}

type stats = {
  commits : int;
  epochs : int;
  retired : int;
  live_high_water : int;
  pending_high_water : int;
  stale_residue : int;
}

let create ?(gc = true) ?(epoch = 1024) ?(watermark = fun () -> Float.neg_infinity)
    ?on_epoch () =
  {
    gc;
    epoch_len = max 1 epoch;
    watermark;
    on_epoch;
    verdict = Verdict.Ok;
    vcell = Pvec.create 0;
    vfar = Hashtbl.create 16;
    keys = { k_key = [||]; k_head = [||]; k_stamp = [||]; k_size = 0 };
    e_vid = Pvec.create 0;
    e_writer = Pvec.create 0;
    e_wslot = Pvec.create (-1);
    e_prev = Pvec.create (-1);
    e_next = Pvec.create (-1);
    e_readers = Pvec.create 0;
    e_rreader = Pvec.create (-1);
    e_rsucc = Pvec.create (-1);
    e_free = -1;
    e_count = 0;
    r_txn = [||];
    r_start = [||];
    r_finish = [||];
    r_reads = [||];
    r_writes = [||];
    r_pending = [||];
    r_unobserved = [||];
    r_mark = [||];
    r_node = [||];
    r_free = [||];
    n_free = 0;
    r_count = 0;
    live = [||];
    n_live = 0;
    scratch = [||];
    wm = [| 0.0 |];
    graph = Graph.create ();
    build = 0;
    init_node = -1;
    sweep = 0;
    pend_reads = Hashtbl.create 16;
    pend_writes = Hashtbl.create 16;
    n_seen = 0;
    since_epoch = 0;
    n_epochs = 0;
    n_retired = 0;
    n_stale = 0;
    hw = 0;
    pending_hw = 0;
  }

let violation t a = if Verdict.is_ok t.verdict then t.verdict <- Verdict.Violation a

let cycle2 t a b =
  (* ncc-lint: allow R18 — violation path only: the two-element witness list ends the run *)
  violation t (Verdict.Cycle { strict = true; witness = [ a; b ] })

(* The vid table covers [0, 2^26) densely (one word per vid); other
   vids (tests' sparse ids) fall back to a hash table. *)
let vid_dense = 1 lsl 26

let cell t vid =
  if vid >= 0 && vid < vid_dense then Pvec.get t.vcell vid
  else match Hashtbl.find_opt t.vfar vid with Some c -> c | None -> 0

let set_cell t vid c =
  if vid >= 0 && vid < vid_dense then Pvec.set t.vcell vid c
  else Hashtbl.replace t.vfar vid c

let writer_of t e = Pvec.get t.e_writer e

(* Claimed by a transaction whose record retired. Initial versions
   (writer 0) never retire. *)
let entry_retired t e = writer_of t e > 0 && Pvec.get t.e_wslot e < 0

let new_entry t vid writer =
  let e =
    if t.e_free >= 0 then begin
      let e = t.e_free in
      t.e_free <- Pvec.get t.e_next e;
      e
    end
    else begin
      t.e_count <- t.e_count + 1;
      t.e_count - 1
    end
  in
  Pvec.set t.e_vid e vid;
  Pvec.set t.e_writer e writer;
  Pvec.set t.e_wslot e (-1);
  Pvec.set t.e_prev e (-1);
  Pvec.set t.e_next e (-1);
  Pvec.set t.e_readers e 0;
  Pvec.set t.e_rreader e (-1);
  Pvec.set t.e_rsucc e (-1);
  e

let free_entry t e =
  Pvec.set t.e_next e t.e_free;
  t.e_free <- e

(* Link [e] into [key]'s order after slot [prev] (-1: at the head). *)
let insert_after t key prev e =
  if prev < 0 then begin
    let ki = find_key t.keys key in
    if ki < 0 then ignore (add_key t.keys key e)
    else begin
      let h = t.keys.k_head.(ki) in
      Pvec.set t.e_next e h;
      Pvec.set t.e_prev h e;
      t.keys.k_head.(ki) <- e
    end
  end
  else begin
    let n = Pvec.get t.e_next prev in
    Pvec.set t.e_prev e prev;
    Pvec.set t.e_next e n;
    if n >= 0 then Pvec.set t.e_prev n e;
    Pvec.set t.e_next prev e
  end

let unlink t ki e =
  let p = Pvec.get t.e_prev e and n = Pvec.get t.e_next e in
  if p >= 0 then Pvec.set t.e_next p n else t.keys.k_head.(ki) <- n;
  if n >= 0 then Pvec.set t.e_prev n p

(* Instant rw/ww-into-retired check: the writer of [e]'s nearest
   committed successor if it is retired, else -1. *)
let succ_retired t e =
  let s = Pvec.get t.e_next e in
  if s >= 0 && entry_retired t s then writer_of t s else -1

(* Attach live reader slot [r] to entry [e], or report the stale read
   if the version's successor is already retired (the reader was
   observed after that retirement, so it started after the successor's
   writer finished: rw edge plus guaranteed rt edge = cycle). *)
let attach_read t r e =
  let w = succ_retired t e in
  if w >= 0 then cycle2 t t.r_txn.(r) w
  else Pvec.set t.e_readers e (Pvec.get t.e_readers e + 1)

let rec resolve_readers t e = function
  | [] -> ()
  | r :: rest ->
    t.r_pending.(r) <- t.r_pending.(r) - 1;
    attach_read t r e;
    resolve_readers t e rest

let observe_version t ~key ~vid ~writer ~prev ~next =
  (* a duplicated Decide can re-announce a vid; only the first counts *)
  if Verdict.is_ok t.verdict && cell t vid = 0 then begin
    let e = new_entry t vid (if writer = 0 then 0 else -1) in
    (* protocols that decide client-side may report the commit before
       the server applies it; the write was parked until now *)
    (if Hashtbl.length t.pend_writes > 0 then
       match Hashtbl.find_opt t.pend_writes vid with
       | Some r ->
         Hashtbl.remove t.pend_writes vid;
         Pvec.set t.e_writer e t.r_txn.(r);
         Pvec.set t.e_wslot e r;
         t.r_unobserved.(r) <- t.r_unobserved.(r) - 1
       | None -> ());
    (* a predecessor that is absent or pruned puts [e] at the head *)
    let prev_e = match prev with Some pv -> max (cell t pv - 1) (-1) | None -> -1 in
    insert_after t key prev_e e;
    set_cell t vid (e + 1);
    (* instant ww-into-retired: committed between a retired writer's
       version and its predecessors = timestamp inversion. Sound
       because the retirement gate in [run_epoch] guarantees the
       retired successor's writer finished before this writer started,
       whether this entry's record is already here (claimed from
       pend_writes), still in flight, or arrives later. The witness
       must name the writing *transaction*: servers announce under
       per-attempt wire ids, so if the entry is unclaimed the evidence
       is parked on it ([e_rsucc]) and fires when the commit record
       claims it in [observe_commit]. *)
    (match next with
     | Some nv ->
       let c = cell t nv in
       let w =
         if c < 0 then -c
         else if c > 0 && entry_retired t (c - 1) then writer_of t (c - 1)
         else -1
       in
       if w >= 0 then begin
         let ew = writer_of t e in
         if ew >= 0 then (if ew <> 0 then cycle2 t ew w) else Pvec.set t.e_rsucc e w
       end
     | None -> ());
    (* resolve readers that were parked on this vid *)
    if Hashtbl.length t.pend_reads > 0 then
      match Hashtbl.find_opt t.pend_reads vid with
      | None -> ()
      | Some waiting ->
        Hashtbl.remove t.pend_reads vid;
        resolve_readers t e (List.rev !waiting)
  end

(* --- epoch check over the live set --------------------------------- *)

(* The node of live record slot [r] in the current build, numbered on
   first use; [-2] stands for the initial writer 0. *)
let init_ref = -2

let node t r =
  if r = init_ref then begin
    if t.init_node < 0 then t.init_node <- Graph.fresh t.graph 0;
    t.init_node
  end
  else if t.r_mark.(r) = t.build then t.r_node.(r)
  else begin
    let n = Graph.fresh t.graph t.r_txn.(r) in
    t.r_mark.(r) <- t.build;
    t.r_node.(r) <- n;
    n
  end

(* An edge between two node references (a live record slot or
   [init_ref]; -1 is no node), numbering the source first. *)
let edge t a b =
  if a <> b && a <> -1 && b <> -1 then begin
    let na = node t a in
    Graph.link t.graph na (node t b)
  end

(* Writer node of an entry. Retired writers yield no node — any edge
   touching them was already covered (incoming edges by the instant
   rules, outgoing edges by the retirement theorem). Unclaimed writers
   are skipped mid-run (the record is still in flight; guessing would
   risk a false cycle through node 0) and collapse to the initial
   writer 0 in the final check, exactly as in {!Rsg}. *)
let writer_ref t ~final e =
  let w = writer_of t e in
  if w = 0 then init_ref
  else if w < 0 then if final then init_ref else -1
  else Pvec.get t.e_wslot e

(* Edges from each live record's reads and writes instead of walking
   every key's order: every wr/ww/rw edge between two representable
   nodes has at least one live, claimed endpoint, and each such edge
   is reachable from that endpoint's own record (its read entry, or
   its write entry's chain neighbors). Entries whose writer is retired
   yield no node ([writer_ref]), entries whose writer is unclaimed
   contribute once the record arrives, and the live readers counted on
   an entry are exactly the live records that list it. This keeps the
   epoch check O(live), independent of how many keys the whole history
   has touched. *)
let rec read_edges t ~final r = function
  | [] -> ()
  | (_, vid) :: rest ->
    let c = cell t vid in
    if c > 0 then begin
      (* wr: the version's writer -> this reader; rw: this reader ->
         the successor's writer *)
      edge t (writer_ref t ~final (c - 1)) r;
      let n = Pvec.get t.e_next (c - 1) in
      if n >= 0 then edge t r (writer_ref t ~final n)
    end;
    read_edges t ~final r rest

let rec write_edges t ~final r = function
  | [] -> ()
  | (_, vid) :: rest ->
    let c = cell t vid in
    if c > 0 then begin
      (* ww in: predecessor's writer -> us; ww out: us -> the
         successor's writer *)
      let p = Pvec.get t.e_prev (c - 1) in
      if p >= 0 then edge t (writer_ref t ~final p) r;
      let n = Pvec.get t.e_next (c - 1) in
      if n >= 0 then edge t r (writer_ref t ~final n)
    end;
    write_edges t ~final r rest

let scratch t n =
  if Array.length t.scratch < n then
    t.scratch <- grow_to t.scratch (max n (2 * Array.length t.scratch)) 0;
  t.scratch

(* Live records by finish time into the scratch array, equal finishes
   newest first: the order a stable sort of the newest-first live list
   gives, which picks the chain numbering and so the witness. An
   insertion sort over positions in the live array; records arrive in
   nondecreasing finish order, so it only reverses runs of equal
   finishes. *)
let finish_order t =
  let n = t.n_live and live = t.live and fin = t.r_finish in
  let ord = scratch t n in
  for i = 0 to n - 1 do
    let j = ref (i - 1) in
    (* position i goes before every earlier position finishing later,
       or finishing together (it is newer) *)
    while !j >= 0 && fin.(live.(i)) <= fin.(live.(ord.(!j))) do
      ord.(!j + 1) <- ord.(!j);
      decr j
    done;
    ord.(!j + 1) <- i
  done;
  for i = 0 to n - 1 do
    ord.(i) <- live.(ord.(i))
  done;
  n

let live_graph t ~final =
  let g = t.graph in
  Graph.clear g;
  t.build <- t.build + 1;
  t.init_node <- -1;
  for k = t.n_live - 1 downto 0 do
    let r = t.live.(k) in
    ignore (node t r);
    read_edges t ~final r t.r_reads.(r);
    write_edges t ~final r t.r_writes.(r)
  done;
  (* real-time edges over the live set, compressed with the same
     commit-event chain as Rsg (epoch-local chain numbering); chain
     nodes are numbered consecutively from [c0] *)
  let n = finish_order t in
  let ord = t.scratch and fin = t.r_finish in
  let c0 = if n > 0 then Graph.fresh g (-1) else 0 in
  for i = 0 to n - 1 do
    Graph.link g (node t ord.(i)) (c0 + i);
    if i + 1 < n then Graph.link g (c0 + i) (Graph.fresh g (-(i + 2)))
  done;
  for k = t.n_live - 1 downto 0 do
    let r = t.live.(k) in
    let start = t.r_start.(r) in
    (* the last commit event finishing before r started *)
    let lo = ref (-1) and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if fin.(ord.(mid)) < start then lo := mid else hi := mid - 1
    done;
    if !lo >= 0 && fin.(ord.(!lo)) < start then Graph.link g (c0 + !lo) (node t r)
  done

let cycle_check t ~final =
  live_graph t ~final;
  match Graph.find_cycle t.graph with
  | None -> true
  | Some witness ->
    violation t (Verdict.Cycle { strict = true; witness });
    false

let rec retire_reads t r = function
  | [] -> ()
  | (_, vid) :: rest ->
    let c = cell t vid in
    if c > 0 then begin
      let e = c - 1 in
      Pvec.set t.e_readers e (Pvec.get t.e_readers e - 1);
      if writer_of t e < 0 && Pvec.get t.e_rreader e < 0 then
        Pvec.set t.e_rreader e t.r_txn.(r)
    end;
    retire_reads t r rest

let rec retire_writes t r = function
  | [] -> ()
  | (_, vid) :: rest ->
    let c = cell t vid in
    if c > 0 && Pvec.get t.e_wslot (c - 1) = r then Pvec.set t.e_wslot (c - 1) (-1);
    retire_writes t r rest

(* Prune closed versions: writer retired (or initial) and successor's
   writer retired, with no live readers left. Future reads of the vid
   are stale reads by construction; its vid cell keeps the evidence.
   An entry's prunability only changes when a transaction touching its
   key retires (the writer or successor's writer leaves the live set,
   or a reader is stripped), so each sweep only walks the keys the
   just-retired transactions touched — not the whole history's key
   set — each once, from the head of its order. *)
let rec prune_walk t ki e =
  if e >= 0 then begin
    let next = Pvec.get t.e_next e in
    if next >= 0
       && (writer_of t e = 0 || entry_retired t e)
       && Pvec.get t.e_readers e = 0
       && Pvec.get t.e_rreader e < 0
       && entry_retired t next
    then begin
      unlink t ki e;
      set_cell t (Pvec.get t.e_vid e) (-writer_of t next);
      free_entry t e;
      t.n_stale <- t.n_stale + 1
    end;
    prune_walk t ki next
  end

let rec prune_keys t = function
  | [] -> ()
  | (key, _) :: rest ->
    let ki = find_key t.keys key in
    if ki >= 0 && t.keys.k_stamp.(ki) <> t.sweep then begin
      t.keys.k_stamp.(ki) <- t.sweep;
      prune_walk t ki t.keys.k_head.(ki)
    end;
    prune_keys t rest

let[@inline] eligible t wm r =
  t.r_finish.(r) < wm && t.r_pending.(r) = 0 && t.r_unobserved.(r) = 0

let free_record t r =
  t.r_reads.(r) <- [];
  t.r_writes.(r) <- [];
  if t.n_free = Array.length t.r_free then
    t.r_free <- grow_to t.r_free (max 16 (2 * t.n_free)) 0;
  t.r_free.(t.n_free) <- r;
  t.n_free <- t.n_free + 1

let run_epoch t =
  t.since_epoch <- 0;
  t.n_epochs <- t.n_epochs + 1;
  if cycle_check t ~final:false then begin
    (* Retirement gate: the harness watermark only bounds the starts
       of transactions whose commit is still *unobserved*. A record
       already in the live set with reads parked on unannounced
       versions (pending > 0) or writes awaiting a server announcement
       (unobserved > 0) may have started arbitrarily earlier, so clamp
       the watermark to the earliest such start: nothing retires past
       a parked record, and the instant retired-edge rules that fire
       when its announcements finally resolve only ever claim
       real-time edges that genuinely hold (retired finish < gated
       watermark <= parked start). *)
    t.wm.(0) <- t.watermark ();
    for k = 0 to t.n_live - 1 do
      let r = t.live.(k) in
      if (t.r_pending.(r) > 0 || t.r_unobserved.(r) > 0) && t.r_start.(r) < t.wm.(0)
      then t.wm.(0) <- t.r_start.(r)
    done;
    let wm = t.wm.(0) in
    (* retirees newest first, as the sweep has always taken them *)
    let dead = scratch t t.n_live in
    let n_dead = ref 0 in
    for k = t.n_live - 1 downto 0 do
      let r = t.live.(k) in
      if eligible t wm r then begin
        dead.(!n_dead) <- r;
        incr n_dead
      end
    done;
    if !n_dead > 0 then begin
      for d = 0 to !n_dead - 1 do
        let r = dead.(d) in
        t.n_retired <- t.n_retired + 1;
        retire_reads t r t.r_reads.(r);
        retire_writes t r t.r_writes.(r)
      done;
      let kept = ref 0 in
      for k = 0 to t.n_live - 1 do
        let r = t.live.(k) in
        if not (eligible t wm r) then begin
          t.live.(!kept) <- r;
          incr kept
        end
      done;
      t.n_live <- !kept;
      t.sweep <- t.sweep + 1;
      for d = 0 to !n_dead - 1 do
        prune_keys t t.r_reads.(dead.(d));
        prune_keys t t.r_writes.(dead.(d))
      done;
      for d = 0 to !n_dead - 1 do
        free_record t dead.(d)
      done
    end;
    match t.on_epoch with
    | Some f -> f ~live:t.n_live ~retired:t.n_retired
    | None -> ()
  end

let new_record t ~txn ~start ~finish ~reads ~writes =
  let r =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.r_free.(t.n_free)
    end
    else begin
      let r = t.r_count in
      if r = Array.length t.r_txn then begin
        let n = max 16 (2 * r) in
        t.r_txn <- grow_to t.r_txn n 0;
        t.r_start <- grow_to t.r_start n 0.0;
        t.r_finish <- grow_to t.r_finish n 0.0;
        t.r_reads <- grow_to t.r_reads n [];
        t.r_writes <- grow_to t.r_writes n [];
        t.r_pending <- grow_to t.r_pending n 0;
        t.r_unobserved <- grow_to t.r_unobserved n 0;
        t.r_mark <- grow_to t.r_mark n 0;
        t.r_node <- grow_to t.r_node n 0
      end;
      t.r_count <- r + 1;
      r
    end
  in
  t.r_txn.(r) <- txn;
  t.r_start.(r) <- start;
  t.r_finish.(r) <- finish;
  t.r_reads.(r) <- reads;
  t.r_writes.(r) <- writes;
  t.r_pending.(r) <- 0;
  t.r_unobserved.(r) <- 0;
  t.r_mark.(r) <- 0;
  if t.n_live = Array.length t.live then
    t.live <- grow_to t.live (max 16 (2 * t.n_live)) 0;
  t.live.(t.n_live) <- r;
  t.n_live <- t.n_live + 1;
  r

let rec claim_writes t r = function
  | [] -> ()
  | (_, vid) :: rest ->
    let c = cell t vid in
    if c > 0 then begin
      let e = c - 1 and txn = t.r_txn.(r) in
      Pvec.set t.e_writer e txn;
      Pvec.set t.e_wslot e r;
      (* a reader of this version retired before we learned who wrote
         it: wr edge into the retired set *)
      let rr = Pvec.get t.e_rreader e in
      if rr >= 0 then cycle2 t txn rr;
      (* our version's successor was retired at announcement time
         (parked evidence, possibly since pruned) or retired while the
         record was in flight: ww edge into the retired set *)
      let rs = Pvec.get t.e_rsucc e in
      let w = if rs >= 0 then rs else succ_retired t e in
      if w >= 0 then cycle2 t txn w
    end
    else begin
      (* server announcement still in flight *)
      t.r_unobserved.(r) <- t.r_unobserved.(r) + 1;
      Hashtbl.replace t.pend_writes vid r
    end;
    claim_writes t r rest

let rec observe_reads t r = function
  | [] -> ()
  | (_, vid) :: rest ->
    let c = cell t vid in
    if c < 0 then cycle2 t t.r_txn.(r) (-c)
    else if c > 0 then attach_read t r (c - 1)
    else begin
      t.r_pending.(r) <- t.r_pending.(r) + 1;
      (match Hashtbl.find_opt t.pend_reads vid with
       (* ncc-lint: allow R18 — pending-read bookkeeping: one cons per read of a not-yet-announced version *)
       | Some l -> l := r :: !l
       (* ncc-lint: allow R18 — pending-read bookkeeping: one cell per not-yet-announced version *)
       | None -> Hashtbl.add t.pend_reads vid (ref [ r ]));
      if Hashtbl.length t.pend_reads > t.pending_hw then
        t.pending_hw <- Hashtbl.length t.pend_reads
    end;
    observe_reads t r rest

let observe_commit t ~txn ~start ~finish ~reads ~writes =
  t.n_seen <- t.n_seen + 1;
  if Verdict.is_ok t.verdict then begin
    let r = new_record t ~txn ~start ~finish ~reads ~writes in
    if t.n_live > t.hw then t.hw <- t.n_live;
    claim_writes t r writes;
    observe_reads t r reads;
    t.since_epoch <- t.since_epoch + 1;
    if t.gc && t.since_epoch >= t.epoch_len then run_epoch t
  end

(* --- finalize ------------------------------------------------------ *)

(* Reads still unresolved at the end of the run are dirty: the vid
   appears in no committed order, matching Rsg's definition. Report
   the same one Rsg would (first in newest-first record order). *)
let first_dirty t =
  let rec scan k =
    if k < 0 then None
    else
      let r = t.live.(k) in
      match List.find_opt (fun (_, vid) -> cell t vid = 0) t.r_reads.(r) with
      | Some (key, vid) -> Some (Verdict.Dirty_read { txn = t.r_txn.(r); key; vid })
      | None -> scan (k - 1)
  in
  scan (t.n_live - 1)

let finalize t =
  (if Verdict.is_ok t.verdict then
     if t.gc then begin
       (match first_dirty t with Some a -> violation t a | None -> ());
       if Verdict.is_ok t.verdict then ignore (cycle_check t ~final:true)
     end
     else begin
       (* GC off: the whole history was retained; hand it to the
          post-hoc checker verbatim so the verdicts agree field for
          field (equivalence anchor). *)
       let rsg = Rsg.create () in
       for k = 0 to t.n_live - 1 do
         let r = t.live.(k) in
         Rsg.record_commit rsg ~txn:t.r_txn.(r) ~start:t.r_start.(r)
           ~finish:t.r_finish.(r) ~reads:t.r_reads.(r) ~writes:t.r_writes.(r)
       done;
       let kt = t.keys in
       Array.iteri
         (fun ki head ->
           if head >= 0 then begin
             let rec vids e =
               if e < 0 then [] else Pvec.get t.e_vid e :: vids (Pvec.get t.e_next e)
             in
             Rsg.record_version_order rsg kt.k_key.(ki) (vids head)
           end)
         kt.k_head;
       t.verdict <- Rsg.check rsg ~strict:true
     end);
  t.verdict

let verdict t = t.verdict
let n_observed t = t.n_seen

let stats t =
  {
    commits = t.n_seen;
    epochs = t.n_epochs;
    retired = t.n_retired;
    live_high_water = t.hw;
    pending_high_water = t.pending_hw;
    stale_residue = t.n_stale;
  }

(* --- replay -------------------------------------------------------- *)

(* Drive the streaming checker from a post-hoc history (records plus
   final per-key committed orders): commits replay in finish order,
   each transaction's versions are announced just before its record
   with prev/next computed as the nearest already-announced neighbors
   in the final order, and the watermark is the exact suffix minimum
   of the remaining start times. Versions no record claims (writes of
   transactions that never reported) are announced up front, oldest
   first, like the initial versions. Used by the equivalence and
   planted-anomaly tests, which only have post-hoc histories. *)
module Iset = Set.Make (Int)

let replay ?gc ?epoch ~records ~orders () =
  (* position of each vid in its key's final order *)
  let pos = Hashtbl.create 4096 in
  List.iter
    (fun (key, vids) ->
      List.iteri (fun i vid -> Hashtbl.replace pos vid (key, i)) vids)
    orders;
  let writer_of = Hashtbl.create 4096 in
  List.iter
    (fun (r : Rsg.txn_record) ->
      List.iter (fun (_, vid) -> Hashtbl.replace writer_of vid r.Rsg.txn) r.Rsg.writes)
    records;
  let by_finish =
    List.stable_sort
      (fun (a : Rsg.txn_record) b -> Float.compare a.Rsg.finish b.Rsg.finish)
      (List.rev records)
  in
  let arr = Array.of_list by_finish in
  let n = Array.length arr in
  (* watermark: min start over records not yet replayed *)
  let suffix_min = Array.make (n + 1) Float.infinity in
  for i = n - 1 downto 0 do
    suffix_min.(i) <- Float.min arr.(i).Rsg.start suffix_min.(i + 1)
  done;
  let step = ref 0 in
  let t =
    create ?gc ?epoch ~watermark:(fun () -> suffix_min.(!step)) ()
  in
  (* installed positions per key, for nearest-neighbor lookup *)
  let installed = Hashtbl.create 256 in
  let announce key i vids_arr =
    let vid = vids_arr.(i) in
    let s = try Hashtbl.find installed key with Not_found -> Iset.empty in
    let prev =
      Option.map (fun j -> vids_arr.(j)) (Iset.find_last_opt (fun j -> j < i) s)
    in
    let next =
      Option.map (fun j -> vids_arr.(j)) (Iset.find_first_opt (fun j -> j > i) s)
    in
    Hashtbl.replace installed key (Iset.add i s);
    observe_version t ~key ~vid
      ~writer:(Option.value ~default:0 (Hashtbl.find_opt writer_of vid))
      ~prev ~next
  in
  let order_arrays = List.map (fun (key, vids) -> (key, Array.of_list vids)) orders in
  let order_arr = Hashtbl.create 256 in
  List.iter (fun (key, a) -> Hashtbl.replace order_arr key a) order_arrays;
  (* versions owned by no record: initial versions and writes of
     transactions that never reported — announce them up front *)
  List.iter
    (fun (key, a) ->
      Array.iteri
        (fun i vid -> if not (Hashtbl.mem writer_of vid) then announce key i a)
        a)
    order_arrays;
  Array.iteri
    (fun i (r : Rsg.txn_record) ->
      step := i;
      List.iter
        (fun (_, vid) ->
          match Hashtbl.find_opt pos vid with
          | Some (key, idx) -> announce key idx (Hashtbl.find order_arr key)
          | None -> () (* committed write missing from every order:
                          left unannounced, so readers see it as dirty,
                          matching Rsg *))
        r.Rsg.writes;
      observe_commit t ~txn:r.Rsg.txn ~start:r.Rsg.start ~finish:r.Rsg.finish
        ~reads:r.Rsg.reads ~writes:r.Rsg.writes;
      step := i + 1)
    arr;
  t
