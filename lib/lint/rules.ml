(* The determinism rule set, encoded as data.

   Everything the repro claims — byte-identical seed replay, fair
   protocol comparison, the paper's NCC-vs-baselines curves — rests on
   the simulator being a pure function of its seed. These rules turn
   that contract into a build-failing check (see docs/determinism.md):

     R1  randomness only through Sim.Rng (the split-stream wrapper);
     R2  no wall-clock or ambient nondeterminism;
     R3  no unordered hash-table traversal: Hashtbl.iter/fold/to_seq
         visit buckets in hash order, so anything they feed depends on
         the hash function — use Kernel.Detmap instead;
     R4  no Obj tricks (unchecked casts defeat every other guarantee);
     R5  no top-level mutable state: module-global state survives
         across runs inside one process and breaks run-to-run isolation
         unless it is explicitly reset (no file is exempt; a reset-on-run
         global carries a waiver);
     R6  no exception-swallowing [with _ ->]: a swallowed exception
         turns a deterministic crash into a silent divergence.

   The typed rules R7-R10 run on the compiler's typedtree (.cmt files,
   see Typed_engine) and catch what the parsetree cannot see:

     R7  polymorphic structural equality/compare/hash applied at a
         type that must use its owning module's comparator (Ts.t and
         friends), or that contains floats, functions or hash-ordered
         containers;
     R8  float equality on simulated-time values, and float ordering
         directly against a raw clock read — use a tolerance, or the
         integer-nanosecond path (Sim.Clock.read_ns);
     R9  interprocedural effect reachability: no path from a
         Protocol.S handler entry point to an ambient effect
         (randomness, wall clock, I/O, top-level mutation);
     R10 protocol [msg] constructor liveness: a constructor never
         built or never matched is a dead protocol message.

   The race plane R12-R15 (Race_engine, also .cmt-based) polices the
   domain-parallel surface — everything that runs under Pool.submit/
   Pool.map/Pool.post or Domain.spawn:

     R12 field-sensitive mutable-state escape: a mutable location
         (ref, mutable record field, array, Hashtbl/Buffer/Queue
         value) that escapes into a closure handed to the domain pool,
         with Atomic.t, mutex-guarded regions, Domain.DLS and
         per-slot writes at the submitting index recognised as safe.
         Generalises (and absorbs) the retired rule R11, which only
         saw *toplevel* mutable state through the call graph;
     R13 mixed discipline: an abstract location holding an Atomic.t
         that is also re-assigned by a plain write — readers may keep
         operating on the replaced cell;
     R14 lock discipline: Mutex.lock with no release on every path
         (use Mutex.protect / Fun.protect ~finally), and a lock
         re-acquired through the call graph (OCaml mutexes are not
         reentrant: self-deadlock);
     R15 DLS misuse: Domain.DLS state touched from code the domain
         pool can never reach — the "domain-local" value degenerates
         to a plain global of the main domain.

   The allocation plane R16-R19 (Alloc_engine, also .cmt-based) is the
   performance-oriented set: it polices the simulator's hot paths — the
   Hotpaths seed registry plus anything carrying an [@ncc.hot]
   attribute — where per-event and per-message allocation is what
   cluster-scale sweeps (ROADMAP item 1) pay for:

     R16 boxed-float traffic in a hot function: a float ref, a float
         flowing into a tuple / option / list / variant payload, a
         float record field in a non-float (mixed) record — each is a
         heap box per write on the time-arithmetic path;
     R17 per-call allocation in a hot function: a closure literal
         built inside a hot loop or handed to a scheduling sink
         (Engine.schedule, Pool.submit), tuple / Some / :: construction
         on the dispatch path, Printf/Format/string building;
     R18 hotness propagation: an R16/R17-class site in a function that
         is only *transitively* hot — reachable from a hot entry over
         the call graph — fires as R18 with the BFS chain from the
         entry as evidence, so annotations stay sparse;
     R19 hot-annotation hygiene: an [@ncc.hot] attribute on a
         non-function binding, or on code nothing in the linted tree
         references (a dangling hot claim). Unused [allow R16-R18]
         waivers surface through the standard pragma machinery.

   A rule names either forbidden identifier prefixes or exact forbidden
   identifiers, selects one of two structural checks (top-level
   mutable state, wildcard exception handlers), or selects one of the
   typed checks. [allowed_files] lists repo-relative paths exempt from
   the rule; everything else needs a per-site waiver pragma carrying a
   reason (see Pragma). [rationale] and [example] feed the CLI's
   [--explain Rn]. *)

type severity = Error | Warn

type typed_check =
  | Poly_compare  (* R7 *)
  | Float_time  (* R8 *)
  | Handler_effects  (* R9 *)
  | Msg_liveness  (* R10 *)
  | Race_escape  (* R12 *)
  | Atomic_mixed  (* R13 *)
  | Lock_discipline  (* R14 *)
  | Dls_misuse  (* R15 *)
  | Boxed_float  (* R16 *)
  | Hot_alloc  (* R17 *)
  | Hot_propagation  (* R18 *)
  | Hot_hygiene  (* R19 *)

type matcher =
  | Forbid_prefixes of string list
      (* any identifier or type constructor under one of these
         module paths *)
  | Forbid_idents of string list  (* exact fully-qualified identifiers *)
  | Toplevel_mutable
      (* ref / Hashtbl.create / Buffer.create / array literals ...
         evaluated at module-initialisation time *)
  | Wildcard_try  (* [try ... with _ ->] / [match ... with exception _ ->] *)
  | Typed of typed_check
      (* semantic check over the typedtree; ignored by the parsetree
         engine, implemented by the typed planes over Cmt_graph *)

type rule = {
  id : string;
  severity : severity;
  summary : string;
  rationale : string;  (* --explain: why the construct is forbidden *)
  example : string;  (* --explain: a minimal firing snippet *)
  matcher : matcher;
  allowed_files : string list;
}

let severity_to_string = function Error -> "error" | Warn -> "warn"

let all : rule list =
  [
    {
      id = "R1";
      severity = Error;
      summary = "Random.* outside Sim.Rng breaks split-stream reproducibility";
      rationale =
        "All randomness must flow from the run's seed through Sim.Rng's \
         splittable streams; a direct Random call draws from ambient global \
         state and perturbs every other consumer.";
      example = "let jitter () = Random.int 10";
      matcher = Forbid_prefixes [ "Random"; "Stdlib.Random" ];
      allowed_files = [ "lib/sim/rng.ml" ];
    };
    {
      id = "R2";
      severity = Error;
      summary = "wall-clock / ambient nondeterminism; simulated time only";
      rationale =
        "Wall-clock reads and self-seeding are nondeterminism by definition; \
         simulated time comes from Sim.Engine.now, per-node skewed clocks \
         from Sim.Clock.";
      example = "let stamp () = Unix.gettimeofday ()";
      matcher =
        Forbid_idents
          [
            "Unix.gettimeofday";
            "Unix.time";
            "Unix.gmtime";
            "Unix.localtime";
            "Sys.time";
            "Random.self_init";
            "Stdlib.Random.self_init";
          ];
      allowed_files = [];
    };
    {
      id = "R3";
      severity = Error;
      summary =
        "unordered Hashtbl traversal depends on the hash function; use \
         Kernel.Detmap";
      rationale =
        "Hashtbl.iter/fold/to_seq visit buckets in hash order, so anything a \
         traversal feeds — results, digests, message emission — inherits a \
         dependence on the hash function and insertion history. \
         Kernel.Detmap snapshots and sorts by key; point operations \
         (find_opt, replace, mem) are fine.";
      example = "let sum t = Hashtbl.fold (fun _ v a -> v + a) t 0";
      matcher =
        Forbid_idents
          [
            "Hashtbl.iter";
            "Hashtbl.fold";
            "Hashtbl.to_seq";
            "Hashtbl.to_seq_keys";
            "Hashtbl.to_seq_values";
            "Stdlib.Hashtbl.iter";
            "Stdlib.Hashtbl.fold";
            "Stdlib.Hashtbl.to_seq";
            "Stdlib.Hashtbl.to_seq_keys";
            "Stdlib.Hashtbl.to_seq_values";
          ];
      allowed_files = [ "lib/kernel/detmap.ml" ];
    };
    {
      id = "R4";
      severity = Error;
      summary = "Obj.* defeats the type system and every invariant above";
      rationale =
        "Unchecked casts defeat the type system, and with it every property \
         the other rules protect.";
      example = "let cast (x : int) : float = Obj.magic x";
      matcher = Forbid_prefixes [ "Obj"; "Stdlib.Obj" ];
      allowed_files = [];
    };
    {
      id = "R5";
      severity = Error;
      summary =
        "top-level mutable state survives across runs; thread state through \
         values or reset it explicitly";
      rationale =
        "Module globals survive across runs in one process and break \
         run-to-run isolation unless explicitly reset. Thread state through \
         values, or carry an audited reset-on-run waiver.";
      example = "let counter = ref 0";
      matcher = Toplevel_mutable;
      allowed_files = [];
    };
    {
      id = "R6";
      severity = Error;
      summary = "[with _ ->] swallows exceptions and hides divergence";
      rationale =
        "A swallowed exception turns a deterministic crash into a silent \
         divergence between two runs. Name the exception you mean to catch.";
      example = "let safe f = try f () with _ -> 0";
      matcher = Wildcard_try;
      allowed_files = [];
    };
    {
      id = "R7";
      severity = Error;
      summary =
        "polymorphic equality/compare/hash at a type that needs its own \
         comparator";
      rationale =
        "Structural equality on an owned type bypasses its intended \
         semantics (Ts.compare breaks ties by client id on purpose); on \
         floats it hides NaN and precision traps; on closures it raises; on \
         a Hashtbl.t it depends on bucket layout. Use the type's own \
         comparator (Ts.equal, Int.equal, ...).";
      example = "let eq (a : Ts.t) (b : Ts.t) = a = b";
      matcher = Typed Poly_compare;
      allowed_files = [];
    };
    {
      id = "R8";
      severity = Error;
      summary =
        "float comparison on simulated time; use a tolerance or the integer \
         Clock.read_ns path";
      rationale =
        "Exact float equality is almost never what a simulation means, and \
         ordering an unquantized time read invites accumulation-order \
         sensitivity at the exact boundary. Compare integer nanoseconds, or \
         an explicitly-toleranced difference.";
      example = "let expired deadline = Engine.now () >= deadline";
      matcher = Typed Float_time;
      allowed_files = [];
    };
    {
      id = "R9";
      severity = Error;
      summary = "protocol handler can reach an ambient effect";
      rationale =
        "R1/R2/R5 catch an effect at its site; R9 catches a clean-looking \
         handler that merely calls something effectful three modules away. \
         The finding carries the full call chain as evidence; waivers go at \
         the effect site, silencing every chain that reaches it.";
      example =
        "let jitter () = Random.int 10\nlet submit t = t + jitter ()";
      matcher = Typed Handler_effects;
      allowed_files = [];
    };
    {
      id = "R10";
      severity = Error;
      summary = "dead protocol message constructor";
      rationale =
        "A protocol message nobody sends (or nobody handles) is either dead \
         wire format or a missing handler arm — both are bugs in a \
         reproduction whose point is the message flow.";
      example = "type msg = Ping | Dead  (* Dead never built nor matched *)";
      matcher = Typed Msg_liveness;
      allowed_files = [];
    };
    {
      id = "R12";
      severity = Error;
      summary =
        "mutable state escapes into a domain-pool closure; use Atomic, DLS, \
         a mutex, or per-slot writes";
      rationale =
        "A closure handed to Pool.submit/map/post or Domain.spawn runs on \
         another domain; any mutable location it shares with the submitter \
         or a sibling — a captured ref, a mutable record field, an array, a \
         Hashtbl/Buffer/Queue — is an unsynchronised data race that can \
         make the parallel schedule observable and break the --jobs \
         invariance. Safe sinks: Atomic.t operations, regions guarded by \
         Mutex.protect/lock...unlock, Domain.DLS-routed state, and per-slot \
         array writes at the job's own index. Generalises retired rule R11, \
         which only saw toplevel mutable state through the call graph.";
      example =
        "let sweep xs =\n\
        \  let tally = Hashtbl.create 16 in\n\
        \  Pool.map ~jobs:4 (fun x -> Hashtbl.replace tally x x) xs";
      matcher = Typed Race_escape;
      allowed_files = [];
    };
    {
      id = "R13";
      severity = Error;
      summary =
        "Atomic.t cell replaced by a plain write; mutate through the cell \
         instead";
      rationale =
        "An Atomic.t reached by both Atomic operations and a plain \
         re-assignment (field <- Atomic.make ..., ref := Atomic.make ...) \
         has two unsynchronised identities: a domain holding the old cell \
         keeps reading and writing it after the replacement. Mutate through \
         Atomic.set/exchange on the existing cell.";
      example =
        "type s = { mutable c : int Atomic.t }\n\
         let reset s = s.c <- Atomic.make 0";
      matcher = Typed Atomic_mixed;
      allowed_files = [];
    };
    {
      id = "R14";
      severity = Error;
      summary = "mutex not released on every path, or re-acquired in a callee";
      rationale =
        "A Mutex.lock with no unlock on some path (an exception, an early \
         return) leaves the lock held forever; wrap the critical section in \
         Mutex.protect or Fun.protect ~finally. And OCaml mutexes are not \
         reentrant: re-acquiring a mutex the caller already holds — \
         directly or through the call graph — is a self-deadlock. The \
         finding carries the call chain as evidence.";
      example =
        "let m = Mutex.create ()\n\
         let leak () = Mutex.lock m; compute ()  (* no unlock *)";
      matcher = Typed Lock_discipline;
      allowed_files = [];
    };
    {
      id = "R15";
      severity = Error;
      summary =
        "Domain.DLS state touched outside pool-worker-reachable code";
      rationale =
        "Domain.DLS gives each domain its own copy; the per-run counters \
         rely on that to keep parallel sweeps isolated. DLS state read or \
         written from code the domain pool can never reach lives only on \
         the main domain — the 'domain-local' value degenerates to a plain \
         global, defeating the isolation it was supposed to buy. (The rule \
         is silent when the linted tree spawns no domains at all.)";
      example =
        "let k = Domain.DLS.new_key (fun () -> ref 0)\n\
         let peek () = !(Domain.DLS.get k)  (* never runs under the pool *)";
      matcher = Typed Dls_misuse;
      allowed_files = [];
    };
    {
      id = "R16";
      severity = Error;
      summary = "boxed-float traffic in a hot function";
      rationale =
        "OCaml boxes every float that leaves flat storage: a float ref, a \
         float tuple or option component, a variant payload, and any float \
         field of a mixed (non-all-float) record each cost one heap \
         allocation per write. On the hot paths — the event heap, the clock \
         arithmetic, per-message dispatch — that box is paid per simulated \
         event. Keep hot floats in flat float arrays, all-float records, or \
         plain immediates (integer nanoseconds).";
      example =
        "let[@ncc.hot] step t dt =\n  let acc = ref 0.0 in\n  acc := !acc +. dt;\n  (t, !acc)  (* float ref + float tuple: two boxes per call *)";
      matcher = Typed Boxed_float;
      allowed_files = [];
    };
    {
      id = "R17";
      severity = Error;
      summary = "per-call allocation in a hot function";
      rationale =
        "A hot function runs once per simulated event or message; any \
         allocation in it multiplies by the event count. The rule flags the \
         recurrent shapes: a closure literal built inside a hot loop or \
         handed to a scheduling sink (Engine.schedule, Pool.submit), tuple \
         / Some / :: construction on the dispatch path, and Printf/Format/ \
         string building. The finding names the allocating expression and \
         its hot entry point. Inherent allocations (a delivery thunk that \
         *is* the event) carry a reasoned waiver.";
      example =
        "let[@ncc.hot] pop t =\n  Some (t.prio, t.payload)  (* option + tuple per event *)";
      matcher = Typed Hot_alloc;
      allowed_files = [];
    };
    {
      id = "R18";
      severity = Error;
      summary = "allocation in a function transitively reachable from a hot \
                 entry";
      rationale =
        "Hotness is contagious: a helper three calls below Engine.run runs \
         just as often as Engine.run. The analysis propagates hotness over \
         the same call graph R9 and R12 use and fires R18 — with the \
         deterministic BFS chain from the hot entry as evidence — for any \
         R16/R17-class site in a function that is only transitively hot, \
         so the [@ncc.hot] annotations and the seed registry stay sparse. \
         Waive at the allocation site, or break the edge.";
      example =
        "let helper x = Some x  (* not annotated *)\nlet[@ncc.hot] entry x = helper x  (* chain: entry -> helper *)";
      matcher = Typed Hot_propagation;
      allowed_files = [];
    };
    {
      id = "R19";
      severity = Error;
      summary = "dangling [@ncc.hot] annotation";
      rationale =
        "A hot annotation is a claim the analysis acts on; a stale one \
         silently widens or misdirects the checked region. R19 fires on \
         [@ncc.hot] attached to a non-function binding (nothing to \
         propagate from) and on an annotated function that nothing in the \
         linted tree references and no seed names — dead code carrying a \
         hot claim. The companion check, unused [allow R16-R18] waivers, \
         surfaces through the standard pragma machinery.";
      example = "let[@ncc.hot] tuning = 0.99  (* a constant is never hot *)";
      matcher = Typed Hot_hygiene;
      allowed_files = [];
    };
  ]

(* Retired rule ids, mapped onto the rule that absorbed them. R11
   (toplevel mutable state reachable from a pool closure through the
   call graph) is a strict subset of R12's escape analysis: existing
   [allow R11] waivers keep working, [--rules R11] selects R12. *)
let aliases = [ ("R11", "R12") ]

let canon_id id =
  match List.assoc_opt id aliases with Some id' -> id' | None -> id

let find id = List.find_opt (fun r -> r.id = canon_id id) all

let known_ids = List.map (fun r -> r.id) all @ List.map fst aliases

(* --- registries the typed rules key on (data, like the rule table) --- *)

(* R7: the polymorphic functions whose instantiation type is checked.
   Paths are matched after normalisation (module aliases such as
   [Stdlib__List] canonicalised, a leading [Stdlib.] stripped). *)
let poly_compare_fns =
  [ "="; "<>"; "compare"; "Hashtbl.hash"; "List.mem"; "List.assoc";
    "List.mem_assoc" ]

(* R7: nominal types owned by a module that exports the comparator to
   use instead. Matched by path suffix, so both [Kernel.Ts.t] and a
   locally defined [Ts.t] hit the first entry. *)
let owned_types =
  [
    ("Ts.t", "Ts.equal / Ts.compare");
    ("Types.node_id", "Int.equal");
    ("Types.key", "Int.equal");
  ]

(* R7: containers whose structural comparison depends on hashing /
   internal layout rather than contents. *)
let hash_containers = [ "Hashtbl.t"; "Detmap.t" ]

(* R8: functions returning raw simulated-time floats (seconds).
   Ordering a direct read against a float is flagged; the integer
   nanosecond path (Clock.read_ns) and pre-computed deadlines are not. *)
let time_sources = [ "Sim.Engine.now"; "Engine.now"; "Sim.Clock.read"; "Clock.read" ]

(* R9: Protocol.S entry points (plus the bare [handle] convention used
   by the concrete server/client/replica modules). Only definitions in
   files under these roots count as entry points. *)
let entry_points =
  [ "server_handle"; "client_handle"; "replica_handle"; "submit"; "cancel";
    "handle" ]

let entry_roots = [ "lib/" ]

(* R9: ambient I/O — reads of or writes to the process's real
   environment. Named after normalisation, like [poly_compare_fns]. *)
let io_fns =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "read_line"; "read_int";
    "input_line"; "input_char"; "output_string"; "output_value";
    "open_in"; "open_in_bin"; "open_out"; "open_out_bin";
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "Sys.command"; "Sys.getenv"; "Sys.getenv_opt"; "Sys.argv";
  ]

(* R9/R12: functions that mutate their first argument in place;
   applying one to a module-global value is an ambient top-level
   mutation, applying one to a location captured by a pool closure is
   an escape. *)
let mutator_fns =
  [
    ":="; "incr"; "decr";
    "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear";
    "Buffer.add_string"; "Buffer.add_char"; "Buffer.clear"; "Buffer.reset";
    "Queue.add"; "Queue.push"; "Queue.pop"; "Queue.take"; "Queue.clear";
    "Stack.push"; "Stack.pop"; "Stack.clear";
    "Array.set"; "Array.fill"; "Array.blit"; "Array.unsafe_set";
    "Bytes.set"; "Bytes.fill"; "Bytes.blit";
  ]

(* R12: reading a shared container from another domain races with any
   concurrent writer, so reads of captured containers are escapes too.
   (Array.length is not here: the header word is immutable.) *)
let container_read_fns =
  [
    "!";
    "Hashtbl.find"; "Hashtbl.find_opt"; "Hashtbl.find_all"; "Hashtbl.mem";
    "Hashtbl.length";
    "Buffer.contents"; "Buffer.length"; "Buffer.nth";
    "Queue.peek"; "Queue.peek_opt"; "Queue.top"; "Queue.is_empty";
    "Queue.length";
    "Stack.top"; "Stack.is_empty"; "Stack.length";
    "Array.get"; "Array.unsafe_get"; "Bytes.get";
  ]

(* R9 effect categories map onto the per-file allowlists of the
   syntactic rule that polices the same thing directly: Sim.Rng may
   touch Random (R1); R5 exempts no file, so no mutation is allowed. *)
let effect_allowed_files = function
  | `Random -> (match find "R1" with Some r -> r.allowed_files | None -> [])
  | `Mutation -> (match find "R5" with Some r -> r.allowed_files | None -> [])
  | `Clock | `Io -> []

(* R10: variant types with this name are protocol message types. *)
let msg_type_name = "msg"

(* R12/R15: entry points that hand a closure to another domain.
   Matched by whole-component path suffix, like [poly_compare_fns].
   A binding that references one of these is a *spawn node*: the
   closures it passes run off the submitting domain, so everything
   they capture is subject to the escape analysis, and the set of
   functions reachable from spawn nodes is the "pool-worker-reachable"
   region R15 checks DLS uses against. *)
let spawn_fns = [ "Pool.submit"; "Pool.map"; "Pool.post"; "Domain.spawn" ]

(* Retired R11 keyed on the submit/map subset; kept as an alias so the
   registry name stays meaningful in older waiver reasons and docs. *)
let pool_submit_fns = spawn_fns

(* R12: wrappers that run their function argument with a lock held —
   accesses inside the argument count as mutex-guarded. [Fun.protect]
   is here for its ~finally cleanup idiom around manual lock/unlock. *)
let guard_fns = [ "Mutex.protect"; "Fun.protect"; "Locks.with_lock" ]

(* R12: index expressions derived from these are per-slot: an array
   write at such an index touches a slot no sibling job touches
   (the pool's submission-order merge idiom). *)
let slot_index_sources = [ "Atomic.fetch_and_add" ]

(* R15: touching a DLS value (creating a key is fine anywhere). *)
let dls_fns = [ "Domain.DLS.get"; "Domain.DLS.set" ]

(* R16-R19: the attribute that marks a declaration hot ([@ncc.hot]);
   the Hotpaths module holds the seed list of always-hot entry points. *)
let hot_attribute = "ncc.hot"

(* R16/R17 cold regions: matching an option of one of these types is
   the observability plane's attached-recorder test; the Some branch
   runs only in traced runs. Matched by type-path suffix. *)
let cold_option_types = [ "Recorder.t" ]

(* R17: string building — each call allocates at least the result. *)
let string_build_fns =
  [
    "Printf.sprintf"; "Printf.ksprintf"; "Format.sprintf"; "Format.asprintf";
    "Format.kasprintf"; "String.concat"; "String.make"; "String.init";
    "Bytes.to_string"; "^";
  ]

(* R17: sinks whose closure argument is allocated per call — handing a
   function literal to one of these in a hot function builds a fresh
   closure every time (the spawn entry points, plus the event
   scheduler). Matched by whole-component suffix. *)
let closure_sink_fns =
  spawn_fns
  @ [ "Sim.Engine.schedule"; "Engine.schedule"; "Sim.Engine.schedule_at";
      "Engine.schedule_at" ]
