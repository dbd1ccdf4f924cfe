(** Work-stealing domain pool for independent simulation jobs.

    Jobs must be self-contained closures: they build their own
    simulation world (engine, rng, net, stores) and touch no shared
    mutable state — lint rule R12 audits submitted closures for
    escaping mutable state statically, and per-run ambient counters
    (txn ids, version ids) are domain-local. Under that
    contract, results are byte-identical to sequential execution for
    any [jobs]: slots are keyed by submission index and merged in
    canonical order after all workers join.

    See docs/performance.md for the full determinism argument. *)

(** Default parallelism when the caller gives none: 1, i.e. the plain
    sequential path. Parallelism is strictly opt-in. *)
val default_jobs : unit -> int

(** Domains the hardware can usefully run ([--jobs 0] resolves to
    this at the CLIs). *)
val cpu_count : unit -> int

(** [submit ~jobs tasks] runs every thunk exactly once — across
    [min jobs (length tasks)] domains when [jobs > 1], else
    sequentially on the calling domain — and returns per-job results
    in submission order. A raising job yields [Error] in its own slot
    and never disturbs its siblings. *)
val submit : jobs:int -> (unit -> 'a) list -> ('a, exn) result list

(** [map ~jobs f xs]: parallel [List.map] over [submit]. If any job
    raised, re-raises the submission-order-first exception after the
    whole batch has completed. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** A single background domain draining a FIFO queue of closures —
    ordered work off the producer's critical path (the streaming
    checker's async mode). Closures run exactly once, in post order;
    because the consumer is one domain and the queue FIFO, the result
    is identical to running them inline. Closures must capture only
    immutable data (scalars, immutable records) — never state the
    producer keeps mutating. *)
type worker

val worker : unit -> worker

(** Enqueue [f]; returns immediately. Must not be called after
    [shutdown]. *)
val post : worker -> (unit -> unit) -> unit

(** Drain the queue, stop and join the domain. The join is the
    happens-before edge: after [shutdown] returns, the producer may
    read anything the posted closures wrote. Idempotent — repeated
    calls (e.g. an exception-safe finally clause plus the normal
    collection path) are no-ops after the first. *)
val shutdown : worker -> unit

(** Minor-heap words the worker domain allocated ([Gc.minor_words]
    counts only the calling domain); 0 until [shutdown] has joined
    it. *)
val minor_words : worker -> float
