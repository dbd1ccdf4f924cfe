(* A work-stealing domain pool for independent simulation jobs.

   A sweep (figure curve, chaos seed matrix, bench suite) is a batch of
   fully self-contained jobs: each one builds its own Sim.Engine, Rng,
   topology, net and store inside the closure, and every piece of
   ambient per-run state (txn ids, version ids) is
   domain-local and reset at the start of Runner.run. That isolation is
   what makes the parallel schedule invisible: a job computes the same
   result whichever domain runs it and whenever it starts.

   Scheduling is a single atomic cursor over the job array — idle
   workers steal the next unclaimed index — so load imbalance
   (adversarial job durations) costs at most one job's tail, and no
   job order is ever imposed beyond "each job runs exactly once".
   Results are written into a slot unique to the job and read back in
   submission order after every worker has joined (the join is the
   happens-before edge), so callers observe canonical order no matter
   how the jobs interleaved.

   [jobs <= 1] short-circuits to plain sequential iteration on the
   calling domain: no domains are spawned, no atomics touched — the
   exact code path a non-pooled caller would have run. CI and golden
   outputs therefore cannot move unless a caller opts in with
   --jobs > 1, and when it does, outputs still cannot move because of
   the isolation + canonical merge argument above (audited statically
   by lint rule R12, the race plane's escape analysis: any mutable
   location — toplevel, captured local, or mutable field — reachable
   from a submitted closure is flagged unless it goes through Atomic,
   a held mutex, Domain.DLS, or a per-slot write at the job's index).

   Exceptions are confined to their job: a raising job records its
   exception in its own slot and the worker moves on, so one bad seed
   cannot poison its siblings. [map] re-raises the first failure (in
   submission order, not completion order) only after the whole batch
   has run. *)

let default_jobs () = 1

let cpu_count () = Domain.recommended_domain_count ()

(* Run every thunk exactly once; result list is in submission order. *)
let submit ~jobs tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let run_one f = match f () with v -> Ok v | exception e -> Error e in
  if n = 0 then []
  else if jobs <= 1 then Array.to_list (Array.map run_one arr)
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (run_one arr.(i));
        worker ()
      end
    in
    (* the calling domain is worker number [jobs]; spawn the rest *)
    let spawned = List.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end

let map ~jobs f xs =
  let results = submit ~jobs (List.map (fun x () -> f x) xs) in
  List.map (function Ok v -> v | Error e -> raise e) results

(* --- single background worker ----------------------------------------

   A one-domain FIFO consumer, for work that must stay ordered but
   should leave the producer's critical path — the streaming checker
   consuming a run's commit events is the canonical client. Posted
   closures run exactly once, in post order, on the worker domain;
   [shutdown] drains the queue and joins, which is the happens-before
   edge that lets the producer read whatever state the closures built.
   Because the consumer is single and the queue FIFO, the outcome is
   identical to running every closure inline: determinism is by
   construction, not by scheduling luck. *)

type worker = {
  q : (unit -> unit) Queue.t;
  m : Mutex.t;
  cv : Condition.t;
  stop : bool ref;
  dom : float Domain.t;   (* returns the minor words it allocated *)
  mutable joined : bool;  (* shutdown already ran (producer-side only) *)
  mutable words : float;  (* set by the join *)
}

let worker () =
  let q = Queue.create () in
  let m = Mutex.create () in
  let cv = Condition.create () in
  let stop = ref false in
  let rec loop () =
    Mutex.lock m;
    while Queue.is_empty q && not !stop do
      Condition.wait cv m
    done;
    if Queue.is_empty q then Mutex.unlock m
    else begin
      let f = Queue.pop q in
      Mutex.unlock m;
      f ();
      loop ()
    end
  in
  let run () =
    let w0 = Gc.minor_words () in
    loop ();
    Gc.minor_words () -. w0
  in
  { q; m; cv; stop; dom = Domain.spawn run; joined = false; words = 0.0 }

let post w f =
  Mutex.lock w.m;
  Queue.push f w.q;
  Condition.signal w.cv;
  Mutex.unlock w.m

(* Idempotent: the runner shuts the worker down in an exception-safe
   finally clause and again on the normal collection path (the join is
   the happens-before edge either way); only the first call joins. The
   flag is only touched by the producer domain, so no lock is needed
   around it. *)
let shutdown w =
  if not w.joined then begin
    w.joined <- true;
    Mutex.lock w.m;
    w.stop := true;
    Condition.signal w.cv;
    Mutex.unlock w.m;
    w.words <- Domain.join w.dom
  end

let minor_words w = w.words
