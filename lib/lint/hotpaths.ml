(* The hot-path seed registry for the allocation plane (R16-R19).

   Each entry is a node-key suffix (whole-component match, like the
   other registries): "Sim.Heap.push" matches the binding the sim
   library's Heap module declares under dune's mangled unit name.
   These are the functions ROADMAP item 1 names as the cluster-scale
   cost centres — the event queue and clock arithmetic, per-message
   network dispatch, the store's version lookup, and the streaming
   checker's feed path. They are hot whether or not anyone remembers
   to annotate them; [@ncc.hot] attributes extend this set for
   call-site-specific additions.

   Keep the list small and load-bearing: every seed is a BFS root for
   R18's hotness propagation, so a careless entry drags its whole
   callee cone into the checked region. *)

let seeds =
  [
    (* Sim.Engine: the event loop — runs once per simulated event. *)
    "Sim.Engine.run";
    "Sim.Engine.schedule";
    "Sim.Engine.schedule_at";
    (* Sim.Wheel: the event queue backing the loop. *)
    "Sim.Wheel.schedule";
    "Sim.Wheel.top_prio";
    "Sim.Wheel.pop_min";
    (* Sim.Heap: the wheel's same-tick and overflow queue. *)
    "Sim.Heap.push";
    "Sim.Heap.top_prio";
    "Sim.Heap.pop_min";
    (* Sim.Clock: per-read skewed-time arithmetic. *)
    "Sim.Clock.read";
    "Sim.Clock.read_ns";
    (* Cluster.Net: the per-message dispatch path. *)
    "Cluster.Net.send";
    "Cluster.Net.send_clean";
    "Cluster.Net.send_faulty";
    "Cluster.Net.deliver";
    "Cluster.Net.deliver_slot";
    "Cluster.Net.service";
    "Cluster.Net.complete_fast";
    "Cluster.Net.start_service";
    "Cluster.Net.finish_service";
    (* Mvstore.Store: version lookup, once per read/write. *)
    "Mvstore.Store.read";
    "Mvstore.Store.write";
    "Mvstore.Store.most_recent";
    "Mvstore.Store.most_recent_committed";
    "Mvstore.Store.version_at";
    (* Checker.Stream: the per-commit feed path. *)
    "Checker.Stream.observe_version";
    "Checker.Stream.observe_commit";
    (* Atlas.Diagram: the phase-diagram reduce loops — run once per
       (point x protocol) over every cell of a sweep, written as
       allocation-free tail recursions precisely so they can sit
       here. *)
    "Atlas.Diagram.sum_from";
    "Atlas.Diagram.mean";
    "Atlas.Diagram.winner_from";
    "Atlas.Diagram.winner_index";
  ]

(* Does a node key name a seeded hot entry? *)
let is_seed key = Paths.matches_any ~fns:seeds key
