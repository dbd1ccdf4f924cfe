(* The race plane: rules R12-R15 over the typedtree — field-sensitive
   mutable-state escape analysis for domain-parallel code (R12), mixed
   Atomic/plain discipline (R13), lock discipline (R14), DLS misuse
   (R15). A per-node visitor over Cmt_graph; findings go through
   Cmt_graph.emit, so the waiver and reporter machinery applies
   unchanged. R12's call-graph findings and R14's double-acquire
   findings carry the BFS chain as evidence.

   The analyses are whole-program over the declared unit set (R12's
   call graph and R15's worker-reachable region span units); lint the
   full tree. Typed_engine.lint_units runs this plane whenever one of
   [rules] is selected. *)

val rules : string list

(* Scan every binding body, then report R12-R15 into the graph's
   findings; consumed [allow R12] effect-site waivers are recorded. *)
val visit : Cmt_graph.t -> unit
