(* The type-aware analysis engine: rules R7-R10 over the compiler's
   typedtree, loaded from the .cmt files dune produces, and the entry
   point of every typed plane. [lint_units] declares the units once
   (Cmt_graph) and runs each plane one of whose rules is selected:
   this module's R7-R10, the race plane R12-R15 (Race_engine) and the
   allocation plane R16-R19 (Alloc_engine). Findings are
   Engine.finding values so the waiver and reporter machinery applies
   unchanged; R9/R12/R14/R18 findings carry the call chain to the
   effect site in [Engine.finding.chain].

   The analyses are whole-program over the loaded unit set: R9 and the
   race plane build a cross-module call graph, R10 tallies [msg]
   constructor uses everywhere. Lint the full tree, or expect noise. *)

(* Analyse a set of units (every typed plane). Returns the findings
   (sorted) and the effect-site waiver pragmas R9/R12 consumed, as
   (file, pragma line) pairs — pass these to
   [Engine.lint_source ~used_sites] so they are not reported as
   unused. [only] restricts to the given rule ids (aliases resolved:
   "R11" selects R12); a plane none of whose rules is selected does
   not run. *)
val lint_units :
  ?only:string list ->
  Cmt_graph.unit_info list ->
  Engine.finding list * (string * int) list

(* Load the given .cmt files (Cmt_graph.load_units) and analyse them;
   unreadable ones surface as findings with pseudo-rule "cmt". *)
val lint_cmts :
  ?only:string list -> string list -> Engine.finding list * (string * int) list
