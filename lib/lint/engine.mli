(* The syntactic (parsetree) analysis engine for R1-R6, and the
   waiver-application pass shared with the typed engine: findings from
   both layers funnel through [lint_source], which subtracts pragma
   waivers and reports unused or malformed ones. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : Rules.severity;
  message : string;
  chain : string list;
      (* evidence trail for interprocedural findings (R9): the call
         chain from the entry point to the effect site; [] for
         single-site findings *)
}

val compare_findings : finding -> finding -> int

(* Lint one compilation unit: run the syntactic rules (restricted to
   the ids in [only] when given), merge the typed-engine findings for
   this file ([typed]), and apply waivers to the union. [used_sites]
   names pragma lines the typed engine already consumed (R9
   effect-site waivers), so they are not flagged as unused. [file] is
   matched against allowlists and reported as {!Paths.norm_fname}
   gives it. *)
val lint_source :
  ?typed:finding list ->
  ?only:string list ->
  ?used_sites:int list ->
  file:string ->
  string ->
  finding list

val lint_file :
  ?typed:finding list ->
  ?only:string list ->
  ?used_sites:int list ->
  string ->
  finding list

val errors : finding list -> finding list
