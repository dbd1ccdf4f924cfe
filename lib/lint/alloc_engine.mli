(* The allocation plane: R16 (boxed-float traffic), R17 (per-call
   allocation), R18 (hotness propagation with BFS chain evidence) and
   R19 (hot-annotation hygiene) over typed cmt units. Hot entries come
   from the Hotpaths seed registry plus [@ncc.hot] attributes; see the
   implementation header and docs/performance.md for the site classes
   and the cold-region exemptions. *)

val rules : string list

(* Scan every binding body and report R16-R19 into the graph's
   findings (hotness propagates across unit boundaries). Every finding
   anchors on a real source line, so waivers are applied later by
   Engine.lint_source. Typed_engine.lint_units runs this plane
   whenever one of [rules] is selected. *)
val visit : Cmt_graph.t -> unit
