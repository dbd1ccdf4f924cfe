(* The call-graph core of the typed analysis planes (Typed_engine's
   R7-R10, Race_engine's R12-R15, Alloc_engine's R16-R19): the unit
   record and its loaders, the declaration pass, canonical node keys
   with module-alias resolution, the deterministic BFS with parent
   chains, and the one findings sink every plane emits into. *)

type unit_info = {
  u_name : string;  (* canonical module path, e.g. "Ncc.Server" *)
  u_file : string;  (* repo-relative source path *)
  u_str : Typedtree.structure;
  u_source : string option;  (* for effect-site waivers *)
}

(* Per-unit name resolution. *)
type ctx = {
  c_file : string;
  c_paths : (string, string list) Hashtbl.t;
      (* local module (and plane-registered type) idents, by
         Ident.unique_name -> canonical components *)
  c_values : (string, string) Hashtbl.t;
      (* unit-toplevel value idents (by Ident.unique_name) -> node key *)
  c_pragmas : Pragma.t list;  (* waivers in this unit's source *)
}

(* A top-level value binding, named by its canonical key. *)
type node = {
  n_key : string;  (* e.g. "Ncc.Server.handle" *)
  n_name : string;  (* last component, for entry-point matching *)
  n_file : string;
  n_line : int;
  n_col : int;
  n_vb : Typedtree.value_binding;  (* the binding that declared it *)
}

(* The declared graph, plus the findings sink every plane emits into. *)
type t

(* The declaration pass, once per unit: pragma scan, node keys, module
   aliases ([module S = M.S] resolves to M.S), binding bodies.
   [on_type] sees every type declaration with its module path. [only]
   must already be canonicalised (Rules.canon_id). *)
val build :
  ?only:string list ->
  ?on_type:(ctx -> prefix:string list -> Typedtree.type_declaration -> unit) ->
  unit_info list ->
  t

(* Every node, sorted by key. *)
val nodes : t -> node list

(* The per-node visitor pass: give every node a fresh payload
   ([make ()]), then hand each binding body, in source order, to
   [visit] with its node's payload ([None] for loose module-init
   code). Returns the payloads by node key. *)
val walk :
  t ->
  make:(unit -> 'p) ->
  (ctx -> 'p option -> Typedtree.expression -> unit) ->
  (string, 'p) Hashtbl.t

(* --- names ------------------------------------------------------------- *)

(* A path's canonical spelling ("Ncc.Server.handle"), through the
   unit's local modules and aliases. *)
val canon_path : ctx -> Path.t -> string

(* The node key a value path names, if it is a global (a dotted path,
   or a unit-toplevel ident). *)
val value_key : ctx -> Path.t -> string option

(* [value_key] of an identifier expression. *)
val global_ident : ctx -> Typedtree.expression -> string option

(* --- typedtree helpers ------------------------------------------------- *)

(* The function path at the head of an application chain. *)
val head_path : Typedtree.expression -> Path.t option

(* [head_path], canonical and Stdlib-stripped. *)
val head_name : ctx -> Typedtree.expression -> string option

val positional_args :
  (Asttypes.arg_label * Typedtree.expression option) list ->
  Typedtree.expression list

val is_arrow : Types.type_expr -> bool
val first_param : Types.type_expr -> Types.type_expr option
val is_float : Types.type_expr -> bool

(* The variables a pattern binds (vars, aliases, through tuples and
   constructors), with each binder's location. *)
val pattern_idents :
  'k Typedtree.general_pattern -> (Ident.t * Location.t) list

(* --- findings ---------------------------------------------------------- *)

val rule_active : t -> string -> bool

(* Record a finding at [loc] unless its file is allowlisted for the
   rule; an identical finding is recorded once. *)
val emit :
  t -> ?chain:string list -> rule:string -> loc:Location.t -> string -> unit

(* An effect of a category at a location counts unless its file is
   allowlisted for the category or an effect-site waiver (an
   [allow rule] pragma on the effect's line) covers it; a covering
   pragma is recorded as consumed. Returns the site's (file, line)
   when the effect counts. *)
val effect_site :
  t ->
  ctx ->
  rule:string ->
  [ `Random | `Clock | `Io | `Mutation ] ->
  Location.t ->
  (string * int) option

(* Sorted findings and consumed effect-site waivers. *)
val results : t -> Engine.finding list * (string * int) list

(* --- graph walks ------------------------------------------------------- *)

(* Deterministic BFS from a node key over a plane's edges ([refs key],
   sorted; keys that name no node are not followed). Returns the
   reached keys in visit order, start first, and the parent chain
   (start ... key) to any reached key. *)
val bfs :
  t ->
  refs:(string -> string list) ->
  string ->
  string list * (string -> string list)

(* Protocol.S handler entry points (Rules.entry_points under
   Rules.entry_roots). *)
val is_entry : node -> bool

(* A synthetic location at a node's definition site. *)
val node_loc : node -> Location.t

(* --- loading units ----------------------------------------------------- *)

(* Load the given .cmt files without analysing them (interface-only
   ones and dune's generated library-wrapper shims are skipped; the
   first unit of each name wins). Unreadable paths surface as "cmt"
   pseudo-rule findings in the second component. *)
val load_units : string list -> unit_info list * Engine.finding list

(* Typecheck one implementation against the compiler's initial
   environment (stdlib only) and wrap it as a unit — how the fixture
   tests exercise the typed planes without a build tree. *)
val check_impl : file:string -> string -> (unit_info, string) result
