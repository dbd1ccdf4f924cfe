(* The determinism rule set R1-R10 plus the race plane R12-R15 and the
   allocation plane R16-R19, encoded as data, plus the registries the
   typed rules key on. docs/determinism.md and docs/performance.md are
   the prose counterparts. *)

type severity = Error | Warn

(* Which typed (cmt-based) check a [Typed _] rule dispatches to; the
   parsetree engine ignores these. Typed_engine implements R7-R10,
   Race_engine implements R12-R15, Alloc_engine implements R16-R19. *)
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
  | Forbid_idents of string list
  | Toplevel_mutable
  | Wildcard_try
  | Typed of typed_check

type rule = {
  id : string;
  severity : severity;
  summary : string;
  rationale : string;  (* --explain: why the construct is forbidden *)
  example : string;  (* --explain: a minimal firing snippet *)
  matcher : matcher;
  allowed_files : string list;
      (* repo-relative paths exempt from the rule without a waiver *)
}

val severity_to_string : severity -> string

val all : rule list

(* Retired rule ids mapped onto the rule that absorbed them (currently
   R11 -> R12). [canon_id] resolves an alias to its live rule id and
   is the identity on everything else; [find] and waiver matching go
   through it, so old [--rules R11] invocations and [allow R11]
   pragmas keep working. *)
val aliases : (string * string) list
val canon_id : string -> string
val find : string -> rule option
val known_ids : string list  (* live ids plus alias names *)

(* R7: polymorphic functions whose instantiation type is checked, and
   what they must not be instantiated at. [owned_types] maps a type
   path suffix to the comparator to recommend. *)
val poly_compare_fns : string list
val owned_types : (string * string) list
val hash_containers : string list

(* R8: functions returning raw simulated-time floats. *)
val time_sources : string list

(* R9: Protocol.S handler entry points, the source roots in which a
   definition counts as an entry, the ambient-I/O and in-place-mutator
   function registries, and the per-category file allowlists (shared
   with the syntactic rules policing the same effect directly). *)
val entry_points : string list
val entry_roots : string list
val io_fns : string list
val mutator_fns : string list

(* R12: functions that read a shared container's contents (racy when
   the container is shared across domains with a concurrent writer). *)
val container_read_fns : string list

val effect_allowed_files :
  [ `Random | `Clock | `Io | `Mutation ] -> string list

(* R10: variant types with this name are protocol message types. *)
val msg_type_name : string

(* R12/R15: entry points that hand a closure to another domain; a
   binding referencing one is a spawn node, the root set of the
   pool-worker-reachable region. [pool_submit_fns] is the retired
   R11-era name for the same registry. *)
val spawn_fns : string list
val pool_submit_fns : string list

(* R12: wrappers that run their function argument with a lock held /
   with guaranteed cleanup. *)
val guard_fns : string list

(* R12: functions whose result is a per-slot index; an array write
   indexed by a value bound to one of these touches a slot no sibling
   job touches. *)
val slot_index_sources : string list

(* R15: the DLS access points (creating a key is fine anywhere). *)
val dls_fns : string list

(* R16-R19: the attribute name marking a declaration hot ([@ncc.hot];
   the Hotpaths module holds the seed list of always-hot entries). *)
val hot_attribute : string

(* R16/R17 cold regions: option types whose match is the
   attached-recorder test of the observability plane. *)
val cold_option_types : string list

(* R17: string-building functions (each call allocates the result). *)
val string_build_fns : string list

(* R17: sinks whose function-literal argument is a fresh closure per
   call (spawn entry points plus the event scheduler). *)
val closure_sink_fns : string list
