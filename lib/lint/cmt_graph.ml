(* The call-graph core shared by the typed analysis planes: the typed
   plane R7-R10 (Typed_engine), the race plane R12-R15 (Race_engine)
   and the allocation plane R16-R19 (Alloc_engine).

   [build] runs the declaration pass once per unit: it scans the
   unit's waiver pragmas, names every top-level value binding by a
   canonical node key ("Ncc.Server.handle"; dune's module mangling
   undone by Paths), resolves module aliases ([module S = M.S] maps S
   to M.S's components, so references through the alias reach the
   target's nodes), and records each top-level binding's node and
   body in source order. A plane is then a per-node visitor ([walk])
   that keeps its own payload and its own edge semantics, plus a
   report pass over the graph with the deterministic [bfs]. Every
   plane reports through one [emit] and one effect-site waiver check,
   [site_waived]. *)

type unit_info = {
  u_name : string;  (* canonical module path, e.g. "Ncc.Server" *)
  u_file : string;  (* repo-relative source path *)
  u_str : Typedtree.structure;
  u_source : string option;  (* for effect-site waivers *)
}

type ctx = {
  c_file : string;
  c_paths : (string, string list) Hashtbl.t;
      (* local module (and plane-registered type) idents, by
         Ident.unique_name -> canonical components *)
  c_values : (string, string) Hashtbl.t;
      (* unit-toplevel value idents (by Ident.unique_name) -> node key *)
  c_pragmas : Pragma.t list;  (* waivers in this unit's source *)
}

type node = {
  n_key : string;
  n_name : string;  (* last component, for entry-point matching *)
  n_file : string;
  n_line : int;
  n_col : int;
  n_vb : Typedtree.value_binding;  (* the binding that declared it *)
}

type t = {
  table : (string, node) Hashtbl.t;  (* node key -> node *)
  sorted : node list;  (* by key *)
  bodies : (ctx * node option * Typedtree.expression) list;
      (* top-level binding bodies in source order; [None] for loose
         module-init code *)
  only : string list option;  (* canonicalised rule filter *)
  emitted : (Engine.finding, unit) Hashtbl.t;
  mutable findings : Engine.finding list;
  mutable used : (string * int) list;  (* consumed effect-site waivers *)
}

(* --- canonical paths --------------------------------------------------- *)

let canon_parts ctx (p : Path.t) =
  let rec go = function
    | Path.Pident id -> (
      match Hashtbl.find_opt ctx.c_paths (Ident.unique_name id) with
      | Some parts -> parts
      | None -> Paths.canon_head (Ident.name id))
    | Path.Pdot (p, s) -> go p @ [ s ]
    | Path.Papply (a, _) -> go a
    | Path.Pextra_ty (p, _) -> go p
  in
  go p

let canon_path ctx p = String.concat "." (canon_parts ctx p)

(* The node key a value path names, if it is a global. *)
let value_key ctx (p : Path.t) =
  match p with
  | Path.Pdot _ -> Some (canon_path ctx p)
  | Path.Pident id -> Hashtbl.find_opt ctx.c_values (Ident.unique_name id)
  | _ -> None

let global_ident ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> value_key ctx p
  | _ -> None

(* --- small typedtree helpers ------------------------------------------- *)

let rec head_path (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | Typedtree.Texp_apply (f, _) -> head_path f
  | _ -> None

let head_name ctx e =
  match head_path e with
  | Some p -> Some (Paths.strip_stdlib (canon_path ctx p))
  | None -> None

let positional_args args =
  List.filter_map
    (function
      | Asttypes.Nolabel, Some (e : Typedtree.expression) -> Some e
      | _ -> None)
    args

let rec is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (t, _) -> is_arrow t
  | _ -> false

let rec first_param ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | Types.Tpoly (t, _) -> first_param t
  | _ -> None

let is_float ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

(* The variables a pattern binds, with each binder's location. *)
let rec pattern_idents :
    type k. k Typedtree.general_pattern -> (Ident.t * Location.t) list =
 fun p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, _) -> [ (id, p.pat_loc) ]
  | Typedtree.Tpat_alias (p', id, _) -> (id, p.pat_loc) :: pattern_idents p'
  | Typedtree.Tpat_tuple ps -> List.concat_map pattern_idents ps
  | Typedtree.Tpat_construct (_, _, ps, _) -> List.concat_map pattern_idents ps
  | _ -> []

(* --- the declaration pass ---------------------------------------------- *)

let pragmas_of = function
  | None -> []
  | Some src ->
    List.filter_map
      (function Pragma.Pragma p -> Some p | Pragma.Malformed _ -> None)
      (Pragma.scan src)

(* Declare every unit; [on_type] sees each type declaration with its
   enclosing module path (the typed plane's R10 hook). *)
let build ?only ?(on_type = fun _ ~prefix:_ _ -> ()) units =
  let nodes = Hashtbl.create 256 in
  let keys = ref [] in
  let bodies = ref [] in
  let register ctx ~prefix vb (id, (loc : Location.t)) =
    let name = Ident.name id in
    let key = String.concat "." (prefix @ [ name ]) in
    Hashtbl.replace ctx.c_values (Ident.unique_name id) key;
    if not (Hashtbl.mem nodes key) then begin
      let line, col = Paths.loc_pos loc in
      Hashtbl.replace nodes key
        {
          n_key = key;
          n_name = name;
          n_file = Paths.norm_fname loc.loc_start.Lexing.pos_fname;
          n_line = line;
          n_col = col;
          n_vb = vb;
        };
      keys := key :: !keys
    end
  in
  let bound_node ctx (vb : Typedtree.value_binding) =
    let id =
      match vb.vb_pat.pat_desc with
      | Typedtree.Tpat_var (id, _) | Typedtree.Tpat_alias (_, id, _) -> Some id
      | _ -> None
    in
    Option.bind id (fun id ->
        Option.bind
          (Hashtbl.find_opt ctx.c_values (Ident.unique_name id))
          (Hashtbl.find_opt nodes))
  in
  let rec declare_items ctx ~prefix items =
    List.iter (declare_item ctx ~prefix) items
  and declare_item ctx ~prefix (item : Typedtree.structure_item) =
    match item.str_desc with
    | Typedtree.Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          List.iter (register ctx ~prefix vb) (pattern_idents vb.vb_pat);
          bodies := (ctx, bound_node ctx vb, vb.vb_expr) :: !bodies)
        vbs
    | Typedtree.Tstr_eval (e, _) -> bodies := (ctx, None, e) :: !bodies
    | Typedtree.Tstr_type (_, decls) -> List.iter (on_type ctx ~prefix) decls
    | Typedtree.Tstr_module mb -> declare_module ctx ~prefix mb
    | Typedtree.Tstr_recmodule mbs -> List.iter (declare_module ctx ~prefix) mbs
    | _ -> ()
  and declare_module ctx ~prefix (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | None -> ()
    | Some id ->
      let rec structure_of (me : Typedtree.module_expr) =
        match me.mod_desc with
        | Typedtree.Tmod_structure str -> Some str
        | Typedtree.Tmod_constraint (me', _, _, _) -> structure_of me'
        | _ -> None
      in
      let rec alias_of (me : Typedtree.module_expr) =
        match me.mod_desc with
        | Typedtree.Tmod_ident (p, _) -> Some (canon_parts ctx p)
        | Typedtree.Tmod_constraint (me', _, _, _) -> alias_of me'
        | _ -> None
      in
      let own = prefix @ [ Ident.name id ] in
      (match structure_of mb.mb_expr with
       | Some str ->
         Hashtbl.replace ctx.c_paths (Ident.unique_name id) own;
         declare_items ctx ~prefix:own str.str_items
       | None ->
         (* [module Store = Mvstore.Store]: references through the
            alias must resolve to the target's nodes, or every call
            graph stops at each aliased module boundary. *)
         Hashtbl.replace ctx.c_paths (Ident.unique_name id)
           (Option.value (alias_of mb.mb_expr) ~default:own))
  in
  List.iter
    (fun u ->
      let ctx =
        {
          c_file = u.u_file;
          c_paths = Hashtbl.create 32;
          c_values = Hashtbl.create 64;
          c_pragmas = pragmas_of u.u_source;
        }
      in
      declare_items ctx ~prefix:(Paths.split_mangled u.u_name)
        u.u_str.str_items)
    units;
  {
    table = nodes;
    sorted =
      List.map (Hashtbl.find nodes) (List.sort String.compare !keys);
    bodies = List.rev !bodies;
    only;
    emitted = Hashtbl.create 64;
    findings = [];
    used = [];
  }

let nodes g = g.sorted

(* Give every node a fresh plane payload, then hand each binding body
   to [visit] with its node's payload ([None] for module-init code). *)
let walk g ~make visit =
  let tbl = Hashtbl.create (Hashtbl.length g.table) in
  List.iter (fun n -> Hashtbl.replace tbl n.n_key (make ())) g.sorted;
  List.iter
    (fun (ctx, node, expr) ->
      visit ctx (Option.map (fun n -> Hashtbl.find tbl n.n_key) node) expr)
    g.bodies;
  tbl

(* --- findings and waivers ---------------------------------------------- *)

let rule_active g id =
  match g.only with None -> true | Some ids -> List.mem id ids

let emit g ?(chain = []) ~rule ~(loc : Location.t) message =
  match Rules.find rule with
  | None -> ()
  | Some r ->
    let file = Paths.norm_fname loc.loc_start.Lexing.pos_fname in
    if not (List.mem file r.allowed_files) then begin
      let line, col = Paths.loc_pos loc in
      let f =
        { Engine.file; line; col; rule; severity = r.severity; message; chain }
      in
      if not (Hashtbl.mem g.emitted f) then begin
        Hashtbl.replace g.emitted f ();
        g.findings <- f :: g.findings
      end
    end

(* An effect-site waiver (an [allow <rule>] pragma on the effect's
   line) removes the effect from the graph, silencing every chain that
   reaches it; the pragma is recorded as used. *)
let site_waived g ctx ~rule line =
  match
    List.find_opt (fun p -> Pragma.covers p ~rule ~line) ctx.c_pragmas
  with
  | Some p ->
    let site = (ctx.c_file, p.Pragma.line) in
    if not (List.mem site g.used) then g.used <- site :: g.used;
    true
  | None -> false

(* An effect of category [cat] at [loc] counts unless its file is
   allowlisted for the category or a [rule] waiver covers the site;
   returns the site's (file, line) when it counts. *)
let effect_site g ctx ~rule cat (loc : Location.t) =
  let file = Paths.norm_fname loc.loc_start.Lexing.pos_fname in
  if List.mem file (Rules.effect_allowed_files cat) then None
  else
    let line, _ = Paths.loc_pos loc in
    if site_waived g ctx ~rule line then None else Some (file, line)

let results g =
  (List.sort Engine.compare_findings g.findings, g.used)

(* --- graph walks ------------------------------------------------------- *)

(* Deterministic BFS from [start] over a plane's edges ([refs key],
   sorted; only keys naming nodes are followed). Returns the reached
   keys in visit order (start first) and the parent chain to any of
   them. *)
let bfs g ~refs start =
  let parent = Hashtbl.create 64 in
  let seen = Hashtbl.create 64 in
  Hashtbl.replace seen start ();
  let order = ref [ start ] in
  let q = Queue.create () in
  Queue.add start q;
  while not (Queue.is_empty q) do
    let key = Queue.pop q in
    List.iter
      (fun r ->
        if Hashtbl.mem g.table r && not (Hashtbl.mem seen r) then begin
          Hashtbl.replace seen r ();
          Hashtbl.replace parent r key;
          order := r :: !order;
          Queue.add r q
        end)
      (List.sort String.compare (refs key))
  done;
  let chain_to key =
    let rec up key chain =
      match Hashtbl.find_opt parent key with
      | Some p -> up p (key :: chain)
      | None -> key :: chain
    in
    up key []
  in
  (List.rev !order, chain_to)

(* Protocol.S handler entry points: a handler-named binding under one
   of the entry roots. *)
let is_entry n =
  List.mem n.n_name Rules.entry_points
  && List.exists
       (fun root -> String.starts_with ~prefix:root n.n_file)
       Rules.entry_roots

(* A synthetic location at a node's definition site (graph findings
   anchor on the binding; the chain carries the effect's own
   file:line). *)
let node_loc n =
  let pos =
    { Lexing.pos_fname = n.n_file; pos_lnum = n.n_line; pos_bol = 0;
      pos_cnum = n.n_col }
  in
  { Location.loc_ghost = false; loc_start = pos; loc_end = pos }

(* --- loading units ----------------------------------------------------- *)

let unit_name_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let read_file path =
  match open_in_bin path with
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s
  | exception Sys_error _ -> None

let load_cmt path =
  match Cmt_format.read_cmt path with
  | exception exn -> Error (Printexc.to_string exn)
  | infos -> (
    match infos.cmt_annots with
    | Cmt_format.Implementation str ->
      let file =
        match infos.cmt_sourcefile with
        | Some f -> Paths.norm_fname f
        | None -> Paths.norm_fname path
      in
      if Filename.check_suffix file ".ml-gen" then Ok None
        (* dune-generated library-wrapper shims: alias lists, nothing
           to analyse *)
      else
        Ok
          (Some
             {
               u_name = String.concat "." (Paths.canon_head infos.cmt_modname);
               u_file = file;
               u_str = str;
               u_source = read_file file;
             })
    | _ -> Ok None)

let load_units paths =
  let errs = ref [] in
  let seen = Hashtbl.create 64 in
  let units =
    List.filter_map
      (fun p ->
        match load_cmt p with
        | Ok (Some u) ->
          if Hashtbl.mem seen u.u_name then None
          else begin
            Hashtbl.replace seen u.u_name ();
            Some u
          end
        | Ok None -> None
        | Error msg ->
          errs :=
            {
              Engine.file = Paths.norm_fname p;
              line = 1;
              col = 0;
              rule = "cmt";
              severity = Rules.Error;
              message = "cannot read cmt: " ^ msg;
              chain = [];
            }
            :: !errs;
          None)
      (List.sort String.compare paths)
  in
  (units, List.rev !errs)

(* Typecheck one implementation against the compiler's initial
   environment (stdlib only). This is how the fixture tests exercise
   the typed planes without writing .cmt files to disk: the same
   analysis runs on the freshly typed tree. *)
let check_impl ~file source =
  Clflags.dont_write_files := true;
  ignore (Warnings.parse_options false "-a");
  Compmisc.init_path ();
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  Location.input_name := file;
  match Parse.implementation lexbuf with
  | exception exn -> Error ("cannot parse: " ^ Printexc.to_string exn)
  | past -> (
    match Typemod.type_structure env past with
    | str, _, _, _, _ ->
      Ok
        {
          u_name = unit_name_of_file file;
          u_file = Paths.norm_fname file;
          u_str = str;
          u_source = Some source;
        }
    | exception exn -> Error ("cannot typecheck: " ^ Printexc.to_string exn))
