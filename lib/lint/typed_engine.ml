(* The type-aware analysis engine: rules R7-R10 over the compiler's
   typedtree. Where Engine works on the parsetree of one file (and is
   therefore blind to types and to anything cross-module), this engine
   loads the .cmt files dune produces (-bin-annot is on by default) via
   Cmt_format, walks them with Tast_iterator, and checks properties
   only the typechecker can see:

     R7  a polymorphic structural comparison ([=], [compare],
         [Hashtbl.hash], [List.mem], ...) instantiated at a type that
         needs its owning module's comparator (Rules.owned_types),
         or that contains floats, functions or hash-ordered
         containers;
     R8  float equality anywhere, and float ordering applied directly
         to a raw simulated-time read (Rules.time_sources);
     R9  a cross-module call graph over every loaded unit, each
         function's transitive ambient-effect footprint (randomness,
         wall clock, I/O, top-level mutation), and a finding — with
         the full call chain as evidence — for every path from a
         Protocol.S handler entry point to an effect;
     R10 liveness of protocol [msg] variant constructors: never built
         or never matched means a dead protocol message.

   The plane is a per-node visitor over Cmt_graph, the call-graph core
   it shares with the race plane R12-R15 (Race_engine) and the
   allocation plane R16-R19 (Alloc_engine). [lint_units] declares the
   units once and runs every plane one of whose rules is selected —
   one entry point serves all three. The retired rule R11 (toplevel
   mutable state reachable from pool closures) is an alias of R12.

   Findings are Engine.finding values, so the waiver pragmas and both
   reporters work unchanged. R9 additionally honours *effect-site*
   waivers: an [allow R9] pragma comment on the line that performs an
   audited effect (e.g. a reset-on-run global counter) removes that
   effect from the graph, which silences every chain reaching it —
   one waiver at the effect instead of one per handler.

   Known limitations (see docs/determinism.md): nominal types other
   than the registry entries are opaque (the engine does not expand
   type declarations, which would need a full environment); calls made
   through functor parameters, first-class-module fields or stored
   closures do not produce call-graph edges; [msg] liveness is
   computed over the loaded unit set, so lint the whole tree. *)

(* --- the plane's own state ---------------------------------------------- *)

type amb = {
  a_cat : [ `Random | `Clock | `Io | `Mutation ];
  a_desc : string;
  a_file : string;
  a_line : int;
}

(* Per-node facts: call-graph edges (every referenced global) and
   ambient effects. *)
type facts = { mutable refs : string list; mutable ambs : amb list }

type state = {
  built : (string, unit) Hashtbl.t;  (* "<type key>#<constructor>" *)
  matched : (string, unit) Hashtbl.t;
  mutable msgs : (string * (string * Location.t) list) list;
      (* msg type key -> constructors *)
}

(* --- type classification (R7) ----------------------------------------- *)

let show_type ty =
  match Format.asprintf "%a" Printtyp.type_expr ty with
  | s -> s
  | exception exn ->
    ignore exn;
    "<type>"

(* Does [ty] contain a component that makes structural comparison
   wrong? Returns what was found and the comparator to use instead.
   Named types outside the registry are not expanded (no environment);
   that opacity is documented. *)
let rec classify ?(depth = 0) ty =
  if depth > 8 then None
  else
    let recurse = classify ~depth:(depth + 1) in
    match Types.get_desc ty with
    | Types.Tarrow _ ->
      Some ("a function type", "an explicit key or id comparison")
    | Types.Ttuple ts -> List.find_map recurse ts
    | Types.Tpoly (t, _) -> recurse t
    | Types.Tconstr (p, args, _) ->
      let s = Paths.strip_stdlib (Paths.plain_path p) in
      if Path.same p Predef.path_float then
        Some ("float", "a tolerance, or the integer-nanosecond path")
      else if Paths.matches_any ~fns:Rules.hash_containers s then
        Some (s ^ " (hash-ordered container)", "comparing sorted bindings")
      else (
        match
          List.find_opt
            (fun (t, _) -> Paths.has_suffix ~suffix:t s)
            Rules.owned_types
        with
        | Some (t, hint) -> Some (t, hint)
        | None -> List.find_map recurse args)
    | _ -> None

(* --- declaration hook (R10) ------------------------------------------- *)

let register_type st (ctx : Cmt_graph.ctx) ~prefix
    (d : Typedtree.type_declaration) =
  if d.typ_name.txt = Rules.msg_type_name then begin
    let key = String.concat "." (prefix @ [ d.typ_name.txt ]) in
    Hashtbl.replace ctx.c_paths
      (Ident.unique_name d.typ_id)
      (prefix @ [ d.typ_name.txt ]);
    match d.typ_kind with
    | Typedtree.Ttype_variant cds ->
      let cstrs =
        List.map
          (fun (cd : Typedtree.constructor_declaration) ->
            (cd.cd_name.txt, cd.cd_loc))
          cds
      in
      st.msgs <- (key, cstrs) :: st.msgs
    | _ -> ()
  end

(* --- per-node visitor: uses, effects, edges ---------------------------- *)

let r1_prefixes =
  match Rules.find "R1" with
  | Some { matcher = Rules.Forbid_prefixes ps; _ } ->
    List.map Paths.strip_stdlib ps
  | _ -> [ "Random" ]

let r2_idents =
  match Rules.find "R2" with
  | Some { matcher = Rules.Forbid_idents ids; _ } ->
    List.map Paths.strip_stdlib ids
  | _ -> []

(* An audited effect carries an [allow R9] waiver on its own line,
   which removes it from the graph (Cmt_graph.effect_site). *)
let add_amb g ctx (facts : facts option) cat desc loc =
  match facts with
  | None -> ()
  | Some f -> (
    match Cmt_graph.effect_site g ctx ~rule:"R9" cat loc with
    | Some (file, line) ->
      f.ambs <-
        { a_cat = cat; a_desc = desc; a_file = file; a_line = line } :: f.ambs
    | None -> ())

let is_time_read e =
  match Cmt_graph.head_path e with
  | Some p ->
    Paths.matches_any ~fns:Rules.time_sources
      (Paths.strip_stdlib (Paths.plain_path p))
  | None -> false

let eq_fns = [ "="; "<>" ]
let ord_fns = [ "<"; "<="; ">"; ">="; "compare"; "min"; "max" ]

(* Walk one top-level binding's body (or loose module-init code),
   attributing call-graph edges and effects to [facts], and firing the
   local checks R7/R8 plus the R10 use tallies. *)
let collect g st ctx (facts : facts option) expr =
  let add_ref key =
    match facts with
    | Some f -> if not (List.mem key f.refs) then f.refs <- key :: f.refs
    | None -> ()
  in
  let check_ident (e : Typedtree.expression) p =
    let s = Paths.strip_stdlib (Paths.plain_path p) in
    (* R7: polymorphic comparison instantiated at a bad type. The
       ident's own type is the instantiation, so partial applications
       and higher-order uses (List.sort compare) are caught too. *)
    (if Cmt_graph.rule_active g "R7" && List.mem s Rules.poly_compare_fns then
       match Cmt_graph.first_param e.exp_type with
       | Some ty when not (List.mem s eq_fns && Cmt_graph.is_float ty) -> (
         match classify ty with
         | Some (what, hint) ->
           Cmt_graph.emit g ~rule:"R7" ~loc:e.exp_loc
             (Printf.sprintf
                "polymorphic %s at type %s involves %s; use %s" s
                (show_type ty) what hint)
         | None -> ())
       | _ -> ());
    (* R8: float equality (always wrong on simulated time; tolerance
       or integer nanoseconds instead). *)
    if Cmt_graph.rule_active g "R8" && List.mem s eq_fns then begin
      match Cmt_graph.first_param e.exp_type with
      | Some ty when Cmt_graph.is_float ty ->
        Cmt_graph.emit g ~rule:"R8" ~loc:e.exp_loc
          (Printf.sprintf
             "float %s: use a tolerance, or compare integer nanoseconds \
              (Clock.read_ns)" s)
      | _ -> ()
    end;
    (* R9 effect sources + call-graph edges. *)
    if List.exists (fun pre -> Paths.has_prefix ~prefix:pre s) r1_prefixes then
      add_amb g ctx facts `Random s e.exp_loc
    else if List.mem s r2_idents then add_amb g ctx facts `Clock s e.exp_loc
    else if List.mem s Rules.io_fns then add_amb g ctx facts `Io s e.exp_loc
    else Option.iter add_ref (Cmt_graph.value_key ctx p)
  in
  let check_apply (e : Typedtree.expression) f args =
    match f.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) ->
      let s = Paths.strip_stdlib (Paths.plain_path p) in
      (* R8: ordering a raw simulated-time read. *)
      (if Cmt_graph.rule_active g "R8" && List.mem s ord_fns then
         match Cmt_graph.first_param f.exp_type with
         | Some ty when Cmt_graph.is_float ty ->
           if
             List.exists
               (function _, Some a -> is_time_read a | _ -> false)
               args
           then
             Cmt_graph.emit g ~rule:"R8" ~loc:e.Typedtree.exp_loc
               (Printf.sprintf
                  "%s on a raw simulated-time float: compare a precomputed \
                   deadline, or integer nanoseconds (Clock.read_ns)" s)
         | _ -> ());
      (* R9: in-place mutation of a module-global value. *)
      if List.mem s Rules.mutator_fns then begin
        match
          List.find_map
            (function _, Some (a : Typedtree.expression) -> Some a | _ -> None)
            args
        with
        | Some a -> (
          match Cmt_graph.global_ident ctx a with
          | Some gl ->
            add_amb g ctx facts `Mutation
              (Printf.sprintf "%s on global %s" s gl)
              e.Typedtree.exp_loc
          | None -> ())
        | None -> ()
      end
    | _ -> ()
  in
  let cstr_key (cd : Types.constructor_description) =
    match Types.get_desc cd.cstr_res with
    | Types.Tconstr (p, _, _) ->
      let key = Cmt_graph.canon_path ctx p in
      if Paths.has_suffix ~suffix:Rules.msg_type_name key then
        Some (key ^ "#" ^ cd.cstr_name)
      else None
    | _ -> None
  in
  let expr_iter sub (e : Typedtree.expression) =
    (match e.exp_desc with
     | Typedtree.Texp_ident (p, _, _) -> check_ident e p
     | Typedtree.Texp_apply (f, args) -> check_apply e f args
     | Typedtree.Texp_construct (_, cd, _) ->
       Option.iter (fun k -> Hashtbl.replace st.built k ()) (cstr_key cd)
     | Typedtree.Texp_setfield (tgt, _, _, _) -> (
       match Cmt_graph.global_ident ctx tgt with
       | Some gl ->
         add_amb g ctx facts `Mutation
           ("field assignment on global " ^ gl)
           e.exp_loc
       | None -> ())
     | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let pat_iter : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit =
   fun sub p ->
    (match p.Typedtree.pat_desc with
     | Typedtree.Tpat_construct (_, cd, _, _) ->
       Option.iter (fun k -> Hashtbl.replace st.matched k ()) (cstr_key cd)
     | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let iter =
    { Tast_iterator.default_iterator with expr = expr_iter; pat = pat_iter }
  in
  iter.expr iter expr

(* --- the interprocedural pass (R9) ------------------------------------ *)

let cat_label = function
  | `Random -> "ambient randomness"
  | `Clock -> "the wall clock"
  | `Io -> "ambient I/O"
  | `Mutation -> "top-level mutable state"

(* Deterministic BFS from a handler: effects sorted per node, the
   first hit per category wins, parents give the chain. *)
let entry_chains g facts (entry : Cmt_graph.node) =
  let reach, chain_to =
    Cmt_graph.bfs g ~refs:(fun k -> (Hashtbl.find facts k).refs) entry.n_key
  in
  let hits =
    List.fold_left
      (fun hits key ->
        List.fold_left
          (fun hits a ->
            if List.exists (fun (c, _, _) -> c = a.a_cat) hits then hits
            else (a.a_cat, key, a) :: hits)
          hits
          (List.sort
             (fun a b ->
               let c = Int.compare a.a_line b.a_line in
               if c <> 0 then c else String.compare a.a_desc b.a_desc)
             (Hashtbl.find facts key).ambs))
      [] reach
  in
  List.rev_map
    (fun (cat, key, a) ->
      let chain =
        chain_to key @ [ Printf.sprintf "%s (%s:%d)" a.a_desc a.a_file a.a_line ]
      in
      (cat, chain, a))
    hits

let report_r9 g facts =
  if Cmt_graph.rule_active g "R9" then
    List.iter
      (fun (n : Cmt_graph.node) ->
        if Cmt_graph.is_entry n then
          List.iter
            (fun (cat, chain, (a : amb)) ->
              Cmt_graph.emit g ~chain ~rule:"R9" ~loc:(Cmt_graph.node_loc n)
                (Printf.sprintf "handler %s can reach %s: %s" n.n_key
                   (cat_label cat) a.a_desc))
            (entry_chains g facts n))
      (Cmt_graph.nodes g)

(* --- R10: msg constructor liveness ------------------------------------ *)

let report_r10 g st =
  if Cmt_graph.rule_active g "R10" then
    List.iter
      (fun (key, cstrs) ->
        List.iter
          (fun (name, loc) ->
            let ck = key ^ "#" ^ name in
            let problem =
              match (Hashtbl.mem st.built ck, Hashtbl.mem st.matched ck) with
              | false, false -> Some "never constructed and never matched"
              | false, true -> Some "never constructed"
              | true, false -> Some "never explicitly matched"
              | true, true -> None
            in
            match problem with
            | Some what ->
              Cmt_graph.emit g ~rule:"R10" ~loc
                (Printf.sprintf
                   "dead protocol message: constructor %s of %s is %s" name
                   key what)
            | None -> ())
          cstrs)
      (List.sort (fun (a, _) (b, _) -> String.compare a b) st.msgs)

let visit g st =
  let facts =
    Cmt_graph.walk g ~make:(fun () -> { refs = []; ambs = [] }) (collect g st)
  in
  report_r9 g facts;
  report_r10 g st

(* --- drivers ----------------------------------------------------------- *)

let lint_units ?only units =
  let only = Option.map (List.map Rules.canon_id) only in
  let selects rules =
    match only with
    | None -> true
    | Some ids -> List.exists (fun r -> List.mem r ids) rules
  in
  let typed =
    if selects [ "R7"; "R8"; "R9"; "R10" ] then
      Some
        { built = Hashtbl.create 256; matched = Hashtbl.create 256; msgs = [] }
    else None
  in
  let g =
    Cmt_graph.build ?only ?on_type:(Option.map register_type typed) units
  in
  (* Plane order fixes the emission order, which the stable sort keeps
     among findings on the same site. *)
  Option.iter (visit g) typed;
  if selects Race_engine.rules then Race_engine.visit g;
  if selects Alloc_engine.rules then Alloc_engine.visit g;
  Cmt_graph.results g

let lint_cmts ?only paths =
  let units, errs = Cmt_graph.load_units paths in
  let findings, used = lint_units ?only units in
  (List.sort Engine.compare_findings (errs @ findings), used)
