(* The allocation plane: rules R16-R19 over the typedtree, policing
   the simulator's hot paths for per-event allocation.

   Hotness has two sources: the Hotpaths seed registry (node-key
   suffixes of the functions that are hot by construction — the event
   loop and heap, clock arithmetic, per-message dispatch, store
   lookup, the streaming checker's feed) and [@ncc.hot] attributes on
   individual bindings. Both are *entries*; hotness then propagates
   over the same call-graph shape R9 and R12 use — a function
   transitively reachable from a hot entry inherits hotness, with the
   deterministic BFS chain from the entry as evidence (R18), so
   annotations stay sparse.

   Site classes, collected while walking each node's body:

     R16 (boxed-float traffic): [ref e] at float type; a float flowing
         into a tuple, a constructor payload (Some/::/variant), or a
         boxed (non-all-float) record field — creation and setfield;
     R17 (per-call allocation): a closure literal inside a for/while
         loop or handed to a closure sink (Rules.closure_sink_fns:
         Pool.submit and friends, Engine.schedule); non-float tuple
         and Some/:: construction; string building
         (Rules.string_build_fns).

   A site in a *directly* hot function (seed or annotated) fires as
   R16/R17 at the allocation's own location, naming the hot function.
   A site in a *transitively* hot function fires as R18 at the same
   location, carrying entry -> ... -> function -> site as the chain.
   Either way the finding anchors on the allocating line, so the
   standard line-scoped waiver pragmas apply.

   Cold regions are exempt (the diagnostics paths run only when
   enabled, not per event): every arm of a match on an option of a
   Rules.cold_option_types type (the attached-recorder test of the
   observability plane). Branch pruning is also
   semantic: [if false then e] never runs e, so neither sites nor
   call-graph edges are collected there — a function only reachable
   through a dead branch stays cold.

   R19 (hygiene) checks the annotations themselves: [@ncc.hot] on a
   non-function binding, or on a function that no node in the linted
   tree references and no seed names, is a dangling hot claim. Unused
   [allow R16-R18] waivers surface through the standard pragma
   machinery (Engine.lint_source).

   Approximations, by design (docs/performance.md): the rules are
   structural, so allocation hidden behind a call into an un-linted
   unit (stdlib internals, C stubs) is invisible; closures passed as
   values rather than literals are not closure sites (their bodies are
   still walked wherever they are defined); constant closures that
   OCaml statically allocates are indistinguishable from capturing
   ones and may need a waiver. *)

let rules = [ "R16"; "R17"; "R18"; "R19" ]

(* --- the plane's own state ---------------------------------------------- *)

type site = {
  s_rule : string;  (* "R16" or "R17": the class when directly hot *)
  s_desc : string;
  s_loc : Location.t;
}

(* Per-node facts: call-graph edges, pruned under cold guards and dead
   branches, and allocation sites. *)
type facts = { mutable refs : string list; mutable sites : site list }

(* --- small typedtree helpers ------------------------------------------- *)

(* Matching an option of a cold payload type (an attached recorder)
   selects the diagnostics path, not the per-event path. *)
let is_cold_option ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [ arg ], _) when Path.same p Predef.path_option -> (
    match Types.get_desc arg with
    | Types.Tconstr (pa, _, _) ->
      Paths.matches_any ~fns:Rules.cold_option_types
        (Paths.strip_stdlib (Paths.plain_path pa))
    | _ -> false)
  | _ -> false

(* A field lives in a boxed representation when the record is not the
   flat all-float or unboxed form: writing a float there boxes it. *)
let boxed_repr (r : Types.record_representation) =
  match r with
  | Types.Record_regular -> true
  | Types.Record_inlined _ -> true
  | Types.Record_float | Types.Record_unboxed _ -> false
  | Types.Record_extension _ -> true

(* Format-string literals desugar into CamlinternalFormatBasics
   constructor trees (with tuples inside, for float conversions); the
   whole tree is a static constant, so walking it would manufacture
   allocation findings out of "%f". *)
let is_format_constant (cd : Types.constructor_description) =
  match Types.get_desc cd.Types.cstr_res with
  | Types.Tconstr (p, _, _) -> (
    match Paths.plain_parts p with
    | ("CamlinternalFormatBasics" | "CamlinternalFormat") :: _ -> true
    | _ -> false)
  | _ -> false

let bool_const (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_construct (_, cd, []) -> (
    match cd.Types.cstr_name with
    | "true" -> Some true
    | "false" -> Some false
    | _ -> None)
  | _ -> None

let hot_attr_of (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = Rules.hot_attribute)
    attrs

(* --- per-node visitor: references and allocation sites ----------------- *)

(* Walk one top-level binding's body, attributing call-graph edges and
   allocation sites to [node]. Cold regions and dead branches are
   skipped for *both*, so a function only referenced under a
   [match (obs : Recorder.t option)] arm or a dead branch never
   becomes hot. *)
let scan_node ctx (facts : facts option) expr =
  let add_ref key =
    match facts with
    | Some f -> if not (List.mem key f.refs) then f.refs <- key :: f.refs
    | None -> ()
  in
  let add_site rule desc (loc : Location.t) =
    match facts with
    | Some f ->
      f.sites <- { s_rule = rule; s_desc = desc; s_loc = loc } :: f.sites
    | None -> ()
  in
  let in_loop = ref 0 in
  let expr_hook sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_ifthenelse (c, t, e_opt) -> (
      match bool_const c with
      | Some true -> sub.Tast_iterator.expr sub t
      | Some false -> Option.iter (sub.Tast_iterator.expr sub) e_opt
      | None -> Tast_iterator.default_iterator.expr sub e)
    | Typedtree.Texp_match (scrut, _cases, _)
      when is_cold_option scrut.exp_type ->
      (* attached-recorder dispatch: all arms are the traced path *)
      sub.Tast_iterator.expr sub scrut
    | Typedtree.Texp_while (cond, body) ->
      sub.Tast_iterator.expr sub cond;
      incr in_loop;
      sub.Tast_iterator.expr sub body;
      decr in_loop
    | Typedtree.Texp_for (_, _, lo, hi, _, body) ->
      sub.Tast_iterator.expr sub lo;
      sub.Tast_iterator.expr sub hi;
      incr in_loop;
      sub.Tast_iterator.expr sub body;
      decr in_loop
    | Typedtree.Texp_function _ when !in_loop > 0 ->
      add_site "R17" "closure literal inside a hot loop (fresh closure per \
                      iteration)" e.exp_loc;
      (* the body is still this node's code: keep walking, but don't
         re-flag nested literals of the same loop *)
      let saved = !in_loop in
      in_loop := 0;
      Tast_iterator.default_iterator.expr sub e;
      in_loop := saved
    | Typedtree.Texp_ident (p, _, _) ->
      Option.iter add_ref (Cmt_graph.value_key ctx p);
      Tast_iterator.default_iterator.expr sub e
    | Typedtree.Texp_apply (f, args) ->
      let s = match Cmt_graph.head_name ctx f with Some s -> s | None -> "" in
      (if s = "ref" then
         match Cmt_graph.positional_args args with
         | a :: _ when Cmt_graph.is_float a.exp_type ->
           add_site "R16" "float ref (one heap box, rewritten per :=)"
             e.exp_loc
         | _ -> ());
      if Paths.matches_any ~fns:Rules.string_build_fns s then
        add_site "R17"
          (Printf.sprintf "string building via %s (allocates the result per \
                           call)" s)
          e.exp_loc;
      if Paths.matches_any ~fns:Rules.closure_sink_fns s then
        List.iter
          (fun (a : Typedtree.expression) ->
            match a.exp_desc with
            | Typedtree.Texp_function _ ->
              add_site "R17"
                (Printf.sprintf "closure literal handed to %s (fresh \
                                 closure per call)" s)
                a.exp_loc
            | _ -> ())
          (Cmt_graph.positional_args args);
      Tast_iterator.default_iterator.expr sub e
    | Typedtree.Texp_tuple exprs ->
      (if
         List.exists
           (fun (x : Typedtree.expression) -> Cmt_graph.is_float x.exp_type)
           exprs
       then
         add_site "R16" "float flows into a tuple (boxed per component)"
           e.exp_loc
       else
         add_site "R17" "tuple construction (one block per call)" e.exp_loc);
      Tast_iterator.default_iterator.expr sub e
    | Typedtree.Texp_construct (_, cd, _) when is_format_constant cd ->
      ()  (* a static format literal, not a per-call allocation *)
    | Typedtree.Texp_construct (_, cd, args) when args <> [] ->
      (if
         List.exists
           (fun (x : Typedtree.expression) -> Cmt_graph.is_float x.exp_type)
           args
       then
         add_site "R16"
           (Printf.sprintf "float flows into constructor %s (boxed payload)"
              cd.Types.cstr_name)
           e.exp_loc
       else if List.mem cd.Types.cstr_name [ "Some"; "::" ] then
         add_site "R17"
           (Printf.sprintf "%s construction (one block per call)"
              (if cd.Types.cstr_name = "::" then "list cell" else "option"))
           e.exp_loc);
      Tast_iterator.default_iterator.expr sub e
    | Typedtree.Texp_record { fields; representation; _ } ->
      if boxed_repr representation then
        Array.iter
          (fun ((lbl : Types.label_description), def) ->
            match def with
            | Typedtree.Overridden (_, _)
              when Cmt_graph.is_float lbl.Types.lbl_arg ->
              add_site "R16"
                (Printf.sprintf
                   "float record field %s in a mixed record (boxed per \
                    write); use a flat float array or an all-float record"
                   lbl.Types.lbl_name)
                e.exp_loc
            | _ -> ())
          fields;
      Tast_iterator.default_iterator.expr sub e
    | Typedtree.Texp_setfield (_, _, lbl, v) ->
      if
        boxed_repr lbl.Types.lbl_repres
        && Cmt_graph.is_float lbl.Types.lbl_arg
        && Cmt_graph.is_float v.Typedtree.exp_type
      then
        add_site "R16"
          (Printf.sprintf
             "write to boxed float field %s (one box per assignment)"
             lbl.Types.lbl_name)
          e.exp_loc;
      Tast_iterator.default_iterator.expr sub e
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr = expr_hook } in
  iter.expr iter expr

(* --- hotness ----------------------------------------------------------- *)

let is_hot_attr (n : Cmt_graph.node) = hot_attr_of n.n_vb.vb_attributes
let is_hot_entry (n : Cmt_graph.node) =
  is_hot_attr n || Hotpaths.is_seed n.n_key

let sorted_sites (f : facts) =
  List.sort
    (fun a b ->
      let la, ca = Paths.loc_pos a.s_loc and lb, cb = Paths.loc_pos b.s_loc in
      let c = Int.compare la lb in
      if c <> 0 then c
      else
        let c = Int.compare ca cb in
        if c <> 0 then c else String.compare a.s_desc b.s_desc)
    f.sites

let report g facts =
  let nodes =
    List.map
      (fun (n : Cmt_graph.node) -> (n, Hashtbl.find facts n.n_key))
      (Cmt_graph.nodes g)
  in
  (* Propagate hotness: entries processed in sorted key order, first
     entry to reach a node owns its chain (deterministic). *)
  let hot_via = Hashtbl.create 128 in  (* key -> (entry, chain_to key) *)
  List.iter
    (fun ((entry : Cmt_graph.node), _) ->
      if is_hot_entry entry then begin
        let reach, chain_to =
          Cmt_graph.bfs g ~refs:(fun k -> (Hashtbl.find facts k).refs)
            entry.n_key
        in
        List.iter
          (fun k ->
            if not (Hashtbl.mem hot_via k) then
              Hashtbl.replace hot_via k (entry.n_key, chain_to k))
          reach
      end)
    nodes;
  (* R16/R17 in directly hot functions; R18 in transitively hot ones. *)
  List.iter
    (fun ((n : Cmt_graph.node), f) ->
      if is_hot_entry n then
        List.iter
          (fun s ->
            if Cmt_graph.rule_active g s.s_rule then
              Cmt_graph.emit g ~rule:s.s_rule ~loc:s.s_loc
                (Printf.sprintf "%s in hot function %s" s.s_desc n.n_key))
          (sorted_sites f)
      else
        match Hashtbl.find_opt hot_via n.n_key with
        | Some (entry, chain) when Cmt_graph.rule_active g "R18" ->
          List.iter
            (fun s ->
              let file = Paths.norm_fname s.s_loc.loc_start.pos_fname in
              let line, _ = Paths.loc_pos s.s_loc in
              Cmt_graph.emit g
                ~chain:
                  (chain @ [ Printf.sprintf "%s (%s:%d)" s.s_desc file line ])
                ~rule:"R18" ~loc:s.s_loc
                (Printf.sprintf "%s in %s, which is hot via %s" s.s_desc
                   n.n_key entry))
            (sorted_sites f)
        | _ -> ())
    nodes;
  (* R19: hygiene of the annotations themselves. *)
  if Cmt_graph.rule_active g "R19" then begin
    let referenced key =
      List.exists
        (fun ((n : Cmt_graph.node), f) ->
          n.n_key <> key
          && List.exists (fun r -> Paths.key_match r key) f.refs)
        nodes
    in
    List.iter
      (fun ((n : Cmt_graph.node), _) ->
        if is_hot_attr n then
          if not (Cmt_graph.is_arrow n.n_vb.vb_expr.exp_type) then
            Cmt_graph.emit g ~rule:"R19" ~loc:(Cmt_graph.node_loc n)
              (Printf.sprintf
                 "[@%s] on %s, which is not a function: a plain value has \
                  no call-graph to propagate hotness into"
                 Rules.hot_attribute n.n_key)
          else if (not (Hotpaths.is_seed n.n_key)) && not (referenced n.n_key)
          then
            Cmt_graph.emit g ~rule:"R19" ~loc:(Cmt_graph.node_loc n)
              (Printf.sprintf
                 "[@%s] on %s, which nothing in the linted tree references: \
                  a dangling hot claim on dead code"
                 Rules.hot_attribute n.n_key))
      nodes
  end

let visit g =
  report g
    (Cmt_graph.walk g ~make:(fun () -> { refs = []; sites = [] }) scan_node)
