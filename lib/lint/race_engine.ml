(* The race plane: rules R12-R15 over the typedtree, policing the
   domain-parallel surface (everything run via Pool.submit/map/post or
   Domain.spawn).

   The analysis is a flow-insensitive, field-sensitive escape check
   over *abstract locations*:

     - a top-level mutable value is named by its node key
       ("Checker.Stream.tally");
     - a local mutable value by its binder (unique per Ident, so
       shadowing cannot confuse two locations);
     - a mutable record field by "<record-type>.<field>" — field
       sensitive, so two fields of one record are distinct locations,
       and type-based, so the same field reached through two aliases
       is one location.

   R12 (escape) has two cooperating halves sharing one call graph
   (built over Cmt_graph, like Typed_engine's R9 graph):

     - the *graph half* — a binding that references a spawn entry
       point (Rules.spawn_fns) is a spawn node; any top-level mutation
       in its reachable effect footprint is reported with the BFS call
       chain as evidence. This is exactly the retired rule R11, and
       subsumes it: transitive mutation of globals is caught at any
       call depth.
     - the *closure half* — each function literal handed to a spawn
       entry point is walked with an environment of closure-local
       binders. A mutator or container read applied to a location
       that is not closure-local (a captured ref/Hashtbl/Buffer/
       Queue/array, or a mutable field rooted at a captured value) is
       an escape. Safe sinks: Atomic.* and Domain.DLS.* operations,
       regions guarded by a held mutex (Mutex.lock...unlock threading
       through the body, or a Rules.guard_fns wrapper), and array
       reads/writes indexed by a per-slot index (a binder assigned
       from Atomic.fetch_and_add — the pool's submission-order merge
       idiom). Calls from the closure to functions let-bound in the
       same enclosing binding are inlined one level deep, with the
       callee's own binders local and everything else captured.

   R13 (mixed discipline) fires anywhere, not just under the pool: a
   plain write that *replaces* an Atomic.t cell (record field holding
   an Atomic.t assigned with <-, a ref of Atomic.t assigned with :=,
   an Atomic.t array slot assigned with Array.set) gives the location
   two unsynchronised identities — a domain holding the old cell keeps
   using it after the swap.

   R14 (lock discipline): a node that performs Mutex.lock on a mutex
   key with no Mutex.unlock of the same key anywhere in its body leaks
   the lock on every path (Mutex.protect and Fun.protect ~finally are
   the sanctioned shapes); and a node that acquires a key and can
   reach — on the call graph, chain reported — another node acquiring
   the same key is a self-deadlock, because OCaml mutexes are not
   reentrant. Mutex keys are abstract locations as above, so [t.m]
   in two functions is the same key via "<type>.m", while two distinct
   local mutexes never unify.

   R15 (DLS misuse): with the worker-reachable region defined as
   everything reachable from spawn nodes and from Protocol.S handler
   entry points (handlers execute on worker domains during parallel
   sweeps), a Domain.DLS.get/set in a node outside that region is
   domain-local state that only ever lives on the main domain. The
   rule is silent when the linted unit set spawns no domains.

   Approximations, by design (see docs/determinism.md): reads of
   mutable record fields are not escapes (a read-write race is caught
   at its write side); a closure passed to the pool as a value rather
   than a literal or a same-binding local function is only covered by
   the graph half; rebinding a captured location ([let h = tally in])
   is tracked one step (the alias stays shared) but not through data
   structures; guard regions are threaded in traversal order, so a
   lock taken in a branch guards the rest of the enclosing body. *)

let rules = [ "R12"; "R13"; "R14"; "R15" ]

(* --- the plane's own state ---------------------------------------------- *)

type mut_site = { m_desc : string; m_file : string; m_line : int }

type lock_site = {
  l_key : string;  (* abstract mutex key *)
  l_show : string;  (* display name *)
  l_scoped : bool;  (* acquired via a self-releasing wrapper *)
  l_loc : Location.t;
}

type dls_site = { d_fn : string; d_loc : Location.t }

(* Per-node facts: call-graph edges (every referenced global) and the
   sites the reports consume. *)
type facts = {
  mutable refs : string list;
  mutable muts : mut_site list;  (* reachable-footprint sources *)
  mutable locks : lock_site list;
  mutable unlocks : string list;
  mutable dls : dls_site list;
}

type state = {
  g : Cmt_graph.t;
  facts : (string, facts) Hashtbl.t;
  loose_dls : (dls_site * string) list;  (* module-init uses *)
}

(* --- small typedtree helpers ------------------------------------------- *)

let is_atomic_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
    Paths.has_suffix ~suffix:"Atomic.t"
      (Paths.strip_stdlib (Paths.plain_path p))
  | _ -> false

(* The record-type component of a field's abstract location, from the
   field's result type ("Pool.worker" for [w.m] on a worker). *)
let record_type_name ctx ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Paths.strip_stdlib (Cmt_graph.canon_path ctx p)
  | _ -> "<record>"

(* Peel a field chain down to its root: [s.stats.aborts] -> [s]. *)
let rec field_root (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_field (e', _, _) -> field_root e'
  | _ -> e

(* --- mutex keys -------------------------------------------------------- *)

(* Abstract location of a mutex expression. Local mutexes get a "~"
   key from the binder's unique name: never equal across nodes, so
   they cannot create false double-acquire matches. *)
let resolve_mutex ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident ((Path.Pdot _ as p), _, _) ->
    let s = Cmt_graph.canon_path ctx p in
    (s, s)
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
    match Hashtbl.find_opt ctx.Cmt_graph.c_values (Ident.unique_name id) with
    | Some key -> (key, key)
    | None -> ("~" ^ Ident.unique_name id, Ident.name id))
  | Typedtree.Texp_field (e', _, lbl) ->
    let key = record_type_name ctx e'.exp_type ^ "." ^ lbl.Types.lbl_name in
    (key, key)
  | _ -> ("~unresolved", "<mutex>")

(* --- the closure half of R12 ------------------------------------------- *)

type cenv = {
  e_locals : (string, unit) Hashtbl.t;
      (* binders (Ident.unique_name) bound inside the closure *)
  e_aliased : (string, unit) Hashtbl.t;
      (* binders whose right-hand side was a captured/global location:
         still shared, despite being bound inside *)
  e_slots : (string, unit) Hashtbl.t;
      (* binders assigned from Rules.slot_index_sources *)
  mutable e_guard : int;  (* > 0 inside a mutex-guarded region *)
}

(* What does an identifier inside the closure name? *)
type residence =
  | Local  (* bound inside the closure: job-private *)
  | Global of string  (* unit-toplevel value: the graph half's turf *)
  | Captured of string  (* a binder of an enclosing function: shared *)

let residence ctx env (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) ->
    let u = Ident.unique_name id in
    if Hashtbl.mem env.e_locals u && not (Hashtbl.mem env.e_aliased u) then
      Some Local
    else (
      match Hashtbl.find_opt ctx.Cmt_graph.c_values u with
      | Some key -> Some (Global key)
      | None -> Some (Captured (Ident.name id)))
  | Typedtree.Texp_ident ((Path.Pdot _ as p), _, _) ->
    Some (Global (Cmt_graph.canon_path ctx p))
  | _ -> None

let slot_indexed env args =
  match Cmt_graph.positional_args args with
  | _ :: { Typedtree.exp_desc = Typedtree.Texp_ident (Path.Pident id, _, _); _ }
    :: _ ->
    Hashtbl.mem env.e_slots (Ident.unique_name id)
  | _ -> false

let slot_fns =
  [ "Array.set"; "Array.unsafe_set"; "Array.get"; "Array.unsafe_get" ]

let escape_hint =
  "route it through Atomic or Domain.DLS, guard it with a mutex, or write \
   per-slot at the job's own index"

(* Walk the body of a closure handed to a spawn entry point.
   [local_fns] maps binders of the enclosing binding to their
   function bodies for one-level inlining; [visited] stops inlining
   cycles. The iterator's own traversal order threads the guard
   state: a Mutex.lock seen earlier in a sequence guards the rest. *)
let rec closure_walk g ctx ~local_fns ~visited env (expr : Typedtree.expression)
    =
  let flag_access ~loc what target =
    if env.e_guard = 0 && Cmt_graph.rule_active g "R12" then
      Cmt_graph.emit g ~rule:"R12" ~loc
        (Printf.sprintf
           "%s on %s, which is shared with the submitting domain: %s" what
           target escape_hint)
  in
  let vb_hook sub (vb : Typedtree.value_binding) =
    (* Classify the binder before the default traversal registers it
       as closure-local via the pattern hook below. *)
    let binders =
      List.map
        (fun (id, _) -> Ident.unique_name id)
        (Cmt_graph.pattern_idents vb.vb_pat)
    in
    (match Cmt_graph.head_name ctx vb.vb_expr with
     | Some s when Paths.matches_any ~fns:Rules.slot_index_sources s ->
       List.iter (fun u -> Hashtbl.replace env.e_slots u ()) binders
     | _ -> ());
    (match residence ctx env vb.vb_expr with
     | Some (Global _) | Some (Captured _) ->
       (* [let h = tally in ...]: h is an alias of shared state. *)
       List.iter (fun u -> Hashtbl.replace env.e_aliased u ()) binders
     | _ -> ());
    Tast_iterator.default_iterator.value_binding sub vb
  in
  let pat_hook : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit
      =
   fun sub p ->
    (match p.Typedtree.pat_desc with
     | Typedtree.Tpat_var (id, _) ->
       Hashtbl.replace env.e_locals (Ident.unique_name id) ()
     | Typedtree.Tpat_alias (_, id, _) ->
       Hashtbl.replace env.e_locals (Ident.unique_name id) ()
     | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let expr_hook sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_apply (f, args) -> (
      let s = match Cmt_graph.head_name ctx f with Some s -> s | None -> "" in
      if Paths.matches_any ~fns:Rules.guard_fns s then begin
        (* the wrapper's argument runs with the lock held / cleanup
           guaranteed *)
        env.e_guard <- env.e_guard + 1;
        Tast_iterator.default_iterator.expr sub e;
        env.e_guard <- env.e_guard - 1
      end
      else begin
        if Paths.has_suffix ~suffix:"Mutex.lock" s then
          env.e_guard <- env.e_guard + 1
        else if Paths.has_suffix ~suffix:"Mutex.unlock" s then
          env.e_guard <- max 0 (env.e_guard - 1);
        (* one-level inlining of same-binding local functions *)
        (match f.Typedtree.exp_desc with
         | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
           let u = Ident.unique_name id in
           match Hashtbl.find_opt local_fns u with
           | Some body when not (Hashtbl.mem visited u) ->
             Hashtbl.replace visited u ();
             let env' =
               {
                 e_locals = Hashtbl.create 16;
                 e_aliased = Hashtbl.create 4;
                 e_slots = Hashtbl.create 4;
                 e_guard = env.e_guard;
               }
             in
             closure_walk g ctx ~local_fns ~visited env' body
           | _ -> ())
         | _ -> ());
        (if Paths.has_prefix ~prefix:"Atomic" s
            || Paths.has_prefix ~prefix:"Domain.DLS" s
         then () (* safe sinks: synchronised by construction *)
         else if List.mem s slot_fns && slot_indexed env args then
           () (* per-slot access at the job's own index *)
         else if
           List.mem s Rules.mutator_fns || List.mem s Rules.container_read_fns
         then
           match Cmt_graph.positional_args args with
           | tgt :: _ -> (
             match residence ctx env (field_root tgt) with
             | Some (Captured name) ->
               let what =
                 match tgt.Typedtree.exp_desc with
                 | Typedtree.Texp_field (e', _, lbl) ->
                   Printf.sprintf "%s via field %s.%s" s
                     (record_type_name ctx e'.exp_type)
                     lbl.Types.lbl_name
                 | _ -> s
               in
               flag_access ~loc:e.Typedtree.exp_loc what ("captured " ^ name)
             | Some Local | Some (Global _) | None ->
               (* globals are the graph half's findings; unresolvable
                  targets (call results, DLS.get payloads) are not
                  abstract locations we can name *)
               ())
           | [] -> ());
        Tast_iterator.default_iterator.expr sub e
      end)
    | Typedtree.Texp_setfield (tgt, _, lbl, _) ->
      (match residence ctx env (field_root tgt) with
       | Some (Captured name) ->
         flag_access ~loc:e.exp_loc
           (Printf.sprintf "field write %s.%s"
              (record_type_name ctx tgt.exp_type)
              lbl.Types.lbl_name)
           ("captured " ^ name)
       | _ -> ());
      Tast_iterator.default_iterator.expr sub e
    | Typedtree.Texp_ifthenelse (c, t, e_opt) ->
      (* Guard state is per-branch: an unlock in the then-branch must
         not strip the guard from the else-branch (the worker-loop
         idiom unlocks in one branch and pops-then-unlocks in the
         other). *)
      sub.Tast_iterator.expr sub c;
      let saved = env.e_guard in
      sub.Tast_iterator.expr sub t;
      env.e_guard <- saved;
      Option.iter (sub.Tast_iterator.expr sub) e_opt;
      env.e_guard <- saved
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr = expr_hook;
      pat = pat_hook;
      value_binding = vb_hook;
    }
  in
  iter.expr iter expr

(* --- per-node visitor: uses, effects, edges ---------------------------- *)

(* Let-bound functions of one top-level binding, for inlining. Only
   syntactic function literals qualify: [let f = Queue.pop q] also has
   arrow type, but its RHS runs at bind time (possibly under a lock),
   so re-walking it at the call site would misplace the effect. *)
let collect_local_fns (expr : Typedtree.expression) =
  let is_fun (e : Typedtree.expression) =
    match e.exp_desc with Typedtree.Texp_function _ -> true | _ -> false
  in
  let fns = Hashtbl.create 8 in
  let vb_hook sub (vb : Typedtree.value_binding) =
    (match (vb.vb_pat.pat_desc, is_fun vb.vb_expr) with
     | Typedtree.Tpat_var (id, _), true ->
       Hashtbl.replace fns (Ident.unique_name id) vb.vb_expr
     | _ -> ());
    Tast_iterator.default_iterator.value_binding sub vb
  in
  let iter = { Tast_iterator.default_iterator with value_binding = vb_hook } in
  iter.expr iter expr;
  fns

(* A shared-mutation effect (the graph half's sources); an [allow R12]
   waiver on its line removes it from the graph ([allow R11] still
   works via canon_id). *)
let add_mut g ctx (facts : facts option) desc loc =
  match facts with
  | None -> ()
  | Some f -> (
    match Cmt_graph.effect_site g ctx ~rule:"R12" `Mutation loc with
    | Some (file, line) ->
      f.muts <- { m_desc = desc; m_file = file; m_line = line } :: f.muts
    | None -> ())

(* Walk one top-level binding's body (or loose module-init code),
   attributing edges, shared-mutation effects, lock/unlock and DLS
   sites to [facts] (module-init DLS uses to [loose_dls]); fire the
   site-local R13 checks; run the closure half on every function
   literal handed to a spawn entry point. *)
let scan_node g ~loose_dls (ctx : Cmt_graph.ctx) (facts : facts option) expr =
  let add_ref key =
    match facts with
    | Some f -> if not (List.mem key f.refs) then f.refs <- key :: f.refs
    | None -> ()
  in
  let local_fns = collect_local_fns expr in
  let spawn_closure (a : Typedtree.expression) =
    let walk body =
      let env =
        {
          e_locals = Hashtbl.create 32;
          e_aliased = Hashtbl.create 4;
          e_slots = Hashtbl.create 4;
          e_guard = 0;
        }
      in
      closure_walk g ctx ~local_fns ~visited:(Hashtbl.create 8) env body
    in
    match a.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
      match Hashtbl.find_opt local_fns (Ident.unique_name id) with
      | Some body -> walk body
      | None -> ())
    | _ -> if Cmt_graph.is_arrow a.exp_type then walk a
  in
  let expr_hook sub (e : Typedtree.expression) =
    (match e.exp_desc with
     | Typedtree.Texp_ident (p, _, _) ->
       let s = Paths.strip_stdlib (Cmt_graph.canon_path ctx p) in
       (match facts with
        | Some f when Paths.matches_any ~fns:Rules.dls_fns s ->
          f.dls <- { d_fn = s; d_loc = e.exp_loc } :: f.dls
        | None when Paths.matches_any ~fns:Rules.dls_fns s ->
          loose_dls :=
            ({ d_fn = s; d_loc = e.exp_loc }, ctx.c_file) :: !loose_dls
        | _ -> ());
       Option.iter add_ref (Cmt_graph.value_key ctx p)
     | Typedtree.Texp_apply (f, args) -> (
       let s =
         match Cmt_graph.head_name ctx f with Some s -> s | None -> ""
       in
       (* shared-mutation effects (the graph half's sources) *)
       (if List.mem s Rules.mutator_fns then
          match Cmt_graph.positional_args args with
          | tgt :: _ -> (
            match Cmt_graph.global_ident ctx tgt with
            | Some gl ->
              add_mut g ctx facts
                (Printf.sprintf "%s on global %s" s gl)
                e.exp_loc
            | None -> ())
          | [] -> ());
       (* lock/unlock collection (R14) *)
       (match facts with
        | Some fa ->
          let mutex_arg () =
            match Cmt_graph.positional_args args with
            | m :: _ -> Some m
            | [] -> None
          in
          if Paths.has_suffix ~suffix:"Mutex.lock" s then (
            match mutex_arg () with
            | Some m ->
              let l_key, l_show = resolve_mutex ctx m in
              fa.locks <-
                { l_key; l_show; l_scoped = false; l_loc = e.exp_loc }
                :: fa.locks
            | None -> ())
          else if Paths.has_suffix ~suffix:"Mutex.unlock" s then (
            match mutex_arg () with
            | Some m ->
              let k, _ = resolve_mutex ctx m in
              fa.unlocks <- k :: fa.unlocks
            | None -> ())
          else if Paths.has_suffix ~suffix:"Mutex.protect" s then (
            match mutex_arg () with
            | Some m ->
              let l_key, l_show = resolve_mutex ctx m in
              fa.locks <-
                { l_key; l_show; l_scoped = true; l_loc = e.exp_loc }
                :: fa.locks
            | None -> ())
        | None -> ());
       (* R13: a plain write that replaces an Atomic.t cell *)
       (if
          Cmt_graph.rule_active g "R13"
          && (s = ":="
             || Paths.matches_any
                  ~fns:[ "Array.set"; "Array.unsafe_set"; "Array.fill" ]
                  s)
        then
          match Cmt_graph.first_param f.Typedtree.exp_type with
          | Some ty -> (
            match Types.get_desc ty with
            | Types.Tconstr (_, [ elt ], _) when is_atomic_ty elt ->
              Cmt_graph.emit g ~rule:"R13" ~loc:e.exp_loc
                (Printf.sprintf
                   "%s replaces an Atomic.t cell: a domain holding the old \
                    cell keeps using it; mutate via Atomic.set/exchange on \
                    the existing cell" s)
            | _ -> ())
          | None -> ());
       (* the closure half: function literals handed to a spawn point *)
       if
         Cmt_graph.rule_active g "R12"
         && Paths.matches_any ~fns:Rules.spawn_fns s
       then List.iter spawn_closure (Cmt_graph.positional_args args))
     | Typedtree.Texp_setfield (tgt, _, lbl, _) ->
       (match Cmt_graph.global_ident ctx tgt with
        | Some gl ->
          add_mut g ctx facts ("field assignment on global " ^ gl) e.exp_loc
        | None -> ());
       if Cmt_graph.rule_active g "R13" && is_atomic_ty lbl.Types.lbl_arg then
         Cmt_graph.emit g ~rule:"R13" ~loc:e.exp_loc
           (Printf.sprintf
              "field write replaces Atomic.t cell %s.%s: a domain holding \
               the old cell keeps using it; mutate via Atomic.set/exchange \
               on the existing cell"
              (record_type_name ctx tgt.exp_type)
              lbl.Types.lbl_name)
     | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr = expr_hook } in
  iter.expr iter expr

(* --- graphs ------------------------------------------------------------ *)

let is_spawn (f : facts) =
  List.exists (fun r -> Paths.matches_any ~fns:Rules.spawn_fns r) f.refs

let bfs st (start : Cmt_graph.node) =
  Cmt_graph.bfs st.g ~refs:(fun k -> (Hashtbl.find st.facts k).refs)
    start.n_key

(* The graph nodes with their facts, in sorted key order. *)
let nodes st =
  List.map
    (fun (n : Cmt_graph.node) -> (n, Hashtbl.find st.facts n.n_key))
    (Cmt_graph.nodes st.g)

(* --- R12, graph half --------------------------------------------------- *)

let report_r12_graph st =
  if Cmt_graph.rule_active st.g "R12" then
    List.iter
      (fun ((n : Cmt_graph.node), f) ->
        if is_spawn f then begin
          let reach, chain_to = bfs st n in
          let hit =
            List.find_map
              (fun k ->
                match
                  List.sort
                    (fun a b ->
                      let c = Int.compare a.m_line b.m_line in
                      if c <> 0 then c else String.compare a.m_desc b.m_desc)
                    (Hashtbl.find st.facts k).muts
                with
                | mut :: _ -> Some (k, mut)
                | [] -> None)
              reach
          in
          match hit with
          | Some (k, mut) ->
            let chain =
              chain_to k
              @ [ Printf.sprintf "%s (%s:%d)" mut.m_desc mut.m_file mut.m_line ]
            in
            Cmt_graph.emit st.g ~chain ~rule:"R12" ~loc:(Cmt_graph.node_loc n)
              (Printf.sprintf
                 "%s hands work to the domain pool but can reach shared \
                  mutable state: %s"
                 n.n_key mut.m_desc)
          | None -> ()
        end)
      (nodes st)

(* --- R14 --------------------------------------------------------------- *)

let report_r14 st =
  if Cmt_graph.rule_active st.g "R14" then
    List.iter
      (fun ((n : Cmt_graph.node), f) ->
        let locks =
          List.sort
            (fun a b ->
              let la, _ = Paths.loc_pos a.l_loc
              and lb, _ = Paths.loc_pos b.l_loc in
              Int.compare la lb)
            f.locks
        in
        (* leak: an unscoped acquire with no release anywhere in the
           same body *)
        List.iter
          (fun l ->
            if
              (not l.l_scoped)
              && not
                   (List.exists (fun u -> Paths.key_match u l.l_key) f.unlocks)
            then
              Cmt_graph.emit st.g ~rule:"R14" ~loc:l.l_loc
                (Printf.sprintf
                   "Mutex.lock on %s is never released in %s; wrap the \
                    critical section in Mutex.protect or release it in \
                    Fun.protect ~finally"
                   l.l_show n.n_key))
          locks;
        (* double-acquire through the call graph *)
        let reported = Hashtbl.create 4 in
        List.iter
          (fun l ->
            if not (Hashtbl.mem reported l.l_key) then begin
              let reach, chain_to = bfs st n in
              match
                List.find_map
                  (fun k ->
                    if k = n.n_key then None
                    else
                      Option.map
                        (fun l' -> (k, l'))
                        (List.find_opt
                           (fun l' -> Paths.key_match l.l_key l'.l_key)
                           (Hashtbl.find st.facts k).locks))
                  reach
              with
              | Some (k, l') ->
                Hashtbl.replace reported l.l_key ();
                let file = Paths.norm_fname l'.l_loc.loc_start.pos_fname in
                let line, _ = Paths.loc_pos l'.l_loc in
                let chain =
                  chain_to k
                  @ [
                      Printf.sprintf "Mutex.lock %s (%s:%d)" l'.l_show file
                        line;
                    ]
                in
                Cmt_graph.emit st.g ~chain ~rule:"R14" ~loc:l.l_loc
                  (Printf.sprintf
                     "%s acquires %s and can reach %s, which acquires it \
                      again — OCaml mutexes are not reentrant \
                      (self-deadlock)"
                     n.n_key l.l_show k)
              | None -> ()
            end)
          locks)
      (nodes st)

(* --- R15 --------------------------------------------------------------- *)

let report_r15 st =
  let nodes = nodes st in
  let spawns = List.filter (fun (_, f) -> is_spawn f) nodes in
  if Cmt_graph.rule_active st.g "R15" && spawns <> [] then begin
    let reachable = Hashtbl.create 256 in
    List.iter
      (fun ((root : Cmt_graph.node), _) ->
        let reach, _ = bfs st root in
        List.iter (fun k -> Hashtbl.replace reachable k ()) reach)
      (spawns @ List.filter (fun (n, _) -> Cmt_graph.is_entry n) nodes);
    let flag_site (d : dls_site) where =
      Cmt_graph.emit st.g ~rule:"R15" ~loc:d.d_loc
        (Printf.sprintf
           "%s in %s, which the domain pool never reaches: this \
            domain-local state only ever lives on the main domain — move \
            the access under the pool, or drop DLS for an explicit value"
           d.d_fn where)
    in
    List.iter
      (fun ((n : Cmt_graph.node), f) ->
        if not (Hashtbl.mem reachable n.n_key) then
          List.iter (fun d -> flag_site d n.n_key) f.dls)
      nodes;
    List.iter
      (fun (d, file) -> flag_site d ("module initialisation of " ^ file))
      st.loose_dls
  end

(* --- driver ------------------------------------------------------------ *)

let visit g =
  let loose_dls = ref [] in
  let facts =
    Cmt_graph.walk g
      ~make:(fun () ->
        { refs = []; muts = []; locks = []; unlocks = []; dls = [] })
      (scan_node g ~loose_dls)
  in
  let st = { g; facts; loose_dls = !loose_dls } in
  report_r12_graph st;
  report_r14 st;
  report_r15 st
