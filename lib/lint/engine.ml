(* The analysis itself: parse one .ml file with ppxlib's parsetree
   (version-stable across compilers, unlike raw compiler-libs), walk
   the AST applying every rule in Rules.all, then subtract waivers.

   Known limitations (documented in docs/determinism.md): the checks
   are syntactic, so a module alias ([module H = Hashtbl]) or a local
   open can smuggle a forbidden identifier past R1-R4. The codebase
   convention is to use fully qualified stdlib names, which is what the
   linter (and readers) key on. *)

open Ppxlib

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

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let rec flatten = function
  | Lident s -> [ s ]
  | Ldot (l, s) -> flatten l @ [ s ]
  | Lapply (a, b) -> flatten a @ flatten b

let ident_path lid = String.concat "." (flatten lid)

(* Identifier-shaped rules (R1-R4) applied to one qualified path. *)
let match_path rules path =
  List.filter
    (fun (r : Rules.rule) ->
      match r.matcher with
      | Rules.Forbid_prefixes ps ->
        List.exists (fun p -> Paths.has_prefix ~prefix:p path) ps
      | Rules.Forbid_idents ids -> List.mem path ids
      | Rules.Toplevel_mutable | Rules.Wildcard_try | Rules.Typed _ -> false)
    rules

(* Expressions that allocate mutable state when evaluated. *)
let mutable_creators =
  [
    "ref";
    "Stdlib.ref";
    "Hashtbl.create";
    "Stdlib.Hashtbl.create";
    "Buffer.create";
    "Stdlib.Buffer.create";
    "Queue.create";
    "Stack.create";
    "Array.make";
    "Array.init";
    "Array.create_float";
    "Bytes.create";
    "Bytes.make";
  ]

(* Does this top-level binding pattern bind anything? [let () = ...]
   bodies are main-style driver code, not module state. *)
let rec binds_variable (p : pattern) =
  match p.ppat_desc with
  | Ppat_var _ | Ppat_alias _ -> true
  | Ppat_tuple ps | Ppat_array ps -> List.exists binds_variable ps
  | Ppat_construct (_, Some (_, p')) | Ppat_constraint (p', _) | Ppat_open (_, p')
    ->
    binds_variable p'
  | Ppat_record (fields, _) -> List.exists (fun (_, p') -> binds_variable p') fields
  | Ppat_or (a, b) -> binds_variable a || binds_variable b
  | _ -> false

let run_rules ?only ~file source =
  let file = Paths.norm_fname file in
  let only = Option.map (List.map Rules.canon_id) only in
  let active =
    List.filter
      (fun (r : Rules.rule) ->
        (not (List.mem file r.allowed_files))
        && match only with None -> true | Some ids -> List.mem r.id ids)
      Rules.all
  in
  let found = ref [] in
  let add (r : Rules.rule) loc msg =
    let line, col = Paths.loc_pos loc in
    found :=
      {
        file;
        line;
        col;
        rule = r.id;
        severity = r.severity;
        message = msg;
        chain = [];
      }
      :: !found
  in
  let check_path loc path =
    List.iter
      (fun (r : Rules.rule) -> add r loc (Printf.sprintf "%s: %s" path r.summary))
      (match_path active path)
  in
  let wildcard_rules =
    List.filter (fun (r : Rules.rule) -> r.matcher = Rules.Wildcard_try) active
  in
  let check_wildcard_case ~in_try (c : case) =
    let wild (p : pattern) =
      match p.ppat_desc with
      | Ppat_any -> in_try
      | Ppat_exception { ppat_desc = Ppat_any; _ } -> true
      | _ -> false
    in
    if c.pc_guard = None && wild c.pc_lhs then
      List.iter
        (fun (r : Rules.rule) -> add r c.pc_lhs.ppat_loc r.summary)
        wildcard_rules
  in
  let toplevel_rules =
    List.filter
      (fun (r : Rules.rule) -> r.matcher = Rules.Toplevel_mutable)
      active
  in
  (* Scan an expression evaluated at module-initialisation time for
     mutable-state creation; do not descend under function or lazy
     abstractions (their bodies run later, per call). *)
  let scan_toplevel =
    object (self)
      inherit Ast_traverse.iter as super

      method! expression e =
        let flag loc what =
          List.iter
            (fun (r : Rules.rule) ->
              add r loc
                (Printf.sprintf "%s at module toplevel: %s" what r.summary))
            toplevel_rules
        in
        match e.pexp_desc with
        | Pexp_function _ | Pexp_lazy _ | Pexp_object _ -> ()
        | Pexp_array _ ->
          flag e.pexp_loc "array literal";
          super#expression e
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
          when List.mem (ident_path txt) mutable_creators ->
          flag e.pexp_loc (ident_path txt);
          super#expression e
        | _ -> super#expression e

      method scan e = self#expression e
    end
  in
  let iter =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
         | Pexp_ident { txt; loc } -> check_path loc (ident_path txt)
         | Pexp_try (_, cases) ->
           List.iter (check_wildcard_case ~in_try:true) cases
         | Pexp_match (_, cases) ->
           List.iter (check_wildcard_case ~in_try:false) cases
         | _ -> ());
        super#expression e

      method! core_type t =
        (match t.ptyp_desc with
         | Ptyp_constr ({ txt; loc }, _) -> check_path loc (ident_path txt)
         | _ -> ());
        super#core_type t

      (* Fires for the file's own items and for structures nested in
         [module M = struct ... end], which is still module toplevel. *)
      method! structure_item item =
        (match item.pstr_desc with
         | Pstr_value (_, vbs) ->
           List.iter
             (fun (vb : value_binding) ->
               if binds_variable vb.pvb_pat then scan_toplevel#scan vb.pvb_expr)
             vbs
         | _ -> ());
        super#structure_item item
    end
  in
  let lexbuf = Lexing.from_string source in
  lexbuf.Lexing.lex_curr_p <-
    { Lexing.pos_fname = file; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
  (match Parse.implementation lexbuf with
   | ast -> iter#structure ast
   | exception e ->
     found :=
       {
         file;
         line = 1;
         col = 0;
         rule = "parse";
         severity = Rules.Error;
         message = "cannot parse: " ^ Printexc.to_string e;
         chain = [];
       }
       :: !found);
  !found

(* Lint one compilation unit: run the syntactic rules, merge in
   findings the typed engine produced for this file ([typed]), then
   apply waivers to the union. [used_sites] names pragma lines the
   typed engine already consumed (R9 effect-site waivers), so they are
   not reported as unused. When [only] restricts the rule set, unused
   waivers are not reported at all: a waiver for an unselected rule is
   not dead, it is just out of scope for this run. *)
let lint_source ?(typed = []) ?only ?(used_sites = []) ~file source =
  let file = Paths.norm_fname file in
  let raw = run_rules ?only ~file source @ typed in
  let pragmas, malformed =
    List.partition_map
      (function
        | Pragma.Pragma p -> Either.Left p
        | Pragma.Malformed { line; msg } -> Either.Right (line, msg))
      (Pragma.scan source)
  in
  let used = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace used l ()) used_sites;
  let kept =
    List.filter
      (fun f ->
        match
          List.find_opt
            (fun p -> Pragma.covers p ~rule:f.rule ~line:f.line)
            pragmas
        with
        | Some p ->
          Hashtbl.replace used p.Pragma.line ();
          false
        | None -> true)
      raw
  in
  let unused =
    if only <> None then []
    else
      List.filter_map
        (fun (p : Pragma.t) ->
          if Hashtbl.mem used p.line then None
          else
            Some
              {
                file;
                line = p.line;
                col = 0;
                rule = "pragma";
                severity = Rules.Warn;
                message =
                  Printf.sprintf "unused waiver for %s (nothing to waive here)"
                    (String.concat "," p.rules);
                chain = [];
              })
        pragmas
  in
  let bad =
    List.map
      (fun (line, msg) ->
        {
          file;
          line;
          col = 0;
          rule = "pragma";
          severity = Rules.Error;
          message = msg;
          chain = [];
        })
      malformed
  in
  List.sort compare_findings (kept @ unused @ bad)

let lint_file ?typed ?only ?used_sites path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let source = really_input_string ic n in
  close_in ic;
  lint_source ?typed ?only ?used_sites ~file:path source

let errors findings = List.filter (fun f -> f.severity = Rules.Error) findings
