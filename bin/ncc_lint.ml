(* ncc_lint — the determinism linter (docs/determinism.md,
   docs/performance.md).

   Usage: ncc_lint [--format human|json|sarif] [--werror]
                   [--rules R1,R7,...] [--cmt-root DIR] [--explain Rn]
                   [--waivers] [PATH ...]

   Lints every .ml file under the given paths (default: lib bin bench
   test) against the syntactic rule set R1-R6, and — when --cmt-root
   points at a build tree containing .cmt files — the typed rules
   R7-R10, the race plane R12-R15 and the allocation plane R16-R19 as
   well. Exits non-zero if any error-severity finding survives
   waivers; [--werror] also fails on warnings (unused waiver
   pragmas). *)

let default_roots = [ "lib"; "bin"; "bench"; "test" ]

let usage =
  "usage: ncc_lint [--format human|json|sarif] [--werror] [--rules R1,R7,...] \
   [--cmt-root DIR] [--explain Rn] [--waivers] [PATH ...]\n\n\
  \  --format FMT    finding output: human (default) file:line text, json\n\
  \                  (top-level \"version\" field tracks the schema), or\n\
  \                  sarif (SARIF 2.1.0, for code-scanning upload)\n\
  \  --json          alias for --format json\n\
  \  --werror        exit non-zero on warnings too\n\
  \  --rules IDS     run only the comma-separated rule ids (e.g. R7,R9);\n\
  \                  retired ids select their successor (R11 -> R12)\n\
  \  --cmt-root DIR  also run the typed rules R7-R10 and the race plane\n\
  \                  R12-R15 over the .cmt files found under DIR (a dune\n\
  \                  build tree, e.g. _build/default — or . when already\n\
  \                  running inside it)\n\
  \  --explain IDS   print each rule's summary, rationale and a minimal\n\
  \                  firing example, then exit (e.g. --explain R12)\n\
  \  --waivers       list every waiver pragma under PATHs (file:line,\n\
  \                  rules, reason) in deterministic order, then exit\n\
  \  --help          show this message\n\n\
   Default PATHs: lib bin bench test. Rules: docs/determinism.md.\n"

let die msg =
  Printf.eprintf "ncc_lint: %s\n%s" msg usage;
  exit 2

(* Directory walk in sorted order — the linter obeys its own contract:
   [Sys.readdir]'s order is unspecified, so we sort. *)
let rec walk ~ext ~skip_dot path acc =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if
             name = "" || name = "_build" || name = ".git"
             || (skip_dot && name.[0] = '.')
           then acc
           else walk ~ext ~skip_dot (Filename.concat path name) acc)
         acc
  else if Filename.check_suffix path ext then path :: acc
  else acc

type format = Human | Json | Sarif

type opts = {
  format : format;
  werror : bool;
  rules : string list option;
  cmt_root : string option;
  waivers : bool;
  roots : string list;
}

let parse_format = function
  | "human" -> Human
  | "json" -> Json
  | "sarif" -> Sarif
  | s -> die (Printf.sprintf "unknown format: %s (human, json or sarif)" s)

let parse_rules spec =
  let ids =
    List.filter (fun s -> s <> "") (String.split_on_char ',' spec)
  in
  if ids = [] then die "--rules needs a comma-separated list of rule ids";
  (match
     List.filter (fun id -> not (List.mem id Lint.Rules.known_ids)) ids
   with
   | [] -> ()
   | bad ->
     die
       (Printf.sprintf "unknown rule id(s): %s (known: %s)"
          (String.concat ", " bad)
          (String.concat " " Lint.Rules.known_ids)));
  ids

(* --explain: the registry's documentation, on the terminal. *)
let explain ids =
  List.iteri
    (fun i id ->
      match Lint.Rules.find id with
      | None ->
        die
          (Printf.sprintf "unknown rule id: %s (known: %s)" id
             (String.concat " " Lint.Rules.known_ids))
      | Some r ->
        if i > 0 then print_newline ();
        let canon = Lint.Rules.canon_id id in
        if canon <> id then
          Printf.printf "%s is retired; it is an alias of %s:\n\n" id canon;
        Printf.printf "%s (%s) — %s\n\n%s\n\nfires on:\n" r.id
          (Lint.Rules.severity_to_string r.severity)
          r.summary r.rationale;
        List.iter
          (fun l -> Printf.printf "    %s\n" l)
          (String.split_on_char '\n' r.example);
        if r.allowed_files <> [] then
          Printf.printf "\nexempt files: %s\n"
            (String.concat ", " r.allowed_files))
    ids;
  exit 0

let split_eq a =
  match String.index_opt a '=' with
  | Some i ->
    Some (String.sub a 0 i, String.sub a (i + 1) (String.length a - i - 1))
  | None -> None

let parse_args args =
  let rec go o = function
    | [] -> o
    | "--help" :: _ ->
      print_string usage;
      exit 0
    | "--json" :: rest -> go { o with format = Json } rest
    | "--format" :: fmt :: rest -> go { o with format = parse_format fmt } rest
    | [ "--format" ] -> die "--format needs an argument (human, json or sarif)"
    | "--werror" :: rest -> go { o with werror = true } rest
    | "--waivers" :: rest -> go { o with waivers = true } rest
    | "--rules" :: spec :: rest ->
      go { o with rules = Some (parse_rules spec) } rest
    | [ "--rules" ] -> die "--rules needs an argument"
    | "--cmt-root" :: dir :: rest -> go { o with cmt_root = Some dir } rest
    | [ "--cmt-root" ] -> die "--cmt-root needs an argument"
    | "--explain" :: spec :: _ -> explain (parse_rules spec)
    | [ "--explain" ] -> die "--explain needs a rule id (e.g. --explain R12)"
    | a :: rest when String.length a >= 2 && String.sub a 0 2 = "--" -> (
      match split_eq a with
      | Some ("--rules", spec) -> go { o with rules = Some (parse_rules spec) } rest
      | Some ("--cmt-root", dir) -> go { o with cmt_root = Some dir } rest
      | Some ("--format", fmt) -> go { o with format = parse_format fmt } rest
      | Some ("--explain", spec) -> explain (parse_rules spec)
      | _ -> die (Printf.sprintf "unknown flag: %s" a))
    | path :: rest -> go { o with roots = o.roots @ [ path ] } rest
  in
  go
    { format = Human; werror = false; rules = None; cmt_root = None;
      waivers = false; roots = [] }
    args

let () =
  let o = parse_args (List.tl (Array.to_list Sys.argv)) in
  let roots = if o.roots = [] then default_roots else o.roots in
  (match List.filter (fun r -> not (Sys.file_exists r)) roots with
   | [] -> ()
   | missing -> die ("no such path(s): " ^ String.concat " " missing));
  (* (name, path): findings are matched and reported by the
     repo-relative name; the file is read from the path the walk
     found. *)
  let files =
    List.rev
      (List.fold_left
         (fun acc root -> walk ~ext:".ml" ~skip_dot:true root acc)
         [] roots)
    |> List.map (fun path -> (Lint.Paths.norm_fname path, path))
    |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
  in
  if o.waivers then begin
    (* inventory mode: list every waiver pragma under the roots and
       exit; malformed pragmas are lint findings, not inventory rows *)
    let items =
      List.concat_map
        (fun (file, path) ->
          match In_channel.with_open_bin path In_channel.input_all with
          | source ->
            List.filter_map
              (function
                | Lint.Pragma.Pragma p -> Some (file, p)
                | Lint.Pragma.Malformed _ -> None)
              (Lint.Pragma.scan source)
          | exception Sys_error _ -> [])
        files
    in
    Lint.Report.print_waivers Format.std_formatter items;
    exit 0
  end;
  (* Typed rules first: their findings merge into each file's waiver
     pass below. The .objs directories holding .cmt files are
     dot-named, so this walk must not skip dot entries. *)
  let typed, used_sites =
    match o.cmt_root with
    | None -> ([], [])
    | Some dir ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        die ("--cmt-root: no such directory: " ^ dir);
      let cmts = List.rev (walk ~ext:".cmt" ~skip_dot:false dir []) in
      Lint.Typed_engine.lint_cmts ?only:o.rules cmts
  in
  let in_scope f = List.mem_assoc f.Lint.Engine.file files in
  let typed_in_scope, typed_stray = List.partition in_scope typed in
  (* Findings the cmt walk produced for files outside the requested
     roots are dropped; unreadable-cmt errors always surface. *)
  let typed_stray =
    List.filter (fun f -> f.Lint.Engine.rule = "cmt") typed_stray
  in
  let findings =
    List.concat_map
      (fun (file, path) ->
        let typed =
          List.filter (fun f -> f.Lint.Engine.file = file) typed_in_scope
        in
        let used_sites =
          List.filter_map
            (fun (f, line) -> if f = file then Some line else None)
            used_sites
        in
        Lint.Engine.lint_file ~typed ?only:o.rules ~used_sites path)
      files
    @ typed_stray
  in
  let findings = List.sort Lint.Engine.compare_findings findings in
  (match o.format with
   | Json -> Lint.Report.print_json Format.std_formatter findings
   | Sarif -> Lint.Report.print_sarif Format.std_formatter findings
   | Human ->
     if findings <> [] then Lint.Report.print_human Format.std_formatter findings
     else
       Printf.printf "ncc_lint: %d files clean (rules %s)\n" (List.length files)
         (String.concat " "
            (match o.rules with
             | None -> Lint.Rules.known_ids
             | Some ids -> ids)));
  let errors = Lint.Engine.errors findings in
  if errors <> [] || (o.werror && findings <> []) then exit 1
