(* mycelium-analyze CLI.

     analyze_main.exe [--root DIR] [--source-root DIR] [--json PATH|-]
                      [--stats] [ROOT...]

   With no ROOT, the rules check the repository's lib/ and bin/ and
   read bench/, benchmark/, examples/ and tools/ for callers
   ([Analyze.repo_roots], [Analyze.repo_callers]); test/ is not read,
   so an export that only a test names is unused.  ROOTs replace both
   sets: the rules check them, and only they count as callers.  Each
   directory is a build tree — typically run from [_build/default] via
   [--root] — and one that holds no [.cmt] is an error, so a sweep
   cannot go empty unnoticed.  Every run reads each [.cmt] and [.cmti]
   afresh.  [--stats] prints the summary/rule table.  Exits non-zero
   when unsuppressed violations remain. *)

module A = Mycelium_lint.Analyze

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse roots json stats srcroot = function
    | "--root" :: dir :: rest ->
      Sys.chdir dir;
      parse roots json stats srcroot rest
    | "--source-root" :: dir :: rest -> parse roots json stats dir rest
    | "--json" :: path :: rest -> parse roots (Some path) stats srcroot rest
    | "--stats" :: rest -> parse roots json true srcroot rest
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
      prerr_endline ("mycelium-analyze: unknown option " ^ arg);
      exit 2
    | root :: rest -> parse (root :: roots) json stats srcroot rest
    | [] -> (List.rev roots, json, stats, srcroot)
  in
  let roots, json, stats, source_root = parse [] None false "." args in
  let roots, callers =
    if roots = [] then (A.repo_roots, A.repo_callers) else (roots, [])
  in
  (* convenience: when run from the repo root, cmts live in _build *)
  let locate r =
    let built = Filename.concat (Filename.concat "_build" "default") r in
    let r =
      if Sys.file_exists r && A.find_cmts r [] <> [] then r
      else if Sys.file_exists built then built
      else r
    in
    if not (Sys.file_exists r) then begin
      prerr_endline
        ("mycelium-analyze: no such root: " ^ r ^ " (run from the repo root or pass --root)");
      exit 2
    end;
    if A.find_cmts r [] = [] then begin
      prerr_endline
        ("mycelium-analyze: no .cmt under " ^ r
       ^ " (build it first, e.g. dune build @check)");
      exit 2
    end;
    r
  in
  let roots = List.map locate roots and callers = List.map locate callers in
  let res = A.run ~source_root ~callers ~roots () in
  print_string (A.console_of_result res);
  if stats then print_string (A.stats_of_result res);
  (match json with
  | Some "-" -> print_endline (A.Json.to_string (A.json_of_result res))
  | Some path ->
    let oc = open_out path in
    output_string oc (A.Json.to_string (A.json_of_result res));
    output_string oc "\n";
    close_out oc
  | None -> ());
  if res.A.report.Mycelium_lint.Lint.violations <> [] then exit 1
