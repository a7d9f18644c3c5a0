(* Command-line front end: generate a synthetic population, run
   differentially-private graph queries over it, or inspect a query's
   static analysis.

     dune exec bin/mycelium_cli.exe -- analyze "SELECT ..."
     dune exec bin/mycelium_cli.exe -- run --population 30 --epsilon 1.0 "SELECT ..."
     dune exec bin/mycelium_cli.exe -- corpus
     dune exec bin/mycelium_cli.exe -- serve workload.jsonl --batch-size 8
     dune exec bin/mycelium_cli.exe -- audit ledger.jsonl
*)

module Rng = Mycelium_util.Rng
module Cg = Mycelium_graph.Contact_graph
module Epidemic = Mycelium_graph.Epidemic
module Parser = Mycelium_query.Parser
module Analysis = Mycelium_query.Analysis
module Semantics = Mycelium_query.Semantics
module Corpus = Mycelium_query.Corpus
module Ast = Mycelium_query.Ast
module Params = Mycelium_bgv.Params
module Runtime = Mycelium_core.Runtime
module Obs = Mycelium_obs.Obs
module Serve = Mycelium_serve.Serve
module Accountant = Mycelium_serve.Accountant
module Agg_cache = Mycelium_serve.Agg_cache

open Cmdliner

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"The query (or a corpus id like Q5).")

let resolve_query src =
  match Corpus.find src with
  | e -> e.Corpus.sql
  | exception Not_found -> src

let print_result = function
  | Semantics.Histogram groups ->
    Array.iter
      (fun (label, bins) ->
        Printf.printf "%-16s" label;
        Array.iteri (fun i v -> if Float.abs v > 0.4 then Printf.printf " %d:%.1f" i v) bins;
        print_newline ())
      groups
  | Semantics.Sums groups ->
    Array.iter (fun (label, v) -> Printf.printf "%-16s %.3f\n" label v) groups

(* [Runtime.init] refuses a configuration it cannot bring up (a
   population smaller than the committee) before any key is generated,
   and fails on a ledger path it cannot open; the command prints why
   and exits 1. *)
let init_runtime cfg graph =
  match Runtime.init cfg graph with
  | sys -> sys
  | exception Invalid_argument m ->
    Printf.eprintf "%s\n" m;
    exit 1
  | exception Sys_error m ->
    Printf.eprintf "ledger not opened: %s\n" m;
    exit 1

(* Write an export to its path, or say on stderr why it could not be
   written (the message names the path); false when it was not. *)
let export what write path =
  match write path with
  | () -> true
  | exception Sys_error m ->
    Printf.eprintf "%s not written: %s\n" what m;
    false

(* --- analyze ------------------------------------------------------- *)

let analyze_cmd =
  let doc = "Parse a query and print its static analysis." in
  let run src =
    let src = resolve_query src in
    match Parser.parse src with
    | Error e -> Printf.eprintf "parse error at %d: %s\n" e.Parser.position e.Parser.message; 1
    | Ok q -> (
      match Analysis.analyze q with
      | Error e -> Printf.eprintf "analysis error: %s\n" e; 1
      | Ok info ->
        Printf.printf "query:           %s\n" (Ast.to_string q);
        Printf.printf "hops:            %d\n" q.Ast.hops;
        Printf.printf "ciphertexts/row: %d\n" info.Analysis.ciphertext_count;
        Printf.printf "groups:          %d\n" info.Analysis.layout.Analysis.group_count;
        Printf.printf "bins needed:     %d\n" info.Analysis.layout.Analysis.total_bins;
        Printf.printf "multiplications: %d\n" info.Analysis.multiplications;
        Printf.printf "sensitivity:     %.1f\n" info.Analysis.sensitivity;
        (match Analysis.feasible info Params.paper with
        | Ok () -> Printf.printf "paper params:    feasible\n"
        | Error m -> Printf.printf "paper params:    infeasible (%s)\n" m);
        0)
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ query_arg)

(* --- run ----------------------------------------------------------- *)

let run_cmd =
  let doc = "Generate a population and run a query end to end (encrypted pipeline)." in
  let population =
    Arg.(value & opt int 30 & info [ "population"; "n" ] ~doc:"Number of devices.")
  in
  let degree = Arg.(value & opt int 4 & info [ "degree"; "d" ] ~doc:"Degree bound d.") in
  let epsilon = Arg.(value & opt float 1.0 & info [ "epsilon" ] ~doc:"Privacy epsilon (0 = exact, non-private).") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let plaintext =
    Arg.(
      value & flag
      & info [ "plaintext" ]
          ~doc:"Evaluate the query in the clear with the reference semantics instead (exact, no noise).")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a trace of the run and write it to $(docv) in Chrome trace_event \
             format (open in Perfetto or about://tracing), whatever the query's outcome: \
             a refused or failed query leaves its trace too. Enables the lib/obs \
             instrumentation; results are identical either way.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the lib/obs metrics registry (ciphertext ops, NTT multiplies, pool \
             chunks, degradation counters, ...) after the query. Enables the \
             instrumentation; results are identical either way.")
  in
  let ledger_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Append one audit record per query to $(docv) (JSONL; summarize with \
             $(b,mycelium audit)). Results are identical either way.")
  in
  let prometheus_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "prometheus" ] ~docv:"FILE"
          ~doc:
            "After the query, write every metric to $(docv) in Prometheus text \
             exposition format: the counters and histograms, and the levels (GC heap, \
             pool size, mixnet footprint) read as gauges at the time of writing.")
  in
  let run population degree epsilon seed plaintext trace_file metrics ledger_file
      prometheus_file src =
    let src = resolve_query src in
    let rng = Rng.create (Int64.of_int seed) in
    let graph =
      Cg.generate
        { Cg.default_config with Cg.population; degree_bound = degree; extra_contact_rate = 1.5 }
        rng
    in
    let (_ : Epidemic.outcome) = Epidemic.run Epidemic.default_config rng graph in
    let eps = if epsilon <= 0. then Float.infinity else epsilon in
    if plaintext then begin
      match Parser.parse src with
      | Error e -> Printf.eprintf "parse error: %s\n" e.Parser.message; 1
      | Ok q -> (
        match Analysis.analyze ~degree_bound:degree q with
        | Error e -> Printf.eprintf "analysis error: %s\n" e; 1
        | Ok info ->
          print_result
            (Semantics.decode info
               (Array.map float_of_int (Semantics.global_histogram info graph)));
          0)
    end
    else begin
      if trace_file <> None || metrics || prometheus_file <> None then Obs.enable ();
      let sys =
        init_runtime
          { Runtime.default_config with
            Runtime.params = Params.test_small;
            degree_bound = degree;
            ledger = ledger_file
          }
          graph
      in
      (* The trace is the run's post-mortem: it is written whatever the
         outcome, a refusal or an exception included.  A trace that
         cannot be written is reported without masking that outcome,
         and the run exits 1. *)
      let trace_lost = ref false in
      let write_trace () =
        Option.iter
          (fun path ->
            if export "trace" Obs.write_chrome_trace path then
              Printf.printf "(trace: %d spans written to %s)\n" (Obs.span_count ()) path
            else trace_lost := true)
          trace_file
      in
      let code =
        Fun.protect ~finally:write_trace (fun () ->
            match Runtime.run_query ~epsilon:eps sys src with
            | Ok r ->
              print_result r.Runtime.result;
              Printf.printf "(origins: %d, discarded: %d, committee generation: %d)\n"
                r.Runtime.origins_included r.Runtime.discarded_contributions
                r.Runtime.committee_generation;
              0
            | Error (Runtime.Parse_error m) -> Printf.eprintf "parse error: %s\n" m; 1
            | Error (Runtime.Analysis_error m) -> Printf.eprintf "analysis error: %s\n" m; 1
            | Error (Runtime.Infeasible m) -> Printf.eprintf "infeasible: %s\n" m; 1
            | Error (Runtime.Budget_exhausted v) ->
              Printf.eprintf "budget exhausted (%.2f left)\n" v; 1
            | Error (Runtime.Invalid_epsilon e) ->
              Printf.eprintf "invalid epsilon %g (must be finite and positive)\n" e; 1
            | Error (Runtime.Pipeline_error m) -> Printf.eprintf "pipeline error: %s\n" m; 1)
      in
      let prometheus_lost = ref false in
      if code = 0 then begin
        if metrics then print_string (Obs.metrics_table ());
        Option.iter
          (fun path ->
            if export "prometheus exposition" Obs.write_prometheus path then
              Printf.printf "(prometheus exposition written to %s)\n" path
            else prometheus_lost := true)
          prometheus_file;
        Option.iter (Printf.printf "(audit ledger appended to %s)\n") ledger_file
      end;
      if !trace_lost || !prometheus_lost then 1 else code
    end
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ population $ degree $ epsilon $ seed $ plaintext $ trace_file $ metrics
      $ ledger_file $ prometheus_file $ query_arg)

(* --- serve --------------------------------------------------------- *)

(* One workload line: {"user": "...", "epsilon": 0.5, "query": "Q5",
   "arrival": 1.25} — query is a corpus id or inline SQL, arrival (in
   seconds, monotone) drives the batch deadline and defaults to 0.
   epsilon is required and numeric; epsilon <= 0 asks for an exact
   release (admitted only under --no-budget). *)
let parse_workload_line lineno line =
  match Obs.Json.parse line with
  | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
  | Ok json ->
    let str k = match Obs.Json.member k json with Some (Obs.Json.Str s) -> Some s | _ -> None in
    let num k =
      match Obs.Json.member k json with
      | Some (Obs.Json.Num f) -> Some f
      | Some (Obs.Json.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    (match (str "user", str "query", num "epsilon") with
    | Some user, Some q, Some epsilon ->
      let epsilon = if epsilon <= 0. then Float.infinity else epsilon in
      let arrival = Option.value ~default:0.0 (num "arrival") in
      (* a corpus id doubles as the query's name, so ledger rows and
         responses say "Q5", not the parser's "query" placeholder *)
      let name = match Corpus.find q with _ -> Some q | exception Not_found -> None in
      Ok (arrival, { Serve.user; epsilon; sql = resolve_query q; name })
    | None, _, _ | _, None, _ ->
      Error (Printf.sprintf "line %d: needs \"user\" and \"query\" fields" lineno)
    | _, _, None -> Error (Printf.sprintf "line %d: needs a numeric \"epsilon\" field" lineno))

let serve_cmd =
  let doc =
    "Serve a workload file through the batching scheduler: admitted queries share one \
     mixnet round-trip and one committee decryption session per batch, repeated query \
     shapes hit the encrypted-aggregate cache, and each analyst draws from their own \
     privacy budget."
  in
  let workload_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "JSONL workload: one {\"user\", \"epsilon\", \"query\", \"arrival\"} object \
             per line; \"query\" is a corpus id (Q1..Q10) or inline SQL.")
  in
  let population =
    Arg.(value & opt int 30 & info [ "population"; "n" ] ~doc:"Number of devices.")
  in
  let degree = Arg.(value & opt int 4 & info [ "degree"; "d" ] ~doc:"Degree bound d.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed (graph, DP noise streams).") in
  let batch_size =
    Arg.(value & opt int 8 & info [ "batch-size" ] ~doc:"Flush a batch at this many admitted members.")
  in
  let deadline =
    Arg.(
      value & opt float 1.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Flush when the oldest pending member has waited this long on the workload's arrival clock.")
  in
  let cache_capacity =
    Arg.(value & opt int 64 & info [ "cache-capacity" ] ~doc:"Encrypted-aggregate cache entries (0 disables).")
  in
  let user_budget =
    Arg.(value & opt float 10.0 & info [ "user-budget" ] ~doc:"Per-analyst total epsilon.")
  in
  let no_budget =
    Arg.(
      value & flag
      & info [ "no-budget" ]
          ~doc:
            "Admit epsilon <= 0 (infinite-epsilon, exact-release) queries. Without this \
             flag the scheduler rejects them: a serving layer does not release \
             unbudgeted results.")
  in
  let trace_file =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record a trace and write Chrome trace_event format to $(docv). Results are identical either way.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics registry (serve.* admission, batch and cache counters included) after the workload.")
  in
  let ledger_file =
    Arg.(
      value & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:"Append one audit record per batch member to $(docv) (summarize with $(b,mycelium audit)).")
  in
  let run workload population degree seed batch_size deadline cache_capacity user_budget
      no_budget trace_file metrics ledger_file =
    let lines =
      let ic =
        match open_in workload with
        | ic -> ic
        | exception Sys_error m ->
          Printf.eprintf "serve: %s\n" m;
          exit 1
      in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc n =
            match input_line ic with
            | line ->
              let acc = if String.trim line = "" then acc else (n, line) :: acc in
              go acc (n + 1)
            | exception End_of_file -> List.rev acc
          in
          go [] 1)
    in
    let requests =
      List.filter_map
        (fun (n, line) ->
          match parse_workload_line n line with
          | Ok r -> Some r
          | Error e ->
            Printf.eprintf "serve: %s: %s\n" workload e;
            exit 1)
        lines
    in
    let rng = Rng.create (Int64.of_int seed) in
    let graph =
      Cg.generate
        { Cg.default_config with Cg.population; degree_bound = degree; extra_contact_rate = 1.5 }
        rng
    in
    let (_ : Epidemic.outcome) = Epidemic.run Epidemic.default_config rng graph in
    if trace_file <> None || metrics then Obs.enable ();
    let sys =
      init_runtime
        { Runtime.default_config with
          Runtime.params = Params.test_small;
          degree_bound = degree;
          seed = Int64.of_int seed;
          epsilon_budget = Float.max_float;
          ledger = ledger_file
        }
        graph
    in
    let srv =
      Serve.create
        ~config:
          { Serve.batch_size;
            deadline_s = deadline;
            per_user_budget = user_budget;
            accounting = Mycelium_dp.Dp.Basic;
            cache_capacity;
            allow_unbudgeted = no_budget;
            seed = Int64.of_int seed
          }
        sys
    in
    let admitted = ref 0 and rejected = ref 0 in
    let print_responses rs =
      List.iter
        (fun r ->
          match r.Serve.outcome with
          | Ok qr ->
            Printf.printf "#%d %s %s [%s]\n" r.Serve.seq r.Serve.user r.Serve.query_name
              (if r.Serve.cache_hit then "cache hit" else "fresh");
            print_result qr.Runtime.result
          | Error e ->
            Printf.printf "#%d %s %s failed: %s\n" r.Serve.seq r.Serve.user
              r.Serve.query_name
              (Serve.rejection_to_string (Serve.Invalid e)))
        rs
    in
    List.iter
      (fun (arrival, req) ->
        let adm, flushed = Serve.submit srv ~arrival req in
        (match adm with
        | Serve.Queued _ -> incr admitted
        | Serve.Rejected r ->
          incr rejected;
          Printf.printf "rejected %s: %s\n" req.Serve.user (Serve.rejection_to_string r));
        print_responses flushed)
      requests;
    print_responses (Serve.drain srv);
    Printf.printf "(admitted %d, rejected %d; cache: %d entries, %d evictions)\n" !admitted
      !rejected
      (Agg_cache.length (Serve.cache srv))
      (Agg_cache.evictions (Serve.cache srv));
    let acct = Serve.accountant srv in
    List.iter
      (fun user ->
        Printf.printf "(budget %-12s spent %.6g of %.6g)\n" user (Accountant.spent acct ~user)
          (Accountant.per_user_total acct))
      (Accountant.users acct);
    let trace_lost = ref false in
    Option.iter
      (fun path ->
        if export "trace" Obs.write_chrome_trace path then
          Printf.printf "(trace: %d spans written to %s)\n" (Obs.span_count ()) path
        else trace_lost := true)
      trace_file;
    if metrics then print_string (Obs.metrics_table ());
    Option.iter (Printf.printf "(audit ledger appended to %s)\n") ledger_file;
    if !trace_lost then 1 else 0
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ workload_arg $ population $ degree $ seed $ batch_size $ deadline
      $ cache_capacity $ user_budget $ no_budget $ trace_file $ metrics $ ledger_file)

(* --- audit --------------------------------------------------------- *)

let audit_cmd =
  let doc = "Summarize an audit ledger (per-query privacy spend, written by run --ledger)." in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Ledger JSONL file.")
  in
  let run file =
    match Obs.Ledger.read file with
    | Error e ->
      Printf.eprintf "audit: %s\n" e;
      1
    | Ok records ->
      let s = Obs.Ledger.summarize records in
      Printf.printf "ledger:            %s\n" file;
      Printf.printf "queries:           %d (ok %d, rejected %d, errored %d)\n"
        s.Obs.Ledger.records s.Obs.Ledger.ok s.Obs.Ledger.rejected s.Obs.Ledger.errored;
      Printf.printf "epsilon spent:     %.6g\n" s.Obs.Ledger.epsilon_spent;
      if s.Obs.Ledger.uncharged > 0 then
        Printf.printf "uncharged:         %d (epsilon = infinity, exact release)\n"
          s.Obs.Ledger.uncharged;
      (match (s.Obs.Ledger.budget_total, s.Obs.Ledger.budget_remaining) with
      | Some total, Some remaining ->
        Printf.printf "budget:            %.6g total, %.6g remaining\n" total remaining
      | _ -> ());
      if s.Obs.Ledger.by_name <> [] then begin
        Printf.printf "per query name:\n";
        List.iter
          (fun (name, runs, eps) ->
            Printf.printf "  %-24s %4d run%s  epsilon %.6g\n" name runs
              (if runs = 1 then " " else "s")
              eps)
          s.Obs.Ledger.by_name
      end;
      if s.Obs.Ledger.stage_s <> [] then begin
        Printf.printf "seconds per stage:\n";
        List.iter
          (fun (stage, seconds) -> Printf.printf "  %-24s %12.6f\n" stage seconds)
          s.Obs.Ledger.stage_s
      end;
      0
  in
  Cmd.v (Cmd.info "audit" ~doc) Term.(const run $ file)

(* --- corpus -------------------------------------------------------- *)

let corpus_cmd =
  let doc = "List the paper's ten queries (Figure 2)." in
  let run () =
    List.iter
      (fun (e : Corpus.entry) ->
        Printf.printf "%-4s %s\n     %s\n" e.Corpus.id e.Corpus.description e.Corpus.sql)
      Corpus.all;
    0
  in
  Cmd.v (Cmd.info "corpus" ~doc) Term.(const run $ const ())

let () =
  let doc = "Mycelium: large-scale distributed graph queries with differential privacy" in
  let info = Cmd.info "mycelium" ~doc in
  exit (Cmd.eval' (Cmd.group info [ analyze_cmd; run_cmd; serve_cmd; corpus_cmd; audit_cmd ]))
