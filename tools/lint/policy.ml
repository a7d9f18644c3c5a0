(* The privacy policy of mycelium-analyze: which canonical names are
   sources, sanitizers, sinks and charge points, and the sets the
   budget-order and pool-purity rules are parameterized by.  This
   file IS the policy — reviewing a change to the repo's privacy
   discipline means reviewing a diff of this file (DESIGN.md §15).

   Canonical names are fully-expanded dotted paths as the analyzer
   resolves them from the typedtree: local module aliases expanded,
   dune wrapper mangling ["Lib__Mod"] rewritten to ["Lib.Mod"], the
   stdlib under its ["Stdlib."] prefix.

   Design decisions worth their comments:

   - Contact graphs become Secret at *construction* ([generate],
     [of_edges]); accessors ([neighbors], [k_hop], ...) propagate
     whatever the graph argument carries.  This is what makes
     [Contact_graph.clip_to_degree_bound] load-bearing: the runtime
     clips the graph once at init, every later accessor returns
     Clipped data, and a path that skips the clip keeps returning
     Secret.

   - [Committee.decrypt_and_release]/[decrypt_batch] are *noise*
     sanitizers, not sources: per the paper (§4.2) the committee adds
     the calibrated Laplace noise inside the MPC before anything
     reaches the aggregator.  Noise maps Clipped to Noised but leaves
     Secret alone — noise over unclipped data has unbounded
     sensitivity, so the Clipped→Noised ordering is enforced by the
     lattice itself.  Raw [Bgv.decrypt] stays a Secret source.

   - Structural graph aggregates ([population], [edge_count],
     [max_degree], [degree], [horizon_days]) are
     neutral: they are config echoes or whole-population counts the
     operator already knows, not per-user data.  [vertex]/[neighbors]
     and friends do propagate.

   - Digests are neutral: cache keys and fault coordinates are
     derived from digests of query shapes and adjacency, and treating
     a hash as Secret would poison every key comparison while
     releasing nothing an analyst can invert.  (A formal treatment
     would call this a declassification point; it is listed here so
     the review trail says so.) *)

(* ------------------------------------------------------------------ *)
(* Classification of canonical names                                   *)
(* ------------------------------------------------------------------ *)

type classification =
  | Source of Taint.level
  | Sanitize of Taint.tf
  | Sink of string  (* short description used in messages *)
  | Charge of int  (* positional index of the epsilon argument *)
  | Neutral  (* result carries nothing, whatever the args *)
  | Passthrough  (* join of the arguments, provenance kept *)
  | Opaque  (* join of the arguments, const/env provenance dropped *)

let sources =
  [
    ("Mycelium_graph.Contact_graph.generate", Taint.Secret);
    ("Mycelium_graph.Contact_graph.of_edges", Taint.Secret);
    ("Mycelium_graph.Epidemic.run", Taint.Secret);
    (* raw threshold decryption, before any noise *)
    ("Mycelium_bgv.Bgv.decrypt", Taint.Secret);
    ("Mycelium_core.Committee.reconstruct_for_tests", Taint.Secret);
  ]

let sanitizers =
  [
    ("Mycelium_graph.Contact_graph.clip_to_degree_bound", Taint.tf_clip);
    ("Mycelium_dp.Dp.laplace_noise", Taint.tf_noise);
    ("Mycelium_dp.Dp.release_histogram", Taint.tf_noise);
    ("Mycelium_dp.Dp.release_sum", Taint.tf_noise);
    (* the committee noises inside the MPC (§4.2) *)
    ("Mycelium_core.Committee.decrypt_and_release", Taint.tf_noise);
    ("Mycelium_core.Committee.decrypt_batch", Taint.tf_noise);
  ]

let sinks =
  [
    ("Mycelium_obs.Obs.Ledger.append", "audit-ledger row");
    ("Mycelium_obs.Obs.write_chrome_trace", "trace export");
    ("Mycelium_obs.Obs.chrome_trace_to_channel", "trace export");
    ("Mycelium_obs.Obs.write_prometheus", "metrics export");
    ("Stdlib.print_string", "stdout");
    ("Stdlib.print_endline", "stdout");
    ("Stdlib.print_int", "stdout");
    ("Stdlib.print_float", "stdout");
    ("Stdlib.prerr_string", "stderr");
    ("Stdlib.prerr_endline", "stderr");
    ("Stdlib.output_string", "channel write");
    ("Stdlib.Printf.printf", "stdout");
    ("Stdlib.Printf.eprintf", "stderr");
    ("Stdlib.Printf.fprintf", "channel write");
    ("Stdlib.Format.printf", "stdout");
    ("Stdlib.Format.eprintf", "stderr");
    ("Stdlib.Format.fprintf", "channel write");
  ]

let charges =
  [ ("Mycelium_dp.Dp.budget_charge", 1); ("Mycelium_serve.Accountant.charge", 1) ]

(* Pure plumbing whose result provably carries nothing from the
   arguments: predicates, sizes, structural aggregates, digests. *)
let neutrals =
  [
    "Mycelium_graph.Contact_graph.population";
    "Mycelium_graph.Contact_graph.horizon_days";
    "Mycelium_graph.Contact_graph.degree";
    "Mycelium_graph.Contact_graph.max_degree";
    "Mycelium_graph.Contact_graph.edge_count";
    "Stdlib.compare";
    "Stdlib.List.length";
    "Stdlib.Array.length";
    "Stdlib.String.length";
    "Stdlib.Bytes.length";
    "Stdlib.Hashtbl.length";
    "Stdlib.ignore";
  ]

let neutral_prefixes =
  [
    (* hashes are identifiers, not data — see the header comment *)
    "Stdlib.Digest.";
    (* deterministic generator plumbing: seeds and draws are not
       user data, and Rng handles flow everywhere *)
    "Mycelium_util.Rng.";
    (* metric names *)
    "Mycelium_obs.Obs.Names.";
  ]

(* Combinators whose result is evidently built from their arguments
   and nothing else: provenance (including const/env epsilon
   origins) rides through.  Scaling a constant epsilon is still a
   constant epsilon. *)
let passthroughs =
  [
    "Stdlib.+.";
    "Stdlib.-.";
    "Stdlib.*.";
    "Stdlib./.";
    "Stdlib.~-.";
    "Stdlib.+";
    "Stdlib.-";
    "Stdlib.*";
    "Stdlib.~-";
    "Stdlib.abs_float";
    "Stdlib.min";
    "Stdlib.max";
    "Stdlib.fst";
    "Stdlib.snd";
    "Stdlib.!";
    "Stdlib.ref";
    "Stdlib.Float.min";
    "Stdlib.Float.max";
    "Stdlib.Float.abs";
    "Stdlib.Option.value";
    "Stdlib.Option.get";
    "Stdlib.Option.some";
    "Stdlib.Result.get_ok";
  ]

let comparisons =
  [ "Stdlib.="; "Stdlib.<>"; "Stdlib.<"; "Stdlib.>"; "Stdlib.<="; "Stdlib.>=";
    "Stdlib.=="; "Stdlib.!="; "Stdlib.&&"; "Stdlib.||"; "Stdlib.not" ]

let table : (string, classification) Hashtbl.t =
  let t = Hashtbl.create 128 in
  List.iter (fun (n, l) -> Hashtbl.replace t n (Source l)) sources;
  List.iter (fun (n, tf) -> Hashtbl.replace t n (Sanitize tf)) sanitizers;
  List.iter (fun (n, d) -> Hashtbl.replace t n (Sink d)) sinks;
  List.iter (fun (n, i) -> Hashtbl.replace t n (Charge i)) charges;
  List.iter (fun n -> Hashtbl.replace t n Neutral) neutrals;
  List.iter (fun n -> Hashtbl.replace t n Neutral) comparisons;
  List.iter (fun n -> Hashtbl.replace t n Passthrough) passthroughs;
  t

let classify name : classification option =
  match Hashtbl.find_opt table name with
  | Some c -> Some c
  | None ->
    if List.exists (fun p -> String.starts_with ~prefix:p name) neutral_prefixes
    then Some Neutral
    else None

(* ------------------------------------------------------------------ *)
(* epsilon-flow                                                        *)
(* ------------------------------------------------------------------ *)

(* Reading the environment is a provenance origin, like a float
   literal: an epsilon from the process environment did not come
   from the analyst's parsed query. *)
let env_readers = [ "Stdlib.Sys.getenv"; "Stdlib.Sys.getenv_opt" ]

(* ------------------------------------------------------------------ *)
(* budget-order                                                        *)
(* ------------------------------------------------------------------ *)

(* Serve-path entry points: within each, in evaluation order, no
   call transitively reaching crypto/gather work may precede the
   first call transitively reaching an accountant charge.  Functions
   whose name starts with [serve_entry_] are entries too — that is
   how fixtures (and future serve paths) opt in without editing this
   file. *)
let serve_entries =
  [
    "Mycelium_serve.Serve.submit";
    "Mycelium_core.Runtime.run_batch";
    "Mycelium_core.Runtime.run_query_ast";
  ]

let serve_entry_prefix = "serve_entry_"

let is_serve_entry name =
  List.mem name serve_entries
  ||
  let base = match String.rindex_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  String.starts_with ~prefix:serve_entry_prefix base

(* The expensive work a charge must precede is the work that runs on
   the kernels: the ring arithmetic and the symmetric crypto.  Any
   function whose calls reach one of these is crypto/gather work
   ([Analyze.reach_sets] closes over the call graph), so an O(1)
   accessor of a BGV key or a query's layout is not, whatever module
   it lives in. *)
let crypto_kernels = [ "Mycelium_math.Mont_backend."; "Mycelium_crypto." ]

let is_crypto name = List.exists (fun p -> String.starts_with ~prefix:p name) crypto_kernels

(* Paths whose members were already charged at their own admission:
   [Serve.drain]/[run_chunk] flush queries that each paid
   [Accountant.charge] when [submit] accepted them, so a deadline
   flush at the top of [submit] — before the *new* request's charge
   — is not a violation.  Reachability does not traverse through
   these. *)
let assume_charged =
  [ "Mycelium_serve.Serve.drain"; "Mycelium_serve.Serve.run_chunk" ]

let is_assume_charged name = List.mem name assume_charged

(* ------------------------------------------------------------------ *)
(* pool-purity                                                         *)
(* ------------------------------------------------------------------ *)

(* Parallel entry points of lib/parallel: closures passed positionally
   to these run concurrently. *)
let pool_entries =
  [
    "Mycelium_parallel.Pool.map_array";
    "Mycelium_parallel.Pool.mapi_array";
    "Mycelium_parallel.Pool.init";
  ]

let is_pool_entry name = List.mem name pool_entries

(* Mutating operations: function, positional index of the mutated
   target, index of the written value (None when none carries data,
   e.g. incr), and index of the element/offset argument whose
   dependence on a closure-bound variable proves disjoint-by-index
   writes. *)
type writer = {
  w_fn : string;
  w_target : int;
  w_value : int option;
  w_index : int option;
}

let writers =
  [
    { w_fn = "Stdlib.:="; w_target = 0; w_value = Some 1; w_index = None };
    { w_fn = "Stdlib.incr"; w_target = 0; w_value = None; w_index = None };
    { w_fn = "Stdlib.decr"; w_target = 0; w_value = None; w_index = None };
    { w_fn = "Stdlib.Array.set"; w_target = 0; w_value = Some 2; w_index = Some 1 };
    { w_fn = "Stdlib.Array.unsafe_set"; w_target = 0; w_value = Some 2; w_index = Some 1 };
    { w_fn = "Stdlib.Array.fill"; w_target = 0; w_value = Some 3; w_index = Some 1 };
    { w_fn = "Stdlib.Array.blit"; w_target = 2; w_value = Some 0; w_index = Some 3 };
    { w_fn = "Stdlib.Bytes.set"; w_target = 0; w_value = Some 2; w_index = Some 1 };
    { w_fn = "Stdlib.Bytes.unsafe_set"; w_target = 0; w_value = Some 2; w_index = Some 1 };
    { w_fn = "Stdlib.Bytes.fill"; w_target = 0; w_value = Some 3; w_index = Some 1 };
    { w_fn = "Stdlib.Bytes.blit"; w_target = 2; w_value = Some 0; w_index = Some 3 };
    { w_fn = "Stdlib.Bytes.blit_string"; w_target = 2; w_value = Some 0; w_index = Some 3 };
    { w_fn = "Stdlib.Bytes.unsafe_blit"; w_target = 2; w_value = Some 0; w_index = Some 3 };
    { w_fn = "Stdlib.Bigarray.Array1.set"; w_target = 0; w_value = Some 2; w_index = Some 1 };
    { w_fn = "Stdlib.Bigarray.Array1.unsafe_set"; w_target = 0; w_value = Some 2; w_index = Some 1 };
    { w_fn = "Stdlib.Hashtbl.replace"; w_target = 0; w_value = Some 2; w_index = None };
    { w_fn = "Stdlib.Hashtbl.add"; w_target = 0; w_value = Some 2; w_index = None };
    { w_fn = "Stdlib.Hashtbl.remove"; w_target = 0; w_value = None; w_index = None };
    { w_fn = "Stdlib.Hashtbl.reset"; w_target = 0; w_value = None; w_index = None };
    { w_fn = "Stdlib.Hashtbl.clear"; w_target = 0; w_value = None; w_index = None };
    { w_fn = "Stdlib.Buffer.add_string"; w_target = 0; w_value = Some 1; w_index = None };
    { w_fn = "Stdlib.Buffer.add_char"; w_target = 0; w_value = Some 1; w_index = None };
    { w_fn = "Stdlib.Buffer.add_bytes"; w_target = 0; w_value = Some 1; w_index = None };
    { w_fn = "Stdlib.Buffer.clear"; w_target = 0; w_value = None; w_index = None };
    { w_fn = "Stdlib.Buffer.reset"; w_target = 0; w_value = None; w_index = None };
    { w_fn = "Stdlib.Queue.push"; w_target = 1; w_value = Some 0; w_index = None };
    { w_fn = "Stdlib.Queue.add"; w_target = 1; w_value = Some 0; w_index = None };
  ]

let writer_of name = List.find_opt (fun w -> String.equal w.w_fn name) writers

(* ------------------------------------------------------------------ *)
(* Names the policy expects the repository to define                  *)
(* ------------------------------------------------------------------ *)

(* Every repository name and prefix the tables above mention.  A test
   checks each against the functions the analyzer finds in lib/: a
   deleted or renamed source or sink would otherwise drop out of
   dp-release without a sound. *)
let repo_names =
  List.filter
    (String.starts_with ~prefix:"Mycelium_")
    (List.map fst sources @ List.map fst sanitizers @ List.map fst sinks
   @ List.map fst charges @ neutrals @ serve_entries @ assume_charged @ pool_entries)

let repo_prefixes =
  List.filter (String.starts_with ~prefix:"Mycelium_") (neutral_prefixes @ crypto_kernels)
