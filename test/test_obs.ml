(* Observability suite (DESIGN.md §8): span and instant recording under
   the domain pool, histogram bucket math, exporter round-trips through
   the shared JSON codec, the trace the built CLI leaves on a refused
   query and its refusal of paths it cannot open, the stage spans and
   the ledger's stage durations, and the acceptance contract — query
   results, DP noise and degradation reports are byte-identical with
   tracing off or on, at any domain count.

   The @obs dune alias runs this twice: once plainly and once under
   MYCELIUM_DOMAINS=8, so every cell also executes with spans landing
   in eight per-domain buffers. *)

module Rng = Mycelium_util.Rng
module Cg = Mycelium_graph.Contact_graph
module Epidemic = Mycelium_graph.Epidemic
module Corpus = Mycelium_query.Corpus
module Params = Mycelium_bgv.Params
module Runtime = Mycelium_core.Runtime
module Fault_plan = Mycelium_faults.Fault_plan
module Injector = Mycelium_faults.Injector
module Sim = Mycelium_mixnet.Sim
module Pool = Mycelium_parallel.Pool
module Sha256 = Mycelium_crypto.Sha256
module Chacha20 = Mycelium_crypto.Chacha20
module Obs = Mycelium_obs.Obs
module Json = Mycelium_obs.Obs.Json

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("bool", Json.Bool true);
      ("int", Json.Int (-42));
      ("num", Json.Num 3.25);
      ("str", Json.Str "a \"quoted\"\\\nline\x01");
      ("list", Json.List [ Json.Int 1; Json.Str "two"; Json.List [] ]);
      ("obj", Json.Obj [ ("k", Json.Bool false) ]);
    ]

let test_json_roundtrip () =
  match Json.parse (Json.to_string sample_json) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok v -> checkb "round-trip preserves the value" true (v = sample_json)

let test_json_rejects () =
  let bad = [ "{\"a\":1} trailing"; "[1,]"; "{\"a\"}"; "nope"; "\"unterminated"; "" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "parser accepted %S" s
      | Error _ -> ())
    bad

let test_json_member () =
  checkb "member finds a key" true (Json.member "int" sample_json = Some (Json.Int (-42)));
  checkb "member misses absent keys" true (Json.member "absent" sample_json = None);
  checkb "member on non-objects" true (Json.member "x" (Json.Int 1) = None)

let test_json_escapes () =
  (* \uXXXX escapes decode to UTF-8, surrogate pairs combine, and the
     emitter's control-character escapes survive a round trip. *)
  let parse_exn s =
    match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  checkb "BMP escape" true (parse_exn {|"\u00e9"|} = Json.Str "\xc3\xa9");
  checkb "ASCII escape" true (parse_exn {|"\u0041"|} = Json.Str "A");
  checkb "three-byte escape" true (parse_exn {|"\u20ac"|} = Json.Str "\xe2\x82\xac");
  checkb "surrogate pair -> U+1F600" true
    (parse_exn {|"\ud83d\ude00"|} = Json.Str "\xf0\x9f\x98\x80");
  (* Embedded NUL: escaped on output, preserved through a round trip. *)
  let nul = Json.Str "a\x00b" in
  checkb "NUL survives a round trip" true (Json.parse (Json.to_string nul) = Ok nul);
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "parser accepted %S" s
      | Error _ -> ())
    [
      {|"\ud83d"|} (* lone high surrogate *);
      {|"\ude00"|} (* lone low surrogate *);
      {|"\ud83dA"|} (* high surrogate followed by a non-surrogate *);
      {|"\u12g4"|} (* non-hex digit *);
      {|"\u1_34"|} (* OCaml literal underscore is not JSON hex *);
      {|"\u123"|} (* truncated *);
    ]

let test_json_depth_limit () =
  let nested n = String.concat "" [ String.make n '['; "1"; String.make n ']' ] in
  (match Json.parse (nested 100) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth 100 should parse: %s" e);
  (match Json.parse (nested 511) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth 511 should parse: %s" e);
  (match Json.parse (nested 5000) with
  | Ok _ -> Alcotest.fail "parser accepted 5000 levels of nesting"
  | Error _ -> ());
  (* Same limit through object nesting. *)
  let deep_obj n =
    String.concat ""
      [ String.concat "" (List.init n (fun _ -> "{\"k\":")); "1"; String.make n '}' ]
  in
  match Json.parse (deep_obj 5000) with
  | Ok _ -> Alcotest.fail "parser accepted 5000 levels of object nesting"
  | Error _ -> ()

(* How many times [needle] occurs in [s], without overlaps. *)
let occurrences s needle =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.equal (String.sub s i n) needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* The whole of a file, removed afterwards. *)
let read_and_remove path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let test_json_to_channel () =
  (* The streaming writer behind a ledger row emits byte-identical
     output to to_string. *)
  let path = Filename.temp_file "obs_json" ".json" in
  let ledger = Obs.Ledger.open_ path in
  Obs.Ledger.append ledger sample_json;
  Obs.Ledger.close ledger;
  checkb "to_channel matches to_string" true
    (String.equal (read_and_remove path) (Json.to_string sample_json ^ "\n"))

(* A finite float comes back bit for bit, whatever its scale; JSON has
   no infinity or NaN, so those are written null. *)
let test_json_float_roundtrip () =
  let roundtrips f =
    let s = Json.to_string (Json.Num f) in
    match Json.parse s with
    | Ok (Json.Num g) -> checkb (Printf.sprintf "%h written %s" f s) true (Float.equal f g)
    | Ok _ | Error _ -> Alcotest.failf "%h written %s does not parse back as a number" f s
  in
  List.iter roundtrips
    [
      1. /. 3.;
      1e-7;
      0.1;
      1e300;
      -2.5e-300;
      0.47619057619047617;
      1234567890123456.;
      123456789012345.67;
      4503599627370495.5;
      1e17;
      Float.max_float;
      Float.min_float;
    ];
  (* Finite doubles from random bit patterns, every exponent range. *)
  let rng = Rng.create 7L in
  for _ = 1 to 10_000 do
    let f = Int64.float_of_bits (Rng.int64 rng) in
    if Float.is_finite f then roundtrips f
  done;
  checkb "integers keep their short form" true
    (String.equal (Json.to_string (Json.Num 2.)) "2.0");
  List.iter
    (fun f ->
      checkb (Printf.sprintf "%h written null" f) true
        (String.equal (Json.to_string (Json.Num f)) "null"))
    [ infinity; neg_infinity; nan ];
  checkb "non-finite values parse back as null" true
    (Json.parse (Json.to_string (Json.List [ Json.Num infinity; Json.Num nan ]))
    = Ok (Json.List [ Json.Null; Json.Null ]))

(* ------------------------------------------------------------------ *)
(* Histogram bucket math                                               *)
(* ------------------------------------------------------------------ *)

let test_histogram () =
  let h = Obs.Metrics.histogram ~buckets:[| 1.; 2.; 4.; 8. |] "test.hist" in
  (* Upper bounds are inclusive; past the last bound is the overflow
     bucket. *)
  Obs.with_enabled (fun () ->
      List.iter
        (fun (label, v, bucket) ->
          Obs.reset ();
          Obs.Metrics.observe h v;
          checki label bucket
            (let counts = Obs.Metrics.histogram_counts h in
             let rec find i = if counts.(i) = 1 then i else find (i + 1) in
             find 0))
        [ ("0.5 -> bucket 0", 0.5, 0); ("1.0 -> bucket 0 (bound inclusive)", 1.0, 0);
          ("1.5 -> bucket 1", 1.5, 1); ("4.0 -> bucket 2", 4.0, 2); ("8.0 -> bucket 3", 8.0, 3);
          ("9.0 -> overflow", 9.0, 4) ]);
  Obs.with_enabled (fun () ->
      Obs.reset ();
      List.iter (Obs.Metrics.observe h) [ 0.5; 1.0; 1.5; 4.0; 8.0; 9.0; 100. ];
      checkb "counts per bucket" true
        (Obs.Metrics.histogram_counts h = [| 2; 1; 1; 1; 2 |]);
      checki "total count" 7 (Obs.Metrics.histogram_count h);
      checkb "sum" true (Float.abs (Obs.Metrics.histogram_sum h -. 124.0) < 1e-9));
  (* Disabled observations must not record. *)
  Obs.Metrics.observe h 1.0;
  checki "disabled observe is a no-op" 7 (Obs.Metrics.histogram_count h)

(* The value [metrics_table] prints for [name], if it prints one. *)
let table_value name =
  List.find_map
    (fun line ->
      match List.filter (fun w -> w <> "") (String.split_on_char ' ' line) with
      | [ n; v ] when String.equal n name -> Some v
      | _ -> None)
    (String.split_on_char '\n' (Obs.metrics_table ()))

let test_counter_gauge () =
  let c = Obs.Metrics.counter "test.counter" in
  Obs.with_enabled (fun () ->
      Obs.reset ();
      Obs.Metrics.incr c;
      Obs.Metrics.add c 4);
  checki "counter accumulates" 5 (Obs.Metrics.value c);
  (* A gauge is a level: it shows what its source reports when the
     table is read. *)
  let level = ref 1.0 in
  Obs.Sampler.register_source ~name:"test-gauge" (fun () -> [ ("test.gauge", !level) ]);
  level := 2.5;
  checkb "gauge holds the last value" true (table_value "test.gauge" = Some "2.500");
  Obs.Sampler.register_source ~name:"test-gauge" (fun () -> []);
  Obs.Metrics.incr c;
  checki "disabled incr is a no-op" 5 (Obs.Metrics.value c);
  checkb "same name returns the same metric" true
    (Obs.Metrics.value (Obs.Metrics.counter "test.counter") = 5)

(* The crypto byte counters count exactly what the kernels are given:
   [sha256.bytes] the message bytes [update_sub] absorbs (through
   [update], [update_string] and [digest], never finalize's padding),
   [chacha20.bytes] the bytes [xor_into] enciphers. *)
let test_crypto_byte_counters () =
  let sha = Obs.Metrics.counter Obs.Names.sha256_bytes in
  let chacha = Obs.Metrics.counter Obs.Names.chacha20_bytes in
  let key = Bytes.make 32 'k' and nonce = Bytes.make 12 'n' in
  let calls () =
    let ctx = Sha256.init () in
    Sha256.update ctx (Bytes.make 1 'a');
    Sha256.update_sub ctx (Bytes.make 200 'b') ~pos:7 ~len:130;
    Sha256.update_string ctx "abc";
    ignore (Sha256.finalize ctx);
    ignore (Sha256.digest (Bytes.make 64 'c'));
    ignore (Sha256.digest Bytes.empty);
    let buf = Bytes.make 300 'd' in
    Chacha20.xor_into ~key ~nonce ~src:buf ~src_pos:10 ~dst:buf ~dst_pos:10 257;
    ignore (Chacha20.encrypt ~key ~nonce (Bytes.make 64 'e'));
    ignore (Chacha20.block ~key ~nonce ~counter:0)
  in
  Obs.with_enabled (fun () ->
      Obs.reset ();
      calls ();
      checki "sha256.bytes" (1 + 130 + 3 + 64 + 0) (Obs.Metrics.value sha);
      checki "chacha20.bytes" (257 + 64 + 64) (Obs.Metrics.value chacha));
  calls ();
  checki "sha256.bytes: nothing while disabled" 198 (Obs.Metrics.value sha);
  checki "chacha20.bytes: nothing while disabled" 385 (Obs.Metrics.value chacha)

(* ------------------------------------------------------------------ *)
(* Levels and the Prometheus exposition                                *)
(* ------------------------------------------------------------------ *)

let exposition () =
  let path = Filename.temp_file "obs_prom" ".txt" in
  Obs.write_prometheus path;
  String.split_on_char '\n' (read_and_remove path)

(* A level is read from its owner when it is exported, whether or not
   tracing is on: the one-domain pool, a record literal, reports its
   size as well as a spawned pool does, and [reset] does not stale it. *)
let test_levels_current_at_export () =
  let domains n =
    Pool.with_domains n (fun () ->
        Obs.reset ();
        List.mem (Printf.sprintf "mycelium_pool_domains %d" n) (exposition ()))
  in
  checkb "one domain exports 1" true (domains 1);
  checkb "two domains export 2" true (domains 2);
  let level = ref 7.25 in
  Obs.Sampler.register_source ~name:"test-level" (fun () -> [ ("test.level", 0.) ]);
  let sources = List.length (Obs.Sampler.source_names ()) in
  Obs.Sampler.register_source ~name:"test-level" (fun () -> [ ("test.level", !level) ]);
  checki "a second registration under a name replaces the first" sources
    (List.length (Obs.Sampler.source_names ()));
  Obs.Sampler.register_source ~name:"test-broken" (fun () -> failwith "boom");
  checkb "a registered level is in the table" true (table_value "test.level" = Some "7.250");
  checkb "and in the exposition" true (List.mem "mycelium_test_level 7.25" (exposition ()));
  level := 3.;
  let lines = exposition () in
  checkb "each export reads it afresh" true (List.mem "mycelium_test_level 3" lines);
  Obs.Sampler.register_source ~name:"test-level" (fun () -> []);
  Obs.Sampler.register_source ~name:"test-broken" (fun () -> []);
  let types =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "#"; "TYPE"; name; kind ] -> Some (name, kind)
        | _ -> None)
      lines
  in
  let names = List.map fst types in
  checki "each # TYPE name appears once" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  checkb "the heap is a gauge family" true
    (List.mem ("mycelium_gc_heap_words", "gauge") types);
  checkb "faults.* are counters only" true
    (List.for_all
       (fun (name, kind) ->
         (not (String.starts_with ~prefix:"mycelium_faults_" name)) || String.equal kind "counter")
       types);
  checkb "no mycelium_timeseries line" false
    (List.exists (String.starts_with ~prefix:"mycelium_timeseries") lines)

(* The mixnet source holds its simulator weakly: once the caller drops
   it, a full major collection frees it, and exports go on without
   it. *)
let test_dropped_source_owner_collected () =
  let sim = Weak.create 1 in
  let[@inline never] create () =
    Weak.set sim 0
      (Some
         (Sim.create
            { Sim.default_config with Sim.n_devices = 30; degree = 2; hops = 2; replicas = 2; fast_setup = true; fast_keys = true }))
  in
  create ();
  checkb "mixnet source registered" true (List.mem "mixnet" (Obs.Sampler.source_names ()));
  Gc.full_major ();
  checkb "simulator freed" false (Weak.check sim 0);
  ignore (Obs.metrics_table ())

(* The value the exposition gives family [name], if it gives one. *)
let exported lines name =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ n; v ] when String.equal n name -> Some v
      | _ -> None)
    lines

(* A live simulator's footprint levels are the ones [Sim.footprint]
   reports, read when the metrics are exported: paths set up after one
   export show in the next. *)
let test_mixnet_levels_exported () =
  let sim =
    Sim.create
      { Sim.default_config with Sim.n_devices = 30; degree = 2; hops = 2; replicas = 2; fast_setup = true; fast_keys = true }
  in
  let agree what =
    let lines = exposition () and fp = Sim.footprint sim in
    List.iter
      (fun (family, v) ->
        Alcotest.(check (option string))
          (Printf.sprintf "%s: %s" what family)
          (Some (string_of_int v)) (exported lines family))
      [
        ("mycelium_mixnet_established_paths", fp.Sim.established_paths);
        ("mycelium_mixnet_arena_bytes", fp.Sim.arena_bytes);
        ("mycelium_mixnet_route_entries", fp.Sim.route_entries);
        ("mycelium_mixnet_mailboxes_in_use", fp.Sim.mailboxes_in_use);
      ];
    checkb (what ^ ": levels are gauges") true
      (List.mem "# TYPE mycelium_mixnet_established_paths gauge" lines)
  in
  agree "fresh simulator";
  let (_ : Sim.setup_stats) = Sim.setup_paths sim in
  checkb "paths were set up" true ((Sim.footprint sim).Sim.established_paths > 0);
  agree "after set-up";
  let (_ : Sim.round_stats) = Sim.run_query_round sim ~payload:(Bytes.make 16 'p') in
  agree "after a round"

let test_prometheus_export () =
  Obs.with_enabled (fun () ->
      Obs.reset ();
      Obs.Metrics.incr (Obs.Metrics.counter "test.prom.counter");
      Obs.Sampler.register_source ~name:"test-prom" (fun () -> [ ("test.prom.gauge", 2.5) ]);
      let h = Obs.Metrics.histogram ~buckets:[| 1.; 2. |] "test.prom.hist" in
      List.iter (Obs.Metrics.observe h) [ 0.5; 1.5; 3.0 ];
      let path = Filename.temp_file "obs_prom" ".txt" in
      Obs.write_prometheus path;
      Obs.Sampler.register_source ~name:"test-prom" (fun () -> []);
      let s = read_and_remove path in
      let has needle = occurrences s needle > 0 in
      checkb "counter TYPE line" true (has "# TYPE mycelium_test_prom_counter counter");
      checkb "counter sample" true (has "mycelium_test_prom_counter 1");
      checkb "gauge sample" true (has "mycelium_test_prom_gauge 2.5");
      checkb "histogram TYPE line" true (has "# TYPE mycelium_test_prom_hist histogram");
      checkb "cumulative le bucket" true (has "mycelium_test_prom_hist_bucket{le=\"2\"} 2");
      checkb "+Inf bucket" true (has "mycelium_test_prom_hist_bucket{le=\"+Inf\"} 3");
      checkb "histogram count" true (has "mycelium_test_prom_hist_count 3"))

(* ------------------------------------------------------------------ *)
(* Instants                                                            *)
(* ------------------------------------------------------------------ *)

let test_instant () =
  Obs.with_enabled (fun () ->
      Obs.reset ();
      Obs.span "outer" (fun () -> Obs.instant ~attrs:[ ("round", Json.Int 3) ] "test.instant");
      match Obs.all_spans () with
      | [ outer; inst ] ->
        checkb "the enclosing span sorts first" true (outer.Obs.sp_name = "outer");
        checkb "the instant is named" true (inst.Obs.sp_name = "test.instant");
        checkb "closed at zero length" true (Float.equal inst.Obs.sp_start inst.Obs.sp_end);
        checkb "attributes kept" true (inst.Obs.sp_attrs = [ ("round", Json.Int 3) ]);
        checki "one level below the enclosing span" (outer.Obs.sp_depth + 1) inst.Obs.sp_depth;
        checkb "inside the enclosing span, on its domain" true
          (inst.Obs.sp_dom = outer.Obs.sp_dom
          && outer.Obs.sp_start <= inst.Obs.sp_start
          && inst.Obs.sp_end <= outer.Obs.sp_end)
      | spans -> Alcotest.failf "expected a span and one instant, got %d spans" (List.length spans));
  Obs.disable ();
  let before = Obs.span_count () in
  Obs.instant "test.ghost";
  checki "a disabled instant records nothing" before (Obs.span_count ())

(* ------------------------------------------------------------------ *)
(* The CLI's trace                                                     *)
(* ------------------------------------------------------------------ *)

(* [mycelium run --trace F] writes F whatever the query's outcome: Q1
   at the CLI's defaults (d = 4 on test_small) is refused as
   infeasible, exits 1, and leaves a trace of the runtime's bring-up.
   An F that cannot be written is reported, and the run still exits 1
   rather than dying on the write.  So is every other path the CLI
   opens: it is named on stderr, and the command exits 1 instead of
   with cmdliner's uncaught-exception status. *)
let test_cli_trace_on_refusal () =
  let cli ?(stdout = Filename.null) ?(stderr = Filename.null) args =
    Sys.command (Filename.quote_command "../bin/mycelium_cli.exe" ~stdout ~stderr args)
  in
  let run_q1 path = cli [ "run"; "--trace"; path; "Q1" ] in
  let path = Filename.temp_file "cli_trace" ".json" in
  (* a regular file cannot be a directory of the path *)
  let below name = Filename.concat path name in
  checki "an unwritable trace exits 1" 1 (run_q1 (below "trace.json"));
  let workload = Filename.temp_file "cli_workload" ".jsonl" in
  let oc = open_out workload in
  output_string oc {|{"user":"alice","epsilon":0.5,"query":"Q5"}|};
  close_out oc;
  let err = Filename.temp_file "cli_stderr" ".txt" in
  List.iter
    (fun (what, args, named) ->
      let code = cli ~stderr:err args in
      let msg = In_channel.with_open_bin err In_channel.input_all in
      checki (what ^ " exits 1") 1 code;
      checkb (what ^ " names " ^ named) true (occurrences msg named > 0);
      checki (what ^ ": no uncaught exception") 0 (occurrences msg "uncaught exception"))
    [
      ("run --ledger", [ "run"; "--ledger"; below "l.jsonl"; "Q5" ], below "l.jsonl");
      ("run --prometheus", [ "run"; "--prometheus"; below "m.prom"; "Q5" ], below "m.prom");
      ("serve --ledger", [ "serve"; "--ledger"; below "l.jsonl"; workload ], below "l.jsonl");
      ("serve --trace", [ "serve"; "--trace"; below "t.json"; workload ], below "t.json");
      ("serve, a missing workload", [ "serve"; below "w.jsonl" ], below "w.jsonl");
    ];
  checki "audit of a missing ledger exits 1" 1 (cli ~stderr:err [ "audit"; below "l.jsonl" ]);
  checki "audit names the missing ledger once" 1
    (occurrences (In_channel.with_open_bin err In_channel.input_all) (below "l.jsonl"));
  (* On a readable ledger, audit ends with each stage's total. *)
  let ledger = Filename.temp_file "cli_ledger" ".jsonl" in
  let row = {|{"schema":"mycelium-ledger/1","charged":false,"stages":{"query.gather":0.25,"committee.rotate":0.5}}|} in
  Out_channel.with_open_bin ledger (fun oc -> output_string oc (row ^ "\n" ^ row ^ "\n"));
  checki "audit of a ledger exits 0" 0 (cli ~stdout:err [ "audit"; ledger ]);
  let report = In_channel.with_open_bin err In_channel.input_all in
  List.iter
    (fun line -> checkb ("audit prints " ^ line) true (occurrences report line = 1))
    [ "seconds per stage:"; "  query.gather                 0.500000";
      "  committee.rotate             1.000000" ];
  List.iter Sys.remove [ workload; err; ledger; path ];
  checki "the refused query exits 1" 1 (run_q1 path);
  checkb "the trace was written" true (Sys.file_exists path);
  match Json.parse (read_and_remove path) with
  | Error e -> Alcotest.failf "the trace does not parse: %s" e
  | Ok doc ->
    let names =
      match Json.member "traceEvents" doc with
      | Some (Json.List evs) ->
        List.filter_map
          (fun e -> match Json.member "name" e with Some (Json.Str n) -> Some n | _ -> None)
          evs
      | _ -> Alcotest.fail "the trace has no traceEvents array"
    in
    checkb "the trace holds runtime.init" true (List.mem "runtime.init" names)

(* ------------------------------------------------------------------ *)
(* Span recording under the pool                                       *)
(* ------------------------------------------------------------------ *)

let busy_work i =
  let acc = ref i in
  for j = 1 to 1000 do
    acc := (!acc * 31) + j
  done;
  Sys.opaque_identity !acc

let test_span_nesting () =
  Obs.with_enabled (fun () ->
      Obs.reset ();
      Pool.with_domains 8 (fun () ->
          let (_ : int array) =
            Pool.mapi_array (Pool.default ())
              (fun i () ->
                Obs.span "task" ~attrs:[ ("i", Json.Int i) ] (fun () ->
                    Obs.span "task.inner" (fun () -> busy_work i)))
              (Array.make 64 ())
          in
          ());
      let spans = Obs.all_spans () in
      checkb "spans were recorded" true (List.length spans >= 128);
      List.iter
        (fun (s : Obs.span) ->
          checkb ("span closed: " ^ s.Obs.sp_name) false (Float.is_nan s.Obs.sp_end);
          checkb "start precedes end" true (s.Obs.sp_start <= s.Obs.sp_end))
        spans;
      (* Per domain: start order and [sp_seq] agree, and every nested
         span sits inside an enclosing span one level up. *)
      let doms = List.sort_uniq compare (List.map (fun s -> s.Obs.sp_dom) spans) in
      List.iter
        (fun dom ->
          let mine = List.filter (fun s -> s.Obs.sp_dom = dom) spans in
          let by_seq =
            List.sort (fun a b -> compare a.Obs.sp_seq b.Obs.sp_seq) mine
          in
          let rec check_order = function
            | a :: (b :: _ as rest) ->
              checkb "seq order matches start order" true
                (a.Obs.sp_start <= b.Obs.sp_start);
              checkb "seq values are distinct" true (a.Obs.sp_seq < b.Obs.sp_seq);
              check_order rest
            | _ -> ()
          in
          check_order by_seq;
          List.iter
            (fun s ->
              if s.Obs.sp_depth > 0 then
                checkb ("nested span has an enclosing span: " ^ s.Obs.sp_name) true
                  (List.exists
                     (fun p ->
                       p.Obs.sp_depth = s.Obs.sp_depth - 1
                       && p.Obs.sp_start <= s.Obs.sp_start
                       && s.Obs.sp_end <= p.Obs.sp_end)
                     mine))
            mine)
        doms;
      (* The inner span is always one level below its task span. *)
      List.iter
        (fun s ->
          if s.Obs.sp_name = "task.inner" then
            checkb "inner depth > 0" true (s.Obs.sp_depth > 0))
        spans)

let test_span_disabled_is_free () =
  Obs.disable ();
  let before = Obs.span_count () in
  let v = Obs.span "ghost" (fun () -> 17) in
  checki "span returns the body's value" 17 v;
  checki "disabled span records nothing" before (Obs.span_count ())

let test_sampler () =
  Obs.with_enabled (fun () ->
      Obs.reset ();
      let s = Obs.sampler ~every:4 in
      for i = 1 to 16 do
        ignore (Obs.sampled_span s "hot" (fun () -> i))
      done;
      checki "one span per [every] calls" 4
        (List.length
           (List.filter (fun sp -> sp.Obs.sp_name = "hot") (Obs.all_spans ()))))

(* ------------------------------------------------------------------ *)
(* Pool worker stats (the pool.mli invariant)                          *)
(* ------------------------------------------------------------------ *)

let test_worker_stats () =
  Obs.with_enabled (fun () ->
      Obs.reset ();
      Pool.with_domains 2 (fun () ->
          let pool = Pool.default () in
          let sum_stats () =
            Array.fold_left
              (fun (t, e) (s : Pool.worker_stats) ->
                (t + s.Pool.tasks_run, e + s.Pool.exceptions_caught))
              (0, 0) (Pool.worker_stats pool)
          in
          let t0, e0 = sum_stats () in
          let m0 = Obs.Metrics.(value (counter "pool.chunks_run")) in
          let (_ : int array) = Pool.mapi_array pool (fun i () -> busy_work i) (Array.make 64 ()) in
          let t1, e1 = sum_stats () in
          let m1 = Obs.Metrics.(value (counter "pool.chunks_run")) in
          checkb "queued chunks were counted" true (t1 > t0);
          checki "stats sum equals the registry metric" (t1 - t0) (m1 - m0);
          (* A raising task is counted and the exception re-raised. *)
          (match
             Pool.mapi_array pool
               (fun i () -> if i = 3 then failwith "boom" else busy_work i)
               (Array.make 64 ())
           with
          | (_ : int array) -> Alcotest.fail "expected the task exception to re-raise"
          | exception Failure m -> checkb "first exception re-raised" true (m = "boom"));
          let _, e2 = sum_stats () in
          checkb "exceptions_caught advanced" true (e2 > e1);
          checki "exception metric agrees" (e2 - e0)
            Obs.Metrics.(value (counter "pool.task_exceptions"))))

(* The pool's work is counted once, by its counters; the one level it
   reports is its size. *)
let test_pool_counts_once () =
  Obs.with_enabled (fun () ->
      Obs.reset ();
      Pool.with_domains 2 (fun () ->
          let pool = Pool.default () in
          let (_ : int array) = Pool.mapi_array pool (fun i () -> busy_work i) (Array.make 64 ()) in
          let chunks = Obs.Metrics.(value (counter Obs.Names.pool_chunks_run)) in
          checkb "chunks were run" true (chunks > 0);
          let lines = exposition () in
          checkb "chunk count is a counter family" true
            (List.mem "# TYPE mycelium_pool_chunks_run counter" lines);
          Alcotest.(check (option string))
            "exported chunk count" (Some (string_of_int chunks))
            (exported lines "mycelium_pool_chunks_run");
          Alcotest.(check (list string))
            "the pool's one gauge is its size" [ "mycelium_pool_domains" ]
            (List.filter_map
               (fun l ->
                 match String.split_on_char ' ' l with
                 | [ "#"; "TYPE"; name; "gauge" ] when String.starts_with ~prefix:"mycelium_pool_" name ->
                   Some name
                 | _ -> None)
               lines);
          Alcotest.(check (option string)) "its size" (Some "2")
            (exported lines "mycelium_pool_domains")))

(* ------------------------------------------------------------------ *)
(* End-to-end acceptance: identical results, valid exported trace      *)
(* ------------------------------------------------------------------ *)

let small_graph () =
  let rng = Rng.create 4242L in
  let g =
    Cg.generate
      { Cg.default_config with Cg.population = 16; degree_bound = 4; extra_contact_rate = 1.5 }
      rng
  in
  let (_ : Epidemic.outcome) = Epidemic.run Epidemic.default_config rng g in
  g

let plan =
  Fault_plan.make ~drop_rate:0.1 ~churn_rate:0.1 ~crashed_committee:[ 2 ]
    ~aggregator_restarts:1 ~seed:2024L ()

let run_q () =
  let sys =
    Runtime.init
      { Runtime.default_config with
        Runtime.params = Params.test_small;
        degree_bound = 4;
        faults = Some plan
      }
      (small_graph ())
  in
  match Runtime.run_query ~epsilon:1.0 sys (Corpus.find "Q5").Corpus.sql with
  | Ok r -> r
  | Error _ -> Alcotest.fail "acceptance query failed"

let same_release (a : Runtime.query_result) (b : Runtime.query_result) =
  a.Runtime.noisy_bins = b.Runtime.noisy_bins
  && a.Runtime.result = b.Runtime.result
  && Injector.report_equal a.Runtime.degradation b.Runtime.degradation

let test_identical_on_off () =
  Obs.disable ();
  let base = run_q () in
  Obs.reset ();
  let traced = Obs.with_enabled run_q in
  checkb "tracing on/off releases are identical" true (same_release base traced);
  (* And across domain counts with tracing on. *)
  List.iter
    (fun d ->
      Obs.reset ();
      let r = Pool.with_domains d (fun () -> Obs.with_enabled run_q) in
      checkb (Printf.sprintf "identical at %d domains (traced)" d) true
        (same_release base r))
    [ 1; 2; 8 ]

let stage_names =
  [ "query.gather"; "query.aggregate"; "summation_tree.build"; "summation_tree.audit";
    "bgv.relinearize"; "committee.decrypt_batch"; "committee.rotate" ]

let test_exported_trace () =
  Obs.disable ();
  Obs.reset ();
  let s =
    Obs.with_enabled (fun () ->
        let (_ : Runtime.query_result) = run_q () in
        let path = Filename.temp_file "obs_trace" ".json" in
        Obs.write_chrome_trace path;
        read_and_remove path)
  in
  match Json.parse s with
  | Error e -> Alcotest.failf "exported trace does not re-parse: %s" e
  | Ok doc ->
    let events =
      match Json.member "traceEvents" doc with
      | Some (Json.List evs) -> evs
      | _ -> Alcotest.fail "trace has no traceEvents array"
    in
    checki "one event per recorded span" (Obs.span_count ()) (List.length events);
    let names =
      List.filter_map
        (fun e -> match Json.member "name" e with Some (Json.Str n) -> Some n | _ -> None)
        events
    in
    List.iter
      (fun stage ->
        checkb ("trace contains " ^ stage) true (List.mem stage names))
      ("runtime.init" :: stage_names)

(* A traced fresh query, faults included, is [runtime.init] and then
   one span per stage, in order, on the calling domain: every layer
   span and every fault instant nests inside a stage, and the old
   wrapper spans are gone. *)
let test_stages_are_the_top_spans () =
  let top_spans ~params ~degree_bound ?(population = 16) ?faults query =
    let rng = Rng.create 4242L in
    let graph =
      Cg.generate
        { Cg.default_config with Cg.population; degree_bound; extra_contact_rate = 1.5 }
        rng
    in
    let (_ : Epidemic.outcome) = Epidemic.run Epidemic.default_config rng graph in
    Obs.disable ();
    Obs.reset ();
    Obs.with_enabled (fun () ->
        let sys =
          Runtime.init { Runtime.default_config with Runtime.params; degree_bound; faults } graph
        in
        (match Runtime.run_query ~epsilon:1.0 sys (Corpus.find query).Corpus.sql with
        | Ok _ -> ()
        | Error _ -> Alcotest.failf "%s failed" query);
        let spans = Obs.all_spans () in
        let init = List.find (fun sp -> sp.Obs.sp_name = "runtime.init") spans in
        List.iter
          (fun gone ->
            checkb (gone ^ " is gone") false (List.exists (fun sp -> sp.Obs.sp_name = gone) spans))
          [ "query.summation"; "query.decrypt"; "sumtree.build" ];
        List.filter_map
          (fun sp ->
            if sp.Obs.sp_dom = init.Obs.sp_dom && sp.Obs.sp_depth = 0 then Some sp.Obs.sp_name
            else None)
          spans)
  in
  Alcotest.(check (list string))
    "Q5 at test_small, faults on" ("runtime.init" :: stage_names)
    (top_spans ~params:Params.test_small ~degree_bound:4 ~faults:plan "Q5");
  Alcotest.(check (list string))
    "Q1 at test_medium, d = 2" ("runtime.init" :: stage_names)
    (top_spans ~params:Params.test_medium ~degree_bound:2 ~population:12 "Q1")

(* ------------------------------------------------------------------ *)
(* Audit ledger: exact budget accounting                                *)
(* ------------------------------------------------------------------ *)

let test_ledger_exact_totals () =
  let path = Filename.temp_file "obs_ledger" ".jsonl" in
  Sys.remove path;
  Obs.disable ();
  let sys =
    Runtime.init
      { Runtime.default_config with
        Runtime.params = Params.test_small;
        degree_bound = 4;
        epsilon_budget = 2.5;
        ledger = Some path
      }
      (small_graph ())
  in
  let q = (Corpus.find "Q5").Corpus.sql in
  let t0 = Obs.now_s () in
  checkb "first charged query ok" true
    (Result.is_ok (Runtime.run_query ~epsilon:1.0 sys q));
  let wall = Obs.now_s () -. t0 in
  checkb "infinite-epsilon query ok" true
    (Result.is_ok (Runtime.run_query ~epsilon:infinity sys q));
  checkb "second charged query ok" true
    (Result.is_ok (Runtime.run_query ~epsilon:0.75 sys q));
  (* An epsilon with no short decimal form must still re-sum exactly. *)
  checkb "third charged query ok" true
    (Result.is_ok (Runtime.run_query ~epsilon:(1. /. 3.) sys q));
  (* Q1 is infeasible under test_small parameters: an errored query
     that still lands in the ledger. *)
  (match Runtime.run_query ~epsilon:0.25 sys (Corpus.find "Q1").Corpus.sql with
  | Error (Runtime.Infeasible _) -> ()
  | Ok _ -> Alcotest.fail "Q1 should be infeasible under test_small"
  | Error _ -> Alcotest.fail "Q1 failed for an unexpected reason");
  (match Runtime.run_query ~epsilon:5.0 sys q with
  | Error (Runtime.Budget_exhausted _) -> ()
  | Ok _ -> Alcotest.fail "over-budget query should be rejected"
  | Error _ -> Alcotest.fail "over-budget query failed for the wrong reason");
  (* A parse failure never reaches the executor, so no record. *)
  (match Runtime.run_query ~epsilon:1.0 sys "SELECT" with
  | Error (Runtime.Parse_error _) -> ()
  | _ -> Alcotest.fail "malformed query should be a parse error");
  let records =
    match Obs.Ledger.read path with
    | Ok rs -> rs
    | Error e -> Alcotest.failf "ledger does not re-parse: %s" e
  in
  Sys.remove path;
  checki "one record per executed query" 6 (List.length records);
  let s = Obs.Ledger.summarize records in
  checki "ok queries" 4 s.Obs.Ledger.ok;
  checki "rejected queries" 1 s.Obs.Ledger.rejected;
  checki "errored queries" 1 s.Obs.Ledger.errored;
  checki "uncharged (infinite-epsilon) queries" 1 s.Obs.Ledger.uncharged;
  (* The acceptance bar: summing the ledger's charged epsilons
     reproduces the accountant bit for bit. *)
  let spent = Mycelium_dp.Dp.budget_spent (Runtime.budget sys) in
  checkb "ledger sum equals Dp.budget_spent exactly" true
    (s.Obs.Ledger.epsilon_spent = spent);
  (match s.Obs.Ledger.budget_total with
  | Some b -> checkb "budget_total carried through" true (b = 2.5)
  | None -> Alcotest.fail "budget_total missing");
  (match s.Obs.Ledger.budget_remaining with
  | Some r ->
    checkb "budget_remaining tracks the accountant" true
      (r = Mycelium_dp.Dp.budget_remaining (Runtime.budget sys))
  | None -> Alcotest.fail "budget_remaining missing");
  (* Per-name rollup covers every distinct query name. *)
  checkb "by_name covers each query name" true
    (List.length s.Obs.Ledger.by_name >= 1);
  let total_runs = List.fold_left (fun a (_, n, _) -> a + n) 0 s.Obs.Ledger.by_name in
  checki "by_name runs sum to the record count" 6 total_runs;
  (* Every row times the seven stages, and the first query's stages,
     run one after another inside the call, fit in its wall time. *)
  let stages r =
    match Json.member "stages" r with
    | Some (Json.Obj kvs) ->
      List.map
        (function k, Json.Num f -> (k, f) | k, _ -> Alcotest.failf "stage %s is not a number" k)
        kvs
    | _ -> Alcotest.fail "ledger row lacks stages"
  in
  List.iter
    (fun r ->
      Alcotest.(check (list string)) "the seven stages, in order" stage_names
        (List.map fst (stages r)))
    records;
  let first = List.fold_left (fun acc (_, dt) -> acc +. dt) 0. (stages (List.hd records)) in
  checkb (Printf.sprintf "stages (%.6f s) within the call (%.6f s)" first wall) true
    (first > 0. && first <= wall)

(* The reader refuses a row summarize could not trust, naming its
   line: each bad row below sits at its own line of an otherwise valid
   ledger. *)
let test_ledger_rejects_bad_rows () =
  let charged eps =
    Printf.sprintf {|{"schema":"mycelium-ledger/1","status":"ok","charged":true,"epsilon":%s}|} eps
  in
  let uncharged = {|{"schema":"mycelium-ledger/1","status":"ok","charged":false,"epsilon":null}|} in
  let read_lines lines =
    let path = Filename.temp_file "obs_ledger" ".jsonl" in
    let oc = open_out_bin path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    let r = Obs.Ledger.read path in
    Sys.remove path;
    (path, r)
  in
  (match read_lines [ charged "0.5"; uncharged ] with
  | _, Ok rows ->
    checkb "valid ledger sums" true
      ((Obs.Ledger.summarize rows).Obs.Ledger.epsilon_spent = 0.5)
  | _, Error e -> Alcotest.failf "valid ledger refused: %s" e);
  let needs_eps = "charged row needs a finite epsilon > 0" in
  let not_ours = "not a mycelium-ledger/1 row" in
  List.iteri
    (fun k (bad, reason) ->
      (* k + 1 valid rows before the bad one, one after. *)
      let lines = List.init (k + 1) (fun _ -> charged "0.5") @ [ bad; uncharged ] in
      match read_lines lines with
      | _, Ok _ -> Alcotest.failf "accepted %s" bad
      | path, Error e ->
        Alcotest.(check string) bad (Printf.sprintf "%s: line %d: %s" path (k + 2) reason) e)
    [
      (charged {|"x"|}, needs_eps);
      (charged "-5", needs_eps);
      ("[1,2,3]", not_ours);
      (charged "0", needs_eps);
      ({|{"status":"ok","charged":true,"epsilon":0.5}|}, not_ours);
    ]

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick test_json_rejects;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "unicode escapes and NUL" `Quick test_json_escapes;
          Alcotest.test_case "depth limit" `Quick test_json_depth_limit;
          Alcotest.test_case "streaming writer" `Quick test_json_to_channel;
          Alcotest.test_case "floats round-trip exactly" `Quick test_json_float_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram buckets" `Quick test_histogram;
          Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
          Alcotest.test_case "sha256 and chacha20 byte counters" `Quick test_crypto_byte_counters;
        ] );
      ( "levels",
        [
          Alcotest.test_case "levels current at export" `Quick test_levels_current_at_export;
          Alcotest.test_case "live simulator footprint exported" `Quick test_mixnet_levels_exported;
          Alcotest.test_case "dropped simulator collected" `Quick
            test_dropped_source_owner_collected;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_export;
        ] );
      ( "instants",
        [ Alcotest.test_case "a closed zero-length span, nested" `Quick test_instant ] );
      ( "cli",
        [ Alcotest.test_case "run --trace writes on refusal" `Quick test_cli_trace_on_refusal ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and order at 8 domains" `Quick test_span_nesting;
          Alcotest.test_case "disabled spans record nothing" `Quick test_span_disabled_is_free;
          Alcotest.test_case "sampled spans" `Quick test_sampler;
        ] );
      ( "pool",
        [
          Alcotest.test_case "worker stats invariant" `Quick test_worker_stats;
          Alcotest.test_case "work counted once, size the one level" `Quick test_pool_counts_once;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "identical release on/off and across domains" `Slow
            test_identical_on_off;
          Alcotest.test_case "exported trace re-parses with all phases" `Slow
            test_exported_trace;
          Alcotest.test_case "the stages are the top-level spans" `Slow
            test_stages_are_the_top_spans;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "exact budget accounting" `Slow test_ledger_exact_totals;
          Alcotest.test_case "malformed rows rejected by line" `Quick
            test_ledger_rejects_bad_rows;
        ] );
    ]
