(* The --check helper on hand-made cells: each verdict, and that every
   failure names the cell, both values and the bound. *)

module Gate = Mycelium_bench_gate.Gate
module Json = Mycelium_obs.Obs.Json

let cell ?limit name better value = { Gate.name; value; better; limit }

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.equal (String.sub s i n) sub || at (i + 1)) in
  at 0

let verdict results name =
  match List.find_opt (fun r -> contains (match r with Ok m | Error m -> m) name) results with
  | Some r -> r
  | None -> Alcotest.failf "no verdict names %s" name

let expect_failure results name parts =
  match verdict results name with
  | Ok m -> Alcotest.failf "%s passed: %s" name m
  | Error m ->
    List.iter
      (fun p -> Alcotest.(check bool) (Printf.sprintf "%S names %s" m p) true (contains m p))
      parts

let expect_pass results name =
  match verdict results name with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s failed: %s" name m

let baseline =
  [
    ("ringops/ntt_ns", 400.);
    ("serving/speedup", 240.);
    ("mixnet/delivered", 39162.);
    ("micro/sha_ns_per_byte", 5.);
    ("ringops/gone_ns", 10.);
    ("lint/unselected", 1.);
  ]

let results =
  Gate.check ~baseline
    ~selected:(fun s -> not (String.equal s "lint"))
    [
      cell "ringops/ntt_ns" Gate.Lower 620.;
      cell "serving/speedup" Gate.Higher 150.;
      cell "mixnet/delivered" Gate.Exact 39162.;
      cell "micro/sha_ns_per_byte" Gate.Lower 7.4;
      cell "micro/new_ns" Gate.Lower 3.;
    ]

let test_time_above () = expect_failure results "ringops/ntt_ns" [ "620"; "400"; "at most 600" ]
let test_ratio_below () = expect_failure results "serving/speedup" [ "150"; "240"; "at least 160" ]

let test_within () =
  expect_pass results "micro/sha_ns_per_byte";
  expect_pass results "mixnet/delivered"

let test_missing_from_baseline () = expect_failure results "micro/new_ns" [ "3"; "no baseline" ]

let test_missing_from_run () =
  expect_failure results "ringops/gone_ns" [ "10"; "did not measure" ];
  Alcotest.(check bool) "an unselected section's cell is not asked for" false
    (List.exists (function Ok m | Error m -> contains m "lint/unselected") results)

let test_limits_and_counts () =
  let one c base = Gate.check ~baseline:[ (c.Gate.name, base) ] ~selected:(fun _ -> true) [ c ] in
  (match one (cell "r" Gate.Lower 2.6 ~limit:2.5) 2.0 with
  | [ Error m ] -> Alcotest.(check bool) "the stricter limit is the bound" true (contains m "at most 2.5")
  | _ -> Alcotest.fail "a ratio past its fixed ceiling passed");
  (match one (cell "s" Gate.Higher 2.5 ~limit:2.0) 3.0 with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "a looser fixed floor replaced the 1.5x bound");
  match one (cell "n" Gate.Exact 39161.) 39162. with
  | [ Error m ] -> Alcotest.(check bool) "a count must match" true (contains m "exactly 39162")
  | _ -> Alcotest.fail "a count off by one passed"

let test_baseline_cells () =
  match Json.parse {|{"cores":2,"cells":{"a/x":1.5,"a/n":3,"a/s":"no"}}|} with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    Alcotest.(check (list (pair string (float 0.))))
      "numbers read, others skipped"
      [ ("a/x", 1.5); ("a/n", 3.) ]
      (Gate.baseline_cells doc)

let () =
  Alcotest.run "bench-gate"
    [
      ( "check",
        [
          Alcotest.test_case "time above its bound" `Quick test_time_above;
          Alcotest.test_case "ratio below its bound" `Quick test_ratio_below;
          Alcotest.test_case "within bounds" `Quick test_within;
          Alcotest.test_case "missing from the baseline" `Quick test_missing_from_baseline;
          Alcotest.test_case "missing from the run" `Quick test_missing_from_run;
          Alcotest.test_case "fixed limits and counts" `Quick test_limits_and_counts;
          Alcotest.test_case "baseline cells" `Quick test_baseline_cells;
        ] );
    ]
