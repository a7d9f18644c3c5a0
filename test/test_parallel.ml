(* Unit tests for the domain work pool: result correctness independent
   of domain count, nested submission, exception propagation, and the
   env/config/override precedence. *)

module Pool = Mycelium_parallel.Pool

(* The default pool, forced to [domains]. *)
let with_pool domains f = Pool.with_domains domains (fun () -> f (Pool.default ()))

let test_map_matches_sequential () =
  let arr = Array.init 257 (fun i -> i) in
  let expect = Array.map (fun i -> (i * i) + 3) arr in
  List.iter
    (fun d ->
      with_pool d (fun pool ->
          let got = Pool.map_array pool (fun i -> (i * i) + 3) arr in
          Alcotest.(check (array int))
            (Printf.sprintf "map at %d domains" d)
            expect got))
    [ 1; 2; 3; 8 ]

let test_mapi_and_init () =
  with_pool 4 (fun pool ->
      let got = Pool.mapi_array pool (fun i x -> i + x) [| 10; 20; 30 |] in
      Alcotest.(check (array int)) "mapi" [| 10; 21; 32 |] got;
      let got = Pool.init pool 5 (fun i -> i * 2) in
      Alcotest.(check (array int)) "init" [| 0; 2; 4; 6; 8 |] got;
      Alcotest.(check (array int)) "init 0" [||] (Pool.init pool 0 (fun i -> i)))

(* A task that submits to the pool again must complete (sequentially)
   rather than deadlock on its own worker set. *)
let test_nested_submission () =
  with_pool 4 (fun pool ->
      let got =
        Pool.map_array pool
          (fun i ->
            Array.fold_left ( + ) 0
              (Pool.map_array pool (fun j -> (i * 10) + j) [| 1; 2; 3 |]))
          [| 0; 1; 2; 3; 4; 5 |]
      in
      Alcotest.(check (array int)) "nested" [| 6; 36; 66; 96; 126; 156 |] got)

exception Boom of int

let test_exception_propagates () =
  with_pool 4 (fun pool ->
      match
        Pool.map_array pool
          (fun i -> if i = 37 then raise (Boom i) else i)
          (Array.init 64 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 37 -> ()
      | exception e -> raise e);
  (* The pool stays usable after a failed job. *)
  with_pool 2 (fun pool ->
      (try ignore (Pool.map_array pool (fun _ -> failwith "x") [| 1; 2 |])
       with Failure _ -> ());
      Alcotest.(check (array int)) "reusable" [| 2; 4 |]
        (Pool.map_array pool (fun i -> i * 2) [| 1; 2 |]))

let test_with_domains_override () =
  Pool.with_domains 3 (fun () ->
      Alcotest.(check int) "forced" 3 (Pool.current_domains ());
      Alcotest.(check int) "pool size" 3 (Array.length (Pool.worker_stats (Pool.default ())));
      Pool.with_domains 1 (fun () ->
          Alcotest.(check int) "nested force" 1 (Pool.current_domains ()));
      Alcotest.(check int) "restored" 3 (Pool.current_domains ()))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "mapi and init" `Quick test_mapi_and_init;
          Alcotest.test_case "nested submission" `Quick test_nested_submission;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "with_domains override" `Quick test_with_domains_override;
        ] );
    ]
