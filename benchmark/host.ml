(* Host diagnostics: the speed probe, provenance and the process's peak
   resident set.

   The probe is printed as a diagnostic, never as a metric.  On a
   shared host, pipeline latency swings in phases lasting several
   seconds while a pure ALU loop stays steady; a memory-bound loop over
   an L3-scale array slows in the same phases, so probe figures taken
   before and after a run tell an outlier run caused by host contention
   apart from one caused by the code. *)

module Rng = Mycelium_util.Rng

let alu_iterations = 20_000_000

(* A xorshift chain: every step depends on the last, so nothing can be
   folded or vectorised. *)
let alu_ns_per_iter () =
  let t0 = Unix.gettimeofday () in
  let x = ref 0x2545F4914F6CDD1D in
  for _ = 1 to alu_iterations do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    x := v lxor (v lsl 17)
  done;
  ignore (Sys.opaque_identity !x);
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int alu_iterations

(* Pointer chasing along one random cycle through a 16 MB array: each
   load depends on the previous one, so a step costs the latency of the
   shared last-level cache, or of memory when the cache is contended. *)
let chase_slots = 4 * 1024 * 1024
let chase_steps = 1_000_000

let memory_ns_per_step () =
  let next = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout chase_slots in
  for i = 0 to chase_slots - 1 do
    next.{i} <- Int32.of_int i
  done;
  (* Sattolo's algorithm: a uniformly random single cycle. *)
  let rng = Rng.create 0x5eedL in
  for i = chase_slots - 1 downto 1 do
    let j = Rng.int rng i in
    let t = next.{i} in
    next.{i} <- next.{j};
    next.{j} <- t
  done;
  let t0 = Unix.gettimeofday () in
  let p = ref 0 in
  for _ = 1 to chase_steps do
    p := Int32.to_int next.{!p}
  done;
  let dt = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity !p);
  dt *. 1e9 /. float_of_int chase_steps

(* Run the probes and print "<alu ns/iteration> <memory ns/step>": the
   body of the [--probe] child process. *)
let print_probe () = Printf.printf "%.17g %.17g\n%!" (alu_ns_per_iter ()) (memory_ns_per_step ())

(* [(alu ns/iteration, memory ns/step)], measured in a child process
   running this executable with [--probe]: the 16 MB chase array never
   enters this process, whose VmHWM is a high-water mark that freeing
   the array could not lower. *)
let probe () =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "--probe" |] in
  let line = try Some (input_line ic) with End_of_file -> None in
  match (Unix.close_process_in ic, Option.bind line (fun l -> Scanf.sscanf_opt l "%f %f" (fun a m -> (a, m)))) with
  | Unix.WEXITED 0, Some p -> p
  | _ -> failwith "benchmark: the host probe failed"

(* Cores this process may run on, as `nproc` reports them. *)
let nproc () =
  let fallback = Domain.recommended_domain_count () in
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> fallback
  | ic -> (
    let line = try Some (input_line ic) with End_of_file -> None in
    match (Unix.close_process_in ic, Option.bind line int_of_string_opt) with
    | Unix.WEXITED 0, Some n -> n
    | _ -> fallback)

(* VmHWM, the high-water mark of the resident set, in MiB.  Unlike the
   OCaml heap's top size it counts the ring backend's Bigarray scratch
   and every other allocation outside the heap. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> failwith "benchmark: no VmHWM in /proc/self/status"
    | line ->
      if String.starts_with ~prefix:"VmHWM:" line then
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
      else scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
