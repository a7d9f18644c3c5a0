(* The host-speed reference: a fixed kernel timed right before and right
   after every timed call, so each call's time can be read at a nominal
   host speed.

   The host this benchmark was tuned on shares its cores: for stretches
   of seconds to minutes every instruction stream on it runs up to half
   as fast again, and a run's wall-clock figures move with the share of
   the run each stretch held.  The kernel is a small copy of the
   program's two kinds of inner loop — ChaCha-style add-rotate-xor
   rounds on a 16-word state (arithmetic on registers, as in the ring
   and hash code), and byte-wise loads and stores through a buffer that
   fits in L2 (the onion, hash and wire-format code) — in the mix each
   workload runs, and it slows in step with the program (README.md, Host
   noise).  Scaling each call's time by [nominal / measured] for the
   samples around it takes out what the host did and leaves what the
   program did.  The kernel is the benchmark's own code, so no change to
   the program can move it. *)

let mask32 = 0xFFFF_FFFF
let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let quarter s a b c d =
  s.(a) <- (s.(a) + s.(b)) land mask32;
  s.(d) <- rotl32 (s.(d) lxor s.(a)) 16;
  s.(c) <- (s.(c) + s.(d)) land mask32;
  s.(b) <- rotl32 (s.(b) lxor s.(c)) 12;
  s.(a) <- (s.(a) + s.(b)) land mask32;
  s.(d) <- rotl32 (s.(d) lxor s.(a)) 8;
  s.(c) <- (s.(c) + s.(d)) land mask32;
  s.(b) <- rotl32 (s.(b) lxor s.(c)) 7

let state = Array.init 16 (fun i -> (i * 0x9E3779B9) land mask32)

let double_rounds n =
  let s = state in
  for _ = 1 to n do
    quarter s 0 4 8 12;
    quarter s 1 5 9 13;
    quarter s 2 6 10 14;
    quarter s 3 7 11 15;
    quarter s 0 5 10 15;
    quarter s 1 6 11 12;
    quarter s 2 7 8 13;
    quarter s 3 4 9 14
  done

let buffer = Bytes.make (256 * 1024) 'a'

(* Each pass reads two bytes and writes one in every four. *)
let byte_passes n =
  let b = buffer in
  let acc = ref 0 in
  for pass = 1 to n do
    let i = ref 0 in
    while !i < Bytes.length b - 4 do
      let v = Bytes.get_uint8 b !i lor (Bytes.get_uint8 b (!i + 1) lsl 8) in
      acc := ((!acc + v) lxor (!acc lsl 3)) land mask32;
      Bytes.set_uint8 b (!i + 2) ((!acc + pass) land 0xFF);
      i := !i + 4
    done
  done;
  ignore (Sys.opaque_identity !acc)

(* Which inner loops a workload's reference mirrors: [Arithmetic], the
   rounds alone; [Mixed], a quarter of the time in the rounds and three
   quarters in the byte passes.  Either sample takes about 5 ms in the
   tuning host's fast state, which is taken as the nominal speed. *)
type reference = Arithmetic | Mixed

let nominal_s = 5e-3

let sample reference =
  let t0 = Unix.gettimeofday () in
  (match reference with
  | Arithmetic -> double_rounds 50_000
  | Mixed ->
    double_rounds 12_500;
    byte_passes 20);
  Unix.gettimeofday () -. t0

(* [f ()] between two samples: its result and the host-speed factor
   [nominal / measured] that turns its wall seconds into nominal ones. *)
let around reference f =
  let c0 = sample reference in
  let r = f () in
  let c1 = sample reference in
  (r, nominal_s /. ((c0 +. c1) /. 2.))
