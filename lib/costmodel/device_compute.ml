module Rng = Mycelium_util.Rng
module Params = Mycelium_bgv.Params
module Bgv = Mycelium_bgv.Bgv
module Zkp = Mycelium_zkp.Zkp
module Obs = Mycelium_obs.Obs

type unit_costs = {
  params : Params.t;
  encrypt_s : float;
  multiply_s : float;
  add_s : float;
}

let time_it f =
  let t0 = Obs.now_s () in
  let reps = ref 0 in
  while Obs.now_s () -. t0 < 0.15 do
    f ();
    incr reps
  done;
  (Obs.now_s () -. t0) /. float_of_int !reps

let measure ?(params = Params.test_medium) rng =
  let ctx = Bgv.make_ctx params in
  let _, pk = Bgv.keygen ctx rng in
  let a = Bgv.encrypt_value ctx rng pk 1 in
  let b = Bgv.encrypt_value ctx rng pk 2 in
  {
    params;
    encrypt_s = time_it (fun () -> ignore (Bgv.encrypt_value ctx rng pk 1));
    multiply_s = time_it (fun () -> ignore (Bgv.mul a b));
    add_s = time_it (fun () -> ignore (Bgv.add a b));
  }

let work_factor (p : Params.t) =
  let n = float_of_int p.Params.degree in
  float_of_int p.Params.levels *. n *. (log n /. log 2.)

let extrapolate costs target =
  let f = work_factor target /. work_factor costs.params in
  {
    params = target;
    encrypt_s = costs.encrypt_s *. f;
    multiply_s = costs.multiply_s *. f;
    add_s = costs.add_s *. f;
  }

type breakdown = {
  encryptions : int;
  multiplications : int;
  he_seconds : float;
  zkp_seconds : float;
  total_seconds : float;
}

let device_query_cost (d : Defaults.t) costs ~cq =
  (* Contributions to each of d neighbors (Cq ciphertexts each), plus
     the local aggregation: multiplying ~d+1 degree-growing ciphertexts
     costs ~sum of component counts ~ d^2/2 component multiplies. *)
  let encryptions = (d.Defaults.degree * cq) + 1 in
  let component_mults = d.Defaults.degree * (d.Defaults.degree + 3) / 2 in
  let he =
    (float_of_int encryptions *. costs.encrypt_s)
    +. (float_of_int component_mults *. costs.multiply_s)
  in
  let zkp =
    Zkp.Cost.prove_seconds
      ~constraints:(Zkp.Cost.contribution_constraints costs.params)
  in
  {
    encryptions;
    multiplications = component_mults;
    he_seconds = he;
    zkp_seconds = zkp;
    total_seconds = he +. zkp;
  }

let paper_anchor_seconds = 15. *. 60.
