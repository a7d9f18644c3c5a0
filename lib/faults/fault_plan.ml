module Rng = Mycelium_util.Rng

type t = {
  seed : int64;
  drop_rate : float;
  max_send_attempts : int;
  delay_rate : float;
  max_delay_rounds : int;
  churn_rate : float;
  crashed_committee : int list;
  forge_rate : float;
  aggregator_restarts : int;
}

let none =
  {
    seed = 0L;
    drop_rate = 0.;
    max_send_attempts = 4;
    delay_rate = 0.;
    max_delay_rounds = 3;
    churn_rate = 0.;
    crashed_committee = [];
    forge_rate = 0.;
    aggregator_restarts = 0;
  }

let check_rate name r =
  if not (r >= 0. && r <= 1.) then
    invalid_arg (Printf.sprintf "Fault_plan.make: %s must be in [0, 1]" name)

let make ?(drop_rate = 0.) ?(max_send_attempts = 4) ?(delay_rate = 0.)
    ?(max_delay_rounds = 3) ?(churn_rate = 0.) ?(crashed_committee = [])
    ?(forge_rate = 0.) ?(aggregator_restarts = 0) ~seed () =
  check_rate "drop_rate" drop_rate;
  check_rate "delay_rate" delay_rate;
  check_rate "churn_rate" churn_rate;
  check_rate "forge_rate" forge_rate;
  if max_send_attempts < 1 then invalid_arg "Fault_plan.make: max_send_attempts < 1";
  if max_delay_rounds < 1 then invalid_arg "Fault_plan.make: max_delay_rounds < 1";
  if aggregator_restarts < 0 then invalid_arg "Fault_plan.make: negative restarts";
  {
    seed;
    drop_rate;
    max_send_attempts;
    delay_rate;
    max_delay_rounds;
    churn_rate;
    crashed_committee;
    forge_rate;
    aggregator_restarts;
  }

let rate_zero r = Float.equal r 0.

let is_none t =
  rate_zero t.drop_rate && rate_zero t.delay_rate && rate_zero t.churn_rate
  && rate_zero t.forge_rate
  && (match t.crashed_committee with [] -> true | _ :: _ -> false)
  && t.aggregator_restarts = 0

(* 53 uniform bits of the decision key as a float in [0, 1). *)
let chance k = Int64.to_float (Int64.shift_right_logical k 11) *. 0x1.0p-53

let device_churned t ~device =
  t.churn_rate > 0. && chance (Rng.key t.seed Rng.Fault_churn [ device ]) < t.churn_rate

let contribution_forged t ~device =
  t.forge_rate > 0.
  && (not (device_churned t ~device))
  && chance (Rng.key t.seed Rng.Fault_forge [ device ]) < t.forge_rate

let send_dropped t ~round ~source ~dest ~attempt =
  t.drop_rate > 0.
  && chance (Rng.key t.seed Rng.Fault_drop [ round; source; dest; attempt ]) < t.drop_rate

let send_delay t ~round ~source ~dest =
  let key = Rng.key t.seed Rng.Fault_delay in
  if rate_zero t.delay_rate || chance (key [ round; source; dest ]) >= t.delay_rate then 0
  else begin
    let lateness = Int64.shift_right_logical (key [ round; source; dest; 1 ]) 1 in
    1 + Int64.to_int (Int64.rem lateness (Int64.of_int t.max_delay_rounds))
  end

let backoff_units t ~attempts =
  ignore t;
  (* attempts - 1 failed tries slept 1, 2, 4, ... base-delay units. *)
  let rec go i acc = if i >= attempts then acc else go (i + 1) (acc + (1 lsl (i - 1))) in
  if attempts <= 1 then 0 else go 1 0

let crashed_members t ~size =
  List.sort_uniq Int.compare (List.filter (fun m -> m >= 0 && m < size) t.crashed_committee)
