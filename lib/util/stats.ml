let sum a = Array.fold_left ( +. ) 0. a

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else sum a /. float_of_int n

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median a = percentile a 50.

let minimum a = Array.fold_left min a.(0) a
