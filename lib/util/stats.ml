let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: empty";
  let a = sorted_copy xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let a = sorted_copy xs in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  let idx = max 0 (min (n - 1) (rank - 1)) in
  a.(idx)

let throughput_mops ~ops ~seconds =
  if seconds <= 0.0 then 0.0 else float_of_int ops /. seconds /. 1e6
