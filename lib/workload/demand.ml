open Lesslog_id
module Status_word = Lesslog_membership.Status_word
module Rng = Lesslog_prng.Rng

type t = { rates : float array; total : float }

let of_rates rates =
  { rates; total = Array.fold_left ( +. ) 0.0 rates }

let uniform status ~total =
  let params = Status_word.params status in
  let live = Status_word.live_count status in
  let rates = Array.make (Params.space params) 0.0 in
  if live > 0 then begin
    let per_node = total /. float_of_int live in
    Status_word.iter_live status (fun p -> rates.(Pid.to_int p) <- per_node)
  end;
  { rates; total = (if live = 0 then 0.0 else total) }

let locality ?(hot_fraction = 0.2) ?(hot_share = 0.8) status ~rng ~total =
  if hot_fraction < 0.0 || hot_fraction > 1.0 then
    invalid_arg "Demand.locality: hot_fraction";
  if hot_share < 0.0 || hot_share > 1.0 then
    invalid_arg "Demand.locality: hot_share";
  let params = Status_word.params status in
  let live = Status_word.live_array status in
  let n = Array.length live in
  let rates = Array.make (Params.space params) 0.0 in
  if n = 0 then { rates; total = 0.0 }
  else begin
    let hot_count =
      max 1 (int_of_float (Float.round (hot_fraction *. float_of_int n)))
    in
    let hot_count = min hot_count n in
    let hot = Rng.sample_without_replacement rng ~k:hot_count live in
    let cold_count = n - hot_count in
    let hot_rate = total *. hot_share /. float_of_int hot_count in
    let cold_rate =
      if cold_count = 0 then 0.0
      else total *. (1.0 -. hot_share) /. float_of_int cold_count
    in
    Array.iter (fun p -> rates.(Pid.to_int p) <- cold_rate) live;
    Array.iter (fun p -> rates.(Pid.to_int p) <- hot_rate) hot;
    (* When every node is hot the cold share has nowhere to go; keep the
       accounted total exact by rescaling. The tolerance is relative to
       [total]: an absolute epsilon misfires for large totals (where
       rounding alone exceeds it, forcing a useless rescale every call)
       and never fires for tiny ones (where the discrepancy can be 100%
       of the mass yet under the epsilon). *)
    let accounted = Array.fold_left ( +. ) 0.0 rates in
    if
      accounted > 0.0
      && Float.abs (accounted -. total) > 1e-12 *. Float.max 1.0 total
    then begin
      let k = total /. accounted in
      Array.iteri (fun i r -> rates.(i) <- r *. k) rates
    end;
    { rates; total }
  end

let hotspot status ~at ~total =
  let params = Status_word.params status in
  if Status_word.is_dead status at then invalid_arg "Demand.hotspot: dead node";
  let rates = Array.make (Params.space params) 0.0 in
  rates.(Pid.to_int at) <- total;
  { rates; total }

let[@inline] rate t p = t.rates.(Pid.to_int p)
let total t = t.total

let scale t ~factor =
  { rates = Array.map (fun r -> r *. factor) t.rates; total = t.total *. factor }
