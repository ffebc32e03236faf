type tier = { code_k : int; code_r : int; file_bytes : int; demote_after : int }

type stats = {
  demotions : int;
  promotions : int;
  fragment_repairs : int;
  lost_cold : bool;
  coded_at_end : bool;
  coded_serves : int;
  bytes_stored_end : int;
  mean_bytes_stored : float;
  bytes_moved : int;
  repair_bytes : int;
}

type t = {
  tier : tier;
  frag_bytes : int;
  mutable coded : bool;
  mutable servable : bool;
  mutable streak : int;
  mutable demotions : int;
  mutable promotions : int;
  mutable fragment_repairs : int;
  mutable lost : bool;
  mutable coded_serves : int;
  mutable moved : int;
  mutable repair_bytes : int;
  mutable byte_seconds : float;
  mutable last_bytes : int;
  mutable last_sample_t : float;
}

let create ~who ~has_policy tier =
  if not has_policy then
    invalid_arg (who ^ ": cold_tier needs a policy (its Cold verdicts)");
  if tier.code_k < 1 || tier.code_r < 0 || tier.code_k + tier.code_r > 256
  then invalid_arg (who ^ ": invalid cold_tier code parameters");
  if tier.file_bytes <= 0 then invalid_arg (who ^ ": file_bytes must be > 0");
  if tier.demote_after < 1 then
    invalid_arg (who ^ ": demote_after must be >= 1");
  {
    tier;
    frag_bytes = (tier.file_bytes + tier.code_k - 1) / tier.code_k;
    coded = false;
    servable = false;
    streak = 0;
    demotions = 0;
    promotions = 0;
    fragment_repairs = 0;
    lost = false;
    coded_serves = 0;
    moved = 0;
    repair_bytes = 0;
    byte_seconds = 0.0;
    last_bytes = 0;
    last_sample_t = 0.0;
  }

let advance t ~now =
  t.byte_seconds <-
    t.byte_seconds +. (float_of_int t.last_bytes *. (now -. t.last_sample_t));
  t.last_sample_t <- now

let sample t ~now ~copies ~fragments =
  advance t ~now;
  t.last_bytes <- (copies * t.tier.file_bytes) + (fragments * t.frag_bytes)

let step t (cls : Lesslog_policy.Rf_policy.class_) =
  if not t.coded then begin
    (match cls with
    | Cold -> t.streak <- t.streak + 1
    | Hot | Warm -> t.streak <- 0);
    if t.streak >= t.tier.demote_after then `Demote else `Stay
  end
  else if cls = Hot then `Promote
  else `Stay

let demoted t ~fragments =
  t.coded <- true;
  t.servable <- true;
  t.streak <- 0;
  t.demotions <- t.demotions + 1;
  t.moved <- t.moved + (fragments * t.frag_bytes)

let promoted t =
  t.coded <- false;
  t.servable <- false;
  t.promotions <- t.promotions + 1;
  t.moved <- t.moved + (t.tier.code_k * t.frag_bytes)

let copies_moved t n = t.moved <- t.moved + (n * t.tier.file_bytes)

let relocated t n =
  let traffic = n * t.tier.file_bytes in
  t.moved <- t.moved + traffic;
  t.repair_bytes <- t.repair_bytes + traffic

let repaired t ~rebuilt ~lost =
  if rebuilt > 0 then begin
    t.fragment_repairs <- t.fragment_repairs + rebuilt;
    let traffic = rebuilt * (t.tier.code_k + 1) * t.frag_bytes in
    t.repair_bytes <- t.repair_bytes + traffic;
    t.moved <- t.moved + traffic
  end;
  if lost then t.lost <- true

let stats t ~duration =
  {
    demotions = t.demotions;
    promotions = t.promotions;
    fragment_repairs = t.fragment_repairs;
    lost_cold = t.lost;
    coded_at_end = t.coded;
    coded_serves = t.coded_serves;
    bytes_stored_end = t.last_bytes;
    mean_bytes_stored =
      (if duration > 0.0 then t.byte_seconds /. duration else 0.0);
    bytes_moved = t.moved;
    repair_bytes = t.repair_bytes;
  }
