module Rng = Lesslog_prng.Rng

type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float; floor : float }

let default = Uniform { lo = 0.010; hi = 0.080 }

let[@inline] sample t rng =
  match t with
  | Constant d -> d
  | Uniform { lo; hi } -> lo +. Rng.float rng (hi -. lo)
  | Exponential { mean; floor } ->
      floor +. Rng.exponential rng ~rate:(1.0 /. mean)

let mean = function
  | Constant d -> d
  | Uniform { lo; hi } -> (lo +. hi) /. 2.0
  | Exponential { mean; floor } -> floor +. mean

let pp fmt = function
  | Constant d -> Format.fprintf fmt "constant(%gs)" d
  | Uniform { lo; hi } -> Format.fprintf fmt "uniform(%g..%gs)" lo hi
  | Exponential { mean; floor } ->
      Format.fprintf fmt "exponential(mean=%gs, floor=%gs)" mean floor
