let origin_bits = Lesslog_bits.Bitops.max_width
let origin_mask = (1 lsl origin_bits) - 1
let hops_bits = 6
let hop_limit = (1 lsl hops_bits) - 1
let id_mask = (1 lsl 30) - 1
let id_shift = 3 + origin_bits + hops_bits
let tag b = b land 7

let get_b ~id ~origin ~hops =
  0 lor (origin lsl 3)
  lor ((hops land hop_limit) lsl (3 + origin_bits))
  lor (id lsl id_shift)

let reply_b ~id ~server ~hops =
  1
  lor ((hops land hop_limit) lsl 3)
  lor (server lsl (3 + hops_bits))
  lor (id lsl id_shift)

let push_b ~version = 2 lor (version lsl 3)
let ping_b ~seq = 3 lor (seq lsl 3)
let pong_b ~seq = 4 lor (seq lsl 3)
let get_origin b = (b lsr 3) land origin_mask
let get_hops b = (b lsr (3 + origin_bits)) land hop_limit
let forwardable b = get_hops b < hop_limit
let forward b = b + (1 lsl (3 + origin_bits))
let reply_hops b = (b lsr 3) land hop_limit
let reply_server b = (b lsr (3 + hops_bits)) land origin_mask
let id b = b lsr id_shift
let payload b = b lsr 3
