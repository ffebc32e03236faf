(** The packed message codec shared by {!Des_sim}, {!Fault_sim} and
    {!Pdes_sim}. A message is one int word [b] plus the engine's float
    slot [x], which carries the issue timestamp of GETs and REPLYs:

{v
  GET    b = 0 | origin << 3 | hops << 27 | id << 33     x = issued_at
  REPLY  b = 1 | hops << 3 | server << 9 | id << 33      x = issued_at
  PUSH   b = 2 | version << 3
  PING   b = 3 | seq << 3
  PONG   b = 4 | seq << 3
v}

    The request id (a per-run counter masked to 30 bits) sits at bit 33
    in both request and reply; it keys the per-request span. Fields are
    read back through int accessors, so neither encoding nor decoding
    allocates. *)

val origin_bits : int
(** Width of the origin/server field: {!Lesslog_bits.Bitops.max_width},
    the widest PID {!Lesslog_id.Params.create} admits. *)

val hop_limit : int
(** Largest value of the 6-bit hop field (63). *)

val id_mask : int
(** Request ids are masked to 30 bits. *)

val tag : int -> int
val get_b : id:int -> origin:int -> hops:int -> int
val reply_b : id:int -> server:int -> hops:int -> int
val push_b : version:int -> int
val ping_b : seq:int -> int
val pong_b : seq:int -> int
val get_origin : int -> int
val get_hops : int -> int

val forwardable : int -> bool
(** Whether a GET's hop field can count one more hop. A GET at
    {!hop_limit} hops is not: the simulators report it as a routing
    fault rather than wrap the field. *)

val forward : int -> int
(** The same GET one hop further; only valid when {!forwardable}. *)

val reply_hops : int -> int
val reply_server : int -> int

val id : int -> int
(** The request id of a GET or REPLY. *)

val payload : int -> int
(** Everything above the tag: a PUSH's version, a PING/PONG's sequence
    number. *)
