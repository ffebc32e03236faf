(** The protocol model shared by {!Des_sim} and {!Fault_sim}: one key's
    lookup-tree routing (paper Section 3), overload-driven replica
    pushes (Section 2.2), PUSH acceptance, and membership repair
    (Section 5, or the registry repair of a Generic substrate). Each
    simulator embeds one [t] and keeps only what is its own: [Des_sim]
    the oracle status word, policy and cold tier; [Fault_sim] the rpc
    layer and the heartbeat detector. Plain first-order functions over a
    concrete record, so nothing here allocates per event beyond what the
    routing substrate does. *)

open Lesslog_id

type t = {
  rng : Lesslog_prng.Rng.t;
  cluster : Lesslog.Cluster.t;
  key : string;
  tree : Lesslog_ptree.Ptree.t;  (** The key's lookup tree, fixed per run. *)
  engine : Lesslog_sim.Engine.t;
  overlay : unit Lesslog_net.Overlay.t;
  substrate : Lesslog_substrate.Substrate.t option;
      (** [None] = the native direct path; [Some] routes, places replicas
          and repairs churn through the substrate contract. *)
  capacity : float;
  cooldown : float;
  estimators : Lesslog_storage.Access_counter.t array;  (** Per PID. *)
  cooldown_until : float array;
  sink : (Lesslog_trace.Trace.Event.t -> unit) option;
  spans : Lesslog_obs.Obs.Span.sink option;
  sp_lookup : int;  (** Span names, interned when [spans] is set. *)
  sp_replicate : int;
  mutable replicas_created : int;
  mutable lost_keys : int;
      (** Keys wiped with no surviving copy by a [`Fail] {!repair}. *)
}

val create :
  rng:Lesslog_prng.Rng.t ->
  cluster:Lesslog.Cluster.t ->
  key:string ->
  substrate:Lesslog_substrate.Substrate.t option ->
  latency:Lesslog_net.Latency.t ->
  loss:float ->
  capacity:float ->
  cooldown:float ->
  detection_tau:float ->
  sink:(Lesslog_trace.Trace.Event.t -> unit) option ->
  obs:Lesslog_obs.Obs.t option ->
  t
(** A fresh engine and overlay over [cluster], with the key's tree,
    per-node estimators and cooldowns, and the span names interned. *)

val listen :
  t -> (src:Pid.t -> dst:Pid.t -> int -> float -> unit) -> unit
(** Install the packed-message handler and attach every live node. *)

val every : t -> period:float -> until:float -> (unit -> unit) -> unit
(** Run [f] every [period] seconds of simulated time up to [until]. *)

val intern : Lesslog_obs.Obs.Span.sink option -> string -> int
(** A span name's id in the sink, or 0 without one. *)

val now : t -> float
val emit : t -> Lesslog_trace.Trace.Event.t -> unit
val holds : t -> Pid.t -> bool

val forward : t -> me:Pid.t -> int -> float -> bool
(** Send the GET word [b] (with timestamp [x]) one hop on from [me];
    [false] at a dead end or when the hop field is exhausted (a
    non-conforming substrate route), which the caller reports. *)

val note_serve : t -> server:Pid.t -> origin:Pid.t -> hops:int -> unit
(** The serving node's side of a serve: its access counters and the
    trace's served-request event. *)

val maybe_replicate : t -> overloaded:Pid.t -> unit
(** Push a copy to a replica target when [overloaded]'s estimated serve
    rate exceeds capacity and its cooldown has expired. The copy only
    becomes servable when the push arrives. *)

val accept_push : t -> src:Pid.t -> me:Pid.t -> int -> bool
(** A PUSH word arriving at [me]: store the copy unless [me] already
    holds one, and say whether it did. *)

val repair :
  t ->
  ?on_coded_repair:(key:string -> rebuilt:int -> lost:bool -> unit) ->
  [ `Join | `Leave | `Fail ] ->
  Pid.t ->
  int
(** Apply one membership change and return the number of relocated
    copies. Generic substrates run the overlay-agnostic registry repair
    ([Ops.on_membership_via]); the direct path and the native adapter
    run the Section 5 mechanism ({!Lesslog.Self_org}) verbatim. With
    [on_coded_repair], the key's coded fragments are repaired too and
    the outcome reported. *)
