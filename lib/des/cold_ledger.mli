(** The erasure-coded cold tier's state machine and byte ledger, shared
    by {!Des_sim} and {!Pdes_sim}. Each simulator keeps fragment
    {e placement} ([Ops] calls in [Des_sim], per-shard bitsets in
    [Pdes_sim]) and reports what happened here; every tier transition
    rule and traffic formula lives in this module. Stored bytes are
    integrated as a step function (Leslie's storage accounting,
    PAPERS.md cs/0507072), sampled whenever placement can change. *)

type tier = {
  code_k : int;  (** Data fragments of the Reed-Solomon code. *)
  code_r : int;  (** Parity fragments; any [code_k] of the [k+r] decode. *)
  file_bytes : int;  (** Logical size of the (single) hot file. *)
  demote_after : int;
      (** Consecutive Cold-classified policy intervals before the key is
          demoted to fragments. *)
}

type stats = {
  demotions : int;
  promotions : int;
  fragment_repairs : int;  (** Fragments rebuilt after churn. *)
  lost_cold : bool;
      (** Fewer than [k] fragments survived at some point — the payload
          became unrecoverable. *)
  coded_at_end : bool;
  coded_serves : int;  (** Requests served by fragment gather+decode. *)
  bytes_stored_end : int;
  mean_bytes_stored : float;
      (** Time average of stored bytes over the run — the numerator of
          storage amplification. *)
  bytes_moved : int;
      (** Bytes that crossed the network for placement, demotion,
          promotion and repair (replica pushes and policy fills count
          [file_bytes] each; a demotion moves the [k+r] fragments; a
          promotion gathers [k] fragments and fans the copies out). *)
  repair_bytes : int;
      (** The failure-triggered subset of [bytes_moved]: relocated full
          copies, plus [k] reads and one write per rebuilt fragment. *)
}

type t = {
  tier : tier;
  frag_bytes : int;  (** [ceil (file_bytes / k)]. *)
  mutable coded : bool;
  mutable servable : bool;  (** Coded, and at least [k] fragments live. *)
  mutable streak : int;  (** Consecutive Cold verdicts while replicated. *)
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

val create : who:string -> has_policy:bool -> tier -> t
(** A fresh ledger (replicated, nothing moved).
    @raise Invalid_argument, prefixed by [who], without a policy or on
    invalid code/size parameters. *)

val advance : t -> now:float -> unit
(** Extend the stored-byte integral to [now] at the last sampled level. *)

val sample : t -> now:float -> copies:int -> fragments:int -> unit
(** {!advance}, then record the bytes of [copies] full copies plus
    [fragments] fragments as the level from [now] on. *)

val step :
  t -> Lesslog_policy.Rf_policy.class_ -> [ `Demote | `Promote | `Stay ]
(** The tier decision at a policy tick: [demote_after] consecutive Cold
    verdicts ask for a demotion, the first Hot verdict while coded asks
    for a promotion. A transition the caller cannot carry out (too few
    live nodes, fewer than [k] fragments) is simply not reported, and
    the next qualifying tick asks again. *)

val demoted : t -> fragments:int -> unit
(** A demotion seated [fragments] fragments. *)

val promoted : t -> unit
(** A promotion gathered [k] fragments (its fan-out copies are reported
    through {!copies_moved}). *)

val copies_moved : t -> int -> unit
(** Full copies that crossed the network (pushes, fills, fan-outs). *)

val relocated : t -> int -> unit
(** Full copies relocated by churn: moved and failure-triggered. *)

val repaired : t -> rebuilt:int -> lost:bool -> unit
(** A churn repair rebuilt [rebuilt] fragments ([k] reads and one write
    each), or found fewer than [k] alive ([lost]). *)

val stats : t -> duration:float -> stats
(** The ledger at the end of a run of [duration] seconds; close the
    integral ({!advance} or {!sample}) first. *)
