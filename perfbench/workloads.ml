(* The four benchmark workloads. Each one generates every input from the
   seed (set-up, timed on its own), then calls one simulator entry point
   directly; the harness times that call alone. *)

open Lesslog_id
module Des_sim = Lesslog_des.Des_sim
module Pdes_sim = Lesslog_des.Pdes_sim
module Fault_sim = Lesslog_des.Fault_sim
module Histogram = Lesslog_metrics.Histogram
module Demand = Lesslog_workload.Demand
module Scenario = Lesslog_workload.Scenario
module Faults = Lesslog_workload.Faults
module Rng = Lesslog_prng.Rng
module Status_word = Lesslog_membership.Status_word
module Trace = Lesslog_trace.Trace
module Obs = Lesslog_obs.Obs
module Rf_policy = Lesslog_policy.Rf_policy
module Latency = Lesslog_net.Latency
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops

let key = "perfbench/hot-object"
let capacity = 100.0
let cold_file_bytes = 1 lsl 20
let span = Probe.Spans.span

(* Per-workload stream seeds, so two workloads never share a stream. *)
let derive seed tag =
  Lesslog_hash.Fnv.hash63 (Printf.sprintf "%d|perfbench|%s" seed tag)
  land 0x3FFFFFFF

(* How one call is instrumented. The simulated statistics must not
   depend on it. *)
type instr = {
  sink : (Trace.Event.t -> unit) option;
  obs : Obs.t option;
  domains : int;
}

let plain = { sink = None; obs = None; domains = 1 }

(* The simulated statistics of one call: a pure function of the seed. *)
type stats = {
  issued : int option;
      (** [None] when the plain call cannot see it ([Des_sim] reports it
          only through an [obs] registry). *)
  served : int;
  faults : int;  (** Reported faults: faulted or exhausted requests. *)
  pending : int;  (** [Fault_sim] requests still in flight at the end. *)
  drained : bool;
      (** The workload ends with a zero-demand drain, so nothing may be in
          flight at the end. *)
  events : int;
  messages : int;
  latencies : Histogram.t;  (** Simulated seconds, served requests. *)
  hops : Histogram.t;
  copies_end : int;
  oracle : float;  (** Mean-field replicas: max(1, offered rate / capacity). *)
  replicas_created : int;
  digest : int option;
  counts : (string * float) list;  (** Driver-specific result counts. *)
}

(* What the layer replay needs from a traced call. *)
type after = {
  cluster : Cluster.t option;  (** The cluster as the run left it. *)
  fresh : (unit -> Cluster.t) option;  (** The same cluster before the run. *)
  policy : Rf_policy.t option;
  policy_config : Rf_policy.config option;
  latency : Latency.t;
  live_nodes : int;
}

type t = {
  name : string;
  entry : string;
  prepare : seed:int -> instr -> unit -> unit -> stats * after;
      (** [prepare ~seed instr] is the set-up; the first thunk is the
          simulator call; the second reads the result. *)
}

let issued_of_obs obs name =
  Option.map
    (fun o -> Obs.Registry.value (Obs.Registry.counter o.Obs.registry name))
    obs

(* The replay inputs of a workload that runs over a [Cluster]. *)
let cluster_after ?policy ~cluster ~params ~latency () =
  {
    cluster = Some cluster;
    fresh =
      Some
        (fun () ->
          let c = Cluster.create params in
          ignore (Ops.insert c ~key);
          c);
    policy = Option.map fst policy;
    policy_config = Option.map snd policy;
    latency;
    live_nodes = Status_word.live_count (Cluster.status cluster);
  }

let des_stats ~instr ~drained ~cluster ~oracle (r : Des_sim.result) =
  let cold =
    match r.Des_sim.cold with
    | None -> []
    | Some c ->
        [
          ("cold.demotions", float_of_int c.Des_sim.demotions);
          ("cold.promotions", float_of_int c.Des_sim.promotions);
          ("cold.fragment_repairs", float_of_int c.Des_sim.fragment_repairs);
          ("cold.bytes_moved", float_of_int c.Des_sim.bytes_moved);
          ("cold.repair_bytes", float_of_int c.Des_sim.repair_bytes);
          ("cold.mean_bytes_stored", c.Des_sim.mean_bytes_stored);
          ("cold.coded_serves", float_of_int c.Des_sim.coded_serves);
        ]
  in
  {
    issued = issued_of_obs instr.obs "des/requests";
    served = r.Des_sim.served;
    faults = r.Des_sim.faults;
    pending = 0;
    drained;
    events = r.Des_sim.events;
    messages = r.Des_sim.messages;
    latencies = r.Des_sim.latencies;
    hops = r.Des_sim.hops;
    copies_end = Cluster.total_copies cluster ~key;
    oracle;
    replicas_created = r.Des_sim.replicas_created;
    digest = None;
    counts =
      ("des.control_messages", float_of_int r.Des_sim.control_messages)
      :: ("des.file_transfers", float_of_int r.Des_sim.file_transfers)
      :: cold;
  }

let oracle_of ~rate = Float.max 1.0 (rate /. capacity)

(* 1. steady-read: the paper's read path at full scale. Des_sim, m = 16,
   uniform 2 req/s per node, native logless replication, no churn, no
   loss, then a zero-demand drain so every issued request resolves. *)
let steady_read =
  let m = 16 and per_node = 2.0 and demand_s = 2.0 and drain_s = 1.0 in
  let prepare ~seed instr =
    let params = span "setup.params" (fun () -> Params.create ~m ()) in
    let cluster = span "setup.cluster_create" (fun () -> Cluster.create params) in
    span "setup.insert" (fun () -> ignore (Ops.insert cluster ~key));
    let status = Cluster.status cluster in
    let total = per_node *. float_of_int (Status_word.live_count status) in
    let scenario =
      span "setup.demand" (fun () ->
          Scenario.of_phases
            [
              { Scenario.demand = Demand.uniform status ~total; duration = demand_s };
              {
                Scenario.demand = Demand.uniform status ~total:0.0;
                duration = drain_s;
              };
            ])
    in
    let rng = Rng.create ~seed:(derive seed "steady-read") in
    let config = { Des_sim.default_config with capacity } in
    fun () ->
      let r =
        Des_sim.run_scenario ~config ?sink:instr.sink ?obs:instr.obs ~rng
          ~cluster ~key ~scenario ()
      in
      fun () ->
        ( des_stats ~instr ~drained:true ~cluster ~oracle:(oracle_of ~rate:total) r,
          cluster_after ~cluster ~params ~latency:config.Des_sim.latency () )
  in
  {
    name = "steady-read";
    entry = "Des_sim.run_scenario";
    prepare;
  }

(* 2. sharded-faults: the same protocol through the sharded simulator with
   a seeded plan of crashes (half restart) and loss bursts, which break
   epoch fusion into many barrier phases. Timed at one domain: on a
   shared 2-core host a 2-domain call mostly measures co-tenant stalls at
   the barriers. The traced run adds the 2-domain call. *)
let sharded_faults =
  let m = 16 and b = 2 and per_node = 2.0 and duration = 2.5 in
  let prepare ~seed instr =
    let params = span "setup.params" (fun () -> Params.create ~b ~m ()) in
    let status = Status_word.create params ~initially_live:true in
    let total = per_node *. float_of_int (Status_word.live_count status) in
    let demand = span "setup.demand" (fun () -> Demand.uniform status ~total) in
    let faults =
      span "setup.fault_plan" (fun () ->
          let rng = Rng.create ~seed:(derive seed "sharded-faults/plan") in
          Faults.generate ~rng ~live:(Status_word.live_pids status) ~duration
            ~crash_fraction:0.02 ~restart_fraction:0.5 ~bursts:20
            ~burst_loss:0.2 ~mean_burst:(duration /. 250.0) ~partitions:0 ())
    in
    let run_seed = derive seed "sharded-faults/run" in
    let config = { Pdes_sim.default_config with Pdes_sim.capacity } in
    fun () ->
      let r =
        Pdes_sim.run ~config ~faults ?obs:instr.obs ~domains:instr.domains
          ~seed:run_seed ~params ~key ~demand ~duration ()
      in
      fun () ->
        ( {
            issued = Some r.Pdes_sim.requests;
            served = r.Pdes_sim.served;
            faults = r.Pdes_sim.faults;
            pending = 0;
            drained = false;
            events = r.Pdes_sim.events;
            messages = r.Pdes_sim.messages;
            latencies = r.Pdes_sim.latencies;
            hops = r.Pdes_sim.hops;
            copies_end = r.Pdes_sim.replicas_end;
            oracle = oracle_of ~rate:total;
            replicas_created = r.Pdes_sim.replicas_created;
            digest = Some r.Pdes_sim.digest;
            counts =
              [
                ("pdes.epochs", float_of_int r.Pdes_sim.epochs);
                ("pdes.phases", float_of_int r.Pdes_sim.phases);
                ("pdes.cross_sends", float_of_int r.Pdes_sim.cross_sends);
                ("pdes.migrations", float_of_int r.Pdes_sim.migrations);
                ("des.control_messages", float_of_int r.Pdes_sim.control_messages);
                ("des.file_transfers", float_of_int r.Pdes_sim.file_transfers);
              ];
          },
          {
            cluster = None;
            fresh = None;
            policy = None;
            policy_config = None;
            latency = config.Pdes_sim.latency;
            live_nodes = Status_word.live_count status;
          } )
  in
  {
    name = "sharded-faults";
    entry = "Pdes_sim.run";
    prepare;
  }

(* 3. churn-lifecycle: the write side. Repeated flash-crowd / idle /
   re-heat cycles under the capacity-mode RF policy with the RS(10,4)
   cold tier; each idle phase fails one low-PID node and later rejoins
   it. Ends on a re-heat peak. *)
let churn_lifecycle =
  let m = 14 and peak = 16_000.0 and cycles = 10 in
  let peak_s = 1.5 and idle_s = 1.5 in
  let prepare ~seed instr =
    let params = span "setup.params" (fun () -> Params.create ~m ()) in
    let cluster = span "setup.cluster_create" (fun () -> Cluster.create params) in
    let inserted =
      span "setup.insert" (fun () ->
          List.map Pid.to_int (Ops.insert cluster ~key))
    in
    let status = Cluster.status cluster in
    let rng = Rng.create ~seed:(derive seed "churn-lifecycle") in
    let scenario =
      span "setup.scenario" (fun () ->
          let hot () = Demand.locality status ~rng ~total:peak in
          let idle = Demand.uniform status ~total:0.0 in
          let cycle () =
            [
              { Scenario.demand = hot (); duration = peak_s };
              { Scenario.demand = idle; duration = idle_s };
            ]
          in
          Scenario.of_phases
            (List.concat (List.init cycles (fun _ -> cycle ()))
            @ [ { Scenario.demand = hot (); duration = peak_s } ]))
    in
    let churn =
      let victims =
        List.filter (fun p -> not (List.mem p inserted)) (List.init (2 * cycles) Fun.id)
      in
      List.concat
        (List.init cycles (fun c ->
             let v = Pid.unsafe_of_int (List.nth victims c) in
             let idle_at = (float_of_int c *. (peak_s +. idle_s)) +. peak_s in
             [
               { Des_sim.at = idle_at +. (0.6 *. idle_s); action = Des_sim.Fail v };
               { Des_sim.at = idle_at +. (0.9 *. idle_s); action = Des_sim.Join v };
             ]))
    in
    let pconfig =
      {
        Rf_policy.default_config with
        Rf_policy.interval = 0.25;
        rf_min = 3;
        rf_max = Params.space params;
        capacity = Some capacity;
      }
    in
    let policy =
      span "setup.policy" (fun () ->
          Rf_policy.create ~config:pconfig ~rf0:3 ~nodes:(Params.space params)
            ~files:1 ())
    in
    let cold_tier =
      { Des_sim.code_k = 10; code_r = 4; file_bytes = cold_file_bytes; demote_after = 2 }
    in
    let config = { Des_sim.default_config with capacity } in
    fun () ->
      let r =
        Des_sim.run_scenario ~config ~churn ?sink:instr.sink ?obs:instr.obs
          ~policy ~cold_tier ~rng ~cluster ~key ~scenario ()
      in
      fun () ->
        ( des_stats ~instr ~drained:false ~cluster ~oracle:(oracle_of ~rate:peak) r,
          cluster_after ~policy:(policy, pconfig) ~cluster ~params ~latency:config.Des_sim.latency () )
  in
  {
    name = "churn-lifecycle";
    entry = "Des_sim.run_scenario";
    prepare;
  }

(* 4. lossy-rpc: the reliability testbed, the only workload through the
   net layer (Rpc retransmission and dedup, Heartbeat). Baseline loss
   plus crashes, loss bursts and one partition; membership is driven by
   the failure detector alone. *)
let lossy_rpc =
  let m = 12 and rate = 3_000.0 and duration = 60.0 and loss = 0.1 in
  let prepare ~seed instr =
    let params = span "setup.params" (fun () -> Params.create ~m ()) in
    let cluster = span "setup.cluster_create" (fun () -> Cluster.create params) in
    span "setup.insert" (fun () -> ignore (Ops.insert cluster ~key));
    let status = Cluster.status cluster in
    let rng = Rng.create ~seed:(derive seed "lossy-rpc") in
    let demand = span "setup.demand" (fun () -> Demand.uniform status ~total:rate) in
    let plan =
      span "setup.fault_plan" (fun () ->
          Faults.generate ~rng ~live:(Status_word.live_pids status) ~duration
            ~crash_fraction:0.01 ~restart_fraction:0.5 ~bursts:12
            ~burst_loss:0.2 ~mean_burst:0.5 ~partitions:1
            ~partition_fraction:0.02 ~mean_partition:2.0 ())
    in
    let config = { Fault_sim.default_config with Fault_sim.loss; capacity } in
    fun () ->
      let r =
        Fault_sim.run ~config ~plan ?sink:instr.sink ?obs:instr.obs ~rng
          ~cluster ~key ~demand ~duration ()
      in
      fun () ->
        let f = float_of_int in
        ( {
            issued = Some r.Fault_sim.issued;
            served = r.Fault_sim.served;
            faults = r.Fault_sim.faulted;
            pending = r.Fault_sim.pending_at_end;
            drained = true;
            events = 0;
            messages = r.Fault_sim.messages;
            latencies = r.Fault_sim.latencies;
            hops = r.Fault_sim.hops;
            copies_end = Cluster.total_copies cluster ~key;
            oracle = oracle_of ~rate;
            replicas_created = r.Fault_sim.replicas_created;
            digest = None;
            counts =
              [
                ("net.retransmissions", f r.Fault_sim.retransmissions);
                ("net.timeouts", f r.Fault_sim.timeouts);
                ("net.duplicate_serves", f r.Fault_sim.duplicate_serves);
                ("net.suspicions", f r.Fault_sim.suspicions);
                ("net.spurious_suspicions", f r.Fault_sim.spurious_suspicions);
                ("net.recoveries", f r.Fault_sim.recoveries);
                ("net.migrations", f r.Fault_sim.migrations);
                ("net.crashes", f r.Fault_sim.crashes);
              ];
          },
          cluster_after ~cluster ~params ~latency:config.Fault_sim.latency () )
  in
  {
    name = "lossy-rpc";
    entry = "Fault_sim.run";
    prepare;
  }

let all = [ steady_read; sharded_faults; churn_lifecycle; lossy_rpc ]
