open Lesslog_id
module Engine = Lesslog_sim.Engine
module Overlay = Lesslog_net.Overlay
module Latency = Lesslog_net.Latency
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Status_word = Lesslog_membership.Status_word
module File_store = Lesslog_storage.File_store
module Access_counter = Lesslog_storage.Access_counter
module Demand = Lesslog_workload.Demand
module Histogram = Lesslog_metrics.Histogram
module Timeseries = Lesslog_metrics.Timeseries
module Rng = Lesslog_prng.Rng
module Trace = Lesslog_trace.Trace
module Obs = Lesslog_obs.Obs
module Rf_policy = Lesslog_policy.Rf_policy
module Packed_bits = Lesslog_bits.Packed_bits

type eviction = { period : float; min_rate : float }

type cold_tier = Cold_ledger.tier = {
  code_k : int;
  code_r : int;
  file_bytes : int;
  demote_after : int;
}

let default_cold_tier =
  { code_k = 10; code_r = 4; file_bytes = 1 lsl 20; demote_after = 2 }

type config = {
  capacity : float;
  detection_tau : float;
  cooldown : float;
  latency : Latency.t;
  loss : float;
  eviction : eviction option;
}

let default_config =
  {
    capacity = 100.0;
    detection_tau = 2.0;
    cooldown = 0.5;
    latency = Latency.default;
    loss = 0.0;
    eviction = None;
  }

type churn_action = Join of Pid.t | Leave of Pid.t | Fail of Pid.t

type churn_event = { at : float; action : churn_action }

type cold_stats = Cold_ledger.stats = {
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

type result = {
  served : int;
  faults : int;
  latencies : Histogram.t;
  hops : Histogram.t;
  replicas_created : int;
  replicas_evicted : int;
  replica_timeline : Timeseries.t;
  last_replication : float option;
  messages : int;
  control_messages : int;
  file_transfers : int;
  overloaded_at_end : int;
  events : int;
  cold : cold_stats option;
}

type state = {
  config : config;
  m : Model.t;
  (* one demand/deadline pair per workload phase, indexed by the arrival
     event's [b] word *)
  phase_demand : Demand.t array;
  phase_until : float array;
  mutable h_arrival : int;
  mutable served : int;
  mutable faults : int;
  latencies : Histogram.t;
  hops : Histogram.t;
  mutable replicas_evicted : int;
  replica_timeline : Timeseries.t;
  mutable last_replication : float option;
  mutable control_messages : int;
  mutable file_transfers : int;
  mutable next_req : int;
  policy : Rf_policy.t option;
      (* [Some] swaps the native overload-driven replication for the
         log-driven dynamic-RF competitor: accesses are logged at request
         issue, and an interval tick enforces the policy's replica
         factor. [None] (the default) leaves the event stream and the RNG
         draw sequence untouched — the golden digest path. *)
  cold : Cold_ledger.t option;
      (* [Some] adds the erasure-coded cold tier on top of the policy:
         sustained Cold verdicts demote the key to fragments, a Hot
         verdict promotes it back, churn repairs lost fragments. [None]
         leaves every path bit-identical. *)
  frag_holders : Packed_bits.t;
      (* The cold tier's fragment holders as an O(1) per-hop check,
         rebuilt by [refresh_frags] whenever fragment placement changes
         (demote, promote, churn) — all at scheduled events in this
         sequential simulator. *)
}

let now st = Model.now st.m

let record_copies st =
  Timeseries.record st.replica_timeline ~time:(now st)
    (float_of_int (Cluster.total_copies st.m.cluster ~key:st.m.key))

(* --- Cold-tier placement (fragment placement is [Ops]'s; the rules and
   the byte ledger are {!Cold_ledger}'s). --- *)

let sample_bytes st c =
  let cluster = st.m.cluster and key = st.m.key in
  Cold_ledger.sample c ~now:(now st)
    ~copies:(Cluster.total_copies cluster ~key)
    ~fragments:(Ops.live_fragment_count cluster ~key)

(* Placement changed: rebuild the bitset and flags, sample the bytes. *)
let refresh_frags st (c : Cold_ledger.t) =
  Packed_bits.clear_all st.frag_holders;
  (match Cluster.coded_params st.m.cluster ~key:st.m.key with
  | None ->
      c.coded <- false;
      c.servable <- false
  | Some (k, r) ->
      c.coded <- true;
      for i = 0 to k + r - 1 do
        List.iter
          (fun p -> Packed_bits.set st.frag_holders (Pid.to_int p))
          (Cluster.holders st.m.cluster ~key:(Ops.frag_key st.m.key i))
      done;
      c.servable <- Ops.coded_servable st.m.cluster ~key:st.m.key);
  sample_bytes st c

(* A request resolved at [origin] ([server < 0] = fault): record its
   whole span in one call. The wire already carries the issue timestamp
   on every GET and REPLY, and a reply's destination is the origin, so
   the sink's open-span table is never touched — requests in flight when
   the engine stops simply leave no span. Outcome counts and latency/hop
   quantiles flow into the registry at end of run, through the
   simulator's own tallies and the backing histograms — not here. *)
let obs_resolved st ~id ~origin ~server ~hops ~issued_at =
  match st.m.spans with
  | None -> ()
  | Some spans ->
      Obs.Span.emit_int spans ~name:st.m.sp_lookup ~id ~origin ~at:issued_at
        ~dur:(now st -. issued_at)
        ~server ~hops ~attempt:0

let complete st ~id ~origin ~server ~hops ~issued_at =
  Histogram.add st.latencies (now st -. issued_at);
  obs_resolved st ~id ~origin ~server ~hops ~issued_at

(* The one place a request faults: its route met no copy (a dead end, or
   a hop field exhausted by a non-conforming substrate), or it met a
   fragment holder of a coded key with fewer than k fragments alive. *)
let fault st ~id ~origin ~hops ~issued_at =
  st.faults <- st.faults + 1;
  (match st.m.sink with
  | None -> ()
  | Some f ->
      f
        (Trace.Event.Request
           { at = now st; origin = Pid.to_int origin; server = None; hops }));
  obs_resolved st ~id ~origin:(Pid.to_int origin) ~server:(-1) ~hops
    ~issued_at

let serve st ~server ~id ~origin ~issued_at ~hops =
  Model.note_serve st.m ~server ~origin ~hops;
  st.served <- st.served + 1;
  Histogram.add_int st.hops hops;
  if Pid.equal server origin then
    (* Served locally: the reply needs no network hop. *)
    complete st ~id ~origin:(Pid.to_int origin) ~server:(Pid.to_int server)
      ~hops ~issued_at
  else
    Overlay.send_packed st.m.overlay ~src:server ~dst:origin
      ~b:(Wire.reply_b ~id ~server:(Pid.to_int server) ~hops)
      ~x:issued_at;
  (* Under the dynamic-RF policy the interval tick owns replica
     management; the native overload trigger stays off. *)
  match st.policy with
  | None -> Model.maybe_replicate st.m ~overloaded:server
  | Some _ -> ()

(* A GET word [b] standing at [me]: serve, forward one hop, or fault. *)
let get_step st ~me b issued_at =
  let origin = Pid.unsafe_of_int (Wire.get_origin b) in
  let id = Wire.id b and hops = Wire.get_hops b in
  if Model.holds st.m me then serve st ~server:me ~id ~origin ~issued_at ~hops
  else
    match st.cold with
    | Some c when c.coded && Packed_bits.get st.frag_holders (Pid.to_int me) ->
        (* A fragment holder on the route: with >= k fragments live it
           gathers and decodes (the fan-in is byte accounting, not
           simulated messages); below k the payload is unrecoverable
           and the request degrades to a reported fault. *)
        if c.servable then begin
          c.coded_serves <- c.coded_serves + 1;
          serve st ~server:me ~id ~origin ~issued_at ~hops
        end
        else fault st ~id ~origin ~hops ~issued_at
    | _ ->
        if not (Model.forward st.m ~me b issued_at) then
          fault st ~id ~origin ~hops ~issued_at

let handle st ~me ~src b x =
  match Wire.tag b with
  | 0 (* GET *) -> get_step st ~me b x
  | 1 (* REPLY *) ->
      (* A reply's destination is the request's origin. *)
      complete st ~id:(Wire.id b) ~origin:(Pid.to_int me)
        ~server:(Wire.reply_server b) ~hops:(Wire.reply_hops b) ~issued_at:x
  | 2 (* PUSH *) ->
      if Model.accept_push st.m ~src ~me b then begin
        st.last_replication <- Some (now st);
        Option.iter (fun c -> Cold_ledger.copies_moved c 1) st.cold;
        record_copies st
      end
  | _ -> ()

let issue_request st ~origin =
  let id = st.next_req land Wire.id_mask in
  st.next_req <- st.next_req + 1;
  (* The access log the weighted dynamic-RF scheme needs and LessLog
     forgoes: every issued request, keyed by the accessing node. *)
  (match st.policy with
  | None -> ()
  | Some p -> Rf_policy.record p ~file:0 ~node:(Pid.to_int origin));
  (* The client contacts its node directly; local service costs no hop. *)
  get_step st ~me:origin
    (Wire.get_b ~id ~origin:(Pid.to_int origin) ~hops:0)
    (now st)

(* One Poisson arrival at a node: serve/forward the request, then draw the
   next inter-arrival gap — a self-rescheduling packed event, no closure
   chain. A node that died since stops its chain (and a later rejoin does
   not restart it, matching the documented semantics). *)
let on_arrival st origin_i phase _x =
  let origin = Pid.unsafe_of_int origin_i in
  if Status_word.is_live (Cluster.status st.m.cluster) origin then begin
    issue_request st ~origin;
    let rate = Demand.rate st.phase_demand.(phase) origin in
    let t = now st +. Rng.exponential st.m.rng ~rate in
    if t < st.phase_until.(phase) then
      Engine.post_at st.m.engine ~time:t ~h:st.h_arrival ~a:origin_i ~b:phase
        ~x:0.0
  end

(* Poisson arrivals for one demand phase: per origin, events on
   [from_time, until). *)
let start_arrivals st ~phase ~from_time =
  let demand = st.phase_demand.(phase) and until = st.phase_until.(phase) in
  Status_word.iter_live (Cluster.status st.m.cluster) (fun origin ->
      let rate = Demand.rate demand origin in
      if rate > 0.0 then begin
        let t = from_time +. Rng.exponential st.m.rng ~rate in
        if t < until then
          Engine.post_at st.m.engine ~time:t ~h:st.h_arrival
            ~a:(Pid.to_int origin) ~b:phase ~x:0.0
      end)

(* The counter-based mechanism of Section 2.2: each node periodically
   drops replicated copies whose locally-observed access rate fell below
   the threshold — a purely local decision, still logless. *)
let start_eviction st ~duration =
  match st.config.eviction with
  | None -> ()
  | Some { period; min_rate } ->
      let cluster = st.m.cluster and key = st.m.key in
      Model.every st.m ~period ~until:duration (fun () ->
              let removed = ref 0 in
              Status_word.iter_live (Cluster.status cluster) (fun p ->
                  let dropped =
                    (* The survivor floor: when every live holder is a
                       below-rate replica (the inserted copy's node is
                       down), unguarded local eviction would drop the
                       last live copy cluster-wide. *)
                    File_store.evict_cold_replicas
                      ~survivors:(fun key -> Cluster.total_copies cluster ~key)
                      ~min_survivors:1 (Cluster.store cluster p) ~now:(now st)
                      ~min_rate
                  in
                  let mine =
                    List.length (List.filter (String.equal key) dropped)
                  in
                  if mine > 0 then
                    Model.emit st.m
                      (Trace.Event.Evict
                         { at = now st; node = Pid.to_int p; key });
                  removed := !removed + mine);
              if !removed > 0 then begin
                st.replicas_evicted <- st.replicas_evicted + !removed;
                record_copies st
              end)

(* Bring the key's live copy count to the policy's replica factor:
   deficits fill at the first live non-holders in ascending PID order,
   surpluses shed replicated copies from the highest-PID holders down —
   the inserted original is never evicted, so the count never drops
   below one. Deliberately instantaneous (no push latency): the policy
   models a coordinator that already holds the access log, and the
   comparison against LessLog should not charge it the simulator's
   network model twice. *)
let policy_enforce st p =
  let cluster = st.m.cluster and key = st.m.key in
  let rf = Rf_policy.rf p ~file:0 in
  let before = Cluster.total_copies cluster ~key in
  if before < rf then begin
    let src, version =
      match Cluster.holders cluster ~key with
      | h :: _ ->
          ( Pid.to_int h,
            Option.value ~default:0
              (File_store.version (Cluster.store cluster h) ~key) )
      | [] -> (-1, 0)
    in
    let deficit = ref (rf - before) in
    Status_word.iter_live (Cluster.status cluster) (fun q ->
        if !deficit > 0 && not (Cluster.holds cluster q ~key) then begin
          File_store.add (Cluster.store cluster q) ~key
            ~origin:File_store.Replicated ~version ~now:(now st);
          st.m.replicas_created <- st.m.replicas_created + 1;
          st.last_replication <- Some (now st);
          Option.iter (fun c -> Cold_ledger.copies_moved c 1) st.cold;
          Model.emit st.m
            (Trace.Event.Replicate
               { at = now st; src; dst = Pid.to_int q; key });
          decr deficit
        end)
  end
  else if before > rf then begin
    let surplus = ref (before - rf) in
    List.iter
      (fun q ->
        if
          !surplus > 0
          && File_store.origin (Cluster.store cluster q) ~key
             = Some File_store.Replicated
        then begin
          File_store.remove (Cluster.store cluster q) ~key;
          st.replicas_evicted <- st.replicas_evicted + 1;
          Model.emit st.m
            (Trace.Event.Evict { at = now st; node = Pid.to_int q; key });
          decr surplus
        end)
      (List.rev (Cluster.holders cluster ~key))
  end;
  let after = Cluster.total_copies cluster ~key in
  if after <> before then
    Timeseries.record st.replica_timeline ~time:(now st) (float_of_int after)

(* Carry out the tier decision {!Cold_ledger.step} takes at a policy
   tick. A demotion that finds too few distinct live nodes, or a
   promotion with fewer than k fragments alive, changes nothing. *)
let cold_policy_step st p c =
  let cluster = st.m.cluster and key = st.m.key in
  match Cold_ledger.step c (Rf_policy.classification p ~file:0) with
  | `Stay -> ()
  | `Demote -> (
      match
        Ops.demote_to_coded ~now:(now st) ?substrate:st.m.substrate cluster
          ~key ~k:c.tier.code_k ~r:c.tier.code_r
      with
      | None -> ()
      | Some holders ->
          Cold_ledger.demoted c ~fragments:(List.length holders);
          refresh_frags st c;
          record_copies st)
  | `Promote -> (
      match
        Ops.promote_from_coded ~now:(now st) ?substrate:st.m.substrate cluster
          ~key ~copies:(max 1 (Rf_policy.rf p ~file:0))
      with
      | None -> ()
      | Some placed ->
          Cold_ledger.promoted c;
          Cold_ledger.copies_moved c (List.length placed);
          refresh_frags st c;
          record_copies st)

(* The policy's analysis-interval tick: close the interval (PD,
   thresholds, RF updates), run tier transitions, then reconcile the
   copy count (only while the key has full copies — fragments are not
   the RF enforcer's to manage). *)
let start_policy st ~duration =
  match st.policy with
  | None -> ()
  | Some p ->
      let period = (Rf_policy.config p).Rf_policy.interval in
      Model.every st.m ~period ~until:duration (fun () ->
          ignore (Rf_policy.end_interval p);
          match st.cold with
          | None -> policy_enforce st p
          | Some c ->
              cold_policy_step st p c;
              if not c.coded then policy_enforce st p;
              sample_bytes st c)

(* Registry attribution, once per run: counters from the simulator's own
   tallies (so the hot path never touches them), timers backed by the
   result histograms the run filled anyway. [des/served] counts requests
   served at a server; spans close at the origin when the reply lands, so
   at engine stop the difference is the replies still in flight. *)
let finalize_obs st (obs : Obs.t) =
  let r = obs.Obs.registry in
  let count name v = Obs.Registry.add (Obs.Registry.counter r name) v in
  count "des/requests" st.next_req;
  count "des/served" st.served;
  count "des/faults" st.faults;
  count "des/replications" st.m.replicas_created;
  count "des/evictions" st.replicas_evicted;
  ignore (Obs.Registry.timer_backed r "des/latency_s" st.latencies);
  ignore (Obs.Registry.timer_backed r "des/hops" st.hops)

(* One membership event, applied when it changes something (a join of a
   dead node, a leave or failure of a live one): trace it, repair
   ({!Model.repair}, fragments included when the cold tier is armed),
   then account the control traffic — the status word is broadcast to
   every live node (Section 5) and each relocated file costs one
   transfer — and (de)attach the node's handler. *)
let apply_churn st events =
  let status = Cluster.status st.m.cluster in
  List.iter
    (fun { at; action } ->
      Engine.schedule_at st.m.engine ~time:at (fun () ->
          let change, p =
            match action with
            | Join p -> (`Join, p)
            | Leave p -> (`Leave, p)
            | Fail p -> (`Fail, p)
          in
          if Status_word.is_live status p = (change <> `Join) then begin
            Model.emit st.m
              (Trace.Event.Membership
                 { at = now st; node = Pid.to_int p; change });
            let relocated =
              Model.repair st.m
                ?on_coded_repair:
                  (Option.map
                     (fun c ~key:_ ~rebuilt ~lost ->
                       Cold_ledger.repaired c ~rebuilt ~lost)
                     st.cold)
                change p
            in
            Option.iter (refresh_frags st) st.cold;
            st.control_messages <-
              st.control_messages + Status_word.live_count status;
            st.file_transfers <- st.file_transfers + relocated;
            Option.iter (fun c -> Cold_ledger.relocated c relocated) st.cold;
            if change = `Join then Overlay.attach st.m.overlay p
            else Overlay.detach st.m.overlay p
          end))
    events

let run_internal ~config ~churn ~sink ~obs ~substrate ~policy ~cold_tier ~rng
    ~cluster ~key ~phases ~duration =
  let params = Cluster.params cluster in
  (match policy with
  | Some p when Rf_policy.nodes p <> Params.space params ->
      invalid_arg "Des_sim: policy accessor population <> cluster space"
  | _ -> ());
  let cold =
    Option.map
      (Cold_ledger.create ~who:"Des_sim" ~has_policy:(policy <> None))
      cold_tier
  in
  let nphases = List.length phases in
  let phase_demand = Array.make (max 1 nphases) (Demand.of_rates [||]) in
  let phase_until = Array.make (max 1 nphases) 0.0 in
  let offset = ref 0.0 in
  List.iteri
    (fun i (demand, phase_duration) ->
      phase_demand.(i) <- demand;
      offset := !offset +. phase_duration;
      phase_until.(i) <- !offset)
    phases;
  let st =
    {
      config;
      m =
        Model.create ~rng ~cluster ~key ~substrate ~latency:config.latency
          ~loss:config.loss ~capacity:config.capacity ~cooldown:config.cooldown
          ~detection_tau:config.detection_tau ~sink ~obs;
      phase_demand;
      phase_until;
      h_arrival = -1;
      served = 0;
      faults = 0;
      latencies = Histogram.create ();
      hops = Histogram.create ();
      replicas_evicted = 0;
      replica_timeline = Timeseries.create ~label:"copies" ();
      last_replication = None;
      control_messages = 0;
      file_transfers = 0;
      next_req = 0;
      policy;
      cold;
      frag_holders =
        Packed_bits.create (if cold = None then 1 else Params.space params);
    }
  in
  Option.iter (sample_bytes st) st.cold;
  st.h_arrival <- Engine.register_handler st.m.engine (on_arrival st);
  Model.listen st.m (fun ~src ~dst b x -> handle st ~me:dst ~src b x);
  record_copies st;
  apply_churn st churn;
  List.iteri
    (fun i (_, _) ->
      start_arrivals st ~phase:i
        ~from_time:(if i = 0 then 0.0 else st.phase_until.(i - 1)))
    phases;
  start_eviction st ~duration;
  start_policy st ~duration;
  Engine.run ~until:duration st.m.engine;
  (* Close the byte integral at the horizon. *)
  Option.iter (Cold_ledger.advance ~now:duration) st.cold;
  Option.iter (finalize_obs st) obs;
  let overloaded_at_end =
    Status_word.fold_live (Cluster.status cluster) ~init:0 ~f:(fun acc p ->
        let rate =
          Access_counter.rate st.m.estimators.(Pid.to_int p) ~now:duration
        in
        if rate > config.capacity then acc + 1 else acc)
  in
  {
    served = st.served;
    faults = st.faults;
    latencies = st.latencies;
    hops = st.hops;
    replicas_created = st.m.replicas_created;
    replicas_evicted = st.replicas_evicted;
    replica_timeline = st.replica_timeline;
    last_replication = st.last_replication;
    messages = Overlay.messages_sent st.m.overlay;
    control_messages = st.control_messages;
    file_transfers = st.file_transfers;
    overloaded_at_end;
    events = Engine.events_executed st.m.engine;
    cold = Option.map (Cold_ledger.stats ~duration) st.cold;
  }

let run ?(config = default_config) ?(churn = []) ?sink ?obs ?substrate
    ?policy ?cold_tier ~rng ~cluster ~key ~demand ~duration () =
  run_internal ~config ~churn ~sink ~obs ~substrate ~policy ~cold_tier ~rng
    ~cluster ~key
    ~phases:[ (demand, duration) ] ~duration

let run_scenario ?(config = default_config) ?(churn = []) ?sink ?obs
    ?substrate ?policy ?cold_tier ~rng ~cluster ~key ~scenario () =
  let phases =
    List.map
      (fun p ->
        (p.Lesslog_workload.Scenario.demand, p.Lesslog_workload.Scenario.duration))
      (Lesslog_workload.Scenario.phases scenario)
  in
  run_internal ~config ~churn ~sink ~obs ~substrate ~policy ~cold_tier ~rng
    ~cluster ~key ~phases
    ~duration:(Lesslog_workload.Scenario.total_duration scenario)
