open Lesslog_id
module Engine = Lesslog_sim.Engine
module Overlay = Lesslog_net.Overlay
module Latency = Lesslog_net.Latency
module Rpc = Lesslog_net.Rpc
module Heartbeat = Lesslog_net.Heartbeat
module Cluster = Lesslog.Cluster
module Status_word = Lesslog_membership.Status_word
module Demand = Lesslog_workload.Demand
module Faults = Lesslog_workload.Faults
module Histogram = Lesslog_metrics.Histogram
module Timeseries = Lesslog_metrics.Timeseries
module Rng = Lesslog_prng.Rng
module Trace = Lesslog_trace.Trace
module Obs = Lesslog_obs.Obs

type config = {
  capacity : float;
  detection_tau : float;
  cooldown : float;
  latency : Latency.t;
  loss : float;
  rpc : Rpc.config;
  heartbeat : Heartbeat.config;
  deadline : float;
  arrival_stop : float;
  agreement_target : float;
  sample_period : float;
}

let default_config =
  {
    capacity = 100.0;
    detection_tau = 2.0;
    cooldown = 0.5;
    latency = Latency.default;
    loss = 0.0;
    rpc = Rpc.default_config;
    heartbeat = Heartbeat.default_config;
    deadline = 2.0;
    arrival_stop = 0.65;
    agreement_target = 0.95;
    sample_period = 0.25;
  }

type result = {
  issued : int;
  served : int;
  faulted : int;
  pending_at_end : int;
  within_deadline : int;
  duplicate_serves : int;
  retransmissions : int;
  timeouts : int;
  latencies : Histogram.t;
  hops : Histogram.t;
  replicas_created : int;
  suspicions : int;
  recoveries : int;
  spurious_suspicions : int;
  migrations : int;
  spurious_migrations : int;
  crashes : int;
  restarts : int;
  lost_keys : int;
  detector_agreement : float;
  convergence : float option;
  agreement_timeline : Timeseries.t;
  messages : int;
}

(* Per-request metadata threaded through the rpc tracker. *)
type request = { origin : Pid.t; issued_at : float }

type state = {
  config : config;
  m : Model.t;
  (* Injected ground truth: which processes are actually up. It runs the
     physical world — handlers, who can act — and scores the detector; it
     is never consulted for routing or placement. *)
  truth : bool array;
  monitored : Pid.t array;
  mutable rpc : request Rpc.t option;
      (* built after the state: transmit closes over it *)
  mutable detector : Heartbeat.t option;
  dedup : Rpc.Dedup.t;
  mutable served : int;
  mutable within_deadline : int;
  latencies : Histogram.t;
  hops : Histogram.t;
  mutable spurious_suspicions : int;
  mutable migrations : int;
  mutable spurious_migrations : int;
  mutable crashes : int;
  mutable restarts : int;
  mutable convergence : float option;
  agreement_timeline : Timeseries.t;
  ob_served : Obs.Registry.counter option;
      (* Observability: the [rpc/]* counters live in the tracker itself
         (it is created with the registry); spans live in the model — one
         ["lookup"] span per request id, instant marks for
         timeouts/retries — and this is the serve-side attribution. *)
}

let now st = Model.now st.m
let emit st event = Model.emit st.m event
let truth_live st p = st.truth.(Pid.to_int p)
let rpc st = Option.get st.rpc
let detector st = Option.get st.detector

(* A request served at its origin: count it and close its span. Faults
   are closed from the Exhausted rpc event; latency and hops flow into
   the registry through the backing histograms. Completion is
   idempotent: only the first reply of a retransmitted request counts. *)
let complete st ~id ~server ~hops ~issued_at =
  match Rpc.complete (rpc st) ~id with
  | None -> ()
  | Some _ -> (
      st.served <- st.served + 1;
      let latency = now st -. issued_at in
      Histogram.add st.latencies latency;
      Histogram.add_int st.hops hops;
      if latency <= st.config.deadline then
        st.within_deadline <- st.within_deadline + 1;
      (match st.m.spans with
      | None -> ()
      | Some spans ->
          Obs.Span.end_span_int spans ~id ~at:(now st) ~server ~hops);
      Option.iter Obs.Registry.incr st.ob_served)

(* --- Serving: no oracle faults, the rpc layer reports them -------------- *)

(* First delivery of a request ID does the work; duplicates only re-send
   the reply, so retransmission is idempotent at the server. *)
let serve st ~server ~id ~origin ~issued_at ~hops =
  if Rpc.Dedup.first st.dedup ~id then begin
    Model.note_serve st.m ~server ~origin ~hops;
    Model.maybe_replicate st.m ~overloaded:server
  end;
  if Pid.equal server origin then
    complete st ~id ~server:(Pid.to_int server) ~hops ~issued_at
  else
    Overlay.send_packed st.m.overlay ~src:server ~dst:origin
      ~b:(Wire.reply_b ~id ~server:(Pid.to_int server) ~hops)
      ~x:issued_at

(* A GET word [b] standing at [me]: serve, or forward one hop. A dead end
   sends nothing — the rpc layer, not the router, reports the fault once
   the attempt times out, and the retry may find a route after the
   detector has migrated the subtree. *)
let get_step st ~me b issued_at =
  if Model.holds st.m me then
    serve st ~server:me ~id:(Wire.id b)
      ~origin:(Pid.unsafe_of_int (Wire.get_origin b))
      ~issued_at ~hops:(Wire.get_hops b)
  else ignore (Model.forward st.m ~me b issued_at)

(* One transmission attempt: the GET step at the origin, hop 0. *)
let transmit st ~id ~attempt:_ { origin; issued_at } =
  if truth_live st origin then
    get_step st ~me:origin
      (Wire.get_b ~id ~origin:(Pid.to_int origin) ~hops:0)
      issued_at

let handle st ~me ~src b x =
  match Wire.tag b with
  | 0 (* GET *) -> get_step st ~me b x
  | 1 (* REPLY *) ->
      complete st ~id:(Wire.id b) ~server:(Wire.reply_server b)
        ~hops:(Wire.reply_hops b) ~issued_at:x
  | 2 (* PUSH *) -> ignore (Model.accept_push st.m ~src ~me b)
  | 3 (* PING *) ->
      Overlay.send_packed st.m.overlay ~src:me ~dst:src
        ~b:(Wire.pong_b ~seq:(Wire.payload b)) ~x:0.0
  | 4 (* PONG *) -> Heartbeat.pong (detector st) ~peer:src ~seq:(Wire.payload b)
  | _ -> ()

(* --- The detector drives membership -------------------------------------- *)

(* Pings originate from some node that is actually up (only live
   processes act); picking it needs no oracle because a process trivially
   knows whether it itself is running. *)
let pick_truth_live st =
  let space = Array.length st.truth in
  let rec try_random k =
    if k = 0 then
      (* Dense failure: scan from a random offset. *)
      let off = Rng.int st.m.rng space in
      let rec scan i =
        if i = space then None
        else
          let j = (off + i) mod space in
          if st.truth.(j) then Some (Pid.unsafe_of_int j) else scan (i + 1)
      in
      scan 0
    else
      let i = Rng.int st.m.rng space in
      if st.truth.(i) then Some (Pid.unsafe_of_int i) else try_random (k - 1)
  in
  try_random 16

let send_ping st ~seq peer =
  match pick_truth_live st with
  | None -> ()
  | Some monitor ->
      Overlay.send_packed st.m.overlay ~src:monitor ~dst:peer
        ~b:(Wire.ping_b ~seq) ~x:0.0

(* A verdict change is what a real deployment would act on: mark the
   status word and run the Section 5 self-organized migration. This is
   the only writer of the status word after t = 0. The repair itself is
   {!Model.repair}'s, substrate-aware like the rest of the model. *)
let on_verdict st p verdict =
  let status = Cluster.status st.m.cluster in
  match verdict with
  | `Suspect ->
      emit st (Trace.Event.Suspect { at = now st; node = Pid.to_int p });
      if Status_word.is_live status p then begin
        st.migrations <- st.migrations + 1;
        if truth_live st p then begin
          (* False suspicion: the node is up, but the system routes and
             re-homes as if it departed. *)
          st.spurious_suspicions <- st.spurious_suspicions + 1;
          st.spurious_migrations <- st.spurious_migrations + 1;
          ignore (Model.repair st.m `Leave p)
        end
        else ignore (Model.repair st.m `Fail p)
      end
  | `Trust ->
      emit st (Trace.Event.Trust { at = now st; node = Pid.to_int p });
      if Status_word.is_dead status p then ignore (Model.repair st.m `Join p)

(* --- Fault injection ------------------------------------------------------ *)

(* A process crashes ([up = false]: its handler disappears) or restarts
   with its PID ([up = true]). Only ground truth changes; the status word
   waits for the detector. *)
let set_up st p ~up =
  if truth_live st p <> up then begin
    st.truth.(Pid.to_int p) <- up;
    if up then begin
      Overlay.attach st.m.overlay p;
      st.restarts <- st.restarts + 1
    end
    else begin
      Overlay.detach st.m.overlay p;
      st.crashes <- st.crashes + 1
    end;
    emit st
      (Trace.Event.Membership
         {
           at = now st;
           node = Pid.to_int p;
           change = (if up then `Join else `Fail);
         })
  end

let schedule_plan st (plan : Faults.plan) =
  let at time f = Engine.schedule_at st.m.engine ~time f in
  List.iter
    (fun (c : Faults.crash) ->
      at c.at (fun () -> set_up st c.node ~up:false);
      Option.iter
        (fun r -> at r (fun () -> set_up st c.node ~up:true))
        c.restart_at)
    plan.crashes;
  (* Loss bursts stack: the effective loss is the max of the baseline and
     every active burst. *)
  let active_losses = ref [] in
  let apply_loss () =
    let eff = List.fold_left Float.max st.config.loss !active_losses in
    Overlay.set_loss st.m.overlay eff
  in
  List.iter
    (fun (b : Faults.burst) ->
      at b.from_ (fun () ->
          active_losses := b.loss :: !active_losses;
          apply_loss ());
      at b.until (fun () ->
          (* Remove one occurrence. *)
          let rec drop = function
            | [] -> []
            | x :: rest -> if x = b.loss then rest else x :: drop rest
          in
          active_losses := drop !active_losses;
          apply_loss ()))
    plan.bursts;
  (* Partitions: a send is dropped when any active cut blocks the link. *)
  let space = Array.length st.truth in
  let active_cuts : (bool array * Faults.direction) list ref = ref [] in
  Overlay.set_filter st.m.overlay
    (Some
       (fun ~src ~dst ->
         List.for_all
           (fun (in_group, direction) ->
             let s = in_group.(Pid.to_int src)
             and d = in_group.(Pid.to_int dst) in
             match direction with
             | Faults.Both -> s = d
             | Faults.Inbound -> not (d && not s)
             | Faults.Outbound -> not (s && not d))
           !active_cuts));
  List.iter
    (fun (p : Faults.partition) ->
      let in_group = Array.make space false in
      List.iter (fun q -> in_group.(Pid.to_int q) <- true) p.group;
      let cut = (in_group, p.direction) in
      at p.from_ (fun () -> active_cuts := cut :: !active_cuts);
      at p.until (fun () ->
          active_cuts := List.filter (fun c -> c != cut) !active_cuts))
    plan.partitions

(* --- Detector accuracy ---------------------------------------------------- *)

let agreement st =
  let status = Cluster.status st.m.cluster in
  let agree =
    Array.fold_left
      (fun acc p ->
        if Status_word.is_live status p = truth_live st p then acc + 1
        else acc)
      0 st.monitored
  in
  float_of_int agree /. float_of_int (Array.length st.monitored)

let start_sampling st ~quiet_from ~duration =
  Model.every st.m ~period:st.config.sample_period ~until:duration (fun () ->
      let time = now st and a = agreement st in
      Timeseries.record st.agreement_timeline ~time a;
      if
        st.convergence = None && time >= quiet_from
        && a >= st.config.agreement_target
      then st.convergence <- Some (time -. quiet_from))

(* --- Arrivals ------------------------------------------------------------- *)

let start_arrivals st ~demand ~until =
  Status_word.iter_live (Cluster.status st.m.cluster) (fun origin ->
      let rate = Demand.rate demand origin in
      if rate > 0.0 then begin
        let rec schedule_from t0 =
          let t = t0 +. Rng.exponential st.m.rng ~rate in
          if t < until then
            Engine.schedule_at st.m.engine ~time:t (fun () ->
                if truth_live st origin then begin
                  let id = Rpc.issue (rpc st) { origin; issued_at = now st } in
                  match st.m.spans with
                  | None -> ()
                  | Some spans ->
                      Obs.Span.begin_span spans ~name:st.m.sp_lookup ~id
                        ~origin:(Pid.to_int origin) ~at:(now st)
                end;
                schedule_from (now st))
        in
        schedule_from 0.0
      end)

(* --- Entry point ----------------------------------------------------------- *)

let run ?(config = default_config) ?(plan = Faults.empty) ?sink ?obs
    ?substrate ~rng ~cluster ~key ~demand ~duration () =
  let params = Cluster.params cluster in
  let space = Params.space params in
  let truth = Array.make space false in
  Status_word.iter_live (Cluster.status cluster) (fun p ->
      truth.(Pid.to_int p) <- true);
  let monitored = Status_word.live_array (Cluster.status cluster) in
  let latencies = Histogram.create () and hops = Histogram.create () in
  let ob_served =
    Option.map
      (fun (o : Obs.t) ->
        let r = o.Obs.registry in
        ignore (Obs.Registry.timer_backed r "fsim/latency_s" latencies);
        ignore (Obs.Registry.timer_backed r "fsim/hops" hops);
        Obs.Registry.counter r "fsim/served")
      obs
  in
  let st =
    {
      config;
      m =
        Model.create ~rng ~cluster ~key ~substrate ~latency:config.latency
          ~loss:config.loss ~capacity:config.capacity ~cooldown:config.cooldown
          ~detection_tau:config.detection_tau ~sink ~obs;
      truth;
      monitored;
      rpc = None;
      detector = None;
      dedup = Rpc.Dedup.create ();
      served = 0;
      within_deadline = 0;
      latencies;
      hops;
      spurious_suspicions = 0;
      migrations = 0;
      spurious_migrations = 0;
      crashes = 0;
      restarts = 0;
      convergence = None;
      agreement_timeline = Timeseries.create ~label:"agreement" ();
      ob_served;
    }
  in
  let spans = st.m.spans in
  let sp_timeout = Model.intern spans "rpc/timeout"
  and sp_retry = Model.intern spans "rpc/retry" in
  let mark name ~id ~origin ~attempt =
    match spans with
    | None -> ()
    | Some s ->
        Obs.Span.emit s ~name ~id ~origin ~at:(now st) ~dur:0.0 ~server:None
          ~hops:0 ~attempt
  in
  let rpc_events = function
    | Rpc.Timeout { id; attempt; meta } ->
        emit st
          (Trace.Event.Timeout
             { at = now st; id; origin = Pid.to_int meta.origin; attempt });
        mark sp_timeout ~id ~origin:(Pid.to_int meta.origin)
          ~attempt
    | Rpc.Retransmit { id; attempt; meta } ->
        emit st
          (Trace.Event.Retry
             { at = now st; id; origin = Pid.to_int meta.origin; attempt });
        (match spans with
        | None -> ()
        | Some s -> Obs.Span.set_attempt s ~id ~attempt);
        mark sp_retry ~id ~origin:(Pid.to_int meta.origin)
          ~attempt
    | Rpc.Exhausted { id; attempts = _; meta } ->
        emit st
          (Trace.Event.Request
             { at = now st; origin = Pid.to_int meta.origin; server = None;
               hops = 0 });
        match spans with
        | None -> ()
        | Some s -> Obs.Span.end_span s ~id ~at:(now st) ~server:None ~hops:0
  in
  st.rpc <-
    Some
      (Rpc.create ~engine:st.m.engine ~rng ~config:config.rpc
         ~on_event:rpc_events
         ?registry:(Option.map (fun (o : Obs.t) -> o.Obs.registry) obs)
         ~transmit:(fun ~id ~attempt meta -> transmit st ~id ~attempt meta)
         ());
  st.detector <-
    Some
      (Heartbeat.create ~engine:st.m.engine ~config:config.heartbeat
         ~peers:monitored
         ~ping:(fun ~seq peer -> send_ping st ~seq peer)
         ~on_change:(fun p verdict -> on_verdict st p verdict)
         ());
  Model.listen st.m (fun ~src ~dst b x -> handle st ~me:dst ~src b x);
  schedule_plan st plan;
  Heartbeat.start (detector st) ~until:duration;
  let quiet_from = Faults.last_disturbance plan in
  start_sampling st ~quiet_from ~duration;
  start_arrivals st ~demand ~until:(config.arrival_stop *. duration);
  Engine.run ~until:duration st.m.engine;
  let r = rpc st in
  let d = detector st in
  {
    issued = Rpc.issued r;
    served = st.served;
    faulted = Rpc.exhausted r;
    pending_at_end = Rpc.in_flight r;
    within_deadline = st.within_deadline;
    duplicate_serves = Rpc.Dedup.duplicates st.dedup;
    retransmissions = Rpc.retransmissions r;
    timeouts = Rpc.timeouts r;
    latencies = st.latencies;
    hops = st.hops;
    replicas_created = st.m.replicas_created;
    suspicions = Heartbeat.suspicions d;
    recoveries = Heartbeat.recoveries d;
    spurious_suspicions = st.spurious_suspicions;
    migrations = st.migrations;
    spurious_migrations = st.spurious_migrations;
    crashes = st.crashes;
    restarts = st.restarts;
    lost_keys = st.m.lost_keys;
    detector_agreement = agreement st;
    convergence = st.convergence;
    agreement_timeline = st.agreement_timeline;
    messages = Overlay.messages_sent st.m.overlay;
  }
