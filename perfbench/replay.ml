(* Layer replay: the inputs a traced run recorded (its sink stream) are
   fed back into each layer's public functions, timed from outside, so
   every layer is measured without touching a library file. Replays run
   in isolation with warm caches, so the times they give are lower
   bounds on the layer's share of the real run. *)

open Lesslog_id
module Engine = Lesslog_sim.Engine
module Topology = Lesslog_topology.Topology
module Topology_cache = Lesslog_topology.Topology_cache
module Status_word = Lesslog_membership.Status_word
module Ptree = Lesslog_ptree.Ptree
module File_store = Lesslog_storage.File_store
module Histogram = Lesslog_metrics.Histogram
module Latency = Lesslog_net.Latency
module Rng = Lesslog_prng.Rng
module Rf_policy = Lesslog_policy.Rf_policy
module Event = Lesslog_trace.Trace.Event
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Self_org = Lesslog.Self_org

let span = Probe.Spans.span

let timed f =
  let t0 = Probe.now_ns () in
  let v = f () in
  (Probe.secs_between t0 (Probe.now_ns ()), v)

(* A recorded request: where it started, how far its GET travelled, and
   who served it (-1 = fault). *)
type request = { at : float; origin : int; hops : int; server : int }

let requests events =
  let out = ref [] in
  List.iter
    (function
      | Event.Request { at; origin; server; hops } ->
          out := { at; origin; hops; server = Option.value server ~default:(-1) } :: !out
      | _ -> ())
    events;
  Array.of_list (List.rev !out)

(* sim: [n] events through Engine with a no-op handler that reposts
   itself with the workload's latency draw, [depth] chains in flight (one
   per live node, as the arrival chains are). Seconds per event. *)
let sim ~n ~depth ~latency ~seed =
  span "replay.sim" @@ fun () ->
  let e = Engine.create () in
  let rng = Rng.create ~seed in
  let remaining = ref (n - depth) in
  let h = ref (-1) in
  h :=
    Engine.register_handler e (fun _ _ _ ->
        if !remaining > 0 then begin
          decr remaining;
          Engine.post e ~delay:(Latency.sample latency rng) ~h:!h ~a:0 ~b:0 ~x:0.0
        end);
  for _ = 1 to depth do
    Engine.post e ~delay:(Latency.sample latency rng) ~h:!h ~a:0 ~b:0 ~x:0.0
  done;
  let secs, () = timed (fun () -> Engine.run e) in
  secs /. float_of_int (max 1 (Engine.events_executed e))

(* topology: every recorded request's GET walk replayed through
   [Topology.route_next] against the cluster's status word. Returns
   seconds per hop and the visited nodes (origin first) for the holds
   replay. *)
let route cluster ~key reqs =
  span "replay.topology" @@ fun () ->
  let tree = Cluster.tree_of_key cluster key and status = Cluster.status cluster in
  let total = Array.fold_left (fun a r -> a + r.hops + 1) 0 reqs in
  let visited = Array.make total 0 in
  let k = ref 0 and walked = ref 0 in
  let secs, () =
    timed (fun () ->
        Array.iter
          (fun r ->
            let p = ref (Pid.unsafe_of_int r.origin) in
            visited.(!k) <- r.origin;
            incr k;
            let rec go i =
              if i < r.hops then
                match Topology.route_next tree status !p with
                | Some q ->
                    p := q;
                    visited.(!k) <- Pid.to_int q;
                    incr k;
                    incr walked;
                    go (i + 1)
                | None -> ()
            in
            go 0)
          reqs)
  in
  (secs /. float_of_int (max 1 !walked), Array.sub visited 0 !k)

(* topology rebuild: [Topology_cache.get] right after a status-word
   mutation, on a throwaway cluster. Seconds per rebuild. *)
let rebuild cluster ~key ~rounds =
  span "replay.topology_rebuild" @@ fun () ->
  let status = Cluster.status cluster in
  let comp = Ptree.comp (Cluster.tree_of_key cluster key) in
  let live = Status_word.live_array status in
  ignore (Topology_cache.get status ~comp);
  let total = ref 0.0 in
  for i = 1 to rounds do
    let p = live.((i * 7919) mod Array.length live) in
    Status_word.set_dead status p;
    let s, _ = timed (fun () -> Topology_cache.get status ~comp) in
    Status_word.set_live status p;
    let s', _ = timed (fun () -> Topology_cache.get status ~comp) in
    total := !total +. s +. s'
  done;
  !total /. float_of_int (2 * rounds)

(* core: [Cluster.holds] at every visited node. Seconds per call. *)
let holds cluster ~key visited =
  span "replay.core_holds" @@ fun () ->
  let hits = ref 0 in
  let secs, () =
    timed (fun () ->
        Array.iter
          (fun p -> if Cluster.holds cluster (Pid.unsafe_of_int p) ~key then incr hits)
          visited)
  in
  secs /. float_of_int (max 1 (Array.length visited))

(* storage: [File_store.record_access] at every serving node. *)
let record_access cluster ~key reqs =
  span "replay.storage_record_access" @@ fun () ->
  let n = ref 0 in
  let secs, () =
    timed (fun () ->
        Array.iter
          (fun r ->
            if r.server >= 0 then begin
              incr n;
              File_store.record_access
                (Cluster.store cluster (Pid.unsafe_of_int r.server))
                ~key ~now:r.at
            end)
          reqs)
  in
  secs /. float_of_int (max 1 !n)

(* core placement and churn, on a fresh cluster driven through the
   recorded history: [Ops.choose_replica_target] per recorded replica
   (then the recorded copy is placed, so later choices see it), and
   [Self_org.fail]/[join]/[leave] per recorded membership change.
   Returns (seconds per choice, choices, seconds per membership event,
   membership events). *)
let placement_and_churn fresh ~key ~seed events =
  span "replay.core_placement" @@ fun () ->
  let rng = Rng.create ~seed in
  let choose_s = ref 0.0 and choices = ref 0 in
  let org_s = ref 0.0 and orgs = ref 0 in
  let status = Cluster.status fresh in
  List.iter
    (function
      | Event.Replicate { at; src; dst; _ } ->
          let s, _ =
            timed (fun () ->
                Ops.choose_replica_target ~rng fresh
                  ~overloaded:(Pid.unsafe_of_int src) ~key)
          in
          choose_s := !choose_s +. s;
          incr choices;
          let d = Pid.unsafe_of_int dst in
          if Status_word.is_live status d && not (Cluster.holds fresh d ~key) then
            File_store.add (Cluster.store fresh d) ~key
              ~origin:File_store.Replicated ~version:0 ~now:at
      | Event.Membership { at; node; change } ->
          let p = Pid.unsafe_of_int node in
          let live = Status_word.is_live status p in
          let act =
            match change with
            | `Fail when live -> Some (fun () -> ignore (Self_org.fail ~now:at fresh p))
            | `Leave when live -> Some (fun () -> ignore (Self_org.leave ~now:at fresh p))
            | `Join when not live -> Some (fun () -> ignore (Self_org.join ~now:at fresh p))
            | _ -> None
          in
          Option.iter
            (fun f ->
              let s, () = timed f in
              org_s := !org_s +. s;
              incr orgs)
            act
      | _ -> ())
    events;
  let per s n = if n = 0 then 0.0 else s /. float_of_int n in
  (per !choose_s !choices, !choices, per !org_s !orgs, !orgs)

(* metrics: two [Histogram.add] per served request (latency and hops, as
   the simulators do). Seconds per add. *)
let histogram reqs =
  span "replay.metrics" @@ fun () ->
  let lat = Histogram.create () and hops = Histogram.create () in
  let n = ref 0 in
  let secs, () =
    timed (fun () ->
        Array.iter
          (fun r ->
            if r.server >= 0 then begin
              incr n;
              Histogram.add lat (0.01 +. (0.045 *. float_of_int r.hops));
              Histogram.add_int hops r.hops
            end)
          reqs)
  in
  secs /. float_of_int (max 1 (2 * !n))

(* policy: the recorded origins, interval by interval, into a fresh
   [Rf_policy]. Returns (seconds per record, seconds per end_interval,
   intervals). *)
let policy config ~nodes ~rf0 ~horizon reqs =
  span "replay.policy" @@ fun () ->
  let p = Rf_policy.create ~config ~rf0 ~nodes ~files:1 () in
  let interval = config.Rf_policy.interval in
  let intervals = max 1 (int_of_float (Float.ceil (horizon /. interval))) in
  let buckets = Array.make intervals [] in
  Array.iter
    (fun r ->
      let i = min (intervals - 1) (int_of_float (r.at /. interval)) in
      buckets.(i) <- r.origin :: buckets.(i))
    reqs;
  let rec_s = ref 0.0 and end_s = ref 0.0 in
  Array.iter
    (fun origins ->
      let origins = Array.of_list origins in
      let s, () =
        timed (fun () -> Array.iter (fun node -> Rf_policy.record p ~file:0 ~node) origins)
      in
      rec_s := !rec_s +. s;
      let s, _ = timed (fun () -> Rf_policy.end_interval p) in
      end_s := !end_s +. s)
    buckets;
  ( !rec_s /. float_of_int (max 1 (Array.length reqs)),
    !end_s /. float_of_int intervals,
    intervals )
