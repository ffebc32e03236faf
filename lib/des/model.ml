open Lesslog_id
module Engine = Lesslog_sim.Engine
module Overlay = Lesslog_net.Overlay
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Self_org = Lesslog.Self_org
module Topology = Lesslog_topology.Topology
module File_store = Lesslog_storage.File_store
module Access_counter = Lesslog_storage.Access_counter
module Rng = Lesslog_prng.Rng
module Trace = Lesslog_trace.Trace
module Obs = Lesslog_obs.Obs
module Status_word = Lesslog_membership.Status_word
module Substrate = Lesslog_substrate.Substrate

type t = {
  rng : Rng.t;
  cluster : Cluster.t;
  key : string;
  tree : Lesslog_ptree.Ptree.t;
  engine : Engine.t;
  overlay : unit Overlay.t;
  substrate : Substrate.t option;
  capacity : float;
  cooldown : float;
  estimators : Access_counter.t array;
  cooldown_until : float array;
  sink : (Trace.Event.t -> unit) option;
  spans : Obs.Span.sink option;
  sp_lookup : int;
  sp_replicate : int;
  mutable replicas_created : int;
  mutable lost_keys : int;
}

let intern spans name =
  match spans with None -> 0 | Some s -> Obs.Span.intern s name

let create ~rng ~cluster ~key ~substrate ~latency ~loss ~capacity ~cooldown
    ~detection_tau ~sink ~obs =
  let params = Cluster.params cluster in
  let space = Params.space params in
  let engine = Engine.create () in
  let spans = Option.map (fun (o : Obs.t) -> o.Obs.spans) obs in
  {
    rng;
    cluster;
    key;
    tree = Cluster.tree_of_key cluster key;
    engine;
    overlay = Overlay.create ~engine ~rng ~latency ~loss params;
    substrate;
    capacity;
    cooldown;
    estimators =
      Array.init space (fun _ ->
          Access_counter.create ~tau:detection_tau ~now:0.0 ());
    cooldown_until = Array.make space 0.0;
    sink;
    spans;
    sp_lookup = intern spans "lookup";
    sp_replicate = intern spans "replicate";
    replicas_created = 0;
    lost_keys = 0;
  }

let listen m recv =
  Overlay.set_packed_recv m.overlay (Some recv);
  Status_word.iter_live (Cluster.status m.cluster) (Overlay.attach m.overlay)

let every m ~period ~until f =
  let rec tick () =
    let t = Engine.now m.engine +. period in
    if t <= until then
      Engine.schedule_at m.engine ~time:t (fun () ->
          f ();
          tick ())
  in
  tick ()

let now m = Engine.now m.engine
let emit m event = match m.sink with None -> () | Some f -> f event
let holds m p = Cluster.holds m.cluster p ~key:m.key

(* The next hop as an int, [-1] at a dead end: the direct path reads
   the router's table, so a hop allocates no [Some]. *)
let next_hop m me =
  match m.substrate with
  | None ->
      Topology.next_hop_int
        (Topology.router m.tree (Cluster.status m.cluster))
        (Pid.to_int me)
  | Some sub -> (
      match sub.Substrate.next_hop ~key:m.key me with
      | Some p -> Pid.to_int p
      | None -> -1)

let forward m ~me b x =
  let next = next_hop m me in
  if next >= 0 && Wire.forwardable b then begin
    Overlay.send_packed m.overlay ~src:me ~dst:(Pid.unsafe_of_int next)
      ~b:(Wire.forward b) ~x;
    true
  end
  else false

(* Trace events are built inside the [Some sink] branch, here and in
   [accept_push]: an untraced run allocates none. *)
let note_serve m ~server ~origin ~hops =
  let i = Pid.to_int server and now = now m in
  File_store.record_access (Cluster.store m.cluster server) ~key:m.key ~now;
  Access_counter.record m.estimators.(i) ~now;
  match m.sink with
  | None -> ()
  | Some f ->
      f
        (Trace.Event.Request
           { at = now; origin = Pid.to_int origin; server = Some i; hops })

let maybe_replicate m ~overloaded =
  let i = Pid.to_int overloaded in
  let rate = Access_counter.rate m.estimators.(i) ~now:(now m) in
  if rate > m.capacity && now m >= m.cooldown_until.(i) then begin
    let target =
      match m.substrate with
      | None ->
          Ops.choose_replica_target ~rng:m.rng m.cluster ~overloaded ~key:m.key
      | Some sub ->
          Ops.choose_replica_target_via ~rng:m.rng sub m.cluster ~overloaded
            ~key:m.key
    in
    match target with
    | None -> ()
    | Some dest ->
        m.cooldown_until.(i) <- now m +. m.cooldown;
        let version =
          Option.value ~default:0
            (File_store.version (Cluster.store m.cluster overloaded) ~key:m.key)
        in
        Overlay.send_packed m.overlay ~src:overloaded ~dst:dest
          ~b:(Wire.push_b ~version) ~x:0.0
  end

let accept_push m ~src ~me b =
  if holds m me then false
  else begin
    File_store.add (Cluster.store m.cluster me) ~key:m.key
      ~origin:File_store.Replicated ~version:(Wire.payload b) ~now:(now m);
    m.replicas_created <- m.replicas_created + 1;
    (match m.sink with
    | None -> ()
    | Some f ->
        f
          (Trace.Event.Replicate
             { at = now m; src = Pid.to_int src; dst = Pid.to_int me;
               key = m.key }));
    (match m.spans with
    | None -> ()
    | Some spans ->
        Obs.Span.emit spans ~name:m.sp_replicate ~id:(Pid.to_int src)
          ~origin:(Pid.to_int src) ~at:(now m) ~dur:0.0
          ~server:(Some (Pid.to_int me)) ~hops:0 ~attempt:0);
    true
  end

(* Keys whose data dies with [p]: no other live holder. Computed before
   the generic repair re-creates them from the registry, matching the
   native [fail_stats.lost] accounting. *)
let sole_holder_keys m p =
  List.fold_left
    (fun n key ->
      match Cluster.holders m.cluster ~key with
      | [ q ] when Pid.equal q p -> n + 1
      | _ -> n)
    0 (Cluster.registered_keys m.cluster)

let repair m ?on_coded_repair change p =
  let now = now m in
  match m.substrate with
  | Some sub when sub.Substrate.membership = Substrate.Generic ->
      let event =
        match change with
        | `Join -> `Join p
        | `Leave -> `Leave p
        | `Fail -> `Fail p
      in
      if change = `Fail then m.lost_keys <- m.lost_keys + sole_holder_keys m p;
      Ops.on_membership_via ~now ?on_coded_repair sub m.cluster ~event
  | _ ->
      let relocated =
        match change with
        | `Join ->
            List.length (Self_org.join ~now m.cluster p).Self_org.took_over
        | `Leave ->
            List.length (Self_org.leave ~now m.cluster p).Self_org.reinserted
        | `Fail ->
            let stats = Self_org.fail ~now m.cluster p in
            m.lost_keys <- m.lost_keys + List.length stats.Self_org.lost;
            List.length stats.Self_org.recovered
      in
      (match on_coded_repair with
      | None -> ()
      | Some note -> (
          match
            Ops.repair_coded ~now ?substrate:m.substrate m.cluster ~key:m.key
          with
          | `Intact -> ()
          | `Repaired n -> note ~key:m.key ~rebuilt:n ~lost:false
          | `Lost -> note ~key:m.key ~rebuilt:0 ~lost:true));
      relocated
