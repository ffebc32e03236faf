(* The repository benchmark. One workload per process:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it repeats set-up + simulator call for S seconds and
   prints the end-to-end metrics; with --trace 1 it makes one traced run
   and prints the per-layer metrics. The last line of standard output is
   one JSON object: correct, attempted, failed, metrics. *)

module W = Workloads
module Histogram = Lesslog_metrics.Histogram

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";
  exit 2

type args = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false and out = ref "perfbench/out" in
  let rec go = function
    | "--workload" :: v :: rest ->
        (match List.find_opt (fun w -> w.W.name = v) W.all with
        | Some w -> workload := Some w
        | None ->
            Printf.eprintf "unknown workload %S (known: %s)\n" v
              (String.concat ", " (List.map (fun w -> w.W.name) W.all));
            exit 2);
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        go rest
    | "--out" :: v :: rest ->
        out := v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds) with
  | Some workload, Some seed, Some seconds when seconds > 0.0 ->
      { workload; seed; seconds; trace = !trace; out = !out }
  | _ -> usage ()

(* ---- output checks ---------------------------------------------------- *)

let failures : string list ref = ref []
let check ok fmt = Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) fmt

(* Every simulated statistic the plain call can see, as one comparable
   string: equal strings mean identical model behaviour. *)
let fingerprint (s : W.stats) =
  let h x = Printf.sprintf "%d/%h/%h/%h" (Histogram.count x) (Histogram.mean x)
      (Histogram.min_value x) (Histogram.max_value x) in
  Printf.sprintf "served=%d faults=%d pending=%d events=%d messages=%d lat=%s hops=%s copies=%d created=%d digest=%s counts=%s"
    s.served s.faults s.pending s.events s.messages (h s.latencies) (h s.hops)
    s.copies_end s.replicas_created
    (match s.digest with None -> "-" | Some d -> string_of_int d)
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s:%h" k v) s.counts))

(* Issued = served + unserved on every simulator, with the unserved split
   into what the simulator reports. *)
let check_accounting name (s : W.stats) =
  match s.issued with
  | None -> check false "%s: issued count unavailable" name
  | Some issued ->
      if s.pending > 0 || s.drained then begin
        check (issued = s.served + s.faults + s.pending)
          "%s: issued %d <> served %d + faulted %d + pending %d" name issued
          s.served s.faults s.pending;
        check (s.pending = 0) "%s: %d requests pending at the end" name s.pending
      end
      else
        check (issued >= s.served + s.faults)
          "%s: issued %d < served %d + faults %d" name issued s.served s.faults;
      check (s.served >= 70_000) "%s: only %d requests served (< 70000)" name
        s.served

(* ---- one run of set-up + call ---------------------------------------- *)

type rep = {
  setup : Probe.measure;
  call : Probe.measure;
  pause_s : float;
  host : Probe.Host_speed.t option;  (** Host-speed samples taken during the call. *)
  stats : W.stats;
  after : W.after;
}

let run_once ?(sample_host = false) (w : W.t) ~seed instr =
  Gc.compact ();
  let setup, call = Probe.measured (fun () -> Probe.Spans.span "setup" (fun () -> w.W.prepare ~seed instr)) in
  let timed () = Probe.Spans.span ("call." ^ w.W.entry) call in
  let pause_s, (measure, (host, read)) =
    Probe.Pauses.during (fun () ->
        Probe.measured (fun () ->
            if sample_host then
              let h, read = Probe.Host_speed.during timed in
              (Some h, read)
            else (None, timed ())))
  in
  let stats, after = read () in
  { setup; call = measure; pause_s; host; stats; after }

(* Interpolated quantile of a log-bucketed histogram: find the run of
   probabilities [quantile] maps to the same bucket and place [p]
   geometrically inside that bucket's value range. Exact to the bucket
   width (0.5%), and continuous in the bucket counts. *)
let quantile h p =
  let v = Histogram.quantile h p in
  let same q = Histogram.quantile h q = v in
  let rec edge lo hi n = if n = 0 then (lo +. hi) /. 2.0 else
      let mid = (lo +. hi) /. 2.0 in
      if same mid then edge lo mid (n - 1) else edge mid hi (n - 1) in
  let rec edge_up lo hi n = if n = 0 then (lo +. hi) /. 2.0 else
      let mid = (lo +. hi) /. 2.0 in
      if same mid then edge_up mid hi (n - 1) else edge_up lo mid (n - 1) in
  let p_lo = if same 0.0 then 0.0 else edge 0.0 p 50 in
  let p_hi = if same 1.0 then 1.0 else edge_up p 1.0 50 in
  if v <= 0.0 || p_hi <= p_lo then v
  else
    let g = sqrt 1.005 in
    let lo = Float.max (Histogram.min_value h) (v /. g)
    and hi = Float.min (Histogram.max_value h) (v *. g) in
    lo *. ((hi /. lo) ** ((p -. p_lo) /. (p_hi -. p_lo)))

(* ---- reporting --------------------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []
let emit name value unit_ = metrics := (name, value, unit_) :: !metrics

let print_result ~attempted ~failed =
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %16.6f %s\n" n v u) ms;
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) (List.rev !failures);
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failures = []) attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
          ms))

let header (a : args) =
  Printf.printf "perfbench workload=%s entry=%s seed=%d trace=%b\n" a.workload.W.name
    a.workload.W.entry a.seed a.trace;
  Printf.printf
    "build profile: %s; host cores: %d; clock: monotonic wall (bechamel.monotonic_clock); ocaml %s\n%!"
    Build_info.profile (Domain.recommended_domain_count ()) Sys.ocaml_version

(* ---- plain runs: end-to-end metrics ----------------------------------- *)

(* Set-ups timed on their own before each call: a set-up takes 1-30 ms
   and varies more than a call, so its median needs more samples. *)
let extra_setups = 3

let plain (a : args) =
  let w = a.workload in
  (* The counting run: instrumented with an obs bundle so that every
     simulator reports its issued count; its statistics are the reference
     every timed run must reproduce. *)
  let count_instr = { W.plain with W.obs = Some (Lesslog_obs.Obs.create ~span_capacity:16 ()) } in
  let reference = run_once w ~seed:a.seed count_instr in
  check_accounting w.W.name reference.stats;
  let issued = Option.value ~default:0 reference.stats.issued in
  let fp = fingerprint reference.stats in
  let setups = ref [] and raw_setups = ref [] in
  let rates = ref [] and raw_rates = ref [] and scales = ref [] in
  let attempted = ref 1 and failed = ref (if !failures = [] then 0 else 1) in
  let t0 = Probe.now_ns () in
  while
    List.length !rates < 3
    || Probe.secs_between t0 (Probe.now_ns ()) < a.seconds
  do
    let extra =
      List.init extra_setups (fun _ ->
          Gc.compact ();
          (fst (Probe.measured (fun () -> w.W.prepare ~seed:a.seed W.plain))).Probe.wall_s)
    in
    (* The call's rate is scaled by the host speed sampled while it ran
       (see [Probe.Host_speed]); scaled and raw figures are both printed. *)
    let r = run_once ~sample_host:true w ~seed:a.seed W.plain in
    incr attempted;
    let same = fingerprint r.stats = fp in
    check same "%s: timed run %d differs from the reference run:\n  %s\n  %s" w.W.name !attempted (fingerprint r.stats) fp;
    let host = Option.get r.host in
    let sampled = host.Probe.Host_speed.samples > 0 in
    check sampled "%s: timed run %d took no host-speed sample" w.W.name !attempted;
    if not (same && sampled) then incr failed;
    (* Set-ups are mostly shorter than one sampling period: they take
       the speed of the call they precede. *)
    let scale = Probe.Host_speed.scale host in
    List.iter
      (fun x ->
        raw_setups := x :: !raw_setups;
        setups := (x /. scale) :: !setups)
      (r.setup.wall_s :: extra);
    let raw = float_of_int issued /. Probe.Host_speed.net_wall host ~wall_s:r.call.wall_s in
    raw_rates := raw :: !raw_rates;
    scales := scale :: !scales;
    rates := (raw *. scale) :: !rates
  done;
  let s = reference.stats in
  Printf.printf "timed runs: %d (plus 1 counting run); issued %d served %d latency samples %d\n"
    (List.length !rates) issued s.served (Histogram.count s.latencies);
  Printf.printf "requests/s per run, at the nominal core: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.0f") !rates));
  Printf.printf "requests/s per run, as timed: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.0f") !raw_rates));
  Printf.printf "set-ups timed: %d; median %.6f s at the nominal core, %.6f s as timed\n"
    (List.length !setups) (Probe.median !setups) (Probe.median !raw_setups);
  Printf.printf "host speed (nominal core = 1): median %.3f, range %.3f-%.3f\n"
    (1.0 /. Probe.median !scales)
    (1.0 /. List.fold_left Float.max 0.0 !scales)
    (1.0 /. List.fold_left Float.min infinity !scales);
  emit "requests_per_s" (Probe.median !rates) "1/s";
  emit "setup_s" (Probe.median !setups) "s";
  emit "peak_rss_mb" (Probe.peak_rss_mb ()) "MB";
  emit "served_share" (float_of_int s.served /. float_of_int (max 1 issued)) "share";
  emit "sim_latency_p50_ms" (1000.0 *. quantile s.latencies 0.5) "ms";
  emit "sim_latency_p999_ms" (1000.0 *. quantile s.latencies 0.999) "ms";
  emit "replicas_per_oracle" (float_of_int s.copies_end /. s.oracle) "ratio";
  print_result ~attempted:!attempted ~failed:!failed

(* ---- traced run: per-layer metrics ------------------------------------ *)

(* Every per-layer metric, in print order, with its unit. A workload that
   does not exercise a layer prints it as 0 and says so. *)
let layer_metrics =
  [
    ("gc.minor_words_per_request", "words");
    ("gc.promoted_words_per_request", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.pause_share", "share");
    ("sim.events_per_request", "count");
    ("sim.ns_per_event", "ns");
    ("sim.share", "share");
    ("topology.hops_per_request", "count");
    ("topology.ns_per_hop", "ns");
    ("topology.share", "share");
    ("topology.status_changes", "count");
    ("topology.rebuild_us", "us");
    ("core.holds_ns", "ns");
    ("storage.record_access_ns", "ns");
    ("core.choose_target_us", "us");
    ("core.selforg_us_per_event", "us");
    ("core.share", "share");
    ("core.replicas_created_per_krequest", "count");
    ("metrics.histogram_add_ns", "ns");
    ("metrics.share", "share");
    ("des.messages_per_request", "count");
    ("des.unattributed_share", "share");
    ("pdes.epochs", "count");
    ("pdes.phases", "count");
    ("pdes.epochs_per_phase", "ratio");
    ("pdes.cross_sends", "count");
    ("pdes.migrations", "count");
    ("par.cpu_per_wall", "ratio");
    ("pdes.speedup_2v1", "ratio");
    ("net.attempts_per_request", "count");
    ("net.useful_attempt_share", "share");
    ("net.timeouts_per_request", "count");
    ("net.duplicate_serve_share", "share");
    ("net.spurious_suspicion_share", "share");
    ("net.messages_per_request", "count");
    ("policy.record_ns", "ns");
    ("policy.end_interval_us", "us");
    ("policy.share", "share");
    ("policy.rf_end", "count");
    ("cold.demotions", "count");
    ("cold.promotions", "count");
    ("cold.fragment_repairs", "count");
    ("cold.bytes_moved_per_request", "bytes");
    ("cold.repair_bytes", "bytes");
    ("cold.storage_amplification", "ratio");
    ("obs.overhead_share", "share");
    ("trace.overhead_share", "share");
  ]

let traced (a : args) =
  let w = a.workload in
  let f = float_of_int in
  Probe.Spans.enable ();
  Probe.Pauses.start ();
  let values : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let notes : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let set k v = Hashtbl.replace values k v in
  let note k why = Hashtbl.replace notes k why in
  let attempted = ref 0 and failed = ref 0 in
  let reference = ref None in
  (* Every call this run makes must reproduce the reference statistics. *)
  let run label instr =
    Probe.Spans.span label @@ fun () ->
    let before = List.length !failures in
    let r = run_once w ~seed:a.seed instr in
    incr attempted;
    (match !reference with
    | None -> reference := Some r
    | Some ref_ ->
        check
          (fingerprint r.stats = fingerprint ref_.stats)
          "%s: %s run differs from the reference run:\n  %s\n  %s" w.W.name label
          (fingerprint r.stats) (fingerprint ref_.stats));
    if List.length !failures > before then incr failed;
    r
  in
  (* Plain and obs-instrumented calls alternate, three of each. *)
  let bundles = List.init 3 (fun _ -> Lesslog_obs.Obs.create ~span_capacity:16 ()) in
  let pairs =
    List.mapi
      (fun i bundle ->
        let p = run (Printf.sprintf "run.plain%d" i) W.plain in
        (p, run (Printf.sprintf "run.obs%d" i) { W.plain with W.obs = Some bundle }))
      bundles
  in
  let plains = List.map fst pairs and obs_rep = snd (List.hd pairs) in
  (* The obs calls only count: their span ring is kept small on purpose. *)
  let sink = (List.hd bundles).Lesslog_obs.Obs.spans in
  Printf.printf "obs spans per call: %d completed, %d retained, %d dropped\n"
    (Lesslog_obs.Obs.Span.completed sink) (Lesslog_obs.Obs.Span.retained sink)
    (Lesslog_obs.Obs.Span.dropped sink);
  let median_wall reps = Probe.median (List.map (fun r -> r.call.Probe.wall_s) reps) in
  check_accounting w.W.name obs_rep.stats;
  let s = obs_rep.stats in
  let issued = f (Option.value ~default:0 s.issued) in
  let per_req x = x /. Float.max 1.0 issued in
  let wall = median_wall plains in
  let middle =
    List.nth (List.sort (fun x y -> compare x.call.Probe.wall_s y.call.Probe.wall_s) plains) 1
  in
  let has k = List.mem_assoc k s.counts in
  let count k = Option.value ~default:0.0 (List.assoc_opt k s.counts) in
  (* OCaml runtime, from the median plain call. *)
  let g = middle.call.Probe.gc in
  set "gc.minor_words_per_request" (per_req g.Probe.minor_words);
  set "gc.promoted_words_per_request" (per_req g.Probe.promoted_words);
  set "gc.minor_collections" (f g.Probe.minor_collections);
  set "gc.major_collections" (f g.Probe.major_collections);
  set "gc.pause_share" (middle.pause_s /. middle.call.Probe.wall_s);
  if !Probe.Pauses.lost > 0 then
    note "gc.pause_share" (Printf.sprintf "lower bound: %d runtime events lost" !Probe.Pauses.lost);
  set "des.messages_per_request" (per_req (f s.messages));
  set "topology.hops_per_request" (Histogram.mean s.hops);
  set "core.replicas_created_per_krequest" (1000.0 *. per_req (f s.replicas_created));
  set "obs.overhead_share" ((median_wall (List.map snd pairs) /. wall) -. 1.0);
  let events =
    if s.events > 0 then begin
      set "sim.events_per_request" (per_req (f s.events));
      f s.events
    end
    else begin
      (* Fault_sim does not report its event count: its messages plus
         one arrival per issued request stand in for it. *)
      note "sim.events_per_request" "not reported by this simulator";
      f s.messages +. issued
    end
  in
  let share_sum = ref 0.0 in
  let share k secs =
    let v = secs /. wall in
    set k v;
    share_sum := !share_sum +. v
  in
  let sim_s =
    Replay.sim ~n:(int_of_float events) ~depth:obs_rep.after.W.live_nodes
      ~latency:obs_rep.after.W.latency ~seed:a.seed
  in
  set "sim.ns_per_event" (sim_s *. 1e9);
  share "sim.share" (sim_s *. events);
  (match s.digest with
  | Some d ->
      (* Sharded simulator: result counts, and a 2-domain re-run for
         parallel efficiency, whose digest must equal the 1-domain one. *)
      let two = run "run.two_domains" { W.plain with domains = 2 } in
      check (two.stats.digest = Some d) "%s: 2-domain digest differs from the 1-domain digest"
        w.W.name;
      List.iter (fun k -> set k (count k))
        [ "pdes.epochs"; "pdes.phases"; "pdes.cross_sends"; "pdes.migrations" ];
      set "pdes.epochs_per_phase" (count "pdes.epochs" /. Float.max 1.0 (count "pdes.phases"));
      set "par.cpu_per_wall" (two.call.Probe.cpu_s /. two.call.Probe.wall_s);
      set "pdes.speedup_2v1" (wall /. two.call.Probe.wall_s);
      set "trace.overhead_share" ((median_wall (List.map snd pairs) /. wall) -. 1.0);
      note "trace.overhead_share" "obs bundle: this simulator has no sink";
      note "des.unattributed_share" "only the Engine replay is subtracted";
      List.iter
        (fun k -> note k "no sink on this simulator: not replayed")
        [ "topology.ns_per_hop"; "topology.share"; "topology.status_changes"; "topology.rebuild_us";
          "core.holds_ns"; "storage.record_access_ns"; "core.choose_target_us";
          "core.selforg_us_per_event"; "core.share"; "metrics.histogram_add_ns";
          "metrics.share" ]
  | None ->
      (* Recorded run: the sink stream in memory, then the layer replay. *)
      let recorded = ref [] in
      let traced =
        run "run.traced"
          { W.plain with sink = Some (fun e -> recorded := e :: !recorded) }
      in
      set "trace.overhead_share" ((traced.call.Probe.wall_s /. wall) -. 1.0);
      let events_l = List.rev !recorded in
      recorded := [];
      let reqs = Replay.requests events_l in
      let after = traced.after in
      let cluster = Option.get after.W.cluster and fresh = Option.get after.W.fresh in
      let key = W.key in
      set "topology.status_changes"
        (f (List.length (List.filter (function Lesslog_trace.Trace.Event.Membership _ -> true | _ -> false) events_l)));
      let hop_s, visited = Replay.route cluster ~key reqs in
      set "topology.ns_per_hop" (hop_s *. 1e9);
      let hops_total = f (Array.fold_left (fun acc r -> acc + r.Replay.hops) 0 reqs) in
      share "topology.share" (hop_s *. hops_total);
      set "topology.rebuild_us" (1e6 *. Replay.rebuild (fresh ()) ~key ~rounds:32);
      let holds_s = Replay.holds cluster ~key visited in
      let access_s = Replay.record_access cluster ~key reqs in
      let choose_s, choices, org_s, orgs =
        Replay.placement_and_churn (fresh ()) ~key ~seed:a.seed events_l
      in
      set "core.holds_ns" (holds_s *. 1e9);
      set "storage.record_access_ns" (access_s *. 1e9);
      set "core.choose_target_us" (choose_s *. 1e6);
      set "core.selforg_us_per_event" (org_s *. 1e6);
      if choices = 0 then note "core.choose_target_us" "no replica pushes recorded";
      if orgs = 0 then note "core.selforg_us_per_event" "no membership changes recorded";
      share "core.share"
        ((holds_s *. f (Array.length visited))
        +. (access_s *. f s.served)
        +. (choose_s *. f choices) +. (org_s *. f orgs));
      let add_s = Replay.histogram reqs in
      set "metrics.histogram_add_ns" (add_s *. 1e9);
      share "metrics.share" (add_s *. 2.0 *. f s.served);
      match (after.W.policy, after.W.policy_config) with
      | Some p, Some config ->
          let horizon = Array.fold_left (fun acc r -> Float.max acc r.Replay.at) 0.0 reqs in
          let rec_s, end_s, intervals =
            Replay.policy config ~nodes:(Lesslog_policy.Rf_policy.nodes p)
              ~rf0:config.Lesslog_policy.Rf_policy.rf_min ~horizon reqs
          in
          set "policy.record_ns" (rec_s *. 1e9);
          set "policy.end_interval_us" (end_s *. 1e6);
          set "policy.rf_end" (f (Lesslog_policy.Rf_policy.rf p ~file:0));
          share "policy.share" ((rec_s *. issued) +. (end_s *. f intervals))
      | _ -> ());
  set "des.unattributed_share" (1.0 -. !share_sum);
  (* net: Fault_sim's own counts. *)
  if has "net.retransmissions" then begin
    let attempts = issued +. count "net.retransmissions" in
    set "net.attempts_per_request" (per_req attempts);
    set "net.useful_attempt_share" (f s.served /. Float.max 1.0 attempts);
    set "net.timeouts_per_request" (per_req (count "net.timeouts"));
    set "net.duplicate_serve_share"
      (count "net.duplicate_serves" /. Float.max 1.0 (f s.served +. count "net.duplicate_serves"));
    set "net.spurious_suspicion_share"
      (count "net.spurious_suspicions" /. Float.max 1.0 (count "net.suspicions"));
    set "net.messages_per_request" (per_req (f s.messages))
  end;
  (* cold tier ledger. *)
  if has "cold.demotions" then begin
    List.iter (fun k -> set k (count k))
      [ "cold.demotions"; "cold.promotions"; "cold.fragment_repairs"; "cold.repair_bytes" ];
    set "cold.bytes_moved_per_request" (per_req (count "cold.bytes_moved"));
    set "cold.storage_amplification" (count "cold.mean_bytes_stored" /. f W.cold_file_bytes)
  end;
  (* Spans, written once. *)
  (try
     if not (Sys.file_exists a.out) then Sys.mkdir a.out 0o755;
     let path = Filename.concat a.out (Printf.sprintf "trace-%s-seed%d.json" w.W.name a.seed) in
     Probe.Spans.write_chrome path;
     Printf.printf "spans: %d written to %s\n" (List.length (Probe.Spans.all ())) path
   with Sys_error e -> Printf.printf "spans not written: %s\n" e);
  let spans = Probe.Spans.all () in
  let self = Probe.Spans.self_us spans in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_name sp.Probe.Spans.name) in
      Hashtbl.replace by_name sp.Probe.Spans.name (prev +. self sp))
    spans;
  print_endline "span self time (ms):";
  Hashtbl.to_seq by_name |> List.of_seq |> List.sort compare
  |> List.iter (fun (n, us) -> Printf.printf "  %-40s %12.3f\n" n (us /. 1e3));
  Printf.printf "calls: %d; plain median wall %.4f s; issued %.0f; served %d\n" !attempted wall
    issued s.served;
  List.iter
    (fun (k, u) ->
      let v = Hashtbl.find_opt values k in
      (match (v, Hashtbl.find_opt notes k) with
      | _, Some why -> Printf.printf "  %-34s %s\n" k why
      | Some 0.0, None when u = "count" ->
          Printf.printf "  %-34s not exercised (0 on every run)\n" k
      | None, None -> Printf.printf "  %-34s not exercised by this workload\n" k
      | Some _, None -> ());
      emit k (Option.value v ~default:0.0) u)
    layer_metrics;
  print_result ~attempted:!attempted ~failed:!failed

let () =
  let a = parse_args () in
  header a;
  if a.trace then traced a else plain a
