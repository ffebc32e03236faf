(* `bench pdes`: the domain-parallel sharded simulator.

   Four gates, in increasing cost:

   1. Determinism (always enforced, the CI smoke gate): one Pdes_sim
      configuration run at 1, 2, 4 and 8 worker domains must produce the
      same digest, served count and end-state replica population, bit
      for bit — and so must a churn-heavy fault-plan run (crashes with
      restarts plus loss bursts as barrier globals). Domain count is a
      speed knob only; any divergence is a barrier or mailbox-ordering
      bug and fails the bench.

   2. One-domain overhead (always enforced): best-of-3 events/s of the
      fused sharded loop at 1 domain vs best-of-3 of the packed-core
      simulator at the m = 16 scale-up population. The two simulators do
      different per-event work (subtree indexing, per-shard digesting),
      so parity for this pair of models sits near 0.78 on a quiet host;
      the gate floor of 0.70 catches a real per-epoch regression (e.g.
      losing epoch fusion) without flaking on scheduler noise.

   3. Scaling (enforced only on hosts with >= 8 recommended domains,
      printed as SKIP elsewhere): aggregate events/s at 8 domains must
      be >= 2.5x the packed core at m = 16.

   4. Steady state (always enforced): a large-m run must complete and
      its end-state replica count must land within a small constant
      factor of the mean-field oracle total_rate / capacity — the
      analytic fixed point of flow balancing. The band [1, 4] absorbs
      cooldown quantisation and per-subtree overshoot.

   Between gates 2 and 3 the bench sweeps a domains x m scaling grid and
   emits every cell, plus host context (recommended domain count,
   whether the scaling gate ran) into BENCH_pdes.json so a committed
   snapshot records what machine produced it. Results are written to
   $LESSLOG_BENCH_OUT or the working directory; LESSLOG_BENCH_QUICK=1
   shrinks m, the durations and the grid for CI smoke. *)

module E = Lesslog_harness.Experiments
module Bench_json = Lesslog_report.Bench_json
module Par = Lesslog_parallel.Par

let out_file name =
  let dir = Option.value (Sys.getenv_opt "LESSLOG_BENCH_OUT") ~default:"." in
  Filename.concat dir name

let failed = ref false

let fail fmt =
  failed := true;
  Printf.eprintf fmt

let best3 f =
  let b = ref 0.0 in
  for _ = 1 to 3 do
    let v = f () in
    if v > !b then b := v
  done;
  !b

(* Gate 1: the digest (and every headline count) is invariant in the
   domain count — on the quiet workload and on a churn-heavy fault
   plan. *)
let determinism_gate ~quick =
  let m = if quick then 10 else 12 in
  let duration = if quick then 2.0 else 3.0 in
  let check label point =
    let reference : E.pdes_point = point 1 in
    Printf.printf "determinism (%s): m=%d, digest at 1 domain = %d\n%!" label
      m reference.E.pdes_digest;
    List.iter
      (fun domains ->
        let p : E.pdes_point = point domains in
        let same =
          p.E.pdes_digest = reference.E.pdes_digest
          && p.E.pdes_served = reference.E.pdes_served
          && p.E.pdes_replicas_end = reference.E.pdes_replicas_end
          && p.E.pdes_events = reference.E.pdes_events
        in
        Printf.printf "  %d domains: digest %d  served %d  %s\n%!" domains
          p.E.pdes_digest p.E.pdes_served
          (if same then "OK" else "DIVERGED");
        if not same then
          fail
            "bench pdes: FAIL: %s results at %d domains diverge from 1 \
             domain (digest %d vs %d)\n"
            label domains p.E.pdes_digest reference.E.pdes_digest)
      [ 2; 4; 8 ];
    reference
  in
  let reference =
    check "quiet" (fun domains ->
        E.pdes_point ~b:2 ~domains ~m ~rate_per_node:2.0 ~duration
          ~capacity:100.0 ~seed:42 ())
  in
  let faulted =
    check "faulted" (fun domains ->
        E.pdes_fault_point ~b:3 ~domains ~m ~rate_per_node:2.0 ~duration
          ~capacity:100.0 ~seed:42 ())
  in
  (reference, faulted)

(* Gates 2 and 3: m = 16 throughput of the fused loop at 1 and 8 domains
   against the single-domain packed core, best of 3 each. *)
let scaling_gate ~quick =
  let rate_per_node = if quick then 0.5 else 2.0 in
  let duration = if quick then 0.5 else 2.0 in
  let sharded domains =
    E.pdes_point ~b:3 ~domains ~m:16 ~rate_per_node ~duration ~capacity:100.0
      ~seed:42 ()
  in
  let packed_eps =
    best3 (fun () ->
        (E.des_point ~m:16 ~rate_per_node ~duration ~capacity:100.0 ~seed:42)
          .E.events_per_sec)
  in
  let fused = sharded 1 in
  let p1_eps =
    Float.max fused.E.pdes_events_per_sec
      (best3 (fun () -> (sharded 1).E.pdes_events_per_sec))
  in
  let p8_eps = best3 (fun () -> (sharded 8).E.pdes_events_per_sec) in
  let ratio1 = p1_eps /. packed_eps in
  let speedup = p8_eps /. packed_eps in
  Printf.printf
    "scaling m=16: packed %.3g ev/s   sharded 1d %.3g ev/s (%.2fx)   sharded \
     8d %.3g ev/s (%.2fx)   fusion %d epochs / %d phases\n%!"
    packed_eps p1_eps ratio1 p8_eps speedup fused.E.pdes_epochs
    fused.E.pdes_phases;
  if ratio1 < 0.70 then
    fail
      "bench pdes: FAIL: 1-domain fused loop at %.2fx of packed, below the \
       0.70 floor (parity for these models is ~0.78)\n"
      ratio1;
  let cores = Par.recommended_domains () in
  let gate_ran = cores >= 8 in
  if gate_ran then begin
    if speedup < 2.5 then
      fail
        "bench pdes: FAIL: 8-domain speedup %.2fx below the 2.5x target on a \
         %d-domain host\n"
        speedup cores
  end
  else
    Printf.printf
      "  2.5x gate: SKIP (host recommends %d domain(s); gate needs >= 8)\n%!"
      cores;
  (packed_eps, p1_eps, p8_eps, speedup, ratio1, fused, gate_ran, cores)

(* The domains x m grid: every cell is one fused run, emitted to the
   JSON so committed snapshots carry the full scaling picture (and the
   host context above says what machine drew it). *)
let scaling_grid ~quick =
  let ms = if quick then [ 10 ] else [ 12; 14; 16 ] in
  let ds = if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let duration = if quick then 0.5 else 2.0 in
  Printf.printf "scaling grid (b=3, ev/s):\n%!";
  let cells =
    List.concat_map
      (fun m ->
        let row =
          List.map
            (fun domains ->
              let p =
                E.pdes_point ~b:3 ~domains ~m ~rate_per_node:2.0 ~duration
                  ~capacity:100.0 ~seed:42 ()
              in
              (m, domains, p))
            ds
        in
        Printf.printf "  m=%2d:%s\n%!" m
          (String.concat ""
             (List.map
                (fun (_, d, (p : E.pdes_point)) ->
                  Printf.sprintf "  %dd %.3g" d p.E.pdes_events_per_sec)
                row));
        row)
      ms
  in
  List.map
    (fun (m, d, (p : E.pdes_point)) ->
      ( Printf.sprintf "pdes/grid_m%d_d%d_events_per_sec" m d,
        p.E.pdes_events_per_sec ))
    cells

(* Gate 4: a large-m run completes and its end-state replica population
   sits within [1x, 4x] of the mean-field oracle. *)
let steady_state_gate ~quick =
  let m = if quick then 12 else 20 in
  let b = if quick then 2 else 3 in
  let rate_per_node = if quick then 2.0 else 0.01 in
  let duration = 6.0 in
  let p =
    E.pdes_point ~b ~domains:1 ~m ~rate_per_node ~duration ~capacity:100.0
      ~seed:42 ()
  in
  let ratio =
    float_of_int p.E.pdes_replicas_end /. p.E.pdes_oracle_replicas
  in
  Printf.printf
    "steady state m=%d: %d events in %.3fs, replicas %d vs oracle %.1f \
     (ratio %.2f, band [1, 4])\n%!"
    m p.E.pdes_events p.E.pdes_secs p.E.pdes_replicas_end
    p.E.pdes_oracle_replicas ratio;
  if ratio < 1.0 || ratio > 4.0 then
    fail
      "bench pdes: FAIL: m=%d replica ratio %.2f outside the mean-field band \
       [1, 4]\n"
      m ratio;
  (p, ratio)

let run () =
  let quick = Sys.getenv_opt "LESSLOG_BENCH_QUICK" = Some "1" in
  print_endline "bench pdes: domain-parallel sharded simulator";
  print_endline "---------------------------------------------";
  let reference, faulted = determinism_gate ~quick in
  let packed_eps, p1_eps, p8_eps, speedup, ratio1, fused, gate_ran, cores =
    scaling_gate ~quick
  in
  let grid = scaling_grid ~quick in
  let steady, ratio = steady_state_gate ~quick in
  Bench_json.write
    ~path:(out_file "BENCH_pdes.json")
    ([
       ("pdes/determinism_digest", float_of_int reference.E.pdes_digest);
       ("pdes/determinism_events", float_of_int reference.E.pdes_events);
       ("pdes/faulted_digest", float_of_int faulted.E.pdes_digest);
       ("pdes/faulted_events", float_of_int faulted.E.pdes_events);
       ("pdes/host_recommended_domains", float_of_int cores);
       ("pdes/scaling_gate_ran", if gate_ran then 1.0 else 0.0);
       ("pdes/one_domain_gate_ratio", ratio1);
       ("pdes/m16_packed_events_per_sec", packed_eps);
       ("pdes/m16_sharded_1d_events_per_sec", p1_eps);
       ("pdes/m16_sharded_8d_events_per_sec", p8_eps);
       ("pdes/m16_speedup_vs_packed", speedup);
       ("pdes/m16_epochs", float_of_int fused.E.pdes_epochs);
       ("pdes/m16_phases", float_of_int fused.E.pdes_phases);
       ("pdes/steady_events_per_sec", steady.E.pdes_events_per_sec);
       ("pdes/steady_replica_ratio", ratio);
       ("pdes/steady_wall_s", steady.E.pdes_secs);
       ("pdes/steady_cpu_s", steady.E.pdes_cpu_secs);
     ]
    @ grid);
  Printf.printf "wrote %s\n" (out_file "BENCH_pdes.json");
  if !failed then exit 1
