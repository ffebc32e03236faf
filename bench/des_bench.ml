(* `bench des`: throughput of the packed event core.

   Part 1 pits the scheduler hot path against an in-binary replica of the
   engine this repo shipped before the packed core: one message record
   plus one delivery closure allocated per event (the old Overlay.send
   pattern), in a binary heap ordered by polymorphic [compare]. Both
   engines consume the identical pre-drawn delay stream, so the ratio
   isolates queue, dispatch and allocation cost. The comparison runs at
   two pending-set populations — one message chain per identifier-space
   slot at m = 10 (1,024) and at m = 16 (65,536). The heap pays
   O(log n) polymorphic comparisons per event while the ladder stays
   amortized O(1), so the speedup grows with the population; the 5x
   acceptance gate is enforced at the m = 16 scale-up population.

   Part 2 times the full event-driven simulator on the packed core: a
   throughput run at the paper's m = 10 and a completion run at m = 16
   (65,536 slots), the scale-up target.

   Results append to BENCH_des.json (written to $LESSLOG_BENCH_OUT or the
   working directory); LESSLOG_BENCH_QUICK=1 shrinks the event budgets for
   CI smoke. *)

module Engine = Lesslog_sim.Engine
module Heap = Lesslog_sim.Heap
module Rng = Lesslog_prng.Rng
module E = Lesslog_harness.Experiments
module Bench_json = Lesslog_report.Bench_json

(* The pre-packed-core engine, verbatim: closure events in a heap under
   polymorphic compare. Kept in the benchmark binary only, as the
   baseline of record. *)
module Baseline = struct
  type event = { time : float; seq : int; action : unit -> unit }

  type t = {
    queue : event Heap.t;
    mutable clock : float;
    mutable next_seq : int;
    mutable executed : int;
  }

  let compare_event a b =
    match compare a.time b.time with 0 -> compare a.seq b.seq | c -> c

  let create () =
    {
      queue = Heap.create ~cmp:compare_event;
      clock = 0.0;
      next_seq = 0;
      executed = 0;
    }

  let schedule t ~delay action =
    Heap.push t.queue { time = t.clock +. delay; seq = t.next_seq; action };
    t.next_seq <- t.next_seq + 1

  let run ~max_events t =
    let budget = ref max_events in
    let continue = ref true in
    while !continue && !budget > 0 do
      match Heap.pop t.queue with
      | None -> continue := false
      | Some ev ->
          t.clock <- ev.time;
          t.executed <- t.executed + 1;
          ev.action ();
          decr budget
    done
end

(* Pre-drawn delay stream shared by both engines: the workload is
   identical event for event, so only scheduling cost differs. *)
let delays =
  let rng = Rng.create ~seed:11 in
  Array.init 65536 (fun _ -> Rng.exponential rng ~rate:1.0)

(* Message-passing hold model: [chains] concurrent self-rescheduling
   message chains carrying an (origin, hops, issued) payload. *)

type msg = Get of { origin : int; hops : int; issued : float }

let baseline_events_per_sec ~chains ~events =
  let eng = Baseline.create () in
  let di = ref 0 in
  let next_delay () =
    di := (!di + 1) land 65535;
    Array.unsafe_get delays !di
  in
  (* old style: every hop allocates the next message and a fresh closure *)
  let rec deliver msg =
    match msg with
    | Get { origin; hops; issued } ->
        let m = Get { origin; hops = hops + 1; issued } in
        Baseline.schedule eng ~delay:(next_delay ()) (fun () -> deliver m)
  in
  for i = 1 to chains do
    let m = Get { origin = i; hops = 0; issued = 0.0 } in
    Baseline.schedule eng ~delay:(next_delay ()) (fun () -> deliver m)
  done;
  let t0 = Unix.gettimeofday () in
  Baseline.run ~max_events:events eng;
  let dt = Unix.gettimeofday () -. t0 in
  float_of_int eng.Baseline.executed /. dt

let core_events_per_sec ~chains ~events =
  let eng = Engine.create () in
  let di = ref 0 in
  let next_delay () =
    di := (!di + 1) land 65535;
    Array.unsafe_get delays !di
  in
  let h = ref 0 in
  h :=
    Engine.register_handler eng (fun a b x ->
        Engine.post eng ~delay:(next_delay ()) ~h:!h ~a ~b:(b + 1) ~x);
  for i = 1 to chains do
    Engine.post eng ~delay:(next_delay ()) ~h:!h ~a:i ~b:0 ~x:0.0
  done;
  let t0 = Unix.gettimeofday () in
  Engine.run ~max_events:events eng;
  let dt = Unix.gettimeofday () -. t0 in
  float_of_int (Engine.events_executed eng) /. dt

(* [Gc.compact] between measurements: the baseline leaves a large boxed
   heap behind, and letting it bleed into the next run's GC costs would
   bias the comparison. *)
let measured f =
  Gc.compact ();
  let r = f () in
  Gc.compact ();
  r

let sched_comparison ~chains ~events =
  ignore (baseline_events_per_sec ~chains ~events:(events / 10));
  let baseline = measured (fun () -> baseline_events_per_sec ~chains ~events) in
  ignore (core_events_per_sec ~chains ~events:(events / 10));
  let core = measured (fun () -> core_events_per_sec ~chains ~events) in
  (baseline, core)

let out_file name =
  let dir = Option.value (Sys.getenv_opt "LESSLOG_BENCH_OUT") ~default:"." in
  Filename.concat dir name

let run () =
  let quick = Sys.getenv_opt "LESSLOG_BENCH_QUICK" = Some "1" in
  let events = if quick then 300_000 else 1_000_000 in
  print_endline "bench des: packed event core vs closure+heap baseline";
  print_endline "-----------------------------------------------------";
  Printf.printf
    "message hold model, %d events per engine, chains = one per slot\n%!"
    events;
  let chains10 = 1 lsl 10 and chains16 = 1 lsl 16 in
  let base10, core10 = sched_comparison ~chains:chains10 ~events in
  Printf.printf
    "m=10 population (%5d chains): baseline %10.0f ev/s   core %10.0f \
     ev/s   %.2fx\n%!"
    chains10 base10 core10 (core10 /. base10);
  let base16, core16 = sched_comparison ~chains:chains16 ~events in
  Printf.printf
    "m=16 population (%5d chains): baseline %10.0f ev/s   core %10.0f \
     ev/s   %.2fx (target >= 5x)\n\n%!"
    chains16 base16 core16 (core16 /. base16);
  let m10 =
    E.des_point ~m:10
      ~rate_per_node:(if quick then 1.0 else 2.0)
      ~duration:(if quick then 2.0 else 5.0)
      ~capacity:100.0 ~seed:42
  in
  Printf.printf
    "des m=10: %d events in %.3fs = %.3g events/s (served %d, replicas %d)\n%!"
    m10.E.events m10.E.secs m10.E.events_per_sec m10.E.served m10.E.replicas;
  let m16 =
    E.des_point ~m:16
      ~rate_per_node:(if quick then 0.5 else 2.0)
      ~duration:(if quick then 0.5 else 2.0)
      ~capacity:100.0 ~seed:42
  in
  Printf.printf
    "des m=16: %d events over %d nodes in %.3fs = %.3g events/s (served %d, \
     replicas %d)\n\n%!"
    m16.E.events m16.E.nodes m16.E.secs m16.E.events_per_sec m16.E.served
    m16.E.replicas;
  Bench_json.write
    ~path:(out_file "BENCH_des.json")
    [
      ("des/m10_baseline_sched_events_per_sec", base10);
      ("des/m10_core_sched_events_per_sec", core10);
      ("des/m10_sched_speedup", core10 /. base10);
      ("des/m16_baseline_sched_events_per_sec", base16);
      ("des/m16_core_sched_events_per_sec", core16);
      ("des/m16_sched_speedup", core16 /. base16);
      ("des/m10_des_events_per_sec", m10.E.events_per_sec);
      ("des/m16_des_events_per_sec", m16.E.events_per_sec);
      ("des/m16_wall_s", m16.E.secs);
      ("des/m16_cpu_s", m16.E.cpu_secs);
    ];
  Printf.printf "wrote %s\n" (out_file "BENCH_des.json");
  if core16 /. base16 < 5.0 then begin
    Printf.eprintf
      "bench des: FAIL: m=16 scale-up speedup %.2fx below the 5x target\n"
      (core16 /. base16);
    exit 1
  end
