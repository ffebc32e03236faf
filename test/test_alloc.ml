(* Minor-heap allocation budgets of the event path, read from
   [Gc.minor_words] deltas.

   The budgets hold only when cross-module inlining is on: the hot-path
   helpers ([Rng.float], [Engine.post], [Histogram.add], ...) take or
   return floats, and on this non-flambda compiler a float crossing a
   call that is not inlined is boxed. Dune's dev profile compiles with
   [-opaque], which hides the [.cmx] files inlining needs, so the budgets
   are enforced only in the release profile
   ([dune build --profile release @test/runalloc]); other profiles print
   the measured figures and pass. *)

module Rng = Lesslog_prng.Rng
module Latency = Lesslog_net.Latency
module Histogram = Lesslog_metrics.Histogram
module Engine = Lesslog_sim.Engine
module Des_sim = Lesslog_des.Des_sim
module Cluster = Lesslog.Cluster
module Ops = Lesslog.Ops
module Demand = Lesslog_workload.Demand
module Params = Lesslog_id.Params

let enforced = Alloc_profile.profile = "release"

(* Queue and histogram arrays double when a bucket meets a new peak
   occupancy, which still happens now and then after warm-up: a few
   hundred words per million events. [slack] absorbs that amortised
   growth; a float boxed per call or per event costs 2-3 words, far
   above it. *)
let slack = 0.01

(* Words allocated per unit of [units], against [budget]: fails in the
   release profile when over, prints in every profile. *)
let check_budget name ~budget ~words ~units =
  let per = words /. float_of_int units in
  Printf.printf "%-34s %8.4f words (budget %g)%s\n%!" name per budget
    (if enforced then ""
     else " [not enforced: profile " ^ Alloc_profile.profile ^ "]");
  if enforced && per > budget +. slack then
    Alcotest.failf "%s: %.4f words per unit, budget %g" name per budget

(* Calls of [f] go through a closure, which costs no allocation itself;
   each call body writes its result into a float array, which stores
   floats unboxed. One warm-up batch first. *)
let per_call name ~budget f =
  let n = 100_000 in
  for _ = 1 to 1000 do f () done;
  let before = Gc.minor_words () in
  for _ = 1 to n do f () done;
  let words = Gc.minor_words () -. before in
  check_budget name ~budget ~words ~units:n

let sink = Array.make 1 0.0

let test_rng () =
  let rng = Rng.create ~seed:3 in
  per_call "Rng.float" ~budget:0.0 (fun () ->
      sink.(0) <- sink.(0) +. Rng.float rng 1.0);
  per_call "Rng.exponential" ~budget:0.0 (fun () ->
      sink.(0) <- sink.(0) +. Rng.exponential rng ~rate:2.0);
  per_call "Rng.bernoulli" ~budget:0.0 (fun () ->
      if Rng.bernoulli rng ~p:0.5 then sink.(0) <- sink.(0) +. 1.0)

let test_latency () =
  let rng = Rng.create ~seed:4 in
  List.iter
    (fun (name, lat) ->
      per_call name ~budget:0.0 (fun () ->
          sink.(0) <- sink.(0) +. Latency.sample lat rng))
    [
      ("Latency.sample uniform", Latency.default);
      ("Latency.sample exponential",
        Latency.Exponential { mean = 0.02; floor = 0.001 });
    ]

let test_histogram () =
  let rng = Rng.create ~seed:5 in
  let h = Histogram.create () in
  per_call "Histogram.add" ~budget:0.0 (fun () ->
      Histogram.add h (0.01 +. Rng.float rng 0.1));
  let i = ref 0 in
  per_call "Histogram.add_int" ~budget:0.0 (fun () ->
      incr i;
      Histogram.add_int h (!i land 15))

(* A self-rescheduling packed [post] chain: 64 concurrent chains with
   exponential gaps, so events move through rungs, the overflow heap and
   the far band. The budget is the boxed [x] handed to the handler
   closure at dispatch. *)
let test_engine_chain () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:6 in
  let h = ref (-1) in
  h :=
    Engine.register_handler e (fun a b x ->
        Engine.post e ~delay:(Rng.exponential rng ~rate:1.0) ~h:!h ~a ~b
          ~x:(x +. 1.0));
  for a = 0 to 63 do
    Engine.post e ~delay:(Rng.float rng 1.0) ~h:!h ~a ~b:0 ~x:0.0
  done;
  Engine.run ~max_events:200_000 e;
  let before = Gc.minor_words () and ev0 = Engine.events_executed e in
  Engine.run ~max_events:500_000 e;
  let words = Gc.minor_words () -. before in
  check_budget "Engine post chain, per event" ~budget:2.0 ~words
    ~units:(Engine.events_executed e - ev0)

(* A whole Des_sim run at m = 10 under uniform demand, per event. Two
   durations, differenced, so set-up cost (cluster, route tables,
   histograms) cancels and the figure is the marginal cost of an
   event. *)
let test_des_run () =
  let run duration =
    let cluster = Cluster.create (Params.create ~m:10 ()) in
    let key = "alloc/object" in
    ignore (Ops.insert cluster ~key);
    let demand = Demand.uniform (Cluster.status cluster) ~total:20_000.0 in
    let rng = Rng.create ~seed:1 in
    let before = Gc.minor_words () in
    let r = Des_sim.run ~rng ~cluster ~key ~demand ~duration () in
    (Gc.minor_words () -. before, r.Des_sim.events)
  in
  let w1, e1 = run 2.0 and w2, e2 = run 6.0 in
  check_budget "Des_sim m=10 uniform, per event" ~budget:8.0 ~words:(w2 -. w1)
    ~units:(e2 - e1)

let () =
  Alcotest.run "alloc"
    [
      ( "budgets",
        [
          Alcotest.test_case "rng" `Quick test_rng;
          Alcotest.test_case "latency" `Quick test_latency;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "engine chain" `Quick test_engine_chain;
          Alcotest.test_case "des run" `Quick test_des_run;
        ] );
    ]
