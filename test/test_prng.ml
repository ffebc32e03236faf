module Rng = Lesslog_prng.Rng
module Splitmix = Lesslog_prng.Splitmix
module Zipf = Lesslog_prng.Zipf

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_copy_independent () =
  let a = Rng.create ~seed:7 in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  Alcotest.(check int) "copies aligned" (Rng.int a 1000) (Rng.int b 1000);
  ignore (Rng.int a 1000);
  ignore (Rng.int b 1000);
  Alcotest.(check int) "stay aligned" (Rng.int a 1000) (Rng.int b 1000)

let test_split_differs () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "split independent" true (xs <> ys)

let test_splitmix_reference () =
  (* The first outputs of the published SplitMix64 algorithm (Steele, Lea
     & Flood 2014; the C reference [splitmix64.c]) from state 0. A
     changed constant, shift or state update shows up here. *)
  let g = Splitmix.create 0L in
  List.iter
    (fun expected -> Alcotest.(check int64) "seed 0 stream" expected (Splitmix.next g))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ];
  let g = Splitmix.create 1234567L in
  let x0 = Splitmix.next g in
  let x1 = Splitmix.next g in
  Alcotest.(check bool) "nonzero" true (x0 <> 0L && x1 <> 0L);
  Alcotest.(check bool) "distinct" true (x0 <> x1);
  (* Same seed reproduces. *)
  let g' = Splitmix.create 1234567L in
  Alcotest.(check int64) "reproducible" x0 (Splitmix.next g')

(* [copy] and [split] must hand out fresh state, never share the
   parent's: advancing one generator leaves the other's stream as it
   was. *)
let test_splitmix_state_independent () =
  let reference = Splitmix.create 99L in
  let stream g = List.init 8 (fun _ -> Splitmix.next g) in
  let a = Splitmix.create 99L in
  let b = Splitmix.copy a in
  let from_a = stream a in
  Alcotest.(check (list int64)) "copy unaffected by parent" from_a (stream b);
  Alcotest.(check (list int64)) "parent matches a fresh seed" (stream reference)
    from_a;
  let p = Splitmix.create 5L in
  let c = Splitmix.split p in
  let c' = Splitmix.copy c in
  ignore (stream p);
  Alcotest.(check (list int64)) "split unaffected by parent" (stream c')
    (stream c);
  let p2 = Splitmix.create 5L in
  let c2 = Splitmix.split p2 in
  ignore (stream c2);
  let after_split = stream p2 in
  let p3 = Splitmix.create 5L in
  ignore (Splitmix.split p3);
  Alcotest.(check (list int64)) "parent unaffected by split child"
    (stream p3) after_split

let prop_int_range =
  Test_support.qcheck_case ~name:"int within bound"
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 1_000_000))
    (fun (bound, seed) ->
      let rng = Rng.create ~seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let prop_int_in_range =
  Test_support.qcheck_case ~name:"int_in within inclusive range"
    QCheck2.Gen.(
      int_range (-1000) 1000 >>= fun lo ->
      int_range 0 2000 >>= fun span ->
      int_range 0 1_000_000 >>= fun seed -> return (lo, lo + span, seed))
    (fun (lo, hi, seed) ->
      let rng = Rng.create ~seed in
      let x = Rng.int_in rng ~lo ~hi in
      x >= lo && x <= hi)

let prop_float_range =
  Test_support.qcheck_case ~name:"float within bound"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let x = Rng.float rng 3.5 in
      x >= 0.0 && x < 3.5)

let prop_exponential_positive =
  Test_support.qcheck_case ~name:"exponential positive"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      Rng.exponential rng ~rate:5.0 >= 0.0)

let prop_shuffle_permutation =
  Test_support.qcheck_case ~name:"shuffle is a permutation"
    QCheck2.Gen.(pair (int_range 0 50) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let a = Array.init n (fun i -> i) in
      Rng.shuffle rng a;
      let sorted = Array.copy a in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let prop_sample_distinct =
  Test_support.qcheck_case ~name:"sample_without_replacement distinct"
    QCheck2.Gen.(
      int_range 1 60 >>= fun n ->
      int_range 0 n >>= fun k ->
      int_range 0 1_000_000 >>= fun seed -> return (n, k, seed))
    (fun (n, k, seed) ->
      let rng = Rng.create ~seed in
      let a = Array.init n (fun i -> i) in
      let s = Rng.sample_without_replacement rng ~k a in
      Array.length s = k
      && List.length (List.sort_uniq compare (Array.to_list s)) = k)

let test_uniformity_coarse () =
  (* A chi-square-flavoured sanity check: 10 buckets over 100k draws
     should each be within 10% of the mean. *)
  let rng = Rng.create ~seed:99 in
  let buckets = Array.make 10 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = draws / 10 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (abs (c - expected) < expected / 10))
    buckets

let test_exponential_mean () =
  let rng = Rng.create ~seed:5 in
  let rate = 4.0 in
  let n = 50_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng ~rate
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f near 1/rate" mean)
    true
    (Float.abs (mean -. (1.0 /. rate)) < 0.01)

let test_zipf_probabilities () =
  let z = Zipf.create ~n:4 ~s:1.0 in
  let h = 1.0 +. (1.0 /. 2.0) +. (1.0 /. 3.0) +. (1.0 /. 4.0) in
  Alcotest.(check (float 1e-9)) "p0" (1.0 /. h) (Zipf.probability z 0);
  Alcotest.(check (float 1e-9)) "p3" (1.0 /. 4.0 /. h) (Zipf.probability z 3);
  let total = List.fold_left ( +. ) 0.0 (List.init 4 (Zipf.probability z)) in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 total

let test_zipf_uniform_degenerate () =
  let z = Zipf.create ~n:8 ~s:0.0 in
  for i = 0 to 7 do
    Alcotest.(check (float 1e-9)) "uniform" 0.125 (Zipf.probability z i)
  done

let test_zipf_sampling () =
  let z = Zipf.create ~n:16 ~s:1.2 in
  let rng = Rng.create ~seed:11 in
  let counts = Array.make 16 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let r = Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  (* Empirical frequencies track the analytic probabilities. *)
  Array.iteri
    (fun i c ->
      let expected = Zipf.probability z i *. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "rank %d freq" i)
        true
        (Float.abs (float_of_int c -. expected) < (0.15 *. expected) +. 30.0))
    counts;
  (* Rank 0 strictly more popular than rank 15. *)
  Alcotest.(check bool) "head > tail" true (counts.(0) > counts.(15))

let test_zipf_extreme_skew_boundary () =
  (* At s = 20 the CDF saturates to 1.0 by floating-point rounding well
     before the last rank, so the u -> 1 boundary of the inverse-CDF
     search is exercised on every draw: the search must stay in
     [0, n) and the head must soak up essentially all the mass. *)
  let z = Zipf.create ~n:64 ~s:20.0 in
  let rng = Rng.create ~seed:13 in
  let head = ref 0 in
  for _ = 1 to 10_000 do
    let r = Zipf.sample z rng in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < 64);
    if r = 0 then incr head
  done;
  Alcotest.(check int) "head takes all the mass" 10_000 !head;
  (* n = 1 pins the boundary exactly: the only rank has probability 1
     and every draw lands on it. *)
  let one = Zipf.create ~n:1 ~s:1.0 in
  Alcotest.(check (float 1e-12)) "singleton pmf" 1.0 (Zipf.probability one 0);
  for _ = 1 to 100 do
    Alcotest.(check int) "singleton sample" 0 (Zipf.sample one rng)
  done

let () =
  Alcotest.run "prng"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "copy independence" `Quick test_copy_independent;
          Alcotest.test_case "split differs" `Quick test_split_differs;
          Alcotest.test_case "splitmix reference" `Quick test_splitmix_reference;
          Alcotest.test_case "splitmix state independence" `Quick
            test_splitmix_state_independent;
          Alcotest.test_case "coarse uniformity" `Quick test_uniformity_coarse;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "probabilities" `Quick test_zipf_probabilities;
          Alcotest.test_case "s=0 uniform" `Quick test_zipf_uniform_degenerate;
          Alcotest.test_case "sampling matches pmf" `Quick test_zipf_sampling;
          Alcotest.test_case "u->1 boundary, extreme skew" `Quick
            test_zipf_extreme_skew_boundary;
        ] );
      ( "properties",
        [
          prop_int_range;
          prop_int_in_range;
          prop_float_range;
          prop_exponential_positive;
          prop_shuffle_permutation;
          prop_sample_distinct;
        ] );
    ]
