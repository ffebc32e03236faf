(* Host-side measurement: the monotonic wall clock, process CPU time,
   GC counters, peak RSS, the benchmark's own span recorder and the
   host-speed probe. Nothing here reads [Sys.time]; CPU time is only
   ever reported as a ratio to wall time. *)

let now_ns () = Monotonic_clock.now ()
let secs_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

(* One timed region: wall seconds, process CPU seconds (all domains) and
   the GC counters the runtime sums over domains. *)
type measure = { wall_s : float; cpu_s : float; gc : gc_delta }

let measured f =
  let g0 = Gc.quick_stat () in
  let c0 = cpu_s () in
  let t0 = now_ns () in
  let v = f () in
  let t1 = now_ns () in
  let c1 = cpu_s () in
  let g1 = Gc.quick_stat () in
  let gc =
    {
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    }
  in
  ({ wall_s = secs_between t0 t1; cpu_s = c1 -. c0; gc }, v)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Spans recorded around the benchmark's own calls into the library:
   name, start, end and parent, kept in memory and written once as Chrome
   trace_event JSON. Recording is off unless [enable] was called, so the
   plain runs pay one branch per span site. *)
module Spans = struct
  type t = {
    id : int;
    name : string;
    parent : int;
    start_ns : int64;
    mutable stop_ns : int64;
  }

  let enabled = ref false
  let finished : t list ref = ref []
  let stack : t list ref = ref []
  let next_id = ref 0
  let enable () = enabled := true

  let span name f =
    if not !enabled then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = match !stack with p :: _ -> p.id | [] -> -1 in
      let s = { id; name; parent; start_ns = now_ns (); stop_ns = 0L } in
      stack := s :: !stack;
      Fun.protect
        ~finally:(fun () ->
          s.stop_ns <- now_ns ();
          stack := List.tl !stack;
          finished := s :: !finished)
        f
    end

  let all () = List.rev !finished
  let dur_us s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e3

  (* A span's self time is its duration minus its children's. *)
  let self_us spans =
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            (dur_us s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
      spans;
    fun s -> dur_us s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)

  let write_chrome path =
    let spans = all () in
    let self = self_us spans in
    let t0 =
      List.fold_left (fun a s -> if Int64.compare s.start_ns a < 0 then s.start_ns else a)
        Int64.max_int spans
    in
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[";
    List.iteri
      (fun i s ->
        if i > 0 then output_string oc ",\n";
        Printf.fprintf oc
          "{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"self_us\":%.3f}}"
          s.name
          (Int64.to_float (Int64.sub s.start_ns t0) /. 1e3)
          (dur_us s) s.id s.parent (self s))
      spans;
    output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
    close_out oc
end

(* GC pause time from the runtime's own event ring: every domain's
   minor collections and major slices, in wall nanoseconds. *)
module Pauses = struct
  let cursor = ref None
  let open_ts : (int * Runtime_events.runtime_phase, int64) Hashtbl.t = Hashtbl.create 16
  let total_ns = ref 0L
  let lost = ref 0

  let counted = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring ts phase ->
        if counted phase then
          Hashtbl.replace open_ts (ring, phase) (Runtime_events.Timestamp.to_int64 ts))
      ~runtime_end:(fun ring ts phase ->
        if counted phase then
          match Hashtbl.find_opt open_ts (ring, phase) with
          | Some t0 ->
              Hashtbl.remove open_ts (ring, phase);
              total_ns :=
                Int64.add !total_ns
                  (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0)
          | None -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    match !cursor with
    | None -> ()
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)

  (* Pause seconds accumulated while [f] ran. The ring is drained before
     and after; events a full ring overwrote are counted in [lost]. *)
  let during f =
    poll ();
    let before = !total_ns in
    let v = f () in
    poll ();
    (Int64.to_float (Int64.sub !total_ns before) *. 1e-9, v)
end

(* Host speed during a timed call. On a 2-vCPU cloud VM whose physical
   cores are shared with other tenants, a core's speed swings by up to
   1.6-1.8x in phases of 0.5 s to tens of seconds, and the two vCPUs
   swing independently; the wall rate of one call moves with those
   phases far more than with the code. So while a call runs, a timer
   interrupts it every [period_s] and times a short fixed kernel
   (benchmark code, never the simulator's); the mean kernel time over
   the call says how fast the core was, and the call's rate is scaled
   to the [nominal_s] core. perfbench/README.md has the measurements. *)
module Host_speed = struct
  let period_s = 0.005
  let iterations = 20_000

  (* Kernel seconds on the nominal core: about the uncontended time on a
     2 GHz Xeon. Scaled rates are requests per second on that core. *)
  let nominal_s = 80e-6

  (* Integer hashing, branches and loads within L1/L2, like the
     simulators' inner loops. *)
  let table = Array.make 4096 0

  let kernel () =
    let s = ref 7 and acc = ref 0 in
    for i = 1 to iterations do
      s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
      let j = (!s lsr 8) land 4095 in
      if table.(j) > i then acc := !acc + table.(j)
      else table.(j) <- table.(j) + (!s land 255);
      acc := !acc lxor table.(j * 31 land 4095)
    done;
    ignore (Sys.opaque_identity !acc)

  let active = ref false
  let busy_ns = ref 0L
  let samples = ref 0

  (* Installed once and never removed, so a tick still pending when the
     timer stops finds a handler that does nothing. *)
  let installed =
    lazy
      (Sys.set_signal Sys.sigalrm
         (Sys.Signal_handle
            (fun _ ->
              if !active then begin
                let t0 = now_ns () in
                kernel ();
                busy_ns := Int64.add !busy_ns (Int64.sub (now_ns ()) t0);
                incr samples
              end)))

  type t = { busy_s : float;  (** Time the samples took. *) samples : int }

  let timer interval =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = interval; it_value = interval })

  let during f =
    Lazy.force installed;
    busy_ns := 0L;
    samples := 0;
    active := true;
    timer period_s;
    let v =
      Fun.protect f ~finally:(fun () ->
          timer 0.0;
          active := false)
    in
    ({ busy_s = Int64.to_float !busy_ns *. 1e-9; samples = !samples }, v)

  (* [wall_s] minus the samples' own time, and the factor that scales a
     rate over it to the nominal core. *)
  let net_wall t ~wall_s = wall_s -. t.busy_s
  let scale t = if t.samples = 0 then nan else t.busy_s /. float_of_int t.samples /. nominal_s
end
