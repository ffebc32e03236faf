(** Discrete-event simulation engine: a simulated clock over a ladder
    event queue ({!Ladder_queue}). Events scheduled for the same instant
    fire in scheduling order (a monotone sequence number breaks ties),
    which keeps runs deterministic.

    Two scheduling planes share one timeline:

    - the {b packed} plane — {!register_handler} + {!post}/{!post_at} —
      stores events as plain scalars [(h, a, b, x)] and dispatches through
      a handler table. Queueing and popping allocate nothing once queue
      capacity is warm; the one allocation per event is the float [x]
      boxed when the handler closure is called (2 words), provided
      {!post}/{!post_at} are inlined into the caller (release profile:
      the dev profile's [-opaque] stops cross-module inlining, and a
      float crossing a call that is not inlined is boxed);
    - the {b closure} plane — {!schedule}/{!schedule_at} — accepts
      arbitrary thunks, parked in a slot store and fired by a reserved
      handler. Convenient for rare timers (ticks, timeouts) and tests.

    Simulators should post packed events for per-message work and reserve
    closures for low-frequency control events. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time, seconds. Starts at 0. *)

(** {2 Packed events} *)

val register_handler : t -> (int -> int -> float -> unit) -> int
(** Add a dispatch-table entry; the returned id is passed to {!post}.
    The handler receives the event payload [(a, b, x)]. Ids are engine-
    specific and never reused. *)

val post : t -> delay:float -> h:int -> a:int -> b:int -> x:float -> unit
(** Enqueue a packed event [delay] seconds from now for handler [h].
    [delay >= 0]. Allocation-free once queue capacity is warm, when
    inlined (see above). *)

val post_at : t -> time:float -> h:int -> a:int -> b:int -> x:float -> unit
(** Same at an absolute time [>= now]. *)

val post_batch :
  t ->
  len:int ->
  time:float array ->
  h:int array ->
  a:int array ->
  b:int array ->
  x:float array ->
  unit
(** Enqueue the first [len] events of five parallel field arrays (a
    mailbox slice) in one call: one validation pass and one seq-counter
    sweep instead of a {!post_at} per event. Events receive consecutive
    tie-breaking seqs in slice order — bit-identical scheduling to [len]
    single posts. The arrays are read, never kept.
    @raise Invalid_argument when [len] exceeds any array or any of the
    first [len] times is below [now]. *)

(** {2 Closure events} *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run a callback [delay] seconds from now. [delay >= 0]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Run a callback at an absolute time [>= now]. *)

(** {2 Driving the clock} *)

val pending : t -> int
(** Events still queued. *)

val step : t -> bool
(** Execute the next event; [false] when the queue is empty. *)

val step_below : t -> bound:float -> bool
(** Execute the next event only when its time is strictly below [bound];
    [false] when the queue is empty or the head is at or past the bound
    (nothing is dequeued, the clock does not move). *)

val drain_below : t -> bound:float -> unit
(** Execute every event with time strictly below [bound], including ones
    posted by handlers during the drain — one shard's share of an epoch
    in the sharded engine ({!Sharded_engine}). *)

val next_time : t -> float option
(** Time of the next queued event; [None] when the queue is empty. *)

val next_time_inf : t -> float
(** Same with [Float.infinity] as the empty sentinel — no [option] box,
    so the sharded engine's per-epoch minimum scan allocates nothing. *)

val advance_to : t -> time:float -> unit
(** Move the clock forward to [time] without executing anything (no-op
    when [time <= now]). The epoch barrier uses this to line shards up
    on a common boundary. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the queue. [until] stops the clock at that time (later events
    stay queued, [now] is clamped to [until]); [max_events] bounds the
    number of callbacks executed — a runaway guard. *)

val events_executed : t -> int
