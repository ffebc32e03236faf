(* Ladder/calendar event queue, struct-of-arrays.

   Items are events (time, seq, h, a, b, x) ordered by (time, seq) with
   Float.compare/Int.compare semantics on finite keys. Storage is three
   bands:

   - [opened]: a small binary min-heap holding the events of the bucket
     currently being drained (plus any event pushed at or before its
     upper bound, e.g. zero-delay messages);
   - a stack of rungs, each a window of [nbuckets] append-only unsorted
     buckets of width [rung.width]; an oversized bucket is split into a
     finer child rung instead of being heaped, which keeps the heap
     small under bursts;
   - [far]: a min-heap for events beyond the outermost rung. When every
     rung is exhausted the far band is scattered into a fresh rung whose
     width is fitted to the observed span.

   All bands store events in parallel scalar arrays (no per-event boxes),
   and the queue's own float scalars live in an all-float record, so
   pushing or popping allocates nothing once capacity is reached. *)

type vec = {
  mutable t : float array;
  mutable s : int array;
  mutable h : int array;
  mutable a : int array;
  mutable b : int array;
  mutable x : float array;
  mutable len : int;
}

let vec_make () =
  { t = [||]; s = [||]; h = [||]; a = [||]; b = [||]; x = [||]; len = 0 }

let vec_reserve v =
  if v.len = Array.length v.t then begin
    let cap = max 16 (2 * Array.length v.t) in
    let grow_f old =
      let n = Array.make cap 0.0 in
      Array.blit old 0 n 0 v.len; n
    and grow_i old =
      let n = Array.make cap 0 in
      Array.blit old 0 n 0 v.len; n
    in
    v.t <- grow_f v.t;
    v.s <- grow_i v.s;
    v.h <- grow_i v.h;
    v.a <- grow_i v.a;
    v.b <- grow_i v.b;
    v.x <- grow_f v.x
  end

let[@inline] vec_push v ~time ~seq ~h ~a ~b ~x =
  vec_reserve v;
  let i = v.len in
  Array.unsafe_set v.t i time;
  Array.unsafe_set v.s i seq;
  Array.unsafe_set v.h i h;
  Array.unsafe_set v.a i a;
  Array.unsafe_set v.b i b;
  Array.unsafe_set v.x i x;
  v.len <- i + 1

(* --- binary-heap operations over a vec, keyed by (time, seq) -----------

   Sifts move the hole, not the item: the six payload words are written
   exactly once, at the hole's final position. Indices are maintained
   internally, so unchecked accesses are safe. *)

let copy_slot v ~src ~dst =
  Array.unsafe_set v.t dst (Array.unsafe_get v.t src);
  Array.unsafe_set v.s dst (Array.unsafe_get v.s src);
  Array.unsafe_set v.h dst (Array.unsafe_get v.h src);
  Array.unsafe_set v.a dst (Array.unsafe_get v.a src);
  Array.unsafe_set v.b dst (Array.unsafe_get v.b src);
  Array.unsafe_set v.x dst (Array.unsafe_get v.x src)

let[@inline] write_slot v i ~time ~seq ~h ~a ~b ~x =
  Array.unsafe_set v.t i time;
  Array.unsafe_set v.s i seq;
  Array.unsafe_set v.h i h;
  Array.unsafe_set v.a i a;
  Array.unsafe_set v.b i b;
  Array.unsafe_set v.x i x

let[@inline] heap_push v ~time ~seq ~h ~a ~b ~x =
  vec_reserve v;
  let i = ref v.len in
  v.len <- v.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = Array.unsafe_get v.t p in
    if time < tp || (time = tp && seq < Array.unsafe_get v.s p) then begin
      copy_slot v ~src:p ~dst:!i;
      i := p
    end
    else continue := false
  done;
  write_slot v !i ~time ~seq ~h ~a ~b ~x

(* Sink the event stored at [src], just past the [v.len] heap items, to
   its heap position starting from [hole]. The event is read in place
   rather than passed in: [time] and [x] would be boxed at the call. *)
let sift_hole_down v hole ~src =
  let time = Array.unsafe_get v.t src and seq = Array.unsafe_get v.s src in
  let n = v.len in
  let i = ref hole in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n then begin
          let tl = Array.unsafe_get v.t l and tr = Array.unsafe_get v.t r in
          if
            tr < tl
            || (tr = tl && Array.unsafe_get v.s r < Array.unsafe_get v.s l)
          then r
          else l
        end
        else l
      in
      let tc = Array.unsafe_get v.t c in
      if tc < time || (tc = time && Array.unsafe_get v.s c < seq) then begin
        copy_slot v ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    end
  done;
  copy_slot v ~src ~dst:!i

(* Insertion sort by (time, seq). Dumped buckets arrive in push order, so
   ties (and the degenerate all-same-time bucket) are already sorted and
   cost two comparisons per element. *)
let sort_vec v =
  for i = 1 to v.len - 1 do
    let time = Array.unsafe_get v.t i and seq = Array.unsafe_get v.s i in
    let tp = Array.unsafe_get v.t (i - 1) in
    if tp > time || (tp = time && Array.unsafe_get v.s (i - 1) > seq) then begin
      let h = Array.unsafe_get v.h i
      and a = Array.unsafe_get v.a i
      and b = Array.unsafe_get v.b i
      and x = Array.unsafe_get v.x i in
      let j = ref (i - 1) in
      copy_slot v ~src:!j ~dst:i;
      decr j;
      let continue = ref true in
      while !continue && !j >= 0 do
        let tj = Array.unsafe_get v.t !j in
        if tj > time || (tj = time && Array.unsafe_get v.s !j > seq) then begin
          copy_slot v ~src:!j ~dst:(!j + 1);
          decr j
        end
        else continue := false
      done;
      write_slot v (!j + 1) ~time ~seq ~h ~a ~b ~x
    end
  done

let heap_drop_root v =
  let last = v.len - 1 in
  v.len <- last;
  if last > 0 then sift_hole_down v 0 ~src:last

(* --- rungs -------------------------------------------------------------- *)

(* A rung's window, all floats so that it is stored flat (see [floats]
   below): a far-band refill or a split rewrites it without boxing. *)
type window = {
  mutable start : float;
  mutable width : float;  (* per-bucket time width *)
  mutable inv_width : float;  (* 1 / width, so indexing multiplies *)
}

type rung = {
  g : window;
  mutable cur : int;      (* buckets below [cur] are drained *)
  mutable count : int;    (* events currently stored in this rung *)
  buckets : vec array;
}

let max_rungs = 24

(* The queue's float scalars. A record of floats only is stored flat,
   so these writes allocate nothing; as [mutable float] fields of [t],
   which also holds non-floats, each write would box a fresh float. *)
type floats = {
  mutable open_bound : float;
      (* events strictly below this time belong to [opened] *)
  mutable far_max : float;
  mutable c_time : float;  (* pop cursor, with [c_seq] .. [c_b] *)
  mutable c_x : float;
}

type t = {
  nbuckets : int;
  split_threshold : int;
  run : vec;  (* current bucket, sorted; drained by [run_pos] *)
  mutable run_pos : int;
  opened : vec;
      (* overflow min-heap: events pushed below [f.open_bound] while the
         run drains (zero-delay messages, reentrant posts) *)
  far : vec;
  mutable rungs : rung array;  (* pooled; [nrungs] are active *)
  mutable nrungs : int;
  mutable size : int;
  f : floats;
  (* pop cursor *)
  mutable c_seq : int;
  mutable c_h : int;
  mutable c_a : int;
  mutable c_b : int;
}

let create ?(buckets = 64) ?(split_threshold = 64) () =
  if buckets < 2 then invalid_arg "Ladder_queue.create: buckets";
  {
    nbuckets = buckets;
    split_threshold = max 4 split_threshold;
    run = vec_make ();
    run_pos = 0;
    opened = vec_make ();
    far = vec_make ();
    rungs = [||];
    nrungs = 0;
    size = 0;
    f =
      { open_bound = neg_infinity; far_max = neg_infinity; c_time = 0.0;
        c_x = 0.0 };
    c_seq = 0;
    c_h = 0;
    c_a = 0;
    c_b = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

let fresh_rung t =
  if t.nrungs = Array.length t.rungs then begin
    let r =
      {
        g = { start = 0.0; width = 1.0; inv_width = 1.0 };
        cur = 0;
        count = 0;
        buckets = Array.init t.nbuckets (fun _ -> vec_make ());
      }
    in
    t.rungs <- Array.append t.rungs [| r |]
  end;
  let r = t.rungs.(t.nrungs) in
  t.nrungs <- t.nrungs + 1;
  r.cur <- 0;
  r.count <- 0;
  r

let[@inline] bucket_index r time =
  let i = int_of_float ((time -. r.g.start) *. r.g.inv_width) in
  if i < 0 then 0 else if i >= Array.length r.buckets then Array.length r.buckets - 1 else i

let[@inline] rung_end r = r.g.start +. (r.g.width *. float_of_int (Array.length r.buckets))

(* A loop over rung indices rather than a recursive local function:
   a local closure would be allocated on every push and would keep
   [push] from being inlined, boxing [time] and [x] at each call. *)
let[@inline] push t ~time ~seq ~h ~a ~b ~x =
  t.size <- t.size + 1;
  if time < t.f.open_bound then heap_push t.opened ~time ~seq ~h ~a ~b ~x
  else begin
    (* innermost (finest) rung first: it covers the bucket its parent is
       currently processing. *)
    let i = ref (t.nrungs - 1) in
    while !i >= 0 && not (time < rung_end t.rungs.(!i)) do
      decr i
    done;
    if !i < 0 then begin
      heap_push t.far ~time ~seq ~h ~a ~b ~x;
      if time > t.f.far_max then t.f.far_max <- time
    end
    else begin
      let r = t.rungs.(!i) in
      let idx = bucket_index r time in
      if idx < r.cur then
        (* float boundary disagreement with [open_bound]: the bucket is
           already drained, so the event joins the open heap. *)
        heap_push t.opened ~time ~seq ~h ~a ~b ~x
      else begin
        vec_push r.buckets.(idx) ~time ~seq ~h ~a ~b ~x;
        r.count <- r.count + 1
      end
    end
  end

(* Scatter [v] into rung [r] (whose window covers every item), leaving
   [v] empty. *)
let scatter r v =
  for i = 0 to v.len - 1 do
    let time = Array.unsafe_get v.t i in
    let idx = bucket_index r time in
    let dst = r.buckets.(idx) in
    vec_push dst ~time ~seq:(Array.unsafe_get v.s i)
      ~h:(Array.unsafe_get v.h i) ~a:(Array.unsafe_get v.a i)
      ~b:(Array.unsafe_get v.b i) ~x:(Array.unsafe_get v.x i)
  done;
  r.count <- r.count + v.len;
  v.len <- 0

(* Move every event of bucket vec [v] into the (exhausted) run and sort
   it; subsequent pops advance a cursor instead of sifting a heap. *)
let dump_into_run t v =
  let run = t.run in
  run.len <- 0;
  t.run_pos <- 0;
  for i = 0 to v.len - 1 do
    vec_push run ~time:(Array.unsafe_get v.t i) ~seq:(Array.unsafe_get v.s i)
      ~h:(Array.unsafe_get v.h i) ~a:(Array.unsafe_get v.a i)
      ~b:(Array.unsafe_get v.b i) ~x:(Array.unsafe_get v.x i)
  done;
  v.len <- 0;
  sort_vec run

let vec_time_span v =
  let mn = ref infinity and mx = ref neg_infinity in
  for i = 0 to v.len - 1 do
    if v.t.(i) < !mn then mn := v.t.(i);
    if v.t.(i) > !mx then mx := v.t.(i)
  done;
  !mx -. !mn

(* Build a fresh bottom rung from the whole far band. *)
let refill_from_far t =
  let start = t.far.t.(0) in
  let span = t.f.far_max -. start in
  let width =
    if span <= 0.0 then 1.0
    else span /. float_of_int (t.nbuckets - 1)
  in
  let r = fresh_rung t in
  r.g.start <- start;
  r.g.width <- width;
  r.g.inv_width <- 1.0 /. width;
  scatter r t.far;
  t.f.far_max <- neg_infinity;
  t.f.open_bound <- start

let rec ensure_opened t =
  if t.run_pos >= t.run.len && t.opened.len = 0 && t.size > 0 then begin
    if t.nrungs = 0 then refill_from_far t
    else begin
      let r = t.rungs.(t.nrungs - 1) in
      if r.cur >= Array.length r.buckets || r.count = 0 then begin
        (* rung exhausted: resume the parent at its next bucket *)
        t.nrungs <- t.nrungs - 1;
        if t.nrungs > 0 then begin
          let parent = t.rungs.(t.nrungs - 1) in
          parent.cur <- parent.cur + 1;
          t.f.open_bound <- parent.g.start +. (parent.g.width *. float_of_int parent.cur)
        end
      end
      else begin
        let v = r.buckets.(r.cur) in
        if v.len = 0 then begin
          r.cur <- r.cur + 1;
          t.f.open_bound <- r.g.start +. (r.g.width *. float_of_int r.cur)
        end
        else if
          v.len > t.split_threshold
          && t.nrungs < max_rungs
          && r.g.width > 1e-12
          && vec_time_span v > 0.0
        then begin
          (* split: a finer child rung over exactly this bucket *)
          let child = fresh_rung t in
          child.g.start <- r.g.start +. (r.g.width *. float_of_int r.cur);
          child.g.width <- r.g.width /. float_of_int t.nbuckets;
          child.g.inv_width <- 1.0 /. child.g.width;
          r.count <- r.count - v.len;
          scatter child v
          (* open_bound unchanged: it already equals child.g.start *)
        end
        else begin
          r.count <- r.count - v.len;
          dump_into_run t v;
          r.cur <- r.cur + 1;
          t.f.open_bound <- r.g.start +. (r.g.width *. float_of_int r.cur)
        end
      end
    end;
    ensure_opened t
  end

(* The overflow heap only ever holds events earlier than everything still
   banded in rungs or far, so the head of the line is the smaller of the
   run cursor and the overflow root. *)
let take_run t =
  if t.run_pos >= t.run.len then false
  else if t.opened.len = 0 then true
  else begin
    let rt = Array.unsafe_get t.run.t t.run_pos
    and ot = Array.unsafe_get t.opened.t 0 in
    rt < ot
    || (rt = ot && Array.unsafe_get t.run.s t.run_pos < Array.unsafe_get t.opened.s 0)
  end

let min_time t =
  if t.size = 0 then invalid_arg "Ladder_queue.min_time: empty";
  ensure_opened t;
  if take_run t then t.run.t.(t.run_pos) else t.opened.t.(0)

let pop t =
  if t.size = 0 then false
  else begin
    ensure_opened t;
    (if take_run t then begin
       let v = t.run and i = t.run_pos in
       t.f.c_time <- Array.unsafe_get v.t i;
       t.c_seq <- Array.unsafe_get v.s i;
       t.c_h <- Array.unsafe_get v.h i;
       t.c_a <- Array.unsafe_get v.a i;
       t.c_b <- Array.unsafe_get v.b i;
       t.f.c_x <- Array.unsafe_get v.x i;
       t.run_pos <- i + 1
     end
     else begin
       let v = t.opened in
       t.f.c_time <- v.t.(0);
       t.c_seq <- v.s.(0);
       t.c_h <- v.h.(0);
       t.c_a <- v.a.(0);
       t.c_b <- v.b.(0);
       t.f.c_x <- v.x.(0);
       heap_drop_root v
     end);
    t.size <- t.size - 1;
    true
  end

(* Like [pop] gated on the head's time, but with [ensure_opened] and the
   run-vs-overflow choice done once — [pop] would redo both after the
   bound check, and this is the inner loop of the sharded engine's epoch
   drain. *)
let pop_until t ~bound =
  if t.size = 0 then false
  else begin
    ensure_opened t;
    if take_run t then begin
      let v = t.run and i = t.run_pos in
      let time = Array.unsafe_get v.t i in
      if time < bound then begin
        t.f.c_time <- time;
        t.c_seq <- Array.unsafe_get v.s i;
        t.c_h <- Array.unsafe_get v.h i;
        t.c_a <- Array.unsafe_get v.a i;
        t.c_b <- Array.unsafe_get v.b i;
        t.f.c_x <- Array.unsafe_get v.x i;
        t.run_pos <- i + 1;
        t.size <- t.size - 1;
        true
      end
      else false
    end
    else begin
      let v = t.opened in
      let time = v.t.(0) in
      if time < bound then begin
        t.f.c_time <- time;
        t.c_seq <- v.s.(0);
        t.c_h <- v.h.(0);
        t.c_a <- v.a.(0);
        t.c_b <- v.b.(0);
        t.f.c_x <- v.x.(0);
        heap_drop_root v;
        t.size <- t.size - 1;
        true
      end
      else false
    end
  end

let[@inline] time t = t.f.c_time
let seq t = t.c_seq
let[@inline] handler t = t.c_h
let[@inline] arg_a t = t.c_a
let[@inline] arg_b t = t.c_b
let[@inline] arg_x t = t.f.c_x
