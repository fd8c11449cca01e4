type kind =
  | Task
  | Steal_attempt
  | Steal_success
  | Idle
  | Bound_update
  | Spill
  | Pool
  | Spawn

let kind_name = function
  | Task -> "task"
  | Steal_attempt -> "steal_attempt"
  | Steal_success -> "steal_success"
  | Idle -> "idle"
  | Bound_update -> "bound_update"
  | Spill -> "spill"
  | Pool -> "pool"
  | Spawn -> "spawn"

let kind_tag = function
  | Task -> 0
  | Steal_attempt -> 1
  | Steal_success -> 2
  | Idle -> 3
  | Bound_update -> 4
  | Spill -> 5
  | Pool -> 6
  | Spawn -> 7

let kind_of_tag = function
  | 0 -> Task
  | 1 -> Steal_attempt
  | 2 -> Steal_success
  | 3 -> Idle
  | 4 -> Bound_update
  | 5 -> Spill
  | 6 -> Pool
  | 7 -> Spawn
  | n -> invalid_arg (Printf.sprintf "Recorder.kind_of_tag: %d" n)

let default_capacity = 65536

(* Flat parallel arrays, slot = index mod cap: a record is six stores
   and one atomic publish, never an allocation. [head] (records
   written) belongs to the producer and [tail] (records drained) to the
   single consumer; each side only reads the other's counter, so slots
   in [tail, head) are never written while the consumer reads them. *)
type t = {
  w : int;
  cap : int;
  tags : int array;
  starts : float array;
  durs : float array;
  args : int array;
  spans : int array;
  parents : int array;
  head : int Atomic.t;
  tail : int Atomic.t;
  lost : int Atomic.t;
  mutable reported : int;  (* consumer-side: drops already in a batch *)
  mutable cur : int;  (* producer-side: the span being executed *)
  mutable last : float;
}

let make ~worker cap =
  {
    w = worker;
    cap;
    tags = Array.make cap 0;
    starts = Array.make cap 0.;
    durs = Array.make cap 0.;
    args = Array.make cap 0;
    spans = Array.make cap 0;
    parents = Array.make cap 0;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    lost = Atomic.make 0;
    reported = 0;
    cur = 0;
    last = 0.;
  }

let create ?(capacity = default_capacity) ~worker () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
  make ~worker capacity

let null = make ~worker:(-1) 0

let clock = Unix.gettimeofday

let now t =
  if t.cap = 0 then 0.
  else begin
    let c = clock () in
    if c > t.last then t.last <- c;
    t.last
  end

let enter t span = if t.cap > 0 then t.cur <- span

let record t k ~start ~dur ~arg ~span ~parent =
  if t.cap > 0 then begin
    let h = Atomic.get t.head in
    if h - Atomic.get t.tail >= t.cap then Atomic.incr t.lost
    else begin
      let i = h mod t.cap in
      t.tags.(i) <- kind_tag k;
      t.starts.(i) <- start;
      t.durs.(i) <- (if dur < 0. then 0. else dur);
      t.args.(i) <- arg;
      t.spans.(i) <- span;
      t.parents.(i) <- parent;
      Atomic.set t.head (h + 1)
    end
  end

let span_dur t k ~start ~dur ~arg =
  record t k ~start ~dur ~arg ~span:t.cur ~parent:(-1)

let span t k ~start ~arg =
  if t.cap > 0 then span_dur t k ~start ~dur:(now t -. start) ~arg

let instant t k ~arg =
  if t.cap > 0 then span_dur t k ~start:(now t) ~dur:0. ~arg

let recorded t = Atomic.get t.head + Atomic.get t.lost
let dropped t = Atomic.get t.lost

type batch = {
  b_worker : int;
  b_tags : int array;
  b_starts : float array;
  b_durs : float array;
  b_args : int array;
  b_spans : int array;
  b_parents : int array;
  b_dropped : int;
}

let drain t =
  let lo = Atomic.get t.tail in
  let hi = Atomic.get t.head in
  let lost = Atomic.get t.lost in
  let col a = Array.init (hi - lo) (fun j -> a.((lo + j) mod t.cap)) in
  let b =
    {
      b_worker = t.w;
      b_tags = col t.tags;
      b_starts = col t.starts;
      b_durs = col t.durs;
      b_args = col t.args;
      b_spans = col t.spans;
      b_parents = col t.parents;
      b_dropped = lost - t.reported;
    }
  in
  t.reported <- lost;
  Atomic.set t.tail hi;
  b

let length b = Array.length b.b_tags
