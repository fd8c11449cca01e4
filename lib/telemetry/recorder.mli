(** Per-worker event ring for the real runtimes: the one place a worker
    or a locality communicator records what it did.

    Each worker domain owns one recorder: a {e preallocated} ring of
    fixed capacity holding one record per slot in flat [int]/[float]
    arrays, so the hot path neither allocates nor takes a lock —
    recording is a clock read, six array stores and one atomic
    publish. Every record carries a causal span id and parent span id
    besides its kind, start, duration and argument.

    A ring has exactly one producer (its owning domain or thread) and
    at most one consumer, which takes new records with {!drain} while
    the producer keeps writing. When the consumer falls behind and the
    ring is full, the {e newest} record is refused and counted in
    {!dropped}; the records already in the ring always survive, and
    every surface built from drains (trace, metrics, journal) reports
    the same count.

    Timestamps come from {!clock} (wall-clock seconds with a
    per-recorder monotonic guard: time never goes backwards within one
    recorder, so spans are always well-formed even across NTP steps).
    A disabled recorder ({!null}) short-circuits every operation —
    [now] returns [0.] without reading the clock — so instrumented
    runtimes pay one branch per event when recording is off. *)

type kind =
  | Task  (** Executing one task (a spawned subtree). [arg] = task depth. *)
  | Steal_attempt  (** A worker (shm) or locality (dist) went looking for work. *)
  | Steal_success
      (** Work obtained after a dry spell; the duration is the steal
          latency (dry pool to task in hand). [span] = the stolen task. *)
  | Idle  (** Blocked waiting for work. [arg] = 0. *)
  | Bound_update  (** An incumbent improvement was applied. [arg] = new bound. *)
  | Spill  (** dist: a task was shed to the coordinator. [arg] = local pool size. *)
  | Pool  (** Pool-depth sample after a push. [arg] = pool size. *)
  | Spawn
      (** shm: a task was created. [span] = the new task's span,
          [parent] = the spawning task's span, [arg] = its depth. *)

val kind_name : kind -> string
(** Stable lowercase name ([task], [steal_attempt], ...). *)

val kind_of_tag : int -> kind
(** Inverse of the storage tag; @raise Invalid_argument on junk. *)

val kind_tag : kind -> int
(** Dense integer tag stored in ring slots and batches. *)

type t

val default_capacity : int
(** 65536 records: the one ring size of every runtime. *)

val create : ?capacity:int -> worker:int -> unit -> t
(** A recorder for worker [worker] with all storage preallocated
    (default {!default_capacity}). @raise Invalid_argument if
    [capacity < 1]. *)

val null : t
(** The disabled recorder: capacity 0, never records, [now] is [0.]. *)

val clock : unit -> float
(** The raw clock (seconds). Use for cross-process epoch samples. *)

val now : t -> float
(** Current time for this recorder, or [0.] when disabled (skips the
    clock read so disabled call sites cost one branch). *)

val enter : t -> int -> unit
(** Set the span the producer is executing (initially [0], the job):
    {!span}, {!span_dur} and {!instant} record under it. *)

val record :
  t -> kind -> start:float -> dur:float -> arg:int -> span:int -> parent:int ->
  unit
(** Record one event with explicit causal ids. No-op when disabled;
    counted in {!dropped} when the ring is full. *)

val span : t -> kind -> start:float -> arg:int -> unit
(** Record a span from [start] to the current time under the current
    span (parent [-1]). *)

val span_dur : t -> kind -> start:float -> dur:float -> arg:int -> unit
(** Record a span with an explicit duration (e.g. a steal latency
    measured by another clock read). *)

val instant : t -> kind -> arg:int -> unit
(** Record a zero-duration event at the current time. *)

val recorded : t -> int
(** Total records ever offered (including dropped ones). *)

val dropped : t -> int
(** Records refused because the ring was full. *)

(** Marshal-safe run of drained records: plain arrays in recording
    order, suitable for a wire frame. *)
type batch = {
  b_worker : int;
  b_tags : int array;  (** {!kind_tag} per record. *)
  b_starts : float array;  (** Absolute start times, recorder clock. *)
  b_durs : float array;
  b_args : int array;
  b_spans : int array;
  b_parents : int array;  (** [-1] = none. *)
  b_dropped : int;  (** Records dropped since the previous drain. *)
}

val drain : t -> batch
(** Take every record written since the previous drain, oldest first,
    and free their slots. Single consumer: at most one thread may
    drain a given recorder, concurrently with its producer. *)

val length : batch -> int
