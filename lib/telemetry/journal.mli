(** The causal event journal: an append-only JSONL record of every
    lifecycle event in a run, linked into one tree by span ids.

    The span id space is the coordinator's lease/task id space: lease
    [n] and journal span [n] are the same thing, span [0] is the job
    (root) span, and a replayed lease's fresh span carries the revoked
    original as its parent — so steals, spills, revocations and
    replays stay causally connected across failures. The shared-memory
    runtime allocates spans from its own counter with the same shape
    (root task = span of parent 0).

    Two layers:
    - {!emit}/{!write_batches}: the process that owns the file
      (coordinator, [yewpar serve], the shm main thread) appends
      lifecycle events directly and folds drained per-worker
      {!Recorder} batches into lines. One JSON object per line,
      versioned schema, size-based rotation.
    - {!read}/{!report}: tolerant reader and the [yewpar analyze
      --journal] report (critical path, overhead breakdown, top-K
      leases, flame summary).

    JSONL schema, version {!schema_version} — every field present on
    every line:
    {v
    {"v":1,"trace":"run-...","ev":"task","span":17,"parent":4,
     "loc":1,"worker":0,"ts":1723...,"at":0.0213,"dur":0.0041,
     "value":0,"note":""}
    v}
    [ts] is the emitter's wall clock; [at] is seconds since the
    writer's epoch on the writer's clock (per-batch offsets align each
    locality's [ts] before [at] is derived, so [at] values are
    comparable across processes). [parent] is [null] for root events.
    The event kinds are the closed variant {!kind}; an unknown kind on
    a v1 line is a producer bug, extensions must bump the version. *)

val schema_version : int

(* ------------------------------ kinds ------------------------------ *)

type kind =
  | Job_start  (** span 0 opens *)
  | Job_done  (** span 0 closes; [dur] = wall time *)
  | Task  (** a worker executed a task of [span]; [value] = depth *)
  | Steal  (** work obtained after a dry spell; [dur] = steal latency *)
  | Idle  (** one per worker at the end: total blocked time *)
  | Bound  (** an incumbent improvement; [value] = the bound *)
  | Witness  (** a decision witness reached the coordinator *)
  | Spawn  (** shm: task [span] created by task [parent] *)
  | Spill  (** a locality shed a task; the coordinator made it a lease *)
  | Lease_issue
  | Lease_retire
  | Lease_revoke
  | Lease_replay  (** [parent] = the revoked original *)
  | Locality_dead
  | Respawn
  | Progress_sample
  | Journal_drop  (** [value] = records dropped by full rings *)
  | Job_submitted
  | Job_scheduled
  | Job_finished

val kinds : kind list
(** Every constructor, once. *)

val kind_name : kind -> string
(** The [ev] field value ([job_start], [lease_issue], ...). *)

(* ----------------------------- writer ----------------------------- *)

type writer

val create : ?max_bytes:int -> ?trace:string -> path:string -> unit -> writer
(** Open (truncate) [path] for appending events. [trace] is the
    default trace id stamped on written events (a fresh [run-xxxxxx]
    id when omitted). When the file exceeds [max_bytes] (default 64
    MiB) it is rotated: renamed to [path ^ ".1"] (replacing any
    previous rotation) and reopened. The writer is thread-safe — the
    job server writes from concurrent per-job threads. *)

val trace : writer -> string
(** The writer's default trace id. *)

val emit :
  ?trace:string ->
  ?parent:int ->
  ?locality:int ->
  ?worker:int ->
  ?t:float ->
  ?dur:float ->
  ?value:int ->
  ?note:string ->
  writer ->
  kind ->
  span:int ->
  unit
(** Append one lifecycle event (job brackets, lease lifecycle, faults,
    progress samples, serve jobs). [trace] overrides the writer's
    default trace id; [t] defaults to [Unix.gettimeofday ()], the
    numeric defaults are [-1]/[-1]/[-1]/[0.]/[0] and [note] [""]. *)

type tally
(** Per-locality state of the ring fold: idle time per worker and the
    drop count, written once by {!write_totals}. *)

val tally : unit -> tally

val write_batches :
  ?trace:string ->
  ?offset:float ->
  writer ->
  tally ->
  locality:int ->
  Recorder.batch list ->
  unit
(** Fold drained ring records into lines: [Task] records become
    [task], [Spawn] [spawn], [Steal_success] [steal] and
    [Bound_update] [bound] lines, each with the record's span, parent,
    worker, start, duration and argument (as [value]); [Idle] records
    and drop counts accumulate in the tally; the other ring kinds are
    trace-only. [offset] (default [0.]) is added to each record's
    start to translate the emitter's clock onto the writer's before
    [at] is derived — the coordinator passes its per-locality clock
    offset. *)

val write_totals :
  ?trace:string ->
  ?offset:float ->
  writer ->
  tally ->
  locality:int ->
  t:float ->
  unit
(** Write the tally at emitter time [t] and reset it: one [idle] line
    per worker that waited, then a [journal_drop] line if any record
    was dropped. *)

val written : writer -> int
(** Total events written since [create]. *)

val rotations : writer -> int
val close : writer -> unit

(* ----------------------------- reader ----------------------------- *)

type entry = {
  e_trace : string;
  e_ev : kind;
  e_span : int;
  e_parent : int;  (** [-1] when the JSON parent is [null] *)
  e_locality : int;
  e_worker : int;
  e_ts : float;
  e_at : float;
  e_dur : float;
  e_value : int;
  e_note : string;
}

val read : string -> entry list * int
(** Read a journal file (prepending [path ^ ".1"] if a rotation
    exists), skipping lines that fail to parse, carry an unknown
    schema version or name an unknown kind. Returns the entries in
    file order and the number of malformed lines skipped. *)

val read_string : string -> entry list * int
(** [read] over in-memory JSONL content (one file only). *)

(* ----------------------------- report ----------------------------- *)

val report : ?top:int -> entry list -> string
(** The [yewpar analyze --journal] report, one section per trace id:
    the critical path through the span tree (the heaviest
    root-to-leaf chain by measured task time, each hop's contribution
    counted as its task intervals' measure net of time already covered
    higher up the path — so the path total never exceeds wall clock),
    an overhead breakdown of accounted worker time (compute vs
    replayed/wasted compute vs steal-wait vs idle, fractions summing
    to 1), the [top] (default 5) longest leases by self time, a
    flame-ordered (depth-first) span summary, and a causal-link check
    counting parent references that resolve to an emitted span. *)
