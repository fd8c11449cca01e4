(** Trace assembly and export for the real runtimes.

    A [Telemetry.t] is the trace sink of a run: whoever drains the
    per-worker {!Recorder} rings (the shm flusher thread, the dist
    coordinator receiving each locality's heartbeat batches) {!ingest}s
    the drained batches, shifted by the estimated clock offset of the
    recording process so all spans land on one timeline. The journal
    is the other fold over the same batches
    ({!Journal.write_batches}). After the run, {!spans} sorts
    everything, and the exporters render it:

    - {!to_chrome} — Chrome trace-event JSON (open in Perfetto or
      chrome://tracing): one process group per locality, one track per
      worker, pool-depth samples as counter tracks;
    - {!to_csv} — the simulator's [worker,start,duration,label] CSV
      ({!Yewpar_sim.Trace.to_csv} parity), workers numbered densely
      across localities;
    - {!metrics}/{!to_prometheus} — a {!Metrics} registry derived from
      the merged trace (task-duration / steal-latency / idle-wait
      log-histograms, pool-depth histogram, event counters, drop
      counts) in Prometheus text exposition format.

    A sink is not thread-safe: exactly one thread ingests into it. *)

type span = {
  locality : int;
  worker : int;
  kind : Recorder.kind;
  start : float;  (** Seconds, coordinator-aligned clock. *)
  dur : float;
  arg : int;  (** Kind-dependent payload, see {!Recorder.kind}. *)
  label : string;
      (** Display name override; [""] (every runtime-recorded span)
          falls back to the kind name. Used when converting simulator
          traces, whose labels are richer than the kind set. *)
}

type t

val create : unit -> t
(** A fresh, empty sink. *)

val ingest : t -> locality:int -> offset:float -> Recorder.batch list -> unit
(** Adopt drained ring records; [offset] (seconds, added to every
    timestamp) aligns the recording process's clock with ours.
    [Spawn] records are journal-only and skipped. *)

val add_span : t -> span -> unit
(** Append a pre-built span (used to convert simulator traces). *)

val spans : t -> span list
(** Everything ingested so far, sorted by start time. *)

val dropped : t -> int
(** Total records lost to full rings across all ingested batches. *)

val solo : ?sink:t -> ?journal:Journal.writer -> (unit -> 'a) -> 'a
(** Run a one-worker search outside any parallel runtime (the [seq]
    paths of every runtime) through the same ring fold: one [task]
    record (span 1 under the job span 0) delivered to [sink] and
    [journal], the latter bracketed by [job_start]/[job_done]. *)

val to_chrome : t -> string
(** Chrome trace-event JSON. Timestamps are microseconds relative to
    the earliest span; [pid] = locality, [tid] = worker, with metadata
    records naming both. Durationful spans are ["ph":"X"] complete
    events, zero-duration marks are ["ph":"i"] instants, and {!Pool}
    samples are ["ph":"C"] counter events. *)

val to_csv : t -> string
(** [worker,start,duration,label] rows, the simulator's span CSV
    format; workers are densely renumbered across localities and
    starts are relative to the earliest span. *)

val metrics : t -> Metrics.t
(** Derive the metric catalogue (see MANUAL §4.2) from the merged
    trace. *)

val to_prometheus : t -> string
(** [Metrics.to_prometheus (metrics t)]. *)
