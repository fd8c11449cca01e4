(** Shared-memory parallel skeletons on OCaml 5 domains.

    The multicore half of the paper's two deployment scales: real
    parallel execution with an atomic incumbent (lock-free CAS
    maximisation), a mutex-protected order-preserving central workpool
    and a global short-circuit flag. All three parallel coordinations
    are supported:

    - Depth-Bounded: tasks above the cutoff push their children to the
      pool;
    - Budget: a task exceeding its backtrack budget sheds its
      lowest-depth subtrees to the pool;
    - Stack-Stealing: running workers split their lowest-depth subtree
      on demand whenever idle workers are waiting on an empty pool
      (work pushing, the shared-memory analogue of the paper's
      victim-side splitting).

    Results equal the sequential skeleton's up to the documented
    nondeterminism of optimisation/decision witnesses. On a single-core
    machine the skeletons still run correctly (domains time-slice);
    speedups obviously require real cores. *)

val run :
  ?workers:int -> ?stats:Yewpar_core.Stats.t ->
  ?telemetry:Yewpar_telemetry.Telemetry.t ->
  ?journal:Yewpar_telemetry.Journal.writer ->
  ?monitor_port:int ->
  ?on_monitor:(int -> unit) ->
  ?progress:bool ->
  coordination:Yewpar_core.Coordination.t ->
  ('space, 'node, 'result) Yewpar_core.Problem.t -> 'result
(** [run ~coordination p] executes [p] on [workers] domains (default:
    [Domain.recommended_domain_count ()]). [Sequential] coordination
    delegates to {!Yewpar_core.Sequential.search}. When [stats] is
    supplied, node/prune/task/steal/bound-update counters aggregated
    across all domains are accumulated into it after the join, along
    with per-depth profiles ({!Yewpar_core.Depth_profile}) and the
    recorders' ring-overflow drop count.

    When [telemetry] or [journal] is supplied, every worker domain
    records into a preallocated {!Yewpar_telemetry.Recorder} ring
    (locality 0, worker = domain index): task executions, spawns,
    steals, idle waits, bound updates and pool depths. With no
    coordinator in this runtime, span ids are allocated from an
    in-process counter — every enqueued task gets a fresh span whose
    [spawn] record names its parent, the spawning task's span (the
    root task is span 1 under the job, span 0). A background thread
    drains the rings every 50 ms, off the worker domains, and feeds
    each drain to both the [telemetry] sink and the [journal]
    ({!Yewpar_telemetry.Journal.write_batches}), which also gets the
    job brackets, progress samples, one [idle] total per worker and
    the drop count. Recording never changes the search: the traced
    and untraced runs process the same nodes. [Sequential]
    coordination records one task ({!Yewpar_telemetry.Telemetry.solo})
    so baselines land in the same pipelines.

    When [monitor_port] is supplied (parallel coordinations only; [0]
    binds an ephemeral port reported through [on_monitor]), the run
    serves [GET /metrics] (a [yewpar_live_*] Prometheus gauge registry
    computed from the shared counters on each scrape) and
    [GET /status] (a JSON snapshot) on [127.0.0.1] for its duration
    ({!Yewpar_telemetry.Http_export}); the port closes before [run]
    returns.

    [progress] (default true) keeps the tree-size estimator columns
    ({!Yewpar_core.Progress}) recording: the monitor then carries a
    [progress] block in [/status], [yewpar_progress_*] gauges in
    [/metrics], and a journalled [progress_sample] roughly every
    second (plus a final clamped one before [job_done]).
    [~progress:false] — used by the bench overhead A/B — removes the
    per-node cost and every progress surface. *)
