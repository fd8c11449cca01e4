module Recorder = Yewpar_telemetry.Recorder
module Telemetry = Yewpar_telemetry.Telemetry
module Journal = Yewpar_telemetry.Journal
module Metrics = Yewpar_telemetry.Metrics
module Http_export = Yewpar_telemetry.Http_export
module Progress = Yewpar_telemetry.Progress
module Knowledge = Yewpar_core.Knowledge
module Ops = Yewpar_core.Ops
module Coordination = Yewpar_core.Coordination
module Problem = Yewpar_core.Problem
module Sequential = Yewpar_core.Sequential
module Counters = Yewpar_runtime.Counters
module Task_pool = Yewpar_runtime.Task_pool
module Two_tier = Yewpar_runtime.Two_tier
module Worker = Yewpar_runtime.Worker

let parallel_run (type s n r) ~n_workers ?stats ?telemetry ?journal
    ?monitor_port ?on_monitor ?(progress = true) ~coordination
    (p : (s, n, r) Problem.t) : r =
  (* The shared counter bundle; folded into [stats] after the join. *)
  let counters =
    Counters.create ~profiled:(stats <> None) ~progress ~slots:n_workers ()
  in
  (* One tracker fuses the per-slot estimator columns for every live
     surface (monitor scrapes, journal samples); both callers are cold
     paths on their own threads, hence the mutex. *)
  let tracker = Progress.create () in
  let tracker_mu = Mutex.create () in
  let progress_report ?final () =
    Mutex.protect tracker_mu (fun () ->
        Progress.update tracker ?final ~now:(Unix.gettimeofday ())
          (Counters.progress_sample counters))
  in
  (* One event ring per worker domain (all preallocated here, before
     any domain spawns) when the run is traced or journalled;
     [Recorder.null] turns every recording site into a single branch
     otherwise. *)
  let recording = telemetry <> None || journal <> None in
  let recorders =
    Array.init n_workers (fun i ->
        if recording then Recorder.create ~worker:i () else Recorder.null)
  in
  let tiers =
    Two_tier.create
      ~policy:(Task_pool.policy_for coordination)
      ~slots:n_workers ()
  in
  let outstanding = Atomic.make 0 in
  let stop = Atomic.make false in
  (* There is no coordinator here, so when recording the runtime
     allocates its own span ids: every enqueued task gets a fresh span
     whose parent is the spawning task's span (the root task's parent
     is span 0, the job). *)
  let span_ctr = Atomic.make 1 in
  let knowledge = Knowledge.make_atomic () in
  let harness = Ops.harness p.Problem.kind in
  (* Views are created in the main domain (the enumeration harness is
     not thread-safe at view-creation time), one per worker. Each view
     submits through a wrapper that accounts applied incumbent
     improvements; reads go straight to the shared store. *)
  let views =
    Array.init n_workers (fun i ->
        let submit =
          Counters.accounted_submit counters ~slot:i ~recorder:recorders.(i)
            knowledge.Knowledge.submit
        in
        harness.Ops.view { knowledge with Knowledge.submit })
  in
  let task_priority = Worker.task_priority ~coordination views in
  (* The in-process scheduler: each worker owns a lock-free Tier-1
     deque and the shared ordered pool is the overflow tier; a task
     obtained from a sibling's deque or another slot's pool push is a
     steal. Termination is the classic outstanding-task count hitting
     zero. *)
  let scheduler =
    {
      Worker.enqueue =
        (fun ~slot r task ->
          Atomic.incr outstanding;
          let task =
            if not recording then task
            else begin
              (* Reallocate the tag as this task's span; the tag it was
                 spawned with is the spawning task's span, i.e. the
                 causal parent (0 for the root task: the job span). *)
              let id = Atomic.fetch_and_add span_ctr 1 in
              Recorder.record r Recorder.Spawn ~start:(Recorder.now r) ~dur:0.
                ~arg:task.Task_pool.depth ~span:id ~parent:task.Task_pool.tag;
              { task with Task_pool.tag = id }
            end
          in
          Two_tier.enqueue tiers ~slot ~recorder:r
            ~priority:(task_priority task.Task_pool.node)
            task);
      take =
        (fun ~slot ->
          Two_tier.take tiers ~slot ~recorder:recorders.(slot) ~stop
            ~steal_counters:counters
            ~drained:(fun () -> Atomic.get outstanding = 0)
            ());
      finish =
        (fun () ->
          if Atomic.fetch_and_add outstanding (-1) = 1 then
            Two_tier.broadcast tiers);
      should_shed = (fun () -> Two_tier.hungry tiers);
      begin_task = (fun ~slot:_ _ -> ());
      end_task = (fun ~slot:_ -> ());
    }
  in
  let ctx =
    Worker.make_ctx ~space:p.Problem.space ~children:p.Problem.children
      ~coordination ~counters ~recorders ~views ~scheduler ~tiers ~stop ()
  in

  (* Live monitoring: the /metrics gauges are computed from the shared
     atomics on each scrape, so the handler (which runs on the server's
     domain, concurrently with the workers) only ever does word-sized
     reads — a snapshot can be slightly stale but never torn. *)
  let all_dropped () =
    Array.fold_left (fun a r -> a + Recorder.dropped r) 0 recorders
  in
  let monitor =
    match monitor_port with
    | None -> None
    | Some port ->
      let started = Unix.gettimeofday () in
      let registry = Metrics.create () in
      let g name help = Metrics.gauge registry ~help ("yewpar_live_" ^ name) in
      let g_workers = g "workers" "Worker domains in this run" in
      let g_nodes = g "nodes" "Nodes processed so far" in
      let g_pruned = g "pruned" "Subtrees pruned so far" in
      let g_tasks = g "tasks" "Tasks spawned so far" in
      let g_done = g "tasks_done" "Tasks finished so far" in
      let g_pool = g "pool_depth" "Tasks currently queued (both tiers)" in
      let g_outstanding =
        g "active_tasks" "Tasks queued or executing (termination detector)"
      in
      let g_idle = g "idle_workers" "Workers blocked waiting for work" in
      let g_steals = g "steals" "Successful steals so far" in
      let g_attempts = g "steal_attempts" "Steal attempts so far" in
      let g_bounds = g "bound_updates" "Incumbent improvements applied" in
      let g_dropped =
        g "trace_dropped" "Trace spans dropped by full ring buffers"
      in
      let g_uptime = g "uptime_seconds" "Seconds since the search started" in
      let refresh () =
        if progress then
          Progress.export_gauges (progress_report ()) ~registry
            ~prefix:"yewpar_progress_";
        Metrics.set g_workers (float_of_int n_workers);
        Metrics.set g_nodes (float_of_int (Atomic.get counters.Counters.nodes));
        Metrics.set g_pruned (float_of_int (Atomic.get counters.Counters.pruned));
        Metrics.set g_tasks (float_of_int (Atomic.get counters.Counters.tasks));
        Metrics.set g_done
          (float_of_int (Atomic.get counters.Counters.tasks_done));
        Metrics.set g_pool (float_of_int (Two_tier.queued tiers));
        Metrics.set g_outstanding (float_of_int (Atomic.get outstanding));
        Metrics.set g_idle (float_of_int (Two_tier.idle_workers tiers));
        Metrics.set g_steals (float_of_int (Atomic.get counters.Counters.steals));
        Metrics.set g_attempts
          (float_of_int (Atomic.get counters.Counters.steal_attempts));
        Metrics.set g_bounds
          (float_of_int (Atomic.get counters.Counters.bound_updates));
        Metrics.set g_dropped (float_of_int (all_dropped ()));
        Metrics.set g_uptime (Unix.gettimeofday () -. started)
      in
      let status_json () =
        let progress_block =
          if progress then
            Printf.sprintf ",\"progress\":{%s}"
              (Progress.json_fields (progress_report ()))
          else ""
        in
        Printf.sprintf
          "{\"schema_version\":1,\"runtime\":\"shm\",\"uptime\":%.3f,\
           \"workers\":%d,\"nodes\":%d,\"pruned\":%d,\"tasks\":%d,\
           \"tasks_done\":%d,\"pool_depth\":%d,\"active_tasks\":%d,\
           \"idle_workers\":%d,\"steals\":%d,\"steal_attempts\":%d,\
           \"bound_updates\":%d,\"best\":%s,\"trace_dropped\":%d%s}"
          (Unix.gettimeofday () -. started)
          n_workers
          (Atomic.get counters.Counters.nodes)
          (Atomic.get counters.Counters.pruned)
          (Atomic.get counters.Counters.tasks)
          (Atomic.get counters.Counters.tasks_done)
          (Two_tier.queued tiers)
          (Atomic.get outstanding)
          (Two_tier.idle_workers tiers)
          (Atomic.get counters.Counters.steals)
          (Atomic.get counters.Counters.steal_attempts)
          (Atomic.get counters.Counters.bound_updates)
          (let b = knowledge.Knowledge.best_obj () in
           if b > min_int then string_of_int b else "null")
          (all_dropped ()) progress_block
      in
      let s =
        Http_export.start ~port
          ~routes:
            [
              ( "/metrics",
                fun () ->
                  refresh ();
                  ("text/plain; version=0.0.4", Metrics.to_prometheus registry)
              );
              ("/status", fun () -> ("application/json", status_json ()));
            ]
          ()
      in
      (match on_monitor with Some f -> f (Http_export.port s) | None -> ());
      Some s
  in

  let started = Unix.gettimeofday () in
  Option.iter
    (fun w -> Journal.emit w Journal.Job_start ~locality:0 ~t:started ~span:0)
    journal;
  (* Journalled estimator samples: value = rounded estimated total,
     the rest packed in the note so [analyze --journal] can plot
     estimate-vs-truth convergence after the run. *)
  let sample ?final w =
    if progress then
      let r = progress_report ?final () in
      Journal.emit w Journal.Progress_sample ~locality:0
        ~value:(Progress.journal_value r) ~note:(Progress.journal_note r)
        ~span:0
  in
  (* The rings' one consumer: every drain feeds both the trace sink and
     the journal, so the two surfaces are folds of the same records. *)
  let tally = Journal.tally () in
  let publish () =
    let batches = Array.to_list (Array.map Recorder.drain recorders) in
    Option.iter (fun tl -> Telemetry.ingest tl ~locality:0 ~offset:0. batches)
      telemetry;
    Option.iter
      (fun w -> Journal.write_batches w tally ~locality:0 batches)
      journal
  in
  (* Background drainer: keeps draining and file I/O off the worker
     domains. Joined (before a final drain) once the workers are.
     Every ~1s it also journals a progress sample. *)
  let flusher =
    if not recording then None
    else begin
      let stop_flush = Atomic.make false in
      let th =
        Thread.create
          (fun () ->
            let tick = ref 0 in
            while not (Atomic.get stop_flush) do
              publish ();
              incr tick;
              if !tick mod 20 = 0 then Option.iter sample journal;
              Unix.sleepf 0.05
            done)
          ()
      in
      Some (stop_flush, th)
    end
  in
  let stop_flusher () =
    Option.iter
      (fun (stop_flush, th) ->
        Atomic.set stop_flush true;
        Thread.join th;
        publish ())
      flusher;
    Option.iter
      (fun w ->
        let t = Unix.gettimeofday () in
        Journal.write_totals w tally ~locality:0 ~t;
        sample ~final:true w;
        Journal.emit w Journal.Job_done ~locality:0 ~t ~dur:(t -. started)
          ~span:0)
      journal
  in
  Worker.spawn ctx ~slot:0 { Task_pool.tag = 0; node = p.Problem.root; depth = 0 };
  Fun.protect
    ~finally:(fun () ->
      stop_flusher ();
      Option.iter Http_export.stop monitor)
  @@ fun () ->
  let handle = Worker.start ctx ~workers:n_workers in
  (match Worker.join handle with Some e -> raise e | None -> ());
  (match stats with
  | None -> ()
  | Some st -> Counters.fold_into counters ~dropped:(all_dropped ()) st);
  harness.Ops.result knowledge

let run ?workers ?stats ?telemetry ?journal ?monitor_port ?on_monitor
    ?progress ~coordination p =
  match coordination with
  | Coordination.Sequential ->
    Telemetry.solo ?sink:telemetry ?journal (fun () ->
        Sequential.search ?stats p)
  | Coordination.Depth_bounded _ | Coordination.Stack_stealing _
  | Coordination.Budget _ | Coordination.Best_first _ | Coordination.Random_spawn _ ->
    let n_workers =
      match workers with
      | Some w when w >= 1 -> w
      | Some _ -> invalid_arg "Shm.run: workers must be >= 1"
      | None -> Domain.recommended_domain_count ()
    in
    parallel_run ~n_workers ?stats ?telemetry ?journal ?monitor_port
      ?on_monitor ?progress ~coordination p
