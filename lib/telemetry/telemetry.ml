type span = {
  locality : int;
  worker : int;
  kind : Recorder.kind;
  start : float;
  dur : float;
  arg : int;
  label : string;  (* "" means: use the kind name *)
}

let span_name s = if s.label = "" then Recorder.kind_name s.kind else s.label

type t = { mutable rev : span list; mutable lost : int }

let create () = { rev = []; lost = 0 }

let ingest t ~locality ~offset batches =
  List.iter
    (fun (b : Recorder.batch) ->
      t.lost <- t.lost + b.Recorder.b_dropped;
      for i = 0 to Recorder.length b - 1 do
        match Recorder.kind_of_tag b.Recorder.b_tags.(i) with
        | Recorder.Spawn -> ()
        | kind ->
          t.rev <-
            {
              locality;
              worker = b.Recorder.b_worker;
              kind;
              start = b.Recorder.b_starts.(i) +. offset;
              dur = b.Recorder.b_durs.(i);
              arg = b.Recorder.b_args.(i);
              label = "";
            }
            :: t.rev
      done)
    batches

let add_span t s = t.rev <- s :: t.rev

let spans t =
  List.stable_sort (fun a b -> compare a.start b.start) (List.rev t.rev)

let dropped t = t.lost

let solo ?sink ?journal f =
  let r =
    if sink = None && journal = None then Recorder.null
    else Recorder.create ~capacity:1 ~worker:0 ()
  in
  let t0 = Recorder.now r in
  Option.iter
    (fun w -> Journal.emit w Journal.Job_start ~locality:0 ~t:t0 ~span:0)
    journal;
  let result = f () in
  let dur = Recorder.now r -. t0 in
  Recorder.record r Recorder.Task ~start:t0 ~dur ~arg:0 ~span:1 ~parent:0;
  let batches = [ Recorder.drain r ] in
  Option.iter (fun tl -> ingest tl ~locality:0 ~offset:0. batches) sink;
  Option.iter
    (fun w ->
      Journal.write_batches w (Journal.tally ()) ~locality:0 batches;
      Journal.emit w Journal.Job_done ~locality:0 ~dur ~span:0)
    journal;
  result

(* ------------------------- Chrome export ------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fus v = Printf.sprintf "%.3f" v  (* microseconds, ns precision *)

let to_chrome t =
  let ss = spans t in
  let t0 = match ss with [] -> 0. | s :: _ -> s.start in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit ev =
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_string buf ev
  in
  (* Metadata: name each locality (process) and worker (thread). *)
  let procs = Hashtbl.create 8 and threads = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem procs s.locality) then begin
        Hashtbl.add procs s.locality ();
        emit
          (Printf.sprintf
             "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":\"locality %d\"}}"
             s.locality s.locality)
      end;
      if s.kind <> Recorder.Pool && not (Hashtbl.mem threads (s.locality, s.worker))
      then begin
        Hashtbl.add threads (s.locality, s.worker) ();
        emit
          (Printf.sprintf
             "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"worker %d\"}}"
             s.locality s.worker s.worker)
      end)
    ss;
  List.iter
    (fun s ->
      let ts = (s.start -. t0) *. 1e6 in
      match s.kind with
      | Recorder.Pool ->
        emit
          (Printf.sprintf
             "{\"name\":\"pool depth\",\"ph\":\"C\",\"ts\":%s,\"pid\":%d,\"args\":{\"depth\":%d}}"
             (fus ts) s.locality s.arg)
      | _ when s.dur > 0. ->
        emit
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"yewpar\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"arg\":%d}}"
             (json_escape (span_name s))
             (fus ts)
             (fus (s.dur *. 1e6))
             s.locality s.worker s.arg)
      | _ ->
        emit
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"yewpar\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"arg\":%d}}"
             (json_escape (span_name s))
             (fus ts) s.locality s.worker s.arg))
    ss;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* -------------------------- CSV export --------------------------- *)

let to_csv t =
  let ss = spans t in
  let t0 = match ss with [] -> 0. | s :: _ -> s.start in
  (* Dense global worker ids, ordered by (locality, worker). *)
  let ids = Hashtbl.create 32 in
  List.iter (fun s -> Hashtbl.replace ids (s.locality, s.worker) 0) ss;
  Hashtbl.fold (fun k _ acc -> k :: acc) ids []
  |> List.sort compare
  |> List.iteri (fun i k -> Hashtbl.replace ids k i);
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "worker,start,duration,label\n";
  List.iter
    (fun s ->
      if s.kind <> Recorder.Pool then
        Buffer.add_string buf
          (Printf.sprintf "%d,%.9f,%.9f,%s\n"
             (Hashtbl.find ids (s.locality, s.worker))
             (s.start -. t0) s.dur (span_name s)))
    ss;
  Buffer.contents buf

(* ------------------------ derived metrics ------------------------ *)

let metrics t =
  let ss = spans t in
  let m = Metrics.create () in
  let c name help = Metrics.counter m ~help name in
  let tasks = c "yewpar_tasks_total" "Tasks executed." in
  let attempts = c "yewpar_steal_attempts_total" "Workers that went looking for work." in
  let steals = c "yewpar_steals_total" "Successful steals (work obtained after a dry spell)." in
  let bounds = c "yewpar_bound_updates_total" "Incumbent improvements applied." in
  let spills = c "yewpar_spills_total" "Tasks shed to the coordinator (dist)." in
  let drops =
    c "yewpar_trace_dropped_spans_total" "Spans lost to ring-buffer overflow."
  in
  let localities = Metrics.gauge m ~help:"Localities traced." "yewpar_localities" in
  let workers = Metrics.gauge m ~help:"Worker tracks traced." "yewpar_workers" in
  let task_d =
    Metrics.histogram m ~help:"Task execution time (seconds)."
      "yewpar_task_duration_seconds"
  in
  let steal_d =
    Metrics.histogram m ~help:"Steal latency, dry pool to task in hand (seconds)."
      "yewpar_steal_latency_seconds"
  in
  let idle_d =
    Metrics.histogram m ~help:"Time blocked waiting for work (seconds)."
      "yewpar_idle_wait_seconds"
  in
  let depth =
    Metrics.histogram m ~help:"Pool depth observed after each push."
      ~buckets:(Metrics.buckets_pow2 ~hi:4096) "yewpar_pool_depth"
  in
  let locs = Hashtbl.create 8 and tracks = Hashtbl.create 32 in
  List.iter
    (fun s ->
      Hashtbl.replace locs s.locality ();
      (match s.kind with
      | Recorder.Pool -> ()
      | _ -> Hashtbl.replace tracks (s.locality, s.worker) ());
      match s.kind with
      | Recorder.Task ->
        Metrics.inc tasks;
        Metrics.observe task_d s.dur
      | Recorder.Steal_attempt -> Metrics.inc attempts
      | Recorder.Steal_success ->
        Metrics.inc steals;
        Metrics.observe steal_d s.dur
      | Recorder.Idle -> Metrics.observe idle_d s.dur
      | Recorder.Bound_update -> Metrics.inc bounds
      | Recorder.Spill -> Metrics.inc spills
      | Recorder.Pool -> Metrics.observe depth (float_of_int s.arg)
      | Recorder.Spawn -> ())
    ss;
  Metrics.inc drops ~by:(dropped t);
  Metrics.set localities (float_of_int (Hashtbl.length locs));
  Metrics.set workers (float_of_int (Hashtbl.length tracks));
  m

let to_prometheus t = Metrics.to_prometheus (metrics t)
