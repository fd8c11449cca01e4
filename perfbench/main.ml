(* The repository benchmark: four seeded workloads, each chosen so that
   a different layer does most of the work (see perfbench/README.md).

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --smoke

   --trace 0 measures the end-to-end metrics; --trace 1 is the separate
   traced run that reports per-layer metrics. The last line of standard
   output is one JSON object: correct, attempted, failed, metrics. *)

module Stats = Yewpar_core.Stats
module Coordination = Yewpar_core.Coordination
module Shm = Yewpar_par.Shm
module Dist = Yewpar_dist.Dist
module Server = Yewpar_server.Server
module Http = Yewpar_telemetry.Http_export
module J = Yewpar_telemetry.Analyze
module Splitmix = Yewpar_util.Splitmix

let now = Unix.gettimeofday

type runtime = Shm_rt | Dist_rt | Serve_rt

type workload = {
  name : string;
  why : string;
  runtime : runtime;
  default_seed : int;
  localities : int;
  workers : int;
  input_seed : int -> int;
      (** The generator seed a workload seed stands for: a choice the
          benchmark makes once per run, outside the timed set-up. *)
  build : smoke:bool -> seed:int -> Inputs.inst list;
}

(* The reasons match the "why" of the workloads BENCHMARK.json lists.
   The two shm workloads are not listed there (see README.md): in ten
   interleaved runs of all four on a shared 2-vCPU machine their spread
   was the widest, up to 0.21 of the median against a bound of 0.25.
   They stay runnable by name. *)
let workloads =
  [ { name = "shm-kclique"; runtime = Shm_rt; default_seed = 4444; localities = 1; workers = 2;
      input_seed = Fun.id; build = Inputs.kclique;
      why = "Figure 4 k-clique non-existence proof on 2 shm domains: compute-bound, few big tasks, so core and apps do the work and the scheduler almost none" };
    { name = "shm-uts-churn"; runtime = Shm_rt; default_seed = 807; localities = 1; workers = 2;
      input_seed = Fun.id; build = Inputs.uts;
      why = "binomial UTS under Budget 50 on 2 shm domains: ~300k tiny tasks and ~150k steals per solve, so the runtime scheduler dominates" };
    { name = "dist-knap-steal"; runtime = Dist_rt; default_seed = 604; localities = 2; workers = 1;
      input_seed = Inputs.knap_seed; build = Inputs.knap;
      why = "subset-sum knapsack under Budget 1000 on 2 localities: ~1150 wire steals per solve, so the steal round trip is ~90% of the time" };
    { name = "serve-mix"; runtime = Serve_rt; default_seed = 1; localities = 2; workers = 1;
      input_seed = Fun.id; build = Inputs.serve_pool;
      why = "closed loop of 2 clients against one job server with long and short jobs: HTTP, FIFO admission, per-job coordinators and fleet reuse" } ]

(* ------------------------------------------------------------------ *)
(* Statistics and results.                                             *)
(* ------------------------------------------------------------------ *)

let median = Yewpar_util.Summary.median

let p90 xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  J.percentile 90. a

let sum = List.fold_left ( +. ) 0.
let ratio a b = if b > 0. then a /. b else 0.

(* Attempted and failed solves or jobs. A failure is a wrong answer, an
   exception, a job not ending done, or a non-2xx reply; it is counted,
   never dropped and never retried. *)
type tally = { lock : Mutex.t; mutable attempted : int; mutable failed : int; mutable reasons : string list }

let tally = { lock = Mutex.create (); attempted = 0; failed = 0; reasons = [] }

let count error =
  Mutex.protect tally.lock (fun () ->
      tally.attempted <- tally.attempted + 1;
      match error with
      | None -> ()
      | Some why ->
        tally.failed <- tally.failed + 1;
        if List.length tally.reasons < 5 then tally.reasons <- why :: tally.reasons)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

(* ------------------------------------------------------------------ *)
(* One solve on shm or dist, and one job against the server.           *)
(* ------------------------------------------------------------------ *)

type solve = { wall : float; stats : Stats.t; broadcasts : int; ok : bool }

let solve ~runtime ~localities ~workers (Inputs.Inst i) =
  let stats = Stats.create () and broadcasts = ref 0 in
  let t0 = now () in
  let error =
    match
      match runtime with
      | Shm_rt ->
        Span.record ~layer:"par" "Shm.run" (fun _ ->
            Shm.run ~workers ~stats ~coordination:i.coordination i.problem)
      | Dist_rt | Serve_rt ->
        Span.record ~layer:"dist" "Dist.run" (fun _ ->
            Dist.run ~stats ~broadcasts ~watchdog:150. ~localities ~workers
              ~coordination:i.coordination i.problem)
    with
    | r -> Inputs.verify i.problem i.valid i.reference r ~nodes:stats.Stats.nodes
    | exception e -> Some (Printexc.to_string e)
  in
  let wall = now () -. t0 in
  count (Option.map (fun why -> i.name ^ ": " ^ why) error);
  { wall; stats; broadcasts = !broadcasts; ok = Option.is_none error }

let skeleton = function
  | Coordination.Depth_bounded { dcutoff } -> Printf.sprintf "depthbounded:%d" dcutoff
  | Coordination.Budget { budget } -> Printf.sprintf "budget:%d" budget
  | c -> invalid_arg ("no serve skeleton for " ^ Coordination.to_string c)

type job = {
  input : string;  (** The pool entry's name. *)
  latency : float;  (** POST to the checked result, client side. *)
  queue_wait : float;  (** started - submitted, server side. *)
  run : float;  (** finished - started, server side. *)
  post_ms : float;
  get_ms : float list;
  rejected : bool;
  ok : bool;  (** Ended done with the sequential answer. *)
  job_stats : Stats.t;  (** The job's counters from its result document. *)
}

let timed_request ?meth ?body ~port path =
  let t0 = now () in
  let r = Http.request ?meth ?body ~port path in
  (r, 1000. *. (now () -. t0))

(* Submit one job, poll its result until it is terminal, check it.
   Client threads call this too, so its spans name their parent
   explicitly (by default the run itself). *)
let run_job ~port ?(parent = 0) (Inputs.Inst i) =
  let t0 = now () in
  let gets = ref [] in
  let body =
    Printf.sprintf {|{"problem": %S, "skeleton": %S, "localities": %d}|} i.name
      (skeleton i.coordination) i.localities
  in
  let outcome =
    try
      Span.record ~parent ~layer:"server" ("job " ^ i.name) (fun job_span ->
          let (status, reply), post_ms =
            Span.record ~parent:job_span ~layer:"server" "POST /jobs" (fun _ ->
                timed_request ~meth:"POST" ~body ~port "/jobs")
          in
          if status <> 202 then Error (post_ms, status = 429, Printf.sprintf "POST /jobs -> %d %s" status reply)
          else
            let id = int_of_float (J.num_or (-1.) (J.member "id" (J.parse_json reply))) in
            let rec poll () =
              let (status, reply), ms =
                Span.record ~parent:job_span ~layer:"server" "GET /jobs/:id/result" (fun _ ->
                    timed_request ~port (Printf.sprintf "/jobs/%d/result" id))
              in
              gets := ms :: !gets;
              if status = 409 then begin
                Unix.sleepf 0.002;
                poll ()
              end
              else (status, reply)
            in
            Ok (post_ms, poll ()))
    with e -> Error (0., false, Printexc.to_string e)
  in
  let latency = now () -. t0 in
  let job error ~post_ms ~rejected ?(doc = J.Obj []) () =
    count (Option.map (fun why -> i.name ^ ": " ^ why) error);
    let num k = J.num_or nan (J.member k doc) in
    let stats = Option.value ~default:(J.Obj []) (J.member "stats" doc) in
    let st = Stats.create () in
    let field k = int_of_float (J.num_or 0. (J.member k stats)) in
    st.Stats.nodes <- field "nodes";
    st.Stats.tasks <- field "tasks";
    st.Stats.steals <- field "steals";
    st.Stats.steal_attempts <- field "steal_attempts";
    { input = i.name; latency; queue_wait = num "started" -. num "submitted"; run = num "finished" -. num "started";
      post_ms; get_ms = !gets; rejected; ok = Option.is_none error; job_stats = st }
  in
  match outcome with
  | Error (post_ms, rejected, why) -> job (Some why) ~post_ms ~rejected ()
  | Ok (post_ms, (status, reply)) ->
    let doc = try J.parse_json reply with _ -> J.Obj [] in
    let state = J.str_or "" (J.member "state" doc) in
    let error =
      if status <> 200 then Some (Printf.sprintf "GET result -> %d" status)
      else if state <> "done" then
        Some (Printf.sprintf "job ended %s: %s" state (J.str_or "" (J.member "error" doc)))
      else
        match Inputs.decode_result i.problem i.codec (J.str_or "" (J.member "result" doc)) with
        | r ->
          let stats = Option.value ~default:(J.Obj []) (J.member "stats" doc) in
          Inputs.verify i.problem i.valid i.reference r
            ~nodes:(int_of_float (J.num_or (-1.) (J.member "nodes" stats)))
        | exception e -> Some ("undecodable result: " ^ Printexc.to_string e)
    in
    job error ~post_ms ~rejected:false ~doc ()

let servable (Inputs.Inst i) =
  match Yewpar_server.Server.servable i.problem ~show:(Inputs.encode_result i.problem i.codec) with
  | Ok sv -> (i.name, sv)
  | Error e -> failwith e

let start_server ~wl insts =
  let config =
    { Server.default_config with
      Server.localities = wl.localities; workers = wl.workers; max_jobs = 2; queue_depth = 16 }
  in
  Span.record ~layer:"server" "Server.start" (fun _ ->
      Server.start ~config ~registry:(List.map servable insts) ())

(* Closed loop: [clients] threads, each submitting its next job only
   after fetching the previous result, until [deadline]. Each client
   runs the whole pool in a fresh seeded order, so every pool entry is
   equally frequent whatever the seed. *)
let closed_loop ~port ~seed ~clients ~deadline insts =
  let pool = Array.of_list insts in
  let jobs = ref [] and lock = Mutex.create () in
  let client c () =
    let rng = Splitmix.of_seed ((seed * 31) + c) in
    let order = Array.copy pool in
    while now () < deadline do
      Inputs.shuffle rng order;
      Array.iter
        (fun inst ->
          if now () < deadline then begin
            let j = run_job ~port inst in
            Mutex.protect lock (fun () -> jobs := j :: !jobs)
          end)
        order
    done
  in
  let t0 = now () in
  List.iter Thread.join (List.init clients (fun c -> Thread.create (client c) ()));
  (List.rev !jobs, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics

let finite v = if Float.is_finite v then v else 0.

let print_result () =
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "  %-36s %14.6g %s\n" n v u) ms;
  Printf.printf "failed_frac %.6g (%d failed of %d attempted solves/jobs)\n"
    (ratio (float_of_int tally.failed) (float_of_int (max 1 tally.attempted)))
    tally.failed tally.attempted;
  List.iter (Printf.printf "  failure: %s\n") (List.rev tally.reasons);
  let body =
    String.concat ", "
      (List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n (finite v) u) ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0) tally.attempted tally.failed body

let fingerprint ~wl ~seed ~nproc ~commit ~trace =
  Printf.printf
    "fingerprint: {\"workload\": %S, \"seed\": %d, \"trace\": %b, \"topology\": \"%dx%d\", \"nproc\": %d, \
     \"recommended_domain_count\": %d, \"ocaml\": %S, \"commit\": %S}\n"
    wl.name seed trace wl.localities wl.workers nproc (Domain.recommended_domain_count ())
    Sys.ocaml_version commit;
  Printf.printf "workload %s: %s\n%!" wl.name wl.why

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics.                               *)
(* ------------------------------------------------------------------ *)

(* Set-ups per run: at least 5, and up to 50 while they have taken
   under 2 s in total; setup_s is their median. *)
let min_setups = 5
let max_setups = 50
let setup_budget_s = 2.

(* Seconds [Server.start] takes for [insts], measured in a forked child
   that then stops its server and exits: once a process has spawned a
   domain (the server's HTTP domain) it can no longer fork, so only the
   last set-up may start the server in this process. *)
let server_start_in_child ~wl insts =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let t0 = now () in
    let srv = start_server ~wl insts in
    let t = now () -. t0 in
    Server.stop srv;
    let oc = Unix.out_channel_of_descr w in
    Printf.fprintf oc "%.17g\n%!" t;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let t = float_of_string (input_line ic) in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    t

(* Seconds per generation of the inputs, as the mean over as many
   builds as fit in 5 ms (at least one): some generators (UTS's seeded
   parameters, a 22-item knapsack) take less than the clock's
   microsecond. Returns the last inputs built. *)
let generate_s ~wl ~seed =
  let t0 = now () in
  let rec go n =
    let insts = wl.build ~smoke:false ~seed in
    let t = now () -. t0 in
    if t >= 0.005 then (insts, t /. float_of_int n) else go (n + 1)
  in
  go 1

(* Set-up: generate the inputs from the seed and start the server where
   the workload has one. The last inputs (and server) are kept. The
   choice of generator seed comes before and the sequential references
   after, both untimed: they are the benchmark's own work, not the
   program's. *)
let set_up ~wl ~seed =
  let seed = wl.input_seed seed in
  let times = ref [] in
  let t_start = now () in
  let rec go () =
    let insts, generate = generate_s ~wl ~seed in
    let n = List.length !times + 1 in
    let last = n >= max_setups || (n >= min_setups && now () -. t_start >= setup_budget_s) in
    let srv, start =
      match wl.runtime with
      | Serve_rt when last ->
        let t0 = now () in
        let srv = start_server ~wl insts in
        (Some srv, now () -. t0)
      | Serve_rt -> (None, server_start_in_child ~wl insts)
      | _ -> (None, 0.)
    in
    times := (generate +. start) :: !times;
    if last then (insts, srv) else go ()
  in
  let insts, srv = go () in
  Printf.printf "setup_s is the median of %d set-ups\n" (List.length !times);
  Inputs.prepare insts;
  ((insts, srv), median !times)

let untraced ~wl ~seed ~seconds =
  let (insts, srv), setup_s = set_up ~wl ~seed in
  let latencies, solve_times, elapsed =
    match srv with
    | Some srv ->
      let port = Server.port srv in
      List.iter (fun inst -> ignore (run_job ~port inst)) insts;
      let jobs, elapsed = closed_loop ~port ~seed ~clients:2 ~deadline:(now () +. seconds) insts in
      Server.stop srv;
      let ok = List.filter (fun (j : job) -> j.ok) jobs in
      print_string "median latency by input:";
      List.iter
        (fun (Inputs.Inst i) ->
          let l = List.filter_map (fun j -> if j.input = i.name then Some j.latency else None) ok in
          Printf.printf " %s %.2f ms (%d)" i.name (1000. *. median l) (List.length l))
        insts;
      print_newline ();
      (List.map (fun j -> j.latency) ok, List.map (fun j -> j.run) ok, elapsed)
    | None ->
      let go inst = solve ~runtime:wl.runtime ~localities:wl.localities ~workers:wl.workers inst in
      List.iter (fun inst -> ignore (go inst)) insts;
      let t0 = now () in
      let solves = ref [] in
      while now () -. t0 < seconds || List.length !solves < 3 do
        List.iter (fun inst -> solves := go inst :: !solves) insts
      done;
      let ok = List.filter (fun (s : solve) -> s.ok) !solves in
      let per_solve f = median (List.map (fun s -> float_of_int (f s.stats)) ok) in
      Printf.printf "per solve (median): %.0f nodes, %.0f tasks, %.0f steals of %.0f attempts\n"
        (per_solve (fun st -> st.Stats.nodes)) (per_solve (fun st -> st.Stats.tasks))
        (per_solve (fun st -> st.Stats.steals)) (per_solve (fun st -> st.Stats.steal_attempts));
      let walls = List.map (fun s -> s.wall) ok in
      (walls, walls, now () -. t0)
  in
  let verified = List.length latencies in
  Printf.printf "%d verified %s timed; job_p90_s has %d of them beyond it\n" verified
    (if wl.runtime = Serve_rt then "jobs" else "solves") (verified / 10);
  if wl.runtime <> Shm_rt then print_endline "peak_rss_mb is the coordinator side only (forked localities excluded)";
  metric "solve_s" "s" (median solve_times);
  metric "job_p50_s" "s" (median latencies);
  metric "job_p90_s" "s" (p90 latencies);
  metric "jobs_per_s" "1/s" (float_of_int verified /. elapsed);
  metric "setup_s" "s" setup_s;
  metric "peak_rss_mb" "MB" (peak_rss_mb ())

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics.                                      *)
(* ------------------------------------------------------------------ *)

(* Alternate traced and untraced calls of [f] for [seconds] (at least
   two of each): (traced results, untraced results). *)
let alternate ~seconds f =
  let traced = ref [] and untraced = ref [] in
  let t0 = now () in
  while now () -. t0 < seconds || List.length !untraced < 2 do
    traced := f () :: !traced;
    Span.enabled := false;
    untraced := f () :: !untraced;
    Span.enabled := true
  done;
  (!traced, !untraced)

(* A pass solves every input of the workload once. *)
let pass_wall pass = sum (List.map (fun s -> s.wall) pass)
let pass_count f pass = float_of_int (List.fold_left (fun a s -> a + f s) 0 pass)
let over_passes f passes = median (List.map f passes)

(* Solves of [runtime] for the traced run. On the workload's own
   runtime: a warm-up pass, then traced passes alternating with
   untraced ones for [seconds]; returns the traced passes, the trace
   overhead and no base. On another runtime: one probe pass over the
   workload's inputs at smoke size, whose sequential reference time is
   the base for its speedup. *)
let passes ~wl ~seconds ~runtime ~localities ~workers ~insts ~probe =
  let pass insts () = List.map (solve ~runtime ~localities ~workers) insts in
  if wl.runtime = runtime then begin
    ignore (pass insts ());
    let t, u = alternate ~seconds (pass insts) in
    (t, Some ((over_passes pass_wall t /. over_passes pass_wall u) -. 1.), None)
  end
  else
    let base = sum (List.map Inputs.seq_seconds probe) in
    ([ pass probe () ], None, Some base)

let traced ~wl ~seed ~seconds =
  (* Probe inputs for the layers this workload does not run (untraced:
     their set-up is not part of instances.generate_s). *)
  let probe = wl.build ~smoke:true ~seed in
  Inputs.prepare probe;
  let input_seed = wl.input_seed seed in
  Span.enabled := true;
  let insts = wl.build ~smoke:false ~seed:input_seed in
  metric "instances.generate_s" "s" (Span.inclusive ~layer:"instances");
  Inputs.prepare insts;
  (* Everything that forks comes first: no domain may be running when
     the transport probe, dist or the server fork. *)
  metric "dist.transport_rtt_us" "us"
    (Span.record ~layer:"dist" "Transport ping-pong" (fun _ -> Layers.transport_rtt_us ~count:2000));
  let dist, dist_overhead, dist_base =
    passes ~wl ~seconds ~runtime:Dist_rt ~localities:2 ~workers:1 ~insts ~probe
  in
  let steals = over_passes (pass_count (fun s -> s.stats.Stats.steals)) dist in
  metric "dist.steals" "count" steals;
  metric "dist.steal_attempts" "count" (over_passes (pass_count (fun s -> s.stats.Stats.steal_attempts)) dist);
  metric "dist.broadcasts" "count" (over_passes (pass_count (fun s -> s.broadcasts)) dist);
  metric "dist.ms_per_steal" "ms" (1000. *. over_passes pass_wall dist /. Float.max 1. steals);
  let srv = start_server ~wl (if wl.runtime = Serve_rt then insts else probe) in
  let port = Server.port srv in
  let jobs, serve_overhead =
    if wl.runtime = Serve_rt then begin
      List.iter (fun inst -> ignore (run_job ~port inst)) insts;
      (* Traced and untraced segments alternate, so that a drift in the
         machine's speed falls on both. *)
      let segments = 8 in
      let traced = ref [] and untraced = ref [] in
      for k = 0 to segments - 1 do
        Span.enabled := k mod 2 = 0;
        let deadline = now () +. (seconds /. float_of_int segments) in
        let js, _ = closed_loop ~port ~seed:(seed + k) ~clients:2 ~deadline insts in
        if k mod 2 = 0 then traced := js @ !traced else untraced := js @ !untraced
      done;
      Span.enabled := true;
      let p50 l = median (List.map (fun j -> j.latency) l) in
      (!traced, Some ((p50 !traced /. p50 !untraced) -. 1.))
    end
    else (List.map (run_job ~port) probe, None)
  in
  Span.record ~layer:"server" "Server.stop" (fun _ -> Server.stop srv);
  let jm f = median (List.map f jobs) in
  metric "server.post_ms" "ms" (jm (fun j -> j.post_ms));
  metric "server.get_ms" "ms" (median (List.concat_map (fun j -> j.get_ms) jobs));
  metric "server.queue_wait_s" "s" (jm (fun j -> j.queue_wait));
  metric "server.run_s" "s" (jm (fun j -> j.run));
  metric "server.rejected_frac" "ratio"
    (ratio (float_of_int (List.length (List.filter (fun j -> j.rejected) jobs))) (float_of_int (List.length jobs)));
  (* Core: the sequential skeleton on the same inputs, with the minor
     heap words it allocates (an exact count). *)
  let seq_s = ref 0. and nodes = ref 0 and words = ref 0. in
  List.iter
    (fun (Inputs.Inst i) ->
      let w0 = Gc.minor_words () and t0 = now () in
      let _, st =
        Span.record ~layer:"core" "Sequential.search" (fun _ ->
            Yewpar_core.Sequential.search_with_stats i.problem)
      in
      seq_s := !seq_s +. (now () -. t0);
      words := !words +. (Gc.minor_words () -. w0);
      nodes := !nodes + st.Stats.nodes)
    insts;
  let nodes = float_of_int !nodes in
  metric "core.seq_solve_s" "s" !seq_s;
  metric "core.nodes" "count" nodes;
  metric "core.seq_nodes_per_s" "1/s" (nodes /. !seq_s);
  metric "core.alloc_words_per_node" "words" (!words /. nodes);
  let over, agree =
    let g = Yewpar_graph.Gen.hidden_clique ~seed 200 0.70 21 in
    Span.record ~layer:"core" "Table 1 pairs" (fun _ -> Layers.overhead_vs_specialised g ~pairs:5)
  in
  if not agree then count (Some "Table 1: Sequential and Specialised clique sizes differ");
  metric "core.overhead_vs_specialised" "ratio" over;
  let speedup base passes = Option.value base ~default:!seq_s /. over_passes pass_wall passes in
  metric "dist.speedup" "ratio" (speedup dist_base dist);
  (* Apps and wire frames, on nodes sampled from each input's own tree. *)
  let per_inst =
    List.map
      (fun (Inputs.Inst i) ->
        let sample = Layers.sample_nodes i.problem ~seed ~count:400 in
        let expand = Span.record ~layer:"apps" "children" (fun _ -> Layers.expand_us i.problem sample) in
        let wire = Span.record ~layer:"dist" "Wire frames" (fun _ -> Layers.wire_costs i.problem i.codec sample) in
        (expand, wire))
      insts
  in
  let mean l = sum l /. float_of_int (List.length l) in
  metric "apps.expand_us" "us" (mean (List.map fst per_inst));
  List.iter
    (fun kind ->
      let pick f = mean (List.concat_map (fun (_, w) -> List.filter_map (fun c -> f c) w) per_inst) in
      let field sel = pick (fun (k, e, d, b) -> if k = kind then Some (sel (e, d, b)) else None) in
      metric ("dist.wire_encode_ns." ^ kind) "ns" (field (fun (e, _, _) -> e));
      metric ("dist.wire_decode_ns." ^ kind) "ns" (field (fun (_, d, _) -> d));
      metric ("dist.wire_bytes." ^ kind) "bytes" (field (fun (_, _, b) -> b)))
    [ "task"; "steal_reply"; "bound_update"; "idle" ];
  (* Par and runtime: shm solves at 2 domains, and the scheduler's own
     structures in isolation. *)
  let shm, shm_overhead, shm_base =
    passes ~wl ~seconds ~runtime:Shm_rt ~localities:1 ~workers:2 ~insts ~probe
  in
  metric "par.shm_solve_s" "s" (over_passes pass_wall shm);
  let par_speedup = speedup shm_base shm in
  metric "par.speedup" "ratio" par_speedup;
  let own_counts f =
    match wl.runtime with
    | Shm_rt -> over_passes (pass_count (fun s -> f s.stats)) shm
    | Dist_rt -> over_passes (pass_count (fun s -> f s.stats)) dist
    | Serve_rt -> median (List.map (fun j -> float_of_int (f j.job_stats)) jobs)
  in
  let attempts = own_counts (fun st -> st.Stats.steal_attempts) in
  let steals = own_counts (fun st -> st.Stats.steals) in
  metric "runtime.tasks" "count" (own_counts (fun st -> st.Stats.tasks));
  metric "runtime.steal_attempts" "count" attempts;
  metric "runtime.steals" "count" steals;
  metric "runtime.steal_success_ratio" "ratio" (ratio steals attempts);
  Span.record ~layer:"runtime" "Deque/Two_tier probes" (fun _ ->
      metric "runtime.deque_push_pop_ns" "ns" (Layers.deque_push_pop_ns ());
      metric "runtime.deque_steal_ns" "ns" (Layers.deque_steal_ns ~seconds:0.2);
      metric "runtime.two_tier_enqueue_take_ns" "ns" (Layers.two_tier_enqueue_take_ns ()));
  (* The simulator's prediction for the same inputs at 1 locality x 2
     workers, next to the measured par.speedup. *)
  let seq_v, makespan =
    List.fold_left
      (fun (a, b) (Inputs.Inst i) ->
        let s, m =
          Span.record ~layer:"sim" "Sim.run" (fun _ ->
              Layers.sim_times i.problem ~coordination:i.coordination ~workers:2)
        in
        (a +. s, b +. m))
      (0., 0.) insts
  in
  metric "sim.predicted_speedup" "ratio" (seq_v /. makespan);
  Printf.printf "sim vs real at 1x2: sim.predicted_speedup %.3f, measured par.speedup %.3f\n"
    (seq_v /. makespan) par_speedup;
  let overhead =
    List.find_map Fun.id [ shm_overhead; dist_overhead; serve_overhead ] |> Option.value ~default:0.
  in
  metric "bench.trace_overhead" "ratio" overhead;
  Span.enabled := false;
  let self = Span.self_times () in
  List.iter
    (fun layer ->
      metric (layer ^ ".self_s") "s" (Option.value ~default:0. (Hashtbl.find_opt self layer)))
    [ "instances"; "apps"; "core"; "runtime"; "par"; "dist"; "server"; "sim" ];
  Printf.printf "par.speedup = sequential / shm solve time, dist.speedup = sequential / dist solve time\n";
  if wl.runtime <> Shm_rt then
    print_endline "par.* come from a probe on the workload's inputs at smoke size (base: their sequential time)";
  if wl.runtime <> Dist_rt then
    print_endline "dist.steals..dist.speedup come from a probe on the workload's inputs at smoke size";
  if wl.runtime <> Serve_rt then
    print_endline "server.* come from one job per smoke-size input on a fleet of the workload's topology";
  Printf.printf "bench.trace_overhead = traced / untraced %s - 1\n"
    (if wl.runtime = Serve_rt then "job_p50_s" else "solve_s")

(* ------------------------------------------------------------------ *)
(* Smoke mode and entry point.                                         *)
(* ------------------------------------------------------------------ *)

(* Every workload once at tiny size, with its correctness check: the
   forking runtimes first, shm last. *)
let smoke () =
  if not (Inputs.registry_matches ()) then count (Some "default seeds do not reproduce the registry instances");
  List.iter
    (fun rt ->
      List.iter
        (fun wl ->
          if wl.runtime = rt then begin
            let before = tally.failed in
            let insts = wl.build ~smoke:true ~seed:wl.default_seed in
            Inputs.prepare insts;
            (match rt with
             | Serve_rt ->
               let srv = start_server ~wl insts in
               List.iter (fun inst -> ignore (run_job ~port:(Server.port srv) inst)) insts;
               Server.stop srv
             | _ ->
               List.iter (fun inst -> ignore (solve ~runtime:rt ~localities:wl.localities ~workers:wl.workers inst)) insts);
            Printf.printf "smoke %-16s %s\n%!" wl.name (if tally.failed = before then "ok" else "FAILED")
          end)
        workloads)
    [ Dist_rt; Serve_rt; Shm_rt ];
  print_result ();
  exit (if tally.failed = 0 then 0 else 1)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) and commit = ref "unknown" and smoke_mode = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed (default: the workload's registry seed)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--nproc", Arg.Set_int nproc, "N processing units available (default: recommended domain count)");
      ("--commit", Arg.Set_string commit, "ID source revision for the fingerprint");
      ("--smoke", Arg.Set smoke_mode, " run every workload once at tiny size and check it") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !smoke_mode then smoke ();
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline
        ("unknown workload " ^ !workload ^ "; expected one of: "
        ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  if wl.localities * wl.workers > !nproc then begin
    Printf.eprintf "refusing %s: %d localities x %d workers exceeds nproc %d\n" wl.name wl.localities
      wl.workers !nproc;
    exit 2
  end;
  let seed = Option.value !seed ~default:wl.default_seed in
  fingerprint ~wl ~seed ~nproc:!nproc ~commit:!commit ~trace:(!trace = 1);
  if !trace = 1 then begin
    (* The per-layer probes take about as long again as the timed loop. *)
    traced ~wl ~seed ~seconds:(!seconds /. 2.);
    let dir = "perfbench/out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let file = Printf.sprintf "%s/spans-%s-%d.jsonl" dir wl.name seed in
    let n = Span.write ~run_id:(Printf.sprintf "%s-%d-%d" wl.name seed (Unix.getpid ())) file in
    Printf.printf "%d spans written to %s\n" n file
  end
  else untraced ~wl ~seed ~seconds:!seconds;
  print_result ()
