module Coordination = Yewpar_core.Coordination
module Problem = Yewpar_core.Problem
module Codec = Yewpar_core.Codec
module Stats = Yewpar_core.Stats
module Sequential = Yewpar_core.Sequential
module Telemetry = Yewpar_telemetry.Telemetry

(* Combine the coordinator's collected results by search kind.

   Enumerate: the retired lease deltas partition the search tree —
   folding them is the answer (residuals carry nothing).

   Optimise/Decide: deltas, residuals and the coordinator's witness are
   all idempotent (value, encoded node) candidates; take the best. The
   witness matters when the incumbent's finder died before retiring the
   lease that found it. *)
let combine (type s n r) (p : (s, n, r) Problem.t) (codec : n Codec.t)
    (outcome : Coordinator.outcome) : r =
  let best_candidate () =
    let best =
      List.fold_left
        (fun best s ->
          match ((Marshal.from_string s 0 : (int * string) option), best) with
          | None, b -> b
          | Some (v, e), None -> Some (v, e)
          | Some (v, e), Some (bv, _) when v > bv -> Some (v, e)
          | Some _, b -> b)
        None
        (outcome.Coordinator.deltas @ outcome.Coordinator.residuals)
    in
    match (outcome.Coordinator.witness, best) with
    | Some (v, e), Some (bv, _) when v > bv -> Some (v, e)
    | Some w, None -> Some w
    | _, b -> b
  in
  match p.Problem.kind with
  | Problem.Enumerate spec ->
    List.fold_left
      (fun acc s -> spec.Problem.combine acc (Marshal.from_string s 0))
      spec.Problem.empty outcome.Coordinator.deltas
  | Problem.Optimise _ -> (
    match best_candidate () with
    | Some (_, e) -> codec.Codec.decode e
    | None -> failwith "Dist: optimisation finished without processing the root")
  | Problem.Decide { target; _ } -> (
    match best_candidate () with
    | Some (v, e) when v >= target -> Some (codec.Codec.decode e)
    | Some _ | None -> None)

let default_heartbeat = 0.5
let default_failure_timeout = 10.0

let distributed_run (type s n r) ?stats ?broadcasts ?telemetry ?journal
    ?watchdog ?monitor_port ?(heartbeat = default_heartbeat)
    ?(failure_timeout = default_failure_timeout) ?lease_timeout
    ?(max_respawns = 0) ?chaos ?(chaos_seed = 0) ?on_monitor ?timing
    ~localities ~workers ~coordination (p : (s, n, r) Problem.t) : r =
  if localities < 1 then invalid_arg "Dist.run: localities must be >= 1";
  if workers < 1 then invalid_arg "Dist.run: workers must be >= 1";
  if max_respawns < 0 then invalid_arg "Dist.run: max_respawns must be >= 0";
  let codec =
    match p.Problem.codec with
    | Some c -> c
    | None ->
      invalid_arg
        (Printf.sprintf
           "Dist.run: problem %S has no task codec and cannot be distributed"
           p.Problem.name)
  in
  (* Respawn works by promotion: OCaml 5 cannot fork once a domain has
     been spawned (the monitor HTTP server runs in one), so the spares
     are pre-forked standby localities, idle until promoted. *)
  let total = localities + max_respawns in
  let plans =
    Array.init total (fun i ->
        match chaos with
        | None -> None
        | Some spec -> Chaos.plan spec ~seed:chaos_seed ~locality:i)
  in
  (* A locality death must surface as Transport.Closed, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Children inherit the channel buffers and flush them when their
     domains exit; empty the buffers now so output is printed once. *)
  flush stdout;
  flush stderr;
  let pairs =
    Array.init total (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let pids =
    Array.init total (fun i ->
        match Unix.fork () with
        | 0 ->
          (* Locality process: keep only our own socket end. Exit with
             _exit so the parent's buffered output is not re-flushed,
             and nonzero whenever the coordinator vanished first. *)
          let code =
            try
              Array.iteri
                (fun j (coord_fd, loc_fd) ->
                  if j <> i then begin
                    Unix.close coord_fd;
                    Unix.close loc_fd
                  end
                  else Unix.close coord_fd)
                pairs;
              (* Ctrl-C hits the whole foreground process group; let
                 the coordinator turn it into a Shutdown broadcast
                 instead of killing localities mid-frame. *)
              Sys.set_signal Sys.sigint Sys.Signal_ignore;
              let conn = Transport.create (snd pairs.(i)) in
              (* Heartbeats are always on: they feed the coordinator's
                 failure detector, not just live monitoring. *)
              Locality.run
                ~record:(telemetry <> None || journal <> None)
                ~heartbeat ?chaos:plans.(i)
                ?config:timing ~conn ~workers ~coordination p;
              Transport.close conn;
              0
            with _ -> 1
          in
          Unix._exit code
        | pid -> pid)
  in
  Array.iter (fun (_, loc_fd) -> Unix.close loc_fd) pairs;
  let conns = Array.map (fun (coord_fd, _) -> Transport.create coord_fd) pairs in
  (* Graceful shutdown: SIGTERM/SIGINT cancel the run through the
     coordinator — Shutdown is broadcast, localities report and exit,
     and the finally block below reaps them, so no orphan survives a
     ^C. The handlers are installed after the fork (children ignore
     SIGINT above) and restored on the way out. *)
  let signalled = ref None in
  let name_of s = if s = Sys.sigterm then "SIGTERM" else "SIGINT" in
  let previous =
    List.map
      (fun s ->
        ( s,
          Sys.signal s
            (Sys.Signal_handle
               (fun s -> if !signalled = None then signalled := Some (name_of s)))
        ))
      [ Sys.sigterm; Sys.sigint ]
  in
  let cancelled () =
    Option.map (fun s -> "cancelled by " ^ s) !signalled
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (s, h) -> Sys.set_signal s h) previous;
      Array.iter (fun c -> try Transport.close c with _ -> ()) conns;
      (* Reap every locality; kill stragglers so no orphan outlives the
         coordinator. A locality exits a fraction of a millisecond after
         its last frame, so the pause between checks starts at 0.1 ms
         and doubles up to 10 ms: a flat 10 ms would add that much to
         a run whenever the first check came too early. *)
      Array.iter
        (fun pid ->
          let deadline = Unix.gettimeofday () +. 2.0 in
          let rec reap pause =
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ ->
              if Unix.gettimeofday () > deadline then begin
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                ignore (Unix.waitpid [] pid)
              end
              else begin
                ignore (Unix.select [] [] [] pause);
                reap (Float.min 0.01 (2. *. pause))
              end
            | _, _ -> ()
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pause
          in
          reap 0.0001)
        pids)
    (fun () ->
      let outcome =
        Coordinator.run ?watchdog ?monitor_port ?on_monitor
          ~failure_timeout ?lease_timeout ~standby_from:localities
          ~pool_policy:(Yewpar_runtime.Task_pool.policy_for coordination)
          ~cancelled ?telemetry ?journal ~conns
          ~root_payload:(codec.Codec.encode p.Problem.root) ()
      in
      (match outcome.Coordinator.failure with
      | Some msg -> failwith ("Dist: " ^ msg)
      | None -> ());
      (match stats with
      | Some st -> Stats.add st outcome.Coordinator.stats
      | None -> ());
      (match broadcasts with
      | Some r -> r := outcome.Coordinator.broadcasts
      | None -> ());
      combine p codec outcome)

let run ?stats ?broadcasts ?telemetry ?journal ?watchdog ?monitor_port
    ?heartbeat ?failure_timeout ?lease_timeout ?max_respawns ?chaos
    ?chaos_seed ?on_monitor ?timing ~localities ~workers ~coordination p =
  match coordination with
  | Coordination.Sequential ->
    Telemetry.solo ?sink:telemetry ?journal (fun () ->
        Sequential.search ?stats p)
  | Coordination.Depth_bounded _ | Coordination.Stack_stealing _
  | Coordination.Budget _ | Coordination.Best_first _
  | Coordination.Random_spawn _ ->
    distributed_run ?stats ?broadcasts ?telemetry ?journal ?watchdog
      ?monitor_port ?heartbeat ?failure_timeout ?lease_timeout ?max_respawns
      ?chaos ?chaos_seed ?on_monitor ?timing ~localities ~workers
      ~coordination p
