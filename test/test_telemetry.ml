(* Telemetry tests: recorder ring-buffer overflow, histogram bucket
   series, Prometheus exposition syntax, Chrome trace-event JSON
   well-formedness, and end-to-end traced runs on the shm and dist
   runtimes (including one-track-per-worker / one-process-per-locality
   structure and trace-does-not-perturb-the-search). *)

module Recorder = Yewpar_telemetry.Recorder
module Metrics = Yewpar_telemetry.Metrics
module Telemetry = Yewpar_telemetry.Telemetry
module Journal = Yewpar_telemetry.Journal
module Coordination = Yewpar_core.Coordination
module Stats = Yewpar_core.Stats
module Shm = Yewpar_par.Shm
module Dist = Yewpar_dist.Dist
module Queens = Yewpar_queens.Queens
module Http = Yewpar_telemetry.Http_export

let queens_n n = Queens.count_solutions (Queens.instance ~n)

(* ------------------------- minimal JSON parser ------------------------- *)

(* Just enough JSON to check the Chrome export is well-formed: objects,
   arrays, strings (escapes decoded naively), numbers, literals. *)
type json =
  | J_obj of (string * json) list
  | J_arr of json list
  | J_str of string
  | J_num of float
  | J_bool of bool
  | J_null

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise (Bad_json "eof") in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () <> c then
      raise (Bad_json (Printf.sprintf "expected %c at %d" c !pos));
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | 'u' ->
          advance ();
          pos := !pos + 4;
          Buffer.add_char b '?'
        | c ->
          advance ();
          Buffer.add_char b
            (match c with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c));
        loop ()
      | c ->
        advance ();
        Buffer.add_char b c;
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin advance (); J_obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((k, v) :: acc)
          | '}' -> advance (); J_obj (List.rev ((k, v) :: acc))
          | c -> raise (Bad_json (Printf.sprintf "bad object char %c" c))
        in
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin advance (); J_arr [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements (v :: acc)
          | ']' -> advance (); J_arr (List.rev (v :: acc))
          | c -> raise (Bad_json (Printf.sprintf "bad array char %c" c))
        in
        elements []
      end
    | '"' -> J_str (parse_string ())
    | 't' -> pos := !pos + 4; J_bool true
    | 'f' -> pos := !pos + 5; J_bool false
    | 'n' -> pos := !pos + 4; J_null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        advance ()
      done;
      if !pos = start then raise (Bad_json (Printf.sprintf "junk at %d" start));
      J_num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad_json "trailing garbage");
  v

let member k = function
  | J_obj kvs -> List.assoc_opt k kvs
  | _ -> None

let get_events json =
  match member "traceEvents" json with
  | Some (J_arr evs) -> evs
  | _ -> Alcotest.fail "traceEvents missing or not an array"

let str_field k ev =
  match member k ev with
  | Some (J_str s) -> s
  | _ -> Alcotest.fail (Printf.sprintf "field %S missing or not a string" k)

let num_field k ev =
  match member k ev with
  | Some (J_num f) -> f
  | _ -> Alcotest.fail (Printf.sprintf "field %S missing or not a number" k)

(* ---------------------------- recorder ---------------------------- *)

let test_ring_overflow () =
  let r = Recorder.create ~capacity:4 ~worker:0 () in
  for i = 0 to 9 do
    Recorder.span_dur r Recorder.Task ~start:(float_of_int i) ~dur:0.5 ~arg:i
  done;
  Alcotest.(check int) "recorded" 10 (Recorder.recorded r);
  Alcotest.(check int) "dropped" 6 (Recorder.dropped r);
  let b = Recorder.drain r in
  Alcotest.(check int) "batch drop count" 6 b.Recorder.b_dropped;
  Alcotest.(check int) "survivors" 4 (Recorder.length b);
  (* A full ring refuses the newest: the oldest spans survive, drained
     oldest-first. *)
  Alcotest.(check (array (float 1e-9)))
    "oldest retained, in order" [| 0.; 1.; 2.; 3. |] b.Recorder.b_starts;
  Alcotest.(check (array int)) "args follow" [| 0; 1; 2; 3 |] b.Recorder.b_args;
  Alcotest.(check int) "drops are reported once" 0
    (Recorder.drain r).Recorder.b_dropped

let test_ring_no_overflow () =
  let r = Recorder.create ~capacity:8 ~worker:1 () in
  Recorder.instant r Recorder.Bound_update ~arg:42;
  Recorder.span_dur r Recorder.Idle ~start:1. ~dur:2. ~arg:0;
  Alcotest.(check int) "dropped" 0 (Recorder.dropped r);
  let b = Recorder.drain r in
  Alcotest.(check int) "both drained" 2 (Recorder.length b);
  Alcotest.(check int) "worker id" 1 b.Recorder.b_worker;
  let kinds = Array.map Recorder.kind_of_tag b.Recorder.b_tags in
  Alcotest.(check bool) "kinds round-trip" true
    (kinds = [| Recorder.Bound_update; Recorder.Idle |]);
  Alcotest.(check (array int)) "records carry the job span by default"
    [| 0; 0 |] b.Recorder.b_spans

(* One producer domain records into a small ring while the consumer
   drains it in a loop: every record comes out exactly once, in
   recording order and untorn, or is counted as dropped. *)
let test_drain_stress () =
  let n = 200_000 in
  let r = Recorder.create ~capacity:64 ~worker:0 () in
  let writer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Recorder.record r Recorder.Task ~start:(float_of_int i) ~dur:0.
            ~arg:i ~span:i ~parent:(i + 1)
        done)
  in
  let drained = ref 0 and dropped = ref 0 and next = ref 0 and ok = ref true in
  let take () =
    let b = Recorder.drain r in
    dropped := !dropped + b.Recorder.b_dropped;
    for j = 0 to Recorder.length b - 1 do
      let i = b.Recorder.b_args.(j) in
      if
        i < !next
        || b.Recorder.b_spans.(j) <> i
        || b.Recorder.b_parents.(j) <> i + 1
        || b.Recorder.b_starts.(j) <> float_of_int i
      then ok := false;
      next := i + 1;
      incr drained
    done
  in
  while Recorder.recorded r < n do
    take ()
  done;
  Domain.join writer;
  take ();
  Alcotest.(check bool) "per-ring FIFO, no duplicate, no torn record" true !ok;
  Alcotest.(check int) "every record drained or counted dropped" n
    (!drained + !dropped);
  Alcotest.(check int) "drops agree with the ring" (Recorder.dropped r)
    !dropped;
  Alcotest.(check bool) "the consumer kept up at least partly" true
    (!drained > 0)

let test_null_recorder () =
  Recorder.span_dur Recorder.null Recorder.Task ~start:0. ~dur:1. ~arg:0;
  Recorder.instant Recorder.null Recorder.Pool ~arg:3;
  Alcotest.(check int) "null records nothing" 0 (Recorder.recorded Recorder.null);
  Alcotest.(check (float 0.)) "null clock" 0. (Recorder.now Recorder.null)

(* ---------------------------- metrics ----------------------------- *)

let test_buckets_125 () =
  let got = Metrics.buckets_125 ~lo:1e-2 ~hi:1. in
  Alcotest.(check (list (float 1e-9)))
    "1-2-5 series" [ 0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1. ] got;
  (* lo/hi not on the grid: starts at the largest value <= lo, ends at
     the smallest >= hi. *)
  let got = Metrics.buckets_125 ~lo:0.03 ~hi:0.3 in
  Alcotest.(check (list (float 1e-9))) "covers lo and hi"
    [ 0.02; 0.05; 0.1; 0.2; 0.5 ] got

let test_buckets_pow2 () =
  Alcotest.(check (list (float 0.)))
    "powers of two" [ 1.; 2.; 4.; 8.; 16. ] (Metrics.buckets_pow2 ~hi:10)

let test_histogram () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[ 1.; 2.; 5. ] "h" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.; 10. ];
  Alcotest.(check int) "count" 4 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 15. (Metrics.histogram_sum h);
  (* Cumulative per-bucket counts, +Inf last. *)
  match Metrics.histogram_buckets h with
  | [ (b1, c1); (b2, c2); (b3, c3); (binf, cinf) ] ->
    Alcotest.(check (list (float 1e-9))) "bounds" [ 1.; 2.; 5. ] [ b1; b2; b3 ];
    Alcotest.(check bool) "last is +Inf" true (binf = infinity);
    Alcotest.(check (list int)) "cumulative" [ 1; 2; 3; 4 ] [ c1; c2; c3; cinf ]
  | l -> Alcotest.fail (Printf.sprintf "expected 4 buckets, got %d" (List.length l))

let test_prometheus_syntax () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"Things counted." "things_total" in
  Metrics.inc ~by:3 c;
  let g = Metrics.gauge reg "level" in
  Metrics.set g 2.5;
  let h = Metrics.histogram reg ~buckets:[ 0.1; 1. ] "latency_seconds" in
  Metrics.observe h 0.05;
  Metrics.observe h 7.;
  let text = Metrics.to_prometheus reg in
  let contains sub =
    try
      ignore (Str.search_forward (Str.regexp_string sub) text 0);
      true
    with Not_found -> false
  in
  List.iter
    (fun sub -> Alcotest.(check bool) (Printf.sprintf "has %S" sub) true (contains sub))
    [ "# HELP things_total Things counted."; "# TYPE things_total counter";
      "things_total 3"; "# TYPE level gauge"; "level 2.5";
      "# TYPE latency_seconds histogram"; "latency_seconds_bucket{le=\"0.1\"} 1";
      "latency_seconds_bucket{le=\"+Inf\"} 2"; "latency_seconds_sum";
      "latency_seconds_count 2" ];
  (* Every non-comment, non-blank line is `name[{labels}] value`. *)
  let line_re =
    Str.regexp "^[a-zA-Z_:][a-zA-Z0-9_:]*\\({[^}]*}\\)? [^ ]+$"
  in
  List.iter
    (fun line ->
      if line <> "" && not (String.length line > 0 && line.[0] = '#') then
        Alcotest.(check bool)
          (Printf.sprintf "line %S well-formed" line)
          true
          (Str.string_match line_re line 0))
    (String.split_on_char '\n' text)

(* ------------------------- trace exporters ------------------------ *)

(* A sink holding what [record] wrote into one ring per (locality,
   worker). *)
let sink_of rings =
  let tl = Telemetry.create () in
  List.iter
    (fun (locality, worker, record) ->
      let r = Recorder.create ~worker () in
      record r;
      Telemetry.ingest tl ~locality ~offset:0. [ Recorder.drain r ])
    rings;
  tl

let test_chrome_export () =
  let tl =
    sink_of
      [
        ( 0,
          0,
          fun r ->
            Recorder.span_dur r Recorder.Task ~start:1. ~dur:0.25 ~arg:3;
            Recorder.instant r Recorder.Bound_update ~arg:7 );
        ( 1,
          0,
          fun r ->
            Recorder.span_dur r Recorder.Task ~start:1.5 ~dur:0.5 ~arg:1;
            Recorder.instant r Recorder.Pool ~arg:4 );
      ]
  in
  let json = parse_json (Telemetry.to_chrome tl) in
  let events = get_events json in
  Alcotest.(check bool) "has events" true (events <> []);
  List.iter
    (fun ev ->
      let ph = str_field "ph" ev in
      ignore (num_field "pid" ev);
      match ph with
      | "X" ->
        ignore (str_field "name" ev);
        ignore (num_field "ts" ev);
        ignore (num_field "dur" ev);
        ignore (num_field "tid" ev)
      | "i" ->
        ignore (num_field "ts" ev);
        ignore (num_field "tid" ev)
      | "C" -> ignore (num_field "ts" ev) (* counters are process-scoped *)
      | "M" -> ignore (str_field "name" ev)
      | ph -> Alcotest.fail ("unexpected ph " ^ ph))
    events;
  (* One complete event per durationful span, with µs timestamps
     relative to the earliest span. *)
  let xs = List.filter (fun ev -> str_field "ph" ev = "X") events in
  Alcotest.(check int) "two complete events" 2 (List.length xs);
  let durs = List.map (num_field "dur") xs |> List.sort compare in
  Alcotest.(check (list (float 1.))) "durations in us" [ 250_000.; 500_000. ] durs;
  let pids =
    List.sort_uniq compare (List.map (fun ev -> num_field "pid" ev) xs)
  in
  Alcotest.(check (list (float 0.))) "one pid per locality" [ 0.; 1. ] pids

let test_csv_export () =
  let tl =
    sink_of
      [
        ( 0,
          0,
          fun r -> Recorder.span_dur r Recorder.Task ~start:2. ~dur:0.5 ~arg:0 );
        ( 1,
          2,
          fun r ->
            Recorder.span_dur r Recorder.Idle ~start:2.5 ~dur:0.25 ~arg:0;
            (* pool samples and spawns are not rows *)
            Recorder.instant r Recorder.Pool ~arg:9;
            Recorder.record r Recorder.Spawn ~start:3. ~dur:0. ~arg:1 ~span:2
              ~parent:1 );
      ]
  in
  let lines =
    Telemetry.to_csv tl |> String.trim |> String.split_on_char '\n'
  in
  Alcotest.(check string) "header" "worker,start,duration,label" (List.hd lines);
  Alcotest.(check int) "one row per span" 2 (List.length (List.tl lines));
  (* Dense global worker numbering across localities. *)
  let workers =
    List.map (fun l -> List.hd (String.split_on_char ',' l)) (List.tl lines)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "dense ids" [ "0"; "1" ] workers

let test_clock_offset_ingest () =
  let tl = Telemetry.create () in
  let r = Recorder.create ~worker:0 () in
  Recorder.span_dur r Recorder.Task ~start:100. ~dur:1. ~arg:0;
  Telemetry.ingest tl ~locality:3 ~offset:50. [ Recorder.drain r ];
  match Telemetry.spans tl with
  | [ s ] ->
    Alcotest.(check (float 1e-9)) "offset applied" 150. s.Telemetry.start;
    Alcotest.(check int) "locality kept" 3 s.Telemetry.locality
  | l -> Alcotest.fail (Printf.sprintf "expected 1 span, got %d" (List.length l))

(* --------------------------- end to end --------------------------- *)

let coordination = Coordination.Depth_bounded { dcutoff = 2 }

let test_shm_traced () =
  let p = queens_n 8 in
  let untraced_stats = Stats.create () in
  let untraced = Shm.run ~workers:2 ~stats:untraced_stats ~coordination p in
  let tl = Telemetry.create () in
  let stats = Stats.create () in
  let traced = Shm.run ~workers:2 ~stats ~telemetry:tl ~coordination p in
  Alcotest.(check int) "same result" untraced traced;
  (* Tracing must not perturb the search. *)
  Alcotest.(check int) "same node count" untraced_stats.Stats.nodes
    stats.Stats.nodes;
  let spans = Telemetry.spans tl in
  let tasks =
    List.filter (fun s -> s.Telemetry.kind = Recorder.Task) spans
  in
  Alcotest.(check int) "one task span per task" stats.Stats.tasks
    (List.length tasks);
  let json = parse_json (Telemetry.to_chrome tl) in
  let tids =
    get_events json
    |> List.filter (fun ev ->
           match str_field "ph" ev with "X" | "i" -> true | _ -> false)
    |> List.map (fun ev -> num_field "tid" ev)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "a track per worker" 2 (List.length tids);
  (* The derived metrics agree with the trace. *)
  let prom = Telemetry.to_prometheus tl in
  Alcotest.(check bool) "task histogram present" true
    (try
       ignore
         (Str.search_forward
            (Str.regexp_string "# TYPE yewpar_task_duration_seconds histogram")
            prom 0);
       true
     with Not_found -> false)

let test_dist_traced () =
  let p = queens_n 8 in
  let untraced = Dist.run ~watchdog:120. ~localities:2 ~workers:2 ~coordination p in
  let tl = Telemetry.create () in
  let stats = Stats.create () in
  let traced =
    Dist.run ~watchdog:120. ~stats ~telemetry:tl ~localities:2 ~workers:2
      ~coordination p
  in
  Alcotest.(check int) "same result" untraced traced;
  let spans = Telemetry.spans tl in
  let localities =
    List.sort_uniq compare (List.map (fun s -> s.Telemetry.locality) spans)
  in
  Alcotest.(check (list int)) "spans from every locality" [ 0; 1 ] localities;
  let tasks =
    List.filter (fun s -> s.Telemetry.kind = Recorder.Task) spans
  in
  (* [Stats.tasks] counts spawns; the root arrives from the coordinator
     uncounted, so executions exceed spawns by exactly one. *)
  Alcotest.(check int) "one task span per executed task"
    (stats.Stats.tasks + 1) (List.length tasks);
  (* Perfetto structure: localities as process groups. *)
  let json = parse_json (Telemetry.to_chrome tl) in
  let pids =
    get_events json
    |> List.filter (fun ev -> str_field "ph" ev <> "M")
    |> List.map (fun ev -> num_field "pid" ev)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list (float 0.))) "a process per locality" [ 0.; 1. ] pids

(* The journal and the trace are two folds of the same ring records:
   every journal [task] line has exactly one Chrome [task] span on the
   same locality and worker starting at the same instant, and every
   journal [steal] line one [steal_success] span. The two timelines
   differ only by a constant (the journal counts from the writer's
   epoch, Chrome from the earliest span), so after sorting each
   worker's records the per-pair differences must agree to within
   half a microsecond. *)
let check_same_records ~what lines spans =
  let by_key l =
    let t = Hashtbl.create 8 in
    List.iter
      (fun (k, ts) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt t k) in
        Hashtbl.replace t k (ts :: prev))
      l;
    Hashtbl.fold (fun k v acc -> (k, List.sort compare v) :: acc) t []
    |> List.sort compare
  in
  let lk = by_key lines and sk = by_key spans in
  Alcotest.(check (list (pair int int)))
    (what ^ ": same workers") (List.map fst lk) (List.map fst sk);
  let diffs =
    List.concat_map
      (fun ((k, ls), (_, ss)) ->
        if List.length ls <> List.length ss then
          Alcotest.failf "%s: worker %d.%d has %d journal lines, %d spans" what
            (fst k) (snd k) (List.length ls) (List.length ss);
        List.map2 (fun l s -> s -. l) ls ss)
      (List.combine lk sk)
  in
  match diffs with
  | [] -> ()
  | d0 :: _ ->
    List.iter
      (fun d ->
        if Float.abs (d -. d0) >= 0.5 then
          Alcotest.failf "%s: a start differs by %.3fus between the surfaces"
            what (d -. d0))
      diffs

let check_cross_surface ~tasks run =
  let path = Filename.temp_file "yewpar_cross" ".jsonl" in
  let w = Journal.create ~path () in
  let tl = Telemetry.create () in
  Alcotest.(check int) "queens-10" 724 (run ~telemetry:tl ~journal:w);
  Journal.close w;
  let entries, malformed = Journal.read path in
  Sys.remove path;
  Alcotest.(check int) "no malformed lines" 0 malformed;
  let lines k =
    List.filter_map
      (fun e ->
        if e.Journal.e_ev = k then
          Some
            ( (e.Journal.e_locality, e.Journal.e_worker),
              e.Journal.e_at *. 1e6 )
        else None)
      entries
  in
  let spans name =
    get_events (parse_json (Telemetry.to_chrome tl))
    |> List.filter_map (fun ev ->
           match member "name" ev with
           | Some (J_str n) when n = name && str_field "ph" ev <> "M" ->
             let id k = int_of_float (num_field k ev) in
             Some ((id "pid", id "tid"), num_field "ts" ev)
           | _ -> None)
  in
  Alcotest.(check int) "journal task lines" tasks
    (List.length (lines Journal.Task));
  Alcotest.(check int) "chrome task spans" tasks (List.length (spans "task"));
  check_same_records ~what:"task" (lines Journal.Task) (spans "task");
  check_same_records ~what:"steal" (lines Journal.Steal)
    (spans "steal_success");
  let idle = List.map fst (lines Journal.Idle) in
  Alcotest.(check int) "at most one idle line per worker"
    (List.length (List.sort_uniq compare idle)) (List.length idle)

let queens_10_tasks = 83 (* depthbounded:2: the root, 10 + 72 children *)

let test_cross_surface_dist () =
  check_cross_surface ~tasks:queens_10_tasks (fun ~telemetry ~journal ->
      Dist.run ~watchdog:120. ~telemetry ~journal ~localities:2 ~workers:1
        ~coordination (queens_n 10))

let test_cross_surface_shm () =
  check_cross_surface ~tasks:queens_10_tasks (fun ~telemetry ~journal ->
      Shm.run ~workers:2 ~telemetry ~journal ~coordination (queens_n 10))

(* ------------------------- HTTP exporter ------------------------- *)

(* [Http.start] spawns a domain, so these must stay after the dist
   end-to-end test (forking is impossible once a domain exists). *)

(* Split a raw HTTP response into status code, header lines and body,
   and check the invariant every response must satisfy: an exact
   [Content-Length] and [Connection: close]. *)
let check_response ~expect_status raw =
  let hdr_end =
    try Str.search_forward (Str.regexp_string "\r\n\r\n") raw 0
    with Not_found -> Alcotest.failf "no header/body split in %S" raw
  in
  let headers = String.sub raw 0 hdr_end in
  let body = String.sub raw (hdr_end + 4) (String.length raw - hdr_end - 4) in
  let status =
    match String.split_on_char ' ' headers with
    | _ :: code :: _ -> int_of_string code
    | _ -> Alcotest.failf "bad status line in %S" headers
  in
  Alcotest.(check int) "status" expect_status status;
  let header name =
    let re = Str.regexp_case_fold (name ^ ": *\\([^\r\n]*\\)") in
    try
      ignore (Str.search_forward re headers 0);
      Some (Str.matched_group 1 headers)
    with Not_found -> None
  in
  Alcotest.(check (option string))
    "content-length matches body"
    (Some (string_of_int (String.length body)))
    (header "Content-Length");
  Alcotest.(check (option string))
    "connection: close" (Some "close") (header "Connection");
  body

let test_http_routes_errors () =
  (* Routes only, no catch-all: unknown paths 404, non-GET 405. *)
  let t = Http.start ~routes:[ ("/ok", fun () -> ("text/plain", "fine")) ] () in
  let port = Http.port t in
  Fun.protect
    ~finally:(fun () -> Http.stop t)
    (fun () ->
      let body = check_response ~expect_status:200 (Http.get ~port "/ok") in
      Alcotest.(check string) "route body" "fine" body;
      let body = check_response ~expect_status:404 (Http.get ~port "/nope") in
      Alcotest.(check bool) "404 has a body" true (String.length body > 0);
      let raw =
        Http.raw ~timeout:5.0 ~port
          "POST /ok HTTP/1.0\r\nContent-Length: 0\r\n\r\n"
      in
      ignore (check_response ~expect_status:405 raw);
      (* An unparsable request line is a 400, not a dropped socket. *)
      let raw = Http.raw ~timeout:5.0 ~port "NOT-EVEN-HTTP\r\n\r\n" in
      ignore (check_response ~expect_status:400 raw);
      (* A Content-Length the server refuses to buffer is a 400 too. *)
      let raw =
        Http.raw ~timeout:5.0 ~port
          "POST /ok HTTP/1.0\r\nContent-Length: 99999999\r\n\r\n"
      in
      ignore (check_response ~expect_status:400 raw))

let test_http_handler () =
  (* A catch-all handler: parsed method and body reach it; exceptions
     become 500s and the server survives them. *)
  let t =
    Http.start
      ~handler:(fun req ->
        if req.Http.path = "/boom" then failwith "kaboom"
        else
          {
            Http.status = 200;
            content_type = "text/plain";
            body = Printf.sprintf "%s:%s" req.Http.meth req.Http.body;
          })
      ()
  in
  let port = Http.port t in
  Fun.protect
    ~finally:(fun () -> Http.stop t)
    (fun () ->
      let status, body = Http.request ~meth:"POST" ~body:"hello" ~port "/echo" in
      Alcotest.(check int) "handler 200" 200 status;
      Alcotest.(check string) "method and body parsed" "POST:hello" body;
      let body = check_response ~expect_status:500 (Http.get ~port "/boom") in
      Alcotest.(check bool) "500 has a body" true (String.length body > 0);
      (* Still alive after the 500. *)
      let status, _ = Http.request ~port "/after" in
      Alcotest.(check int) "server survived the raise" 200 status)

let () =
  Alcotest.run "telemetry"
    [
      ( "recorder",
        [
          Alcotest.test_case "ring overflow drops newest" `Quick
            test_ring_overflow;
          Alcotest.test_case "no overflow round-trip" `Quick test_ring_no_overflow;
          Alcotest.test_case "null recorder" `Quick test_null_recorder;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "1-2-5 bucket series" `Quick test_buckets_125;
          Alcotest.test_case "pow2 bucket series" `Quick test_buckets_pow2;
          Alcotest.test_case "histogram cumulative counts" `Quick test_histogram;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_syntax;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace events" `Quick test_chrome_export;
          Alcotest.test_case "csv spans" `Quick test_csv_export;
          Alcotest.test_case "ingest applies clock offset" `Quick
            test_clock_offset_ingest;
        ] );
      (* dist forks localities, which OCaml forbids once domains have
         been spawned — so it must run before any shm test. *)
      ( "end-to-end",
        [
          Alcotest.test_case "dist traced run" `Quick test_dist_traced;
          Alcotest.test_case "dist journal matches trace" `Quick
            test_cross_surface_dist;
          Alcotest.test_case "shm traced run" `Quick test_shm_traced;
          Alcotest.test_case "shm journal matches trace" `Quick
            test_cross_surface_shm;
        ] );
      (* Spawns a domain: after every fork. *)
      ( "drain",
        [
          Alcotest.test_case "concurrent drain stress" `Quick
            test_drain_stress;
        ] );
      (* After end-to-end: Http.start spawns a domain. *)
      ( "http",
        [
          Alcotest.test_case "routes, 404, 405, 400" `Quick
            test_http_routes_errors;
          Alcotest.test_case "handler, POST body, 500" `Quick test_http_handler;
        ] );
    ]
