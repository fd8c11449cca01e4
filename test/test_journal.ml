(* Causal journal tests: the ring fold (overflow counted as
   journal_drop), the JSONL writer (schema round-trip, clock offsets,
   size-based rotation), the closed kind set against
   scripts/validate_journal.py, the tolerant reader, the critical-path
   report on synthetic spans, and an end-to-end shm run. *)

module Journal = Yewpar_telemetry.Journal
module Recorder = Yewpar_telemetry.Recorder
module Shm = Yewpar_par.Shm
module Coordination = Yewpar_core.Coordination
module Sequential = Yewpar_core.Sequential
module Queens = Yewpar_queens.Queens

let temp_path () = Filename.temp_file "yewpar_journal" ".jsonl"

let with_writer ?max_bytes ?trace f =
  let path = temp_path () in
  let w = Journal.create ?max_bytes ?trace ~path () in
  Fun.protect
    ~finally:(fun () ->
      Journal.close w;
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".1") then Sys.remove (path ^ ".1"))
    (fun () -> f path w)

(* ----------------------------- buffer ----------------------------- *)

let buffer_overflow_drops () =
  (* A full ring must drop (and count) instead of blocking or growing:
     emitters sit on the search hot path. The journal reports the
     count in one journal_drop line. *)
  with_writer @@ fun path w ->
  let r = Recorder.create ~capacity:4 ~worker:0 () in
  let task i =
    Recorder.record r Recorder.Task ~start:(float_of_int i) ~dur:0. ~arg:0
      ~span:i ~parent:(-1)
  in
  for i = 1 to 10 do
    task i
  done;
  Alcotest.(check int) "six dropped" 6 (Recorder.dropped r);
  let tally = Journal.tally () in
  Journal.write_batches w tally ~locality:0 [ Recorder.drain r ];
  Alcotest.(check int) "drain empties" 0 (Recorder.length (Recorder.drain r));
  task 11;
  Journal.write_batches w tally ~locality:0 [ Recorder.drain r ];
  Journal.write_totals w tally ~locality:0 ~t:20.;
  Journal.close w;
  let entries, _ = Journal.read path in
  let spans k =
    List.filter_map
      (fun e -> if e.Journal.e_ev = k then Some e.Journal.e_span else None)
      entries
  in
  Alcotest.(check (list int)) "oldest events survive, in order, and the \
                                drained ring accepts again"
    [ 1; 2; 3; 4; 11 ] (spans Journal.Task);
  Alcotest.(check (list int)) "one journal_drop line" [ 6 ]
    (List.filter_map
       (fun e ->
         if e.Journal.e_ev = Journal.Journal_drop then Some e.Journal.e_value
         else None)
       entries)

(* ----------------------------- writer ----------------------------- *)

let schema_roundtrip () =
  (* Every field must survive write -> read, including the writer's
     trace stamp and the epoch-relative [at] derived from [t] plus the
     per-batch clock offset. *)
  with_writer ~trace:"t-test" @@ fun path w ->
  let t0 = 1000. in
  Journal.emit w ~parent:3 ~locality:2 ~worker:1 ~t:t0 ~dur:0.5 ~value:42
    ~note:"hello" Journal.Task ~span:7;
  let r = Recorder.create ~worker:0 () in
  Recorder.record r Recorder.Bound_update ~start:t0 ~dur:0. ~arg:5 ~span:0
    ~parent:(-1);
  Journal.write_batches w ~trace:"t-other" ~offset:10. (Journal.tally ())
    ~locality:1 [ Recorder.drain r ];
  Alcotest.(check int) "written counts" 2 (Journal.written w);
  Journal.close w;
  let entries, malformed = Journal.read path in
  Alcotest.(check int) "no malformed lines" 0 malformed;
  match entries with
  | [ a; b ] ->
    Alcotest.(check string) "trace" "t-test" a.Journal.e_trace;
    Alcotest.(check bool) "ev" true (a.Journal.e_ev = Journal.Task);
    Alcotest.(check int) "span" 7 a.Journal.e_span;
    Alcotest.(check int) "parent" 3 a.Journal.e_parent;
    Alcotest.(check int) "locality" 2 a.Journal.e_locality;
    Alcotest.(check int) "worker" 1 a.Journal.e_worker;
    Alcotest.(check (float 1e-9)) "ts is the raw emitter clock" t0
      a.Journal.e_ts;
    Alcotest.(check (float 1e-9)) "dur" 0.5 a.Journal.e_dur;
    Alcotest.(check int) "value" 42 a.Journal.e_value;
    Alcotest.(check string) "note" "hello" a.Journal.e_note;
    Alcotest.(check string) "per-write trace override" "t-other"
      b.Journal.e_trace;
    Alcotest.(check bool) "ring bound_update folds to bound" true
      (b.Journal.e_ev = Journal.Bound);
    Alcotest.(check int) "record argument is the value" 5 b.Journal.e_value;
    Alcotest.(check int) "null parent reads as -1" (-1) b.Journal.e_parent;
    (* Both events carry the same emitter timestamp, but b's batch
       declared a +10s clock offset — its writer-relative [at] must
       land exactly 10s after a's. *)
    Alcotest.(check (float 1e-6)) "offset shifts at" 10.
      (b.Journal.e_at -. a.Journal.e_at)
  | l -> Alcotest.failf "expected 2 entries, read %d" (List.length l)

let rotation_at_size_limit () =
  (* Crossing max_bytes renames the live file to path.1 and keeps
     appending to a fresh file; the reader stitches both in order. *)
  with_writer ~max_bytes:2048 @@ fun path w ->
  for i = 1 to 100 do
    Journal.emit w ~t:(float_of_int i) Journal.Task ~span:i
  done;
  Alcotest.(check bool) "rotated at least once" true (Journal.rotations w >= 1);
  Alcotest.(check bool) "rotation file exists" true
    (Sys.file_exists (path ^ ".1"));
  Alcotest.(check int) "all events counted" 100 (Journal.written w);
  Journal.close w;
  let entries, malformed = Journal.read path in
  Alcotest.(check int) "no malformed lines" 0 malformed;
  Alcotest.(check bool) "rotation loses only whole prefixes" true
    (List.length entries > 0 && List.length entries <= 100);
  (* The stitched read must cover a contiguous suffix ending at the
     last write — rotation may drop the oldest generation (path.1 only
     keeps one), never reorder or tear lines. *)
  let spans = List.map (fun e -> e.Journal.e_span) entries in
  let rec consecutive = function
    | a :: (b :: _ as tl) -> a + 1 = b && consecutive tl
    | _ -> true
  in
  Alcotest.(check bool) "contiguous ascending spans" true (consecutive spans);
  Alcotest.(check int) "suffix ends at the last event" 100
    (List.nth spans (List.length spans - 1))

let malformed_lines_tolerated () =
  let good =
    {|{"v":1,"trace":"t","ev":"job_start","span":0,"parent":null,"loc":0,"worker":-1,"ts":1.0,"at":0.0,"dur":0.0,"value":0,"note":""}|}
  in
  let content =
    String.concat "\n"
      [
        good;
        "this is not json";
        {|{"v":99,"trace":"t","ev":"task","span":1,"parent":0,"loc":0,"worker":0,"ts":1.0,"at":0.0,"dur":0.1,"value":0,"note":"wrong version"}|};
        {|{"v":1,"trace":"t","span":1,"parent":0}|};
        "";
        good;
      ]
  in
  let entries, malformed = Journal.read_string content in
  Alcotest.(check int) "good lines kept" 2 (List.length entries);
  Alcotest.(check int) "bad lines counted, blanks ignored" 3 malformed

(* ------------------------------ kinds ------------------------------ *)

(* The kind set scripts/validate_journal.py accepts: the quoted names
   inside its KNOWN_EVENTS = { ... } literal. *)
let script_kinds () =
  let src =
    In_channel.with_open_text "../scripts/validate_journal.py"
      In_channel.input_all
  in
  let start =
    Str.search_forward (Str.regexp_string "KNOWN_EVENTS = {") src 0
  in
  let stop = String.index_from src start '}' in
  let body = String.sub src start (stop - start) in
  let re = Str.regexp {|"\([a-z_]+\)"|} in
  let rec names pos acc =
    match Str.search_forward re body pos with
    | i -> names (i + 1) (Str.matched_group 1 body :: acc)
    | exception Not_found -> List.sort_uniq compare acc
  in
  names 0 []

let kinds_match_validator () =
  let ours = List.sort compare (List.map Journal.kind_name Journal.kinds) in
  Alcotest.(check int) "kinds lists each constructor once"
    (List.length Journal.kinds)
    (List.length (List.sort_uniq compare ours));
  Alcotest.(check (list string)) "validate_journal.py knows exactly our kinds"
    ours (script_kinds ())

let kinds_roundtrip () =
  (* Every constructor written by the writer reads back as itself. *)
  with_writer @@ fun path w ->
  List.iter (fun k -> Journal.emit w k ~span:1) Journal.kinds;
  Journal.close w;
  let content = In_channel.with_open_text path In_channel.input_all in
  let entries, malformed = Journal.read_string content in
  Alcotest.(check int) "no malformed lines" 0 malformed;
  Alcotest.(check (list string)) "every kind round-trips"
    (List.map Journal.kind_name Journal.kinds)
    (List.map (fun e -> Journal.kind_name e.Journal.e_ev) entries);
  List.iter2
    (fun k e ->
      Alcotest.(check bool) (Journal.kind_name k) true (e.Journal.e_ev = k))
    Journal.kinds entries

(* ----------------------------- report ----------------------------- *)

(* A synthetic two-worker trace with a known critical path:
     job 0
       lease 1 (loc 0): tasks [0,1) and [1,2)        self 2.0
         spill 2 (loc 1): task [1,4)                 self 3.0
         spill 3 (loc 0): task [2,2.5)               self 0.5
   The heaviest chain is 0 -> 1 -> 2; span 2's interval [1,4) overlaps
   span 1's [1,2) so the path total must count that second only once:
   2.0 + (3.0 - 1.0) = 4.0 = wall. *)
let synthetic_entries () =
  let lines =
    [
      {|{"v":1,"trace":"s","ev":"job_start","span":0,"parent":null,"loc":-1,"worker":-1,"ts":100.0,"at":0.0,"dur":0.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"lease_issue","span":1,"parent":0,"loc":0,"worker":-1,"ts":100.0,"at":0.0,"dur":0.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"spill","span":2,"parent":1,"loc":0,"worker":-1,"ts":100.5,"at":0.5,"dur":0.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"spill","span":3,"parent":1,"loc":0,"worker":-1,"ts":100.5,"at":0.5,"dur":0.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"task","span":1,"parent":-1,"loc":0,"worker":0,"ts":100.0,"at":0.0,"dur":1.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"task","span":1,"parent":-1,"loc":0,"worker":0,"ts":101.0,"at":1.0,"dur":1.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"task","span":2,"parent":-1,"loc":1,"worker":0,"ts":101.0,"at":1.0,"dur":3.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"task","span":3,"parent":-1,"loc":0,"worker":1,"ts":102.0,"at":2.0,"dur":0.5,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"idle","span":0,"parent":null,"loc":0,"worker":1,"ts":104.0,"at":4.0,"dur":1.5,"value":0,"note":""}|};
      {|{"v":1,"trace":"s","ev":"job_done","span":0,"parent":null,"loc":-1,"worker":-1,"ts":104.0,"at":4.0,"dur":4.0,"value":0,"note":""}|};
    ]
  in
  let entries, malformed = Journal.read_string (String.concat "\n" lines) in
  Alcotest.(check int) "synthetic journal parses" 0 malformed;
  entries

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let report_critical_path () =
  let report = Journal.report (synthetic_entries ()) in
  Alcotest.(check bool) "critical path is 0->1->2, interval-deduped" true
    (contains report "critical path: 4.0000s over 3 span(s) (wall 4.0000s)");
  (* worker time: compute 5.5s, idle 1.5s, 7.0s accounted. *)
  Alcotest.(check bool) "overhead fractions" true
    (contains report
       "compute 0.786, replay-waste 0.000, steal-wait 0.000, idle 0.214 \
        (sum 1.000)");
  Alcotest.(check bool) "all causal links resolve" true
    (contains report "causal links: 3/3 parent references resolve")

let report_orphans_and_traces () =
  (* Events whose parent span was never defined must still be reported
     (attached to the root), and distinct trace ids must get distinct
     sections. *)
  let lines =
    [
      {|{"v":1,"trace":"a","ev":"job_start","span":0,"parent":null,"loc":-1,"worker":-1,"ts":0.0,"at":0.0,"dur":0.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"a","ev":"task","span":5,"parent":9,"loc":0,"worker":0,"ts":0.0,"at":0.0,"dur":1.0,"value":0,"note":""}|};
      {|{"v":1,"trace":"b","ev":"job_start","span":0,"parent":null,"loc":-1,"worker":-1,"ts":0.0,"at":0.0,"dur":0.0,"value":0,"note":""}|};
    ]
  in
  let entries, _ = Journal.read_string (String.concat "\n" lines) in
  let report = Journal.report entries in
  Alcotest.(check bool) "trace a reported" true (contains report "trace a:");
  Alcotest.(check bool) "trace b reported" true (contains report "trace b:");
  Alcotest.(check bool) "unresolved parent counted" true
    (contains report "causal links: 0/1 parent references resolve")

(* ------------------------------ e2e ------------------------------ *)

let shm_end_to_end () =
  (* A real multicore run: the journal must open with job_start, close
     with job_done, attribute every task to a span whose spawn parent
     resolves, and not change the answer. *)
  with_writer @@ fun path w ->
  let p = Queens.count_solutions (Queens.instance ~n:8) in
  let expected = Sequential.search p in
  let r =
    Shm.run ~workers:2 ~journal:w
      ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
      p
  in
  Alcotest.(check int) "queens-8 exact under journalling" expected r;
  Journal.close w;
  let entries, malformed = Journal.read path in
  Alcotest.(check int) "no malformed lines" 0 malformed;
  let kinds = List.map (fun e -> Journal.kind_name e.Journal.e_ev) entries in
  Alcotest.(check string) "opens with job_start" "job_start" (List.hd kinds);
  Alcotest.(check string) "closes with job_done" "job_done"
    (List.nth kinds (List.length kinds - 1));
  Alcotest.(check bool) "tasks were journalled" true
    (List.mem "task" kinds);
  Alcotest.(check bool) "spawns were journalled" true
    (List.mem "spawn" kinds);
  let spans = Hashtbl.create 64 in
  Hashtbl.replace spans 0 ();
  List.iter (fun e -> Hashtbl.replace spans e.Journal.e_span ()) entries;
  List.iter
    (fun e ->
      if e.Journal.e_parent >= 0 && not (Hashtbl.mem spans e.Journal.e_parent)
      then
        Alcotest.failf "parent %d of %s span %d does not resolve"
          e.Journal.e_parent
          (Journal.kind_name e.Journal.e_ev)
          e.Journal.e_span)
    entries;
  (* One trace, and the report pipeline accepts the file whole. *)
  let report = Journal.report entries in
  Alcotest.(check bool) "report finds a critical path" true
    (contains report "critical path:")

let seq_runtime_journal () =
  (* The sequential fallback writes the three-event shape so seq
     baselines land in the same report pipeline. *)
  with_writer @@ fun path w ->
  let p = Queens.count_solutions (Queens.instance ~n:6) in
  let _ = Shm.run ~journal:w ~coordination:Coordination.Sequential p in
  Journal.close w;
  let entries, malformed = Journal.read path in
  Alcotest.(check int) "no malformed lines" 0 malformed;
  Alcotest.(check (list string)) "job_start, task, job_done"
    [ "job_start"; "task"; "job_done" ]
    (List.map (fun e -> Journal.kind_name e.Journal.e_ev) entries)

let () =
  Alcotest.run "journal"
    [
      ( "buffer",
        [ Alcotest.test_case "overflow drops and counts" `Quick
            buffer_overflow_drops ] );
      ( "writer",
        [
          Alcotest.test_case "schema roundtrip" `Quick schema_roundtrip;
          Alcotest.test_case "rotation at size limit" `Quick
            rotation_at_size_limit;
          Alcotest.test_case "malformed lines tolerated" `Quick
            malformed_lines_tolerated;
        ] );
      ( "kinds",
        [
          Alcotest.test_case "match validate_journal.py" `Quick
            kinds_match_validator;
          Alcotest.test_case "round-trip through read_string" `Quick
            kinds_roundtrip;
        ] );
      ( "report",
        [
          Alcotest.test_case "critical path and overheads" `Quick
            report_critical_path;
          Alcotest.test_case "orphans and multiple traces" `Quick
            report_orphans_and_traces;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "shm run journals causally" `Quick shm_end_to_end;
          Alcotest.test_case "sequential baseline shape" `Quick
            seq_runtime_journal;
        ] );
    ]
