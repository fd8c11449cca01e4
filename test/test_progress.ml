(* Progress estimation: the stratified tree-size estimator, the
   monotone tracker, and end-of-run exactness on the sequential and
   shared-memory runtimes. (Distributed exactness — including under
   chaos — lives in test_dist, which owns the forking runtime.) *)

module Problem = Yewpar_core.Problem
module Sequential = Yewpar_core.Sequential
module Coordination = Yewpar_core.Coordination
module Stats = Yewpar_core.Stats
module Depth_profile = Yewpar_core.Depth_profile
module Progress = Yewpar_core.Progress
module Track = Yewpar_telemetry.Progress
module Journal = Yewpar_telemetry.Journal
module Shm = Yewpar_par.Shm

(* ------------------------ synthetic trees ------------------------- *)

type tree = T of tree list

let rec mk_tree depth breadth =
  T (if depth = 0 then [] else List.init breadth (fun _ -> mk_tree (depth - 1) breadth))

let count_problem t =
  Problem.count_nodes ~name:"count" ~space:() ~root:t
    ~children:(fun () (T cs) -> List.to_seq cs)
    ()

(* Simulate the engine's recording discipline on a balanced tree with a
   node budget: note a node on entry, record its completion only when
   every child subtree was fully explored — exactly when the engine's
   frame would be left. *)
let rec dfs prof budget depth ~branch ~maxd =
  if !budget <= 0 then false
  else begin
    decr budget;
    Depth_profile.note_node prof depth;
    if depth = maxd then begin
      Depth_profile.note_complete prof depth 0;
      true
    end
    else begin
      let full = ref true in
      let i = ref 0 in
      while !full && !i < branch do
        incr i;
        if not (dfs prof budget (depth + 1) ~branch ~maxd) then full := false
      done;
      if !full then Depth_profile.note_complete prof depth branch;
      !full
    end
  end

let dfs_sample ~budget ~branch ~maxd =
  let prof = Depth_profile.create ~profiled:false ~progress:true () in
  let b = ref budget in
  ignore (dfs prof b 0 ~branch ~maxd);
  Progress.of_profile prof

(* balanced branch-3 depth-7 tree: 3^0 + ... + 3^7 nodes *)
let b3d7_size = 3280

(* ------------------------- the estimator -------------------------- *)

(* A mid-run sample with every stratum partially completed (the steady
   state of a parallel run): uniform branching 3 means the chain must
   reconstruct the full 3280-node total exactly, with a zero-width
   band. *)
let balanced_chain () =
  let rows = 8 in
  let pow3 = Array.init rows (fun d -> int_of_float (3. ** float_of_int d)) in
  let completed = Array.init rows (fun d -> max 1 (pow3.(d) / 4)) in
  let s =
    { Progress.rows;
      nodes = Array.copy completed;
      completed;
      children =
        Array.init rows (fun d -> if d = rows - 1 then 0 else 3 * completed.(d));
      children_sq =
        Array.init rows (fun d ->
            if d = rows - 1 then 0. else 9. *. float_of_int completed.(d)) }
  in
  let e = Progress.estimate s in
  Alcotest.(check (float 0.5)) "total reconstructed" 3280. e.Progress.e_total;
  Alcotest.(check (float 0.5)) "band closed below" e.Progress.e_total e.Progress.e_lo;
  Alcotest.(check (float 0.5)) "band closed above" e.Progress.e_total e.Progress.e_hi;
  Alcotest.(check bool) "not exact mid-run" false e.Progress.e_exact;
  let frac = float_of_int e.Progress.e_nodes /. 3280. in
  Alcotest.(check (float 1e-6)) "fraction = observed/total" frac
    e.Progress.e_fraction

(* Same chain with dispersed kept-counts in one stratum: the band must
   open strictly around the point estimate. *)
let confidence_band () =
  let rows = 8 in
  let pow3 = Array.init rows (fun d -> int_of_float (3. ** float_of_int d)) in
  let completed = Array.init rows (fun d -> max 1 (pow3.(d) / 4)) in
  let children =
    Array.init rows (fun d -> if d = rows - 1 then 0 else 3 * completed.(d))
  in
  let children_sq =
    Array.init rows (fun d ->
        if d = rows - 1 then 0. else 9. *. float_of_int completed.(d))
  in
  (* stratum 3: 6 completions with kept {2,4,2,4,3,3} — mean still 3,
     sample variance > 0 *)
  children_sq.(3) <- 4. +. 16. +. 4. +. 16. +. 9. +. 9.;
  let s =
    { Progress.rows; nodes = Array.copy completed; completed; children;
      children_sq }
  in
  let e = Progress.estimate s in
  Alcotest.(check (float 0.5)) "point estimate unchanged" 3280.
    e.Progress.e_total;
  Alcotest.(check bool) "lo strictly below" true
    (e.Progress.e_lo < e.Progress.e_total);
  Alcotest.(check bool) "hi strictly above" true
    (e.Progress.e_hi > e.Progress.e_total)

(* Full exploration closes every stratum: the chain is integer-exact
   and the live fraction reads exactly 1.0 with no final clamp. *)
let exact_at_quiescence () =
  let s = dfs_sample ~budget:10_000 ~branch:3 ~maxd:7 in
  let e = Progress.estimate s in
  Alcotest.(check bool) "exact" true e.Progress.e_exact;
  Alcotest.(check int) "all nodes observed" b3d7_size e.Progress.e_nodes;
  Alcotest.(check (float 0.)) "total bit-exact" (float_of_int b3d7_size)
    e.Progress.e_total;
  Alcotest.(check (float 0.)) "fraction exactly one" 1.0 e.Progress.e_fraction

(* A live partial traversal must never read 1.0, and the estimate never
   dips below what was already seen. *)
let live_fraction_capped () =
  List.iter
    (fun budget ->
      let s = dfs_sample ~budget ~branch:3 ~maxd:7 in
      let e = Progress.estimate s in
      Alcotest.(check bool) "capped below one" true
        (e.Progress.e_fraction <= Progress.live_cap);
      Alcotest.(check bool) "estimate >= observed" true
        (e.Progress.e_total >= float_of_int e.Progress.e_nodes))
    [ 40; 400; 3279 ]

let final_clamp () =
  let s = dfs_sample ~budget:400 ~branch:3 ~maxd:7 in
  let e = Progress.estimate ~final:true s in
  Alcotest.(check (float 0.)) "final fraction" 1.0 e.Progress.e_fraction;
  Alcotest.(check (float 0.)) "final total = observed"
    (float_of_int e.Progress.e_nodes)
    e.Progress.e_total

let merge_sums () =
  let a = dfs_sample ~budget:200 ~branch:3 ~maxd:7 in
  let b = dfs_sample ~budget:300 ~branch:3 ~maxd:7 in
  let m = Progress.merge a b in
  Alcotest.(check int) "nodes sum" (Progress.observed a + Progress.observed b)
    (Progress.observed m);
  Alcotest.(check int) "empty is neutral"
    (Progress.observed (Progress.merge Progress.empty a))
    (Progress.observed a)

(* -------------------------- the tracker --------------------------- *)

(* Heartbeat fusion can deliver stale or shrunken samples; the reported
   fraction must only ever move forward. *)
let tracker_monotone () =
  let t = Track.create () in
  let last = ref (-1.) in
  List.iteri
    (fun i budget ->
      let s = dfs_sample ~budget ~branch:3 ~maxd:7 in
      let r = Track.update t ~now:(float_of_int i) s in
      Alcotest.(check bool)
        (Printf.sprintf "monotone at step %d (budget %d)" i budget)
        true
        (r.Track.r_fraction >= !last);
      last := r.Track.r_fraction)
    [ 100; 400; 200; 800; 200; 1600 ];
  let s = dfs_sample ~budget:10_000 ~branch:3 ~maxd:7 in
  let r = Track.update t ~final:true ~now:10. s in
  Alcotest.(check (float 0.)) "final exactly one" 1.0 r.Track.r_fraction;
  Alcotest.(check (float 0.)) "final eta zero" 0. r.Track.r_eta

let eta_rendering () =
  let r eta = { Track.idle with Track.r_eta = eta } in
  Alcotest.(check string) "unknown" "-" (Track.eta_string Track.idle);
  Alcotest.(check string) "subsecond" "<1s" (Track.eta_string (r 0.4));
  Alcotest.(check string) "seconds" "42s" (Track.eta_string (r 42.));
  Alcotest.(check string) "minutes" "3m07s" (Track.eta_string (r 187.));
  Alcotest.(check string) "hours" "2h15m" (Track.eta_string (r 8100.))

(* ------------------- runtimes at quiescence ----------------------- *)

let estimate_of_stats st = Progress.estimate (Progress.of_profile st.Stats.depths)

let seq_quiescence () =
  let _, st = Sequential.search_with_stats (count_problem (mk_tree 7 3)) in
  let e = estimate_of_stats st in
  Alcotest.(check bool) "seq exact" true e.Progress.e_exact;
  Alcotest.(check (float 0.)) "seq fraction one" 1.0 e.Progress.e_fraction;
  Alcotest.(check (float 0.)) "seq total = nodes"
    (float_of_int st.Stats.nodes) e.Progress.e_total

(* Every shm coordination must credit split-off children correctly:
   any missed credit shows up here as an unclosed stratum and a
   fraction below 1. *)
let shm_quiescence () =
  let t = mk_tree 7 3 in
  List.iter
    (fun (name, coordination) ->
      let st = Stats.create () in
      let n = Shm.run ~workers:4 ~stats:st ~coordination (count_problem t) in
      Alcotest.(check int) (name ^ " count") b3d7_size n;
      let e = estimate_of_stats st in
      Alcotest.(check bool) (name ^ " exact") true e.Progress.e_exact;
      Alcotest.(check (float 0.)) (name ^ " fraction one") 1.0
        e.Progress.e_fraction)
    [ ("depth2", Coordination.Depth_bounded { dcutoff = 2 });
      ("stack", Coordination.Stack_stealing { chunked = false });
      ("stack-chunked", Coordination.Stack_stealing { chunked = true });
      ("budget50", Coordination.Budget { budget = 50 });
      ("bestfirst2", Coordination.Best_first { dcutoff = 2 });
      ("randomspawn16", Coordination.Random_spawn { mean_interval = 16 }) ]

(* The shm journal must carry progress samples and still close with
   job_done, the last sample reporting fraction 1. *)
let shm_journal_samples () =
  let path = Filename.temp_file "yewpar_progress" ".jsonl" in
  let w = Journal.create ~path () in
  let st = Stats.create () in
  let _ =
    Shm.run ~workers:2 ~stats:st
      ~coordination:(Coordination.Stack_stealing { chunked = false })
      ~journal:w
      (count_problem (mk_tree 7 3))
  in
  Journal.close w;
  let entries, malformed = Journal.read path in
  Sys.remove path;
  Alcotest.(check int) "no malformed lines" 0 malformed;
  let samples =
    List.filter (fun e -> e.Journal.e_ev = Journal.Progress_sample) entries
  in
  Alcotest.(check bool) "at least one sample" true (List.length samples >= 1);
  let final = List.nth samples (List.length samples - 1) in
  Alcotest.(check bool) "final sample reports completion" true
    (String.length final.Journal.e_note >= 11
    && String.sub final.Journal.e_note 0 11 = "frac=1.0000");
  Alcotest.(check int) "final sample carries the total" st.Stats.nodes
    final.Journal.e_value;
  match List.rev entries with
  | last :: _ ->
    Alcotest.(check string) "job_done still last" "job_done"
      (Journal.kind_name last.Journal.e_ev)
  | [] -> Alcotest.fail "empty journal"

(* Stats.pp surfaces the progress block at quiescence. *)
let stats_pp_progress () =
  let _, st = Sequential.search_with_stats (count_problem (mk_tree 5 3)) in
  let rendered = Format.asprintf "%a" Stats.pp st in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "progress block present" true
    (contains rendered "progress: fraction=1.000");
  Alcotest.(check bool) "exactness flagged" true
    (contains rendered "(estimator exact)")

let () =
  Alcotest.run "progress"
    [
      ( "estimator",
        [
          Alcotest.test_case "balanced chain reconstructs total" `Quick
            balanced_chain;
          Alcotest.test_case "confidence band opens with variance" `Quick
            confidence_band;
          Alcotest.test_case "exact at quiescence" `Quick exact_at_quiescence;
          Alcotest.test_case "live fraction capped below one" `Quick
            live_fraction_capped;
          Alcotest.test_case "final clamp" `Quick final_clamp;
          Alcotest.test_case "merge sums samples" `Quick merge_sums;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "fraction monotone under stale fusion" `Quick
            tracker_monotone;
          Alcotest.test_case "eta rendering" `Quick eta_rendering;
        ] );
      ( "runtimes",
        [
          Alcotest.test_case "seq fraction exactly one" `Quick seq_quiescence;
          Alcotest.test_case "shm fraction exactly one, all coordinations"
            `Quick shm_quiescence;
          Alcotest.test_case "shm journal carries progress samples" `Quick
            shm_journal_samples;
          Alcotest.test_case "stats pp shows progress" `Quick stats_pp_progress;
        ] );
    ]
