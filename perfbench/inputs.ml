(* Workload inputs, built from the seed with the instance registry's own
   generators, and the check of every result against the sequential
   skeleton's answer on the same input. *)

module Problem = Yewpar_core.Problem
module Codec = Yewpar_core.Codec
module Coordination = Yewpar_core.Coordination
module Stats = Yewpar_core.Stats
module Sequential = Yewpar_core.Sequential
module Graph = Yewpar_graph.Graph
module Gen = Yewpar_graph.Gen
module Splitmix = Yewpar_util.Splitmix
module Mc = Yewpar_maxclique.Maxclique
module Knapsack = Yewpar_knapsack.Knapsack
module Uts = Yewpar_uts.Uts
module Queens = Yewpar_queens.Queens
module Instances = Yewpar_instances.Instances

(* One search input with its coordination and its sequential reference.
   [valid] is the application's witness validator. *)
type inst =
  | Inst : {
      name : string;
      problem : ('s, 'n, 'r) Problem.t;
      codec : 'n Codec.t;
      coordination : Coordination.t;
      localities : int;  (** Fleet slots a serve job of it asks for. *)
      valid : 'n -> bool;
      reference : ('r * Stats.t * float) Lazy.t;
          (** The sequential answer, its stats and its wall time. *)
    }
      -> inst

(* Build an input. Its sequential reference is the benchmark's own
   check, not set-up: it is solved by [prepare], outside the timed
   set-up. *)
let inst ~name ~coordination ?(localities = 1) ~valid problem =
  let codec =
    match problem.Problem.codec with
    | Some c -> c
    | None -> invalid_arg (name ^ ": no task codec")
  in
  let reference =
    lazy
      (let t0 = Unix.gettimeofday () in
       let r, st =
         Span.record ~layer:"core" ("Sequential.search " ^ name) (fun _ ->
             Sequential.search_with_stats problem)
       in
       (r, st, Unix.gettimeofday () -. t0))
  in
  Inst { name; problem; codec; coordination; localities; valid; reference }

(* Solve every reference, on the calling thread, before any result is
   checked (client threads then only read them). *)
let prepare insts = List.iter (fun (Inst i) -> ignore (Lazy.force i.reference)) insts

let seq_seconds (Inst i) =
  let _, _, t = Lazy.force i.reference in
  t

(* [None] when [r] (with [nodes] processed) matches the reference,
   otherwise the reason. Enumerations compare the exact count and, being
   exhaustive, the node count; decisions compare the verdict, and a
   "no" verdict (an exhaustive proof) the node count too; optimisations
   compare the objective and validate the witness. *)
let verify (type s n r) (p : (s, n, r) Problem.t) (valid : n -> bool)
    (reference : (r * Stats.t * float) Lazy.t) (r : r) ~nodes =
  let ref_r, ref_st, _ = Lazy.force reference in
  let nodes_match () =
    if nodes = ref_st.Stats.nodes then None
    else Some (Printf.sprintf "nodes %d, sequential %d" nodes ref_st.Stats.nodes)
  in
  match p.Problem.kind with
  | Problem.Enumerate _ -> if r <> ref_r then Some "count differs" else nodes_match ()
  | Problem.Optimise o ->
    if o.Problem.value r <> o.Problem.value ref_r then
      Some
        (Printf.sprintf "objective %d, sequential %d" (o.Problem.value r)
           (o.Problem.value ref_r))
    else if not (valid r) then Some "invalid witness"
    else None
  | Problem.Decide { objective; target } -> (
    match (r, ref_r) with
    | None, None -> nodes_match ()
    | Some w, Some _ ->
      if objective.Problem.value w >= target && valid w then None
      else Some "invalid witness"
    | _ -> Some "verdict differs")

(* Results cross the job server as rendered strings: hex of the counted
   value or of the codec-encoded witness, decoded again for the check. *)
let hex s = String.to_seq s |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c)) |> List.of_seq |> String.concat ""

let unhex h =
  String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let encode_result (type s n r) (p : (s, n, r) Problem.t) (codec : n Codec.t) (r : r) =
  match p.Problem.kind with
  | Problem.Enumerate _ -> hex (Marshal.to_string r [])
  | Problem.Optimise _ -> hex (codec.Codec.encode r)
  | Problem.Decide _ -> (
    match r with None -> "none" | Some n -> hex (codec.Codec.encode n))

let decode_result (type s n r) (p : (s, n, r) Problem.t) (codec : n Codec.t) s : r =
  match p.Problem.kind with
  | Problem.Enumerate _ -> Marshal.from_string (unhex s) 0
  | Problem.Optimise _ -> codec.Codec.decode (unhex s)
  | Problem.Decide _ -> if s = "none" then None else Some (codec.Codec.decode (unhex s))

(* --- shm-kclique ---------------------------------------------------- *)

(* The Figure 4 instance, kclique-spreads-s: Gen.hidden_clique with the
   registry's parameters. Other seeds draw a random relabelling of that
   graph. Fresh G(280, 0.72) graphs differ by up to a third in solve
   time from seed to seed, more than the benchmark's bound; a relabelled
   copy keeps the instance and varies only the vertex order the
   colouring heuristic sees (±6% nodes). *)
let figure4_seed = 4444

let figure4_params ~smoke = if smoke then (60, 0.6, 12) else (280, 0.72, 29)

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Splitmix.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let relabel ~seed g =
  let n = Graph.n_vertices g in
  let perm = Array.init n Fun.id in
  shuffle (Splitmix.of_seed seed) perm;
  let h = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Graph.has_edge g u v then Graph.add_edge h perm.(u) perm.(v)
    done
  done;
  h

let kclique_graph ~smoke ~seed =
  let n, p, k = figure4_params ~smoke in
  let g = Gen.hidden_clique ~seed:figure4_seed n p (k - 1) in
  ((if seed = figure4_seed then g else relabel ~seed g), k)

let kclique ~smoke ~seed =
  let g, k =
    Span.record ~layer:"instances" "Gen.hidden_clique" (fun _ -> kclique_graph ~smoke ~seed)
  in
  [ inst ~name:"kclique" ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
      ~valid:(fun (n : Mc.node) -> Graph.is_clique g n.Mc.clique)
      (Mc.k_clique g ~k) ]

(* --- shm-uts-churn -------------------------------------------------- *)

(* Binomial UTS resized from uts-bin-b (b0 1200, q 0.24985): that tree
   sits so close to criticality (q*m = 0.9994) that its size swings 8x
   between seeds. A wide root over subcritical subtrees (q*m = 0.95)
   keeps the size within ~2% across seeds, while Budget 50 still turns
   it into ~10^5 tiny tasks. UTS nodes are plain data, so the Marshal
   codec lets the dist and serve probes ship them. *)
let uts_params ~smoke ~seed =
  { Uts.b0 = (if smoke then 2_000 else 200_000); q = 0.2375; m = 4; max_depth = 400; seed }

let uts ~smoke ~seed =
  let p =
    Span.record ~layer:"instances" "Uts.count_problem" (fun _ ->
        let p = Uts.count_problem (uts_params ~smoke ~seed) in
        { p with Problem.codec = Some (Codec.marshal ()) })
  in
  [ inst ~name:"uts" ~coordination:(Coordination.Budget { budget = 50 }) ~valid:(fun _ -> true) p ]

(* --- dist-knap-steal ------------------------------------------------ *)

let knapsack_valid inst (n : Knapsack.node) =
  let items = Knapsack.items inst in
  let w, p =
    List.fold_left
      (fun (w, p) i -> (w + items.(i).Knapsack.weight, p + items.(i).Knapsack.profit))
      (0, 0) n.Knapsack.taken
  in
  List.length (List.sort_uniq compare n.Knapsack.taken) = List.length n.Knapsack.taken
  && w = n.Knapsack.weight && p = n.Knapsack.profit && w <= Knapsack.capacity inst

(* Subset-sum knapsack as knap-ss-22 (seed 604, 22 items, values to
   500). Its dist time is the number of wire steals times ~1.2 ms, and
   the steal count follows the number of Budget tasks, which differs
   threefold between seeds. So the workload seed names sixteen candidate
   generator seeds (the seed itself first), and the one whose instance's
   task count at one worker (exact, from the deterministic simulator) is
   nearest knap-ss-22's 1851 is used; seed 604 picks knap-ss-22 itself.
   The choice is the benchmark's, made once per run outside the timed
   set-up; set-up generates the chosen instance. *)
let knap_target_tasks = 1851
let knap_budget = 1000

let knap_gen ~smoke ~seed = Knapsack.Generate.subset_sum ~seed ~n:(if smoke then 14 else 22) ~max_value:500

let knap_tasks inst =
  let _, m =
    Yewpar_sim.Sim.run
      ~topology:(Yewpar_sim.Config.topology ~localities:1 ~workers:1)
      ~coordination:(Coordination.Budget { budget = knap_budget })
      (Knapsack.problem inst)
  in
  m.Yewpar_sim.Metrics.tasks

let knap_seed seed =
  List.init 16 (fun i -> seed + (i * 7919))
  |> List.map (fun s ->
         let tasks = Span.record ~layer:"sim" "Sim.run" (fun _ -> knap_tasks (knap_gen ~smoke:false ~seed:s)) in
         (abs (tasks - knap_target_tasks), s))
  |> List.fold_left (fun best c -> if fst c < fst best then c else best) (max_int, seed)
  |> snd

let knap ~smoke ~seed =
  let k = Span.record ~layer:"instances" "Knapsack.Generate.subset_sum" (fun _ -> knap_gen ~smoke ~seed) in
  [ inst ~name:"knap" ~localities:2 ~coordination:(Coordination.Budget { budget = knap_budget })
      ~valid:(knapsack_valid k) (Knapsack.problem k) ]

(* --- serve-mix ------------------------------------------------------ *)

(* The job pool of the serve workload: one long job that wants both
   fleet slots (queens-10, the same for every seed) and four short
   one-slot jobs, two knapsack and two maxclique instances drawn from
   the seed. The short ones are small enough to run as one Budget task,
   so their latency is the server's own cost per job. In equal shares,
   job_p50_s falls among the short jobs and job_p90_s among the long
   ones and the short jobs queued behind them, not on the edge between
   two groups. *)
let serve_pool ~smoke ~seed =
  let rng = Splitmix.of_seed seed in
  let draw () = Splitmix.int rng 1_000_000 in
  let short = Coordination.Budget { budget = 1000 } in
  let queens =
    let q = Queens.instance ~n:(if smoke then 8 else 10) in
    inst ~name:"queens" ~localities:2 ~coordination:(Coordination.Depth_bounded { dcutoff = 2 })
      ~valid:(fun _ -> true) (Queens.count_solutions q)
  in
  let knaps =
    List.init 2 (fun i ->
        let k =
          Span.record ~layer:"instances" "Knapsack.Generate.subset_sum" (fun _ ->
              Knapsack.Generate.subset_sum ~seed:(draw ()) ~n:(if smoke then 10 else 12) ~max_value:500)
        in
        inst ~name:(Printf.sprintf "knap%d" i) ~coordination:short ~valid:(knapsack_valid k)
          (Knapsack.problem k))
  in
  let cliques =
    List.init 2 (fun i ->
        let g =
          Span.record ~layer:"instances" "Gen.uniform" (fun _ ->
              Gen.uniform ~seed:(draw ()) (if smoke then 30 else 60) 0.6)
        in
        inst ~name:(Printf.sprintf "clique%d" i) ~coordination:short
          ~valid:(fun (n : Mc.node) -> Graph.is_clique g n.Mc.clique)
          (Mc.max_clique g))
  in
  (queens :: knaps) @ cliques

(* The default seeds must reproduce the registry's named instances. *)
let registry_matches () =
  let _, fig4, _ = Instances.figure4 in
  let g, _ = kclique_graph ~smoke:false ~seed:figure4_seed in
  let fig4 = Lazy.force fig4 in
  let same_graph =
    Graph.n_vertices g = Graph.n_vertices fig4
    && List.for_all
         (fun u -> Yewpar_bitset.Bitset.equal (Graph.neighbours g u) (Graph.neighbours fig4 u))
         (Graph.vertices g)
  in
  let knap = knap_gen ~smoke:false ~seed:(knap_seed 604) in
  let (Instances.Packed (reg, _)) = Lazy.force (Instances.find "knap-ss-22").Instances.problem in
  let nodes p = (snd (Sequential.search_with_stats p)).Stats.nodes in
  same_graph && nodes (Knapsack.problem knap) = nodes reg
