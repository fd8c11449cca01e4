(* Per-layer probes of the traced run: each times calls into one layer's
   public functions, on the workload's own input where the layer takes
   one. *)

module Problem = Yewpar_core.Problem
module Codec = Yewpar_core.Codec
module Splitmix = Yewpar_util.Splitmix
module Deque = Yewpar_runtime.Deque
module Two_tier = Yewpar_runtime.Two_tier
module Task_pool = Yewpar_runtime.Task_pool
module Recorder = Yewpar_telemetry.Recorder
module Wire = Yewpar_dist.Wire
module Transport = Yewpar_dist.Transport
module Mc = Yewpar_maxclique.Maxclique

let now = Unix.gettimeofday

(* Seconds per call of [f], over batches of [batch] calls until at
   least [min_s] seconds have run. *)
let per_call ?(min_s = 0.1) ~batch f =
  let calls = ref 0 and t0 = now () in
  while now () -. t0 < min_s do
    for _ = 1 to batch do
      f ()
    done;
    calls := !calls + batch
  done;
  (now () -. t0) /. float_of_int !calls

(* Nodes of the workload's own tree, from random root-to-leaf descents
   (depth-capped): a sample across depths rather than the leftmost
   corner a DFS prefix would give. The root is taken once. *)
let sample_nodes (type s n r) (p : (s, n, r) Problem.t) ~seed ~count : n array =
  let rng = Splitmix.of_seed seed in
  let kids node = Array.of_seq (p.Problem.children p.Problem.space node) in
  let roots = kids p.Problem.root in
  let out = ref [ p.Problem.root ] and taken = ref 1 and descents = ref 0 in
  while Array.length roots > 0 && !taken < count && !descents < count do
    incr descents;
    let rec descend node depth =
      out := node :: !out;
      incr taken;
      let k = kids node in
      if Array.length k > 0 && depth < 64 && !taken < count then
        descend k.(Splitmix.int rng (Array.length k)) (depth + 1)
    in
    descend roots.(Splitmix.int rng (Array.length roots)) 1
  done;
  Array.of_list !out

(* µs per full expansion of a sampled node by the problem's generator. *)
let expand_us (type s n r) (p : (s, n, r) Problem.t) (nodes : n array) =
  let i = ref 0 in
  1e6
  *. per_call ~batch:(Array.length nodes) (fun () ->
         Seq.iter ignore (p.Problem.children p.Problem.space nodes.(!i));
         i := (!i + 1) mod Array.length nodes)

(* ns per owner push + pop pair on an uncontended deque. *)
let deque_push_pop_ns () =
  let d = Deque.create ~capacity:256 () in
  1e9
  *. per_call ~batch:1 (fun () ->
         for i = 1 to 128 do
           ignore (Deque.push d i)
         done;
         for _ = 1 to 128 do
           ignore (Deque.pop d)
         done)
  /. 128.

(* ns per successful steal by one thief domain while the owner domain
   keeps the deque topped up. *)
let deque_steal_ns ~seconds =
  let d = Deque.create ~capacity:1024 () in
  let stop = Atomic.make false in
  for i = 1 to 512 do
    ignore (Deque.push d i)
  done;
  let thief =
    Domain.spawn (fun () ->
        let got = ref 0 in
        let t0 = now () in
        while not (Atomic.get stop) do
          match Deque.steal d with Some _ -> incr got | None -> Domain.cpu_relax ()
        done;
        (now () -. t0, !got))
  in
  let t0 = now () in
  while now () -. t0 < seconds do
    if not (Deque.push d 0) then Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  let elapsed, got = Domain.join thief in
  1e9 *. elapsed /. float_of_int (max 1 got)

(* ns per enqueue + take through the two-tier scheduler with a small
   deque, so every batch also spills its shallowest half to the
   overflow pool and takes it back from there. *)
let two_tier_enqueue_take_ns () =
  let tt = Two_tier.create ~policy:Yewpar_core.Workpool.Depth ~deque_capacity:32 ~slots:1 () in
  let stop = Atomic.make false in
  let batch = 256 in
  1e9
  *. per_call ~batch:1 (fun () ->
         for i = 1 to batch do
           Two_tier.enqueue tt ~slot:0 ~recorder:Recorder.null ~priority:0
             { Task_pool.tag = 0; node = i; depth = i land 7 }
         done;
         for _ = 1 to batch do
           ignore (Two_tier.take tt ~slot:0 ~recorder:Recorder.null ~stop ())
         done)
  /. float_of_int batch

(* The four frame kinds a steal-heavy run moves, as (kind, build) where
   [build] wraps a codec-encoded node of the workload into the frame. *)
let frames (type s n r) (p : (s, n, r) Problem.t) =
  let delta payload : string =
    match p.Problem.kind with
    | Problem.Enumerate _ -> Marshal.to_string 1 []
    | Problem.Optimise _ | Problem.Decide _ -> Marshal.to_string (Some (1, payload)) []
  in
  [ ("task", fun payload -> Wire.Task { parent = 1; depth = 3; priority = 0; payload });
    ("steal_reply", fun payload -> Wire.Steal_reply { task = Some (7, 3, payload) });
    ("bound_update", fun payload -> Wire.Bound_update { value = 42; witness = Some payload });
    ("idle", fun payload -> Wire.Idle { retired = [ (7, delta payload) ] }) ]

(* (kind, encode ns, decode ns, bytes) per frame kind: encoding is the
   codec plus framing, decoding is reassembly plus the codec. *)
let wire_costs (type s n r) (p : (s, n, r) Problem.t) (codec : n Codec.t) (nodes : n array) =
  List.map
    (fun (kind, build) ->
      let i = ref 0 in
      let next () =
        let n = nodes.(!i) in
        i := (!i + 1) mod Array.length nodes;
        n
      in
      let enc =
        per_call ~batch:64 (fun () ->
            ignore (Wire.to_bytes (build (codec.Codec.encode (next ())))))
      in
      let framed = Array.map (fun n -> Wire.to_bytes (build (codec.Codec.encode n))) nodes in
      let avg_bytes =
        float_of_int (Array.fold_left (fun a b -> a + Bytes.length b) 0 framed)
        /. float_of_int (Array.length framed)
      in
      let dec =
        per_call ~batch:64 (fun () ->
            let b = framed.(!i) in
            i := (!i + 1) mod Array.length framed;
            let d = Wire.decoder () in
            Wire.feed d b 0 (Bytes.length b);
            match Wire.next d with
            | Some (Wire.Task { payload; _ })
            | Some (Wire.Steal_reply { task = Some (_, _, payload) })
            | Some (Wire.Bound_update { witness = Some payload; _ }) ->
              ignore (codec.Codec.decode payload)
            | Some (Wire.Idle { retired }) ->
              List.iter (fun (_, delta) -> ignore (Marshal.from_string delta 0 : Obj.t)) retired
            | _ -> failwith "wire probe: frame did not round-trip")
      in
      (kind, 1e9 *. enc, 1e9 *. dec, avg_bytes))
    (frames p)

(* µs per Ping/Pong round trip over a socketpair to a forked echo
   process. Forks, so it runs before any domain is spawned. *)
let transport_rtt_us ~count =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close a;
    let t = Transport.create b in
    (try
       while true do
         match Transport.recv t with
         | Wire.Ping -> Transport.send t Wire.Pong
         | _ -> raise Exit
       done
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close b;
    let t = Transport.create a in
    let rtt () =
      Transport.send t Wire.Ping;
      match Transport.recv ~timeout:5. t with
      | Wire.Pong -> ()
      | _ -> failwith "transport probe: expected Pong"
    in
    for _ = 1 to 100 do
      rtt ()
    done;
    let t0 = now () in
    for _ = 1 to count do
      rtt ()
    done;
    let us = 1e6 *. (now () -. t0) /. float_of_int count in
    Transport.close t;
    ignore (Unix.waitpid [] pid);
    us

(* Table 1: sequential MaxClique time over Maxclique.Specialised time on
   the same graph, for [pairs] interleaved pairs (the order alternates
   within pairs); also whether every pair agreed on the clique size. *)
let overhead_vs_specialised g ~pairs =
  let p = Mc.max_clique g in
  let generic () =
    let t0 = now () in
    let n = Yewpar_core.Sequential.search p in
    (now () -. t0, n.Mc.size)
  in
  let specialised () =
    let t0 = now () in
    let size, _ = Mc.Specialised.max_clique_size g in
    (now () -. t0, size)
  in
  let ratios, agree =
    List.split
      (List.init pairs (fun i ->
           let (tg, sg), (ts, ss) =
             if i mod 2 = 0 then
               let a = generic () in
               (a, specialised ())
             else
               let b = specialised () in
               (generic (), b)
           in
           (tg /. ts, sg = ss)))
  in
  (Yewpar_util.Summary.median ratios, List.for_all Fun.id agree)

(* The simulator on the same input and coordination: (virtual
   sequential time, simulated makespan at 1 locality x [workers]). *)
let sim_times (type s n r) (p : (s, n, r) Problem.t) ~coordination ~workers =
  let _, seq = Yewpar_sim.Sim.virtual_sequential p in
  let _, m =
    Yewpar_sim.Sim.run
      ~topology:(Yewpar_sim.Config.topology ~localities:1 ~workers)
      ~coordination p
  in
  (seq, m.Yewpar_sim.Metrics.makespan)
