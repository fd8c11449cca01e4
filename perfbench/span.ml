(* Spans recorded by the benchmark around its own calls into each layer
   of the program (lib/core, lib/apps, lib/runtime, lib/par, lib/dist,
   lib/server, ...). Nothing inside lib/ is instrumented, so a span
   covers a whole call as its caller sees it. Spans are kept in memory
   and written once, when the run ends. *)

type t = {
  id : int;
  parent : int;  (** 0 is the workload run itself. *)
  name : string;
  layer : string;
  start : float;
  stop : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 1

(* Implicit parent for spans opened on the main thread. Client threads
   of the serve workload pass their parent explicitly and leave this
   alone. *)
let current = ref 0

(* [record ~layer name f] runs [f id] inside a span named [name]. With
   tracing off it only calls [f 0]. *)
let record ?parent ~layer name f =
  if not !enabled then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let implicit = Option.is_none parent in
    let parent = Option.value parent ~default:!current in
    let saved = !current in
    if implicit then current := id;
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      if implicit then current := saved;
      Mutex.protect lock (fun () ->
          recorded := { id; parent; name; layer; start; stop } :: !recorded)
    in
    Fun.protect ~finally:finish (fun () -> f id)
  end

(* Seconds inside spans of [layer], children included. *)
let inclusive ~layer =
  Mutex.protect lock (fun () ->
      List.fold_left (fun acc s -> if s.layer = layer then acc +. (s.stop -. s.start) else acc) 0. !recorded)

(* Self time per layer: each span's duration minus the part of it that
   its children cover (children clipped to the parent's interval). *)
let self_times () =
  let spans = Mutex.protect lock (fun () -> !recorded) in
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) kids
      in
      let self = s.stop -. s.start -. covered in
      let prev = Option.value ~default:0. (Hashtbl.find_opt by_layer s.layer) in
      Hashtbl.replace by_layer s.layer (prev +. self))
    spans;
  by_layer

let write ~run_id file =
  let spans = List.rev (Mutex.protect lock (fun () -> !recorded)) in
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"run\":%S,\"id\":%d,\"parent\":%d,\"name\":%S,\"layer\":%S,\"start\":%.6f,\"end\":%.6f}\n"
            run_id s.id s.parent s.name s.layer s.start s.stop)
        spans);
  List.length spans
