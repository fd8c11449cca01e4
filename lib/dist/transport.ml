exception Closed
exception Timeout

type t = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  scratch : bytes;
  mutable eof : bool;
  mutable closed : bool;
}

let create fd =
  (* Non-blocking so a wedged peer shows up as EAGAIN (and a deadline)
     instead of a write(2) that never returns. *)
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  { fd; dec = Wire.decoder (); scratch = Bytes.create 65536;
    eof = false; closed = false }

let fd t = t.fd

(* Bounded exponential backoff for transient send stalls: first retry
   waits [backoff_min] seconds in select, doubling up to [backoff_max].
   Progress (any byte written) resets the wait. *)
let backoff_min = 0.001
let backoff_max = 0.1

let write_all ?deadline fd b off len =
  let rec go off len wait =
    if len > 0 then begin
      match Unix.write fd b off len with
      | n -> go (off + n) (len - n) backoff_min
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len wait
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        let slice =
          match deadline with
          | None -> wait
          | Some d ->
            let left = d -. Unix.gettimeofday () in
            if left <= 0. then raise Timeout;
            Float.min wait left
        in
        (match Unix.select [] [ fd ] [] slice with
        | _, [], _ -> ()
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go off len (Float.min (2. *. wait) backoff_max)
      | exception
          Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
        ->
        raise Closed
    end
  in
  go off len backoff_min

let send ?timeout t m =
  if t.closed || t.eof then raise Closed;
  let deadline =
    match timeout with None -> None | Some s -> Some (Unix.gettimeofday () +. s)
  in
  let b = Wire.to_bytes m in
  write_all ?deadline t.fd b 0 (Bytes.length b)

module Wakeup = struct
  (* A self-pipe whose [pending] flag coalesces signals: only the
     signaller that flips it false -> true writes, so the pipe holds at
     most a byte or two however many domains signal between two
     drains. *)
  type t = {
    r : Unix.file_descr;
    w : Unix.file_descr;
    pending : bool Atomic.t;
    buf : bytes;
    mutable closed : bool;
  }

  let create () =
    let r, w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock r;
    Unix.set_nonblock w;
    { r; w; pending = Atomic.make false; buf = Bytes.create 64; closed = false }

  let fd t = t.r
  let byte = Bytes.make 1 '!'

  let signal t =
    if (not (Atomic.get t.pending)) && not (Atomic.exchange t.pending true)
    then
      let rec write () =
        match Unix.single_write t.w byte 0 1 with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> write ()
        (* A full pipe is already readable; a closed one has no
           consumer left. *)
        | exception Unix.Unix_error _ -> ()
      in
      write ()

  (* Empty the pipe, and only then clear [pending]. Clearing first
     would let a signal racing this drain flip the flag and have its
     byte swallowed by the read below: [pending] stays true over an
     empty pipe, and no later signal ever writes again. In this order
     a racing signal either finds the flag still set (and the caller's
     state checks, which follow the drain, see its event) or writes a
     fresh byte after the clear. *)
  let drain t =
    let rec go () =
      match Unix.read t.r t.buf 0 (Bytes.length t.buf) with
      | n when n = Bytes.length t.buf -> go ()
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
    in
    go ();
    Atomic.set t.pending false

  let close t =
    if not t.closed then begin
      t.closed <- true;
      (try Unix.close t.r with Unix.Unix_error _ -> ());
      try Unix.close t.w with Unix.Unix_error _ -> ()
    end
end

let poll ?wake ~timeout conns =
  (* A frame already buffered (a [recv] reads every byte on offer, and
     returns only the first message) must not wait for more bytes. *)
  let ready, live =
    List.partition (fun t -> t.eof || Wire.complete t.dec) conns
  in
  let timeout = if ready = [] then timeout else 0. in
  let fds = List.map (fun t -> t.fd) live in
  let fds = match wake with Some w -> Wakeup.fd w :: fds | None -> fds in
  let readable =
    if fds = [] then begin
      if timeout > 0. then ignore (Unix.select [] [] [] timeout);
      []
    end
    else
      match Unix.select fds [] [] timeout with
      | rs, _, _ ->
        (match wake with
        | Some w when List.memq (Wakeup.fd w) rs -> Wakeup.drain w
        | _ -> ());
        List.filter (fun t -> List.memq t.fd rs) live
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  ready @ readable

(* One read(2); false at end of stream. *)
let read_once t =
  match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
  | 0 -> false
  | n -> Wire.feed t.dec t.scratch 0 n; true
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    -> true
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> false

let drain t =
  let rec go acc =
    match Wire.next t.dec with Some m -> go (m :: acc) | None -> List.rev acc
  in
  go []

let pump t =
  if not t.eof then if not (read_once t) then t.eof <- true;
  let msgs = drain t in
  if msgs = [] && t.eof then raise Closed;
  msgs

let recv ?timeout t =
  let deadline =
    match timeout with None -> None | Some s -> Some (Unix.gettimeofday () +. s)
  in
  let rec go () =
    match Wire.next t.dec with
    | Some m -> m
    | None ->
      if t.eof then raise Closed;
      let wait =
        match deadline with
        | None -> 1.0
        | Some d ->
          let left = d -. Unix.gettimeofday () in
          if left <= 0. then raise Timeout;
          min left 1.0
      in
      (match poll ~timeout:wait [ t ] with
      | [] -> ()
      | _ -> if not (read_once t) then t.eof <- true);
      go ()
  in
  go ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
