(** Message transport over a connected socket (or pipe-like fd).

    One {!t} wraps one end of a Unix-domain socket pair and owns a
    {!Wire.decoder} for reassembling the inbound byte stream.
    Descriptors are switched to non-blocking mode so a wedged peer
    shows up as a retry (with bounded exponential backoff) or a
    {!Timeout}, never as a [write(2)] that hangs the event loop.
    Receives are event-loop friendly: callers {!poll} a set of
    connections and {!pump} the readable ones.

    A peer's disappearance — EOF on read, or [EPIPE]/[ECONNRESET] on
    write — surfaces as {!Closed}. This is how localities detect a
    dead coordinator (and self-reap) and one of the two ways the
    coordinator detects a crashed locality (the other being the
    heartbeat-silence timeout, see {!Coordinator}). *)

exception Closed
(** The peer closed its end or died. *)

exception Timeout
(** A [?timeout] deadline expired before the operation completed. *)

type t

val create : Unix.file_descr -> t
(** Wrap a connected descriptor (set non-blocking). The transport
    takes ownership: release it with {!close}. *)

val fd : t -> Unix.file_descr

val send : ?timeout:float -> t -> Wire.msg -> unit
(** Frame and write the whole message, retrying short writes. On
    [EAGAIN] (full socket buffer) waits for writability with bounded
    exponential backoff (1ms doubling to 100ms); [EINTR] retries
    immediately.
    @raise Timeout if [timeout] seconds elapse before the frame is
    fully written (the frame may be partially sent — treat the
    connection as poisoned).
    @raise Closed if the peer is gone. *)

(** A wake-up descriptor: lets other domains of this process cut short
    an event loop's {!poll}.

    A non-blocking pipe guarded by an atomic pending flag. {!signal}
    writes a byte only when it flips the flag, so any number of
    signals between two drains cost at most one [write(2)]. The
    consumer drains the pipe {e before} clearing the flag, then
    inspects the state the signals announce: every signal either
    leaves the pipe readable for the consumer's next wait, or lands
    before that clear, so the inspection after the drain sees its
    event. No wake-up is lost. *)
module Wakeup : sig
  type t

  val create : unit -> t
  (** A fresh pipe with nothing pending (close with {!close}). *)

  val signal : t -> unit
  (** Announce an event; callable from any domain, never blocks. A
      no-op while a previous signal is still pending. *)

  val fd : t -> Unix.file_descr
  (** The read end: readable while a signal is undrained. *)

  val drain : t -> unit
  (** Consume every pending byte, then clear the flag. Call it
      before inspecting the state the signals announce. *)

  val close : t -> unit
  (** Close both ends; idempotent. No domain may signal afterwards. *)
end

val poll : ?wake:Wakeup.t -> timeout:float -> t list -> t list
(** Wait up to [timeout] seconds for inbound data, or until [wake] is
    signalled; returns the connections worth {!pump}ing (possibly
    none). A connection at EOF is always returned (its pump will raise
    {!Closed}), as is one holding a whole buffered frame (left behind
    by a {!recv}), without waiting. A signal that ends the wait is drained
    ({!Wakeup.drain}) before [poll] returns, so the caller inspects
    its state afterwards. *)

val pump : t -> Wire.msg list
(** Perform at most one [read] (never blocking beyond it: call after
    {!poll} says readable) and return every completed message, in
    order. Returns [[]] when a frame is still partial.
    @raise Closed at end of stream once all buffered messages have
    been drained. *)

val recv : ?timeout:float -> t -> Wire.msg
(** Block until one message arrives (mainly for tests).
    @raise Timeout on [timeout] (default: wait forever).
    @raise Closed at end of stream, including mid-frame: a peer that
    dies after sending a truncated length prefix or a partial payload
    surfaces here as [Closed], not as a stuck wait. *)

val close : t -> unit
(** Close the descriptor; idempotent. *)
