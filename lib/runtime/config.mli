(** Runtime timing knobs.

    These were once hardcoded constants inside the distributed
    locality; they are a record so the CLI can expose them
    ([--comm-tick], [--steal-retry]) and tests can shrink them to
    provoke races quickly. *)

type t = {
  comm_tick : float;
      (** The locality communicator's fallback period, seconds: the
          longest it sleeps in [select] with nothing arriving. Worker
          events (hunger, spills, quiescence, incumbents, failures)
          wake it at once, so this only paces the timed duties —
          heartbeats and steal retries — and bounds the cost of a
          missed wake-up. *)
  steal_retry : float;
      (** A steal reply lost in transit (fault injection, coordinator
          hiccup) must not starve the thief forever: re-request after
          this many seconds. *)
}

val default : t
(** [{ comm_tick = 0.002; steal_retry = 0.5 }]. *)

val create : ?comm_tick:float -> ?steal_retry:float -> unit -> t
(** [create ()] is {!default} with any given field overridden.
    @raise Invalid_argument if a given value is not positive. *)
