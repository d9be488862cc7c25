(** Resource budgets for interruptible solving.

    A budget is a mutable accounting object shared by every layer of one
    solving run: the CDCL solver charges conflicts against it and polls
    it every batch of decisions, the enumeration engines poll it between
    cubes and search nodes, and whoever created it can flip the
    cancellation flag from the outside. When any resource is exhausted,
    every layer observes the same sticky {!stop} reason and unwinds with
    a partial result instead of raising.

    Budgets are {e domain-safe}: all accounting is [Atomic.t], so one
    budget may be shared by solver instances running on several OCaml 5
    domains (this is how {!Ps_allsat.Parallel} enforces one global limit
    across all shards). The first domain to exhaust a resource records
    the stop reason; every other domain observes it on its next
    {!check} and unwinds too.

    Conflict accounting is deterministic on a single domain: two runs
    of the same deterministic search with the same conflict budget stop
    at exactly the same point. Only the wall-clock deadline depends on
    the machine, and multi-domain runs interleave charges
    nondeterministically.

    A budget is single-use: create one per run ({!make}),
    thread it through, then read {!stopped}. *)

(** Why a budgeted run stopped early. *)
type stop = [ `Deadline | `Conflicts | `Cancelled ]

type t

(** An [Atomic.t]-backed cancellation flag, safe to trip from any domain
    (or from a signal handler). This replaces the
    closure-over-[bool ref] idiom, which has no synchronization and is
    unsound when the budget is polled from worker domains. *)
type cancel_flag

(** A fresh, untripped flag. *)
val cancel_flag : unit -> cancel_flag

(** [cancel flag] trips the flag: every budget created with
    [~cancel_with:flag] stops with [`Cancelled] at its next poll. *)
val cancel : cancel_flag -> unit

(** [cancel_requested flag] reads the flag without touching any budget. *)
val cancel_requested : cancel_flag -> bool

(** [make ()] builds a budget. All limits are optional and combine;
    whichever is exhausted first wins.

    - [timeout_s]: wall-clock seconds from now ({!check} polls the
      clock, throttled, so overshoot is bounded by the polling grain of
      the caller — the solver polls at every conflict, restart and
      batch of decisions).
    - [conflicts]: total conflicts charged via {!tick_conflict},
      across {e all} solver calls sharing this budget — including calls
      running on other domains.
    - [cancel]: polled on every {!check}; return [true] to stop the run
      cooperatively. The closure must be safe to call from any domain
      that polls the budget — when in doubt, use [cancel_with].
    - [cancel_with]: a {!cancel_flag} polled the same way; the
      domain-safe replacement for closing [cancel] over a mutable bool.
      At most one of [cancel] / [cancel_with] may be given. *)
val make :
  ?timeout_s:float ->
  ?conflicts:int ->
  ?cancel:(unit -> bool) ->
  ?cancel_with:cancel_flag ->
  unit ->
  t

(** Charge one conflict. Cheap (one atomic fetch-and-add). *)
val tick_conflict : t -> unit

(** [check t] — has the budget run out? The first exhausted resource is
    recorded and returned on every subsequent call (sticky, across all
    domains), so all layers agree on the stop reason. Deadline and
    cancellation are polled at most once per [poll_grain] calls
    (currently 16) to keep [check] cheap inside tight loops. *)
val check : t -> stop option

(** The sticky stop reason, without polling anything. *)
val stopped : t -> stop option

(** Conflicts charged so far (for stats / traces). *)
val conflicts_spent : t -> int

val stop_name : stop -> string
