(** All-solutions enumeration by blocking clauses — the classical baseline.

    Repeatedly: solve; read the projected assignment out of the model;
    optionally enlarge it into a cube via a lifting callback; add the
    cube's negation as a permanent clause; continue until UNSAT.

    Without lifting, the enumerated cubes are the projected {e minterms},
    pairwise disjoint, and the clause database grows by one clause per
    solution — the blow-up the paper's solution graph avoids. So once
    the blocking clauses outnumber the problem clauses the solver held
    on entry, the rest of the minterms are drained by chronological
    enumeration inside the solver ({!Ps_sat.Solver.enumerate_projected}),
    which adds no clause at all. With lifting, each blocking clause
    prunes [2^free] solutions; cubes may overlap but their union is
    exactly the projected solution set, and there is no hand-over. *)

(** Deprecated alias for {!Run.t}, the unified engine result. *)
type result = Run.t
[@@ocaml.deprecated "use Ps_allsat.Run.t"]

(** [enumerate ?limit ?budget ?trace ?lift solver proj] drains all
    solutions of the clauses already loaded in [solver], projected onto
    [proj], returning the unified {!Run.t}.

    [lift model] must return a mask over projection positions — the
    positions to keep fixed (the rest become don't-cares). It must be
    {e sound}: every minterm of the resulting cube must extend to a model.
    Omitting it yields minterm enumeration.

    [limit] bounds the number of cubes (guard against exponential
    enumerations); the result is then stopped with [`CubeLimit].

    [budget] bounds the whole enumeration: it is polled before every
    SAT call and shared with the solver, so a deadline or conflict
    limit interrupts even a single hard call or the chronological
    phase. The result then carries the budget's stop reason and the
    cubes found so far (an anytime under-approximation).

    [trace] receives a [Cube] event per emitted cube, the solver's
    events, and a final [Stopped] event.

    [sink] receives every emitted cube in discovery order, as it is
    found — the streaming hook of the durable solution store.

    Minterms found after the hand-over are not blocked in [solver]:
    callers that continue re-block the returned cubes, as [--resume]
    does. *)
val enumerate :
  ?limit:int ->
  ?budget:Ps_util.Budget.t ->
  ?trace:Ps_util.Trace.sink ->
  ?sink:Run.sink ->
  ?lift:(bool array -> bool array) ->
  Ps_sat.Solver.t ->
  Project.t ->
  Run.t

(** [sat_calls r] is the number of entry calls into the solver: every
    classical [solve], plus one for the chronological enumeration when
    the run handed over. *)
val sat_calls : Run.t -> int

(** [total_minterms r] is the number of projected solutions when the
    cubes are disjoint (minterm enumeration); for lifted (overlapping)
    cubes it is an upper bound. *)
val total_minterms : Run.t -> float

(** [to_graph man r] accumulates the cubes into a solution graph (exact
    union, so overlap is resolved). *)
val to_graph : Solution_graph.man -> Run.t -> Solution_graph.t
