(** Independent coverage certification of a solution log.

    Replays a recovered log against the original formula — none of the
    enumeration machinery is trusted — and certifies two properties:

    - {b Soundness}: every minterm of every logged cube is a solution.
      A cube logged with its {!Ps_allsat.Witness} is certified by one
      pass over the clauses, without a solver: every clause must hold a
      literal that is true under the cube's fixed literals or the
      witness, which then holds whatever the cube's free positions say.
      Over a projection that covers every variable of the formula, every
      cube has the empty witness. A minterm without a witness takes one
      SAT call with its literals as assumptions, which must be
      satisfiable. A wider cube without a witness is rejected: a SAT
      call would only show that it meets the solution set. So is a
      witness of the wrong length.
    - {b Completeness}: the cubes cover {e every} solution — a descent
      over the cover from the all-don't-care region splits each region
      on the first position it leaves free that some cube in it fixes
      (positions fixed by more cubes first), stops where a cube
      subsumes the region, and proves each region no cube reaches UNSAT
      under its literals as assumptions. The solver never holds more
      than the formula's clauses; each such call's unsat core is a cube
      proven empty that closes the later regions it subsumes without a
      call (docs/ALGORITHMS.md §12).

    The solver calls are {!Ps_sat.Solver.solve} under assumptions and
    {!Ps_sat.Solver.unsat_core} on a fresh solver that holds only the
    formula, never the enumeration code. The soundness calls follow the
    log's order and the gap calls the descent's, so consecutive calls
    share assumption prefixes, whose decision levels the solver keeps
    from one call to the next (docs/ALGORITHMS.md §14). [propagations]
    in the report counts that solver's work.

    The certificate is only meaningful for a log whose enumeration
    finished: callers must reject logs whose recovery was torn, dropped
    trailing cubes, or whose final checkpoint lacks [complete] — see
    {!certifiable}. *)

type report = {
  cubes : int;  (** cubes checked *)
  sound : bool;
  unsound : Ps_allsat.Cube.t list;
      (** every cube not certified sound, in log order: a witness check
          or SAT call failed, the witness has the wrong length, or a
          cube wider than a minterm has no witness *)
  missing : Ps_allsat.Cube.t option;
      (** a projected solution (a minterm) outside every logged cube, or
          [None] when the cubes cover every solution *)
  sat_calls : int;
      (** one per minterm logged without a witness, plus one per
          uncovered region proved *)
  witnessed : int;
      (** cubes whose soundness was decided by their witness, without
          a SAT call *)
  propagations : int;
      (** literals propagated by the verifier's own solver over both
          checks (its ["propagations"] statistic) *)
}

(** [certifiable r] is [None] when the recovered log is eligible for
    certification — not torn, no dropped tail cubes, final checkpoint
    marked complete — and [Some reason] otherwise. *)
val certifiable : Store.recovered -> string option

(** [run ~cnf r] certifies the recovered log against [cnf], using the
    projection recorded in the log's meta ([meta.vars]). Emits a
    [Store_verified] trace event. Raises [Invalid_argument] if the meta
    carries no projection variables or their count differs from the
    cube width. *)
val run :
  ?trace:Ps_util.Trace.sink -> cnf:Ps_sat.Cnf.t -> Store.recovered -> report

(** [complete report] is [report.missing = None]: the cubes cover every
    solution. *)
val complete : report -> bool

(** [ok report] — both properties certified. *)
val ok : report -> bool
