(** Success-driven search: the paper's all-solutions engine.

    A depth-first search over the projection variables in a fixed order
    that never adds a blocking clause. At each node (a prefix assignment
    of the projection):

    + {b Three-valued simulation} of the constraint cone decides the whole
      subtree when the objective is already forced to 0 or 1 — forced-1
      subtrees contribute a full don't-care subcube in O(1).
    + {b Success-driven learning}: the ternary value vector of the cone is
      the node's {e signature}; since the residual solution set is a
      function of the signature alone, a signature seen before (at the
      same depth) returns the previously built solution subgraph without
      any search. This is what collapses the search {e tree} into a
      solution {e graph}.
    + A {b CDCL oracle} call (under the prefix as assumptions) refutes
      unsatisfiable subtrees immediately; its learnt clauses persist, so
      successive probes get cheaper. A probe whose prefix the last model
      already satisfies is answered by that model, without a call.

    The result is the hash-consed {!Solution_graph} of all projected
    solutions, delivered as the unified {!Run.t}. *)

(** Decision-variable selection. [Static] follows the projection order;
    [Dynamic] branches on the first still-X projected variable of the
    justification frontier — variables the objective cannot see are
    skipped outright, and the result is a {e free} BDD (per-path
    orders), the representation the original solver built from its
    search tree. With [Dynamic], memoization is keyed on the signature
    alone and shares subgraphs across depths. *)
type decision = Static | Dynamic

(** The engine variants, mirroring {!Preimage.Engine.method_} so the
    two enumerations cannot drift:
    - [Sds] — static decisions, success-driven learning on.
    - [SdsDynamic] — dynamic (frontier-first) decisions.
    - [SdsNoMemo] — ablation: learning off, plain DPLL enumeration. *)
type variant = Sds | SdsDynamic | SdsNoMemo

val variant_name : variant -> string

(** Search configuration. Read-only record — build one with {!config}
    from a {!variant} (the builder is the only constructor, so the
    variant enum and the knobs cannot disagree). *)
type config = private {
  use_memo : bool;  (** success-driven learning (signature memoization) *)
  decision : decision;
}

(** [config variant] is the configuration of that engine variant. *)
val config : variant -> config

(** [config Sds]. *)
val default_config : config

(** [search ~netlist ~root ~proj_nets ~solver ()] enumerates all
    assignments of [proj_nets] (in the given order) that extend to an
    assignment of the remaining inputs making net [root] true. Every
    projection net must be an input or latch output (the ternary
    simulator reads only leaves) and appear once; otherwise raises
    [Invalid_argument].

    [solver] must already contain the Tseitin encoding of (at least) the
    cone of [root] with net-as-variable mapping ({!Ps_circuit.Tseitin}),
    plus the unit clause asserting [root]. The solver accumulates learnt
    clauses but no blocking clauses; it remains reusable afterwards.

    [limit] caps the number of {e committed disjoint cubes} (solution
    graph paths) — the same semantics as the blocking engines' cube
    cap; the run then stops with [`CubeLimit]. [budget] bounds the
    whole search (polled at every search node and inside every CDCL
    probe). An interrupted search returns a valid
    {e under-approximation}: the partial solution graph of every
    subtree completed before the stop — truncated subtrees contribute
    the 0-terminal and are never memoized, so learning never poisons a
    later complete run.

    The result's stats carry ["search_nodes"], ["memo_hits"],
    ["ternary_decides"], ["sat_calls"] (solver calls made),
    ["model_hits"] (probes answered by the last model without a call),
    ["unsat_prunes"], ["graph_nodes"] plus the solver counters.

    [trace] receives [Memo_hit] events, the solver's events, and a
    final [Stopped] event.

    [prefix] is a guiding path: a cube fixing a contiguous run of
    leading projection positions. The search is confined to that
    subcube — prefix positions are pre-decided (ternary environment +
    solver assumptions) and the result graph's paths run over the
    remaining positions only (the prefix bits are {e not} repeated in
    the emitted cubes; {!Parallel} re-attaches them at merge). Raises
    [Invalid_argument] if the fixed positions are not exactly
    [0..d-1]. *)
val search :
  ?config:config ->
  ?limit:int ->
  ?budget:Ps_util.Budget.t ->
  ?trace:Ps_util.Trace.sink ->
  ?sink:Run.sink ->
  ?prefix:Cube.t ->
  netlist:Ps_circuit.Netlist.t ->
  root:int ->
  proj_nets:int array ->
  solver:Ps_sat.Solver.t ->
  unit ->
  Run.t
