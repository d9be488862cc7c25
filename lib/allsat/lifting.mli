(** Cube enlargement by circuit justification.

    After the solver finds a satisfying assignment, many of the projected
    variables are irrelevant: the objective is already justified by a
    subset of the leaf values. [justify] walks the constraint cone
    backwards from the satisfied root, keeping for each gate only a
    minimal set of fanins that force its value — one controlling fanin
    when the gate output is at its controlled value (choosing an
    already-required fanin when possible, to maximize sharing), all
    fanins otherwise. The unreached leaves are don't-cares: the
    enumerated minterm enlarges into a cube, and one short blocking
    clause prunes [2^(free)] solutions at once.

    Soundness invariant (property-tested): freezing the required leaves
    at their model values and varying every other leaf arbitrarily keeps
    the root at its model value. *)

(** [justify n ~root ~values] returns a membership array over nets: the
    leaves (inputs and latch outputs) that the justification requires.
    [values] must be a consistent simulation of [n] (e.g. from
    {!Ps_circuit.Sim.eval}); [root] is the net whose value is being
    justified (any value — justification works for 0 and 1 roots).
    Only leaf positions are meaningful in the result. *)
val justify : Ps_circuit.Netlist.t -> root:int -> values:bool array -> bool array

(** {2 Repeated justification without allocation}

    A loop that lifts one model after another (the incremental
    reachability session) justifies against the same netlist thousands of
    times. A [scratch] holds the visited/required buffers and the explicit
    DFS stack once; each {!justify_roots} call reuses them, and reads net
    values through a function, so no net-sized array is built per model. *)

type scratch

(** [scratch n] allocates the buffers for justifying over [n]. *)
val scratch : Ps_circuit.Netlist.t -> scratch

(** [justify_roots s ~roots ~value] justifies every root in [roots] (in
    order, sharing visited nets and leaves across roots) under the net
    valuation [value], which must be a consistent simulation on the roots'
    cones. Afterwards {!required} answers for this call; the previous
    call's answers are gone. The traversal is the one {!justify} makes, so
    a single root yields the same leaves. *)
val justify_roots : scratch -> roots:int list -> value:(int -> bool) -> unit

(** [required s net] — did the last {!justify_roots} call on [s] require
    the leaf [net]? *)
val required : scratch -> int -> bool

(** [lift_mask n ~root ~values ~proj_nets] is the justification projected
    onto the given nets: [mask.(i) = true] iff [proj_nets.(i)] is
    required. *)
val lift_mask :
  Ps_circuit.Netlist.t ->
  root:int ->
  values:bool array ->
  proj_nets:int array ->
  bool array
