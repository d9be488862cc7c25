(** Cube enlargement by circuit justification.

    After the solver finds a satisfying assignment, many of the projected
    variables are irrelevant: the objective is already justified by a
    subset of the leaf values. {!justify_roots} walks the constraint cone
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

(** {2 Justification without per-model allocation}

    A loop that lifts one model after another justifies against the same
    netlist thousands of times. A [scratch] holds the visited/required
    buffers and the explicit DFS stack once; each {!justify_roots} call
    reuses them, and reads net values through a function, so no
    net-sized array is built per model. *)

type scratch

(** [scratch n] allocates the buffers for justifying over [n]. *)
val scratch : Ps_circuit.Netlist.t -> scratch

(** [justify_roots s ~roots ~value] justifies every root in [roots] (in
    order, sharing visited nets and leaves across roots) under the net
    valuation [value], which must be a consistent simulation on the roots'
    cones (e.g. from {!Ps_circuit.Sim.eval} or a solver model); a root
    may have either value. Afterwards {!required} answers for this call:
    only leaves (inputs and latch outputs) are ever required, and the
    previous call's answers are gone. Raises [Invalid_argument] when a
    controlled gate has no controlling fanin under [value]. *)
val justify_roots : scratch -> roots:int list -> value:(int -> bool) -> unit

(** [required s net] — did the last {!justify_roots} call on [s] require
    the leaf [net]? *)
val required : scratch -> int -> bool

(** [lift_mask n ~root ~proj_nets] is the justification-lifting
    callback for {!Blocking.enumerate}: applied to a model (net values of
    [n] in its first [num_nets n] positions, read in place), it returns
    the mask [mask.(i) = true] iff [proj_nets.(i)] is required to keep
    [root] at its model value. The callback owns one {!scratch}, so it
    serves one enumeration at a time; it raises [Invalid_argument] when
    the model is shorter than [num_nets n]. *)
val lift_mask :
  Ps_circuit.Netlist.t -> root:int -> proj_nets:int array -> bool array -> bool array
