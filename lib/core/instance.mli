(** Preimage problem instances.

    A query is: circuit [C] + target set [T] of {e next} states (a DNF
    cube list over state bits). The instance grafts a target block onto
    the circuit — comparator logic over the latch-data nets producing a
    single net [t] with [t = 1 ⟺ δ(s, x) ∈ T] — and precomputes the
    CNF, the projection, and the transition views every engine needs.

    Solutions of the instance projected onto the state variables are
    exactly [Pre(T) = { s | ∃x . δ(s,x) ∈ T }]; projected onto states
    and inputs they are the satisfying (state, input) pairs. *)

(** Decision/enumeration order of the projection variables. The solution
    sets are identical under any order; search-tree sharing and graph
    size are not — the ordering ablation (bench fig7) quantifies it. *)
type order =
  | Natural      (** latch creation order (then inputs) — the default *)
  | Cone_first   (** sorted by BFS distance from the objective: variables
                     the target logic reads first are decided first *)
  | Reverse      (** reverse of [Natural] *)

type t = {
  circuit : Ps_circuit.Netlist.t;       (** the original *)
  augmented : Ps_circuit.Netlist.t;     (** circuit + target block *)
  root : int;                           (** the target net [t] in [augmented] *)
  tr : Ps_circuit.Transition.t;         (** views of the original *)
  target : Ps_allsat.Cube.t list;       (** the query, width = #latches *)
  proj : Ps_allsat.Project.t;           (** enumeration space *)
  proj_nets : int array;                (** nets (= CNF vars) of [proj] *)
  include_inputs : bool;
  negate : bool;                        (** objective inverted: next ∉ target *)
  order : order;
  positions : int array;
      (** [positions.(i)] = canonical index (state bit, or
          [nstate + input index]) enumerated at projection position [i];
          the identity under [Natural] *)
  cnf : Ps_sat.Cnf.t;                   (** Tseitin of the cone of [root] *)
  fresh_solver : unit -> Ps_sat.Solver.t;  (** see {!solver} *)
}

(** [make ?include_inputs ?negate circuit target] builds the instance.
    [target] cubes must have width = number of latches; the list must be
    non-empty. With [include_inputs] (default false) the projection is
    state bits followed by primary inputs, otherwise state bits only.
    With [negate] (default false) the objective is inverted — solutions
    are the (state, input) pairs whose next state {e misses} the target;
    this is the building block of universal preimages ({!Universal}).
    Raises [Invalid_argument] on a width mismatch or a latch-free
    circuit. *)
val make :
  ?include_inputs:bool ->
  ?negate:bool ->
  ?order:order ->
  Ps_circuit.Netlist.t ->
  Ps_allsat.Cube.t list ->
  t

(** [target_block ?negate netlist ~nets target] grafts the target DNF
    onto [netlist] over [nets] (read at each cube's positions) and
    returns the extended netlist with the objective net: a buffer (an
    inverter with [negate]) over the OR of one AND per cube. {!make}
    passes the latch-data nets, {!Kstep} the last frame's state nets.
    Raises [Invalid_argument] on an empty [target] or when a cube's
    width is not [Array.length nets]. *)
val target_block :
  ?negate:bool ->
  Ps_circuit.Netlist.t ->
  nets:int array ->
  Ps_allsat.Cube.t list ->
  Ps_circuit.Netlist.t * int

(** [encode netlist ~root ~proj_nets] sets up a circuit query: the CNF
    of [root]'s cone, the projection onto [proj_nets] named after those
    nets, and a function returning a fresh solver loaded with that CNF
    and the unit clause asserting [root]. {!make}, {!Kstep} and {!Atpg}
    all build their queries with it. *)
val encode :
  Ps_circuit.Netlist.t ->
  root:int ->
  proj_nets:int array ->
  Ps_sat.Cnf.t * Ps_allsat.Project.t * (unit -> Ps_sat.Solver.t)

(** [solver i] is a fresh solver loaded with the instance CNF and the
    unit clause asserting the target. *)
val solver : t -> Ps_sat.Solver.t

(** [num_state i] is the number of state bits. *)
val num_state : t -> int

(** [lift i] is a justification-lifting callback for
    {!Ps_allsat.Blocking.enumerate} ({!Ps_allsat.Lifting.lift_mask} on
    the instance): it owns one scratch, so build one per enumeration. *)
val lift : t -> bool array -> bool array
