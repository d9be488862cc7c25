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

(** [cube_nets b nets cubes ~prefix] adds to [b] one net per cube of
    [cubes] (in order) that is 1 iff [nets], read at the cube's
    positions, match the cube: the AND of its literals over shared
    inverters, the literal's net itself for a one-literal cube, a
    constant 1 for the empty cube. New nets are named after [prefix].
    Every target block (this module's and {!Kstep}'s) is these nets
    under one OR. Raises
    [Invalid_argument] when a cube's width is not [Array.length nets]. *)
val cube_nets :
  Ps_circuit.Builder.t -> int array -> Ps_allsat.Cube.t list -> prefix:string -> int list

(** [solver i] is a fresh solver loaded with the instance CNF and the
    unit clause asserting the target. *)
val solver : t -> Ps_sat.Solver.t

(** [num_state i] is the number of state bits. *)
val num_state : t -> int

(** [lift i] is the justification-lifting callback for
    {!Ps_allsat.Blocking.enumerate}, closed over the instance. *)
val lift : t -> bool array -> bool array

(** [target_holds i next_bits] evaluates the target DNF on a concrete
    next-state assignment. *)
val target_holds : t -> bool array -> bool
