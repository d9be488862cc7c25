(** Bounded model checking.

    The forward, single-query dual of {!Reach}: unroll [k] frames,
    constrain frame 0 to the initial states and the frame-[k] state to
    the bad set, and ask the SAT solver for a counterexample. Iterating
    [k] upward gives the shortest counterexample; a clean [None] up to a
    bound is a bounded safety proof. Every counterexample is replayed on
    the simulator before being returned (so a returned trace is
    guaranteed real). *)

type counterexample = {
  depth : int;                  (** cycles until the bad state *)
  initial : bool array;         (** the starting state *)
  inputs : bool array list;     (** one vector per cycle, netlist order *)
  final : bool array;           (** the reached bad state *)
}

(** [check circuit ~init ~bad ~max_depth] searches depths
    [0 .. max_depth] for a path from [init] into [bad] ([0] = an initial
    state already bad). Returns the shortest counterexample, or [None]
    if none exists within the bound. *)
val check :
  Ps_circuit.Netlist.t ->
  init:Ps_allsat.Cube.t list ->
  bad:Ps_allsat.Cube.t list ->
  max_depth:int ->
  counterexample option

(** [dnf_block b nets cubes prefix] adds to [b] a net that is 1 iff
    [nets] match some cube of [cubes]: the OR of
    {!Instance.cube_nets}, or the one cube's net. Raises
    [Invalid_argument] on an empty list. {!Induction} builds its bad
    frames with it. *)
val dnf_block :
  Ps_circuit.Builder.t -> int array -> Ps_allsat.Cube.t list -> string -> int
