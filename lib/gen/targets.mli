(** Target state-set generators.

    A preimage query needs a target set of {e next} states, expressed as
    a DNF cube list over the state bits (position [i] = state bit [i] in
    {!Ps_circuit.Transition} order). These constructors cover the regimes
    the experiments sweep: single states (tight), single literals
    (loose, exponentially many preimages), and random cube sets. *)

type t = Ps_allsat.Cube.t list
(** DNF over state bits; must be non-empty. *)

(** [value ~bits k] is the single state with binary value [k]
    (bit 0 = LSB). *)
val value : bits:int -> int -> t

val all_ones : bits:int -> t
val all_zeros : bits:int -> t

(** [bit_high ~bits i] is "state bit [i] is 1" — one literal, half the
    state space. *)
val bit_high : bits:int -> int -> t

(** [upper_half ~bits] is "top bit set". *)
val upper_half : bits:int -> t

(** [random ~bits ~ncubes ~density rng] draws [ncubes] cubes, each
    position fixed with probability [density]. *)
val random : bits:int -> ncubes:int -> density:float -> Ps_util.Rng.t -> t

(** [of_strings rows] parses positional cube notation, e.g.
    [["1-0"; "01-"]]. *)
val of_strings : string list -> t

(** [of_expr ~bits ~names expr] turns a boolean expression over the state
    bit names into a cube list (via a BDD, so the DNF is the disjoint
    path cover). [names.(i)] is the identifier of state bit [i].
    Raises [Failure] on parse errors, [Invalid_argument] if the
    expression mentions an unknown name or denotes the empty set. *)
val of_expr : bits:int -> names:string array -> string -> t

(** [parse ~bits ~names spec] understands the CLI target syntax:
    ["all-ones"], ["all-zeros"], ["upper-half"], ["value:<k>"],
    ["expr:<boolean expression over names>"], or comma-separated
    positional cubes (["1-0,01-"]).
    Raises [Failure] or [Invalid_argument] with a message on bad specs. *)
val parse : bits:int -> names:string array -> string -> t

(** [mem t bits] — does the total state assignment match some cube? *)
val mem : t -> bool array -> bool

val pp : Format.formatter -> t -> unit
