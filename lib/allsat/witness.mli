(** Witnesses: a model's values of the variables a cube does not
    project onto.

    A cube that carries the witness of the model it was cut from is
    certified for every one of its minterms by one pass over the
    clauses: each clause must hold a literal that is true under the
    cube's fixed literals or the witness (docs/ALGORITHMS.md §12). That
    is the contract of {!Cnf_lift}: a blocking run that lifts with it,
    or reports minterms, meets it with each cube's model's witness. A
    circuit lift ({!Lifting}) does not: it frees positions that the
    model's gate values still depend on, so its cubes fail the check
    although they are sound.

    The witness variables of a formula over [nvars] variables are the
    variables below [nvars] that the projection leaves out, in
    increasing order. A witness packs their values eight to a byte,
    least significant bit first; over a projection that covers every
    variable it is the empty string. *)

type t = string

(** [vars proj ~nvars] — the witness variables. *)
val vars : Project.t -> nvars:int -> Ps_sat.Lit.var array

(** [bytes n] is the length of a witness over [n] variables. *)
val bytes : int -> int

(** [init n f] packs the values [f 0 .. f (n-1)]. *)
val init : int -> (int -> bool) -> t

(** [get w i] is the value of the [i]th witness variable. *)
val get : t -> int -> bool
