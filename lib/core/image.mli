(** Forward image and forward reachability (BDD-based).

    The forward dual of {!Reach}: [Img(S)(s') = ∃s,x . S(s) ∧ s' = δ(s,x)],
    computed with a monolithic transition relation and the relational
    product, then iterated to the forward reachable set. The relation
    [∧ᵢ s'ᵢ ↔ δᵢ(s, x)] conjoins the next-state function BDDs of
    {!Bdd_engine.next_state_functions} (states first, then inputs). Used
    by the safety-checking example and as an independent oracle: a
    target is backward-reachable from an initial state iff the forward
    reachable set intersects it (tested). *)

type t
(** A forward-image context: the transition relation, built once. *)

(** [create circuit] builds the context.
    Raises [Invalid_argument] on a latch-free circuit. *)
val create : Ps_circuit.Netlist.t -> t

(** [man t] is the context's BDD manager; state variables are
    [0 .. nstate-1] (present-state), which is also the variable space of
    every set this module consumes and produces. *)
val man : t -> Ps_bdd.Bdd.man

val nstate : t -> int

(** [of_cubes t cubes] builds a state set from DNF cubes. *)
val of_cubes : t -> Ps_allsat.Cube.t list -> Ps_bdd.Bdd.t

(** [image t s] is the set of successors of [s] (over present-state
    variables again). *)
val image : t -> Ps_bdd.Bdd.t -> Ps_bdd.Bdd.t

type reach_result = {
  reached : Ps_bdd.Bdd.t;
  steps : int;
  total_states : float;
  fixpoint : bool;
}

(** [forward_reach ?max_steps t ~init] iterates [image] from the initial
    set to a fixpoint. *)
val forward_reach : ?max_steps:int -> t -> init:Ps_allsat.Cube.t list -> reach_result

(** [intersects t a b] — do two state sets share a state? *)
val intersects : t -> Ps_bdd.Bdd.t -> Ps_bdd.Bdd.t -> bool
