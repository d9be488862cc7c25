(** Exact k-step preimage via time-frame expansion.

    [Pre^k(T)(s) = ∃x₀..x₍k₋₁₎ . T(δ(δ(...δ(s,x₀)...), x₍k₋₁₎))] — the
    states that reach [T] in {e exactly} [k] steps, computed as a single
    all-SAT query over the [k]-frame unrolling (the bounded-model-checking
    construction) instead of [k] chained one-step preimages. Useful when
    the intermediate frontiers are large but the k-step preimage is
    small, and as an independent oracle for {!Reach} (tested:
    [Kstep ~k:2] = one-step preimage applied twice). *)

type result = {
  run : Ps_allsat.Run.t;
      (** the unified engine result; cubes are over the frame-0 state
          bits, the graph is present for the SDS engines *)
  solutions : float;
  time_s : float;
}

(** Shorthands into {!Ps_allsat.Run.t}. *)
val cubes : result -> Ps_allsat.Cube.t list

val stats : result -> Ps_util.Stats.t

(** [preimage ?method_ circuit target ~k] runs the chosen engine
    (default [Sds]) on the unrolled instance. [target] is a DNF cube
    list over the state bits, as in {!Instance.make}. *)
val preimage :
  ?method_:Engine.method_ ->
  Ps_circuit.Netlist.t ->
  Ps_allsat.Cube.t list ->
  k:int ->
  result
