(** Cross-checking oracles.

    Every engine's solution set is converted into a BDD over the
    projection variables and compared for handle equality; small
    instances are additionally checked against exhaustive simulation.
    The test suite runs these on randomized circuits; the benchmark
    harness runs them once per experiment as a sanity gate. *)

(** [result_bdd ?positions man r ~width] is the BDD of an engine
    result's solution set, mapping projection position [i] to BDD
    variable [positions.(i)] (default: the identity — correct for
    [Instance.Natural]-ordered instances). *)
val result_bdd :
  ?positions:int array ->
  Ps_bdd.Bdd.man ->
  Engine.result ->
  width:int ->
  Ps_bdd.Bdd.t

(** [engines_agree instance results] converts all results (plus the BDD
    engine, which it runs itself) into one BDD space and reports
    pairwise equality. Returns [Ok solutions] (the common solution
    count) or [Error msg] naming the disagreeing engines. *)
val engines_agree :
  Instance.t -> Engine.result list -> (float, string) Stdlib.result

(** [brute_force_preimage circuit target] marks each present-state code
    (bit [i] of the code = state bit [i]) that can reach [target] in one
    step, by exhaustive simulation over all states and inputs. Raises
    [Invalid_argument] when [#state + #inputs > 20]. *)
val brute_force_preimage :
  Ps_circuit.Netlist.t -> Ps_allsat.Cube.t list -> bool array

(** [brute_force_objective instance] is like {!brute_force_preimage} but
    honours the instance's [negate] flag (existential preimage of the
    complement). *)
val brute_force_objective : Instance.t -> bool array

(** [matches_brute_force instance r] checks an engine result against
    the exhaustive oracle (projection over states only). *)
val matches_brute_force : Instance.t -> Engine.result -> bool
