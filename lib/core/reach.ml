module B = Ps_bdd.Bdd
module T = Ps_circuit.Transition
module Ri = Reach_inc

type engine = E_sds | E_sds_dynamic | E_blocking_lift | E_bdd | E_incremental

let engine_name = function
  | E_sds -> "sds"
  | E_sds_dynamic -> "sds-dynamic"
  | E_blocking_lift -> "blocking-lift"
  | E_bdd -> "bdd"
  | E_incremental -> "incremental"

type step = Ri.frame = {
  index : int;
  frontier_cubes : int;
  new_cubes : int;
  blocking_clauses : int;
  sat_calls : int;
  conflicts : int;
  learnts_start : int;
  frontier_states : float;
  total_states : float;
  time_s : float;
}

type result = {
  engine : engine;
  steps : step list;
  fixpoint : bool;
  total_states : float;
  reached : B.t;
  man : B.man;
  layers : B.t list;
  time_s : float;
}

(* An enumerator that blocks nothing across frames: [preimage_of man
   cubes] is a frame's preimage in [man] with its SAT calls and
   conflicts. *)
let stateless preimage_of =
  let preimage ~frontier:_ ~reached frontier_cubes =
    let pre, sat_calls, conflicts = preimage_of (B.man_of reached) frontier_cubes in
    { Ri.fresh = B.band pre (B.bnot reached); blocked = None; sat_calls; conflicts }
  in
  { Ri.reached = ignore; learnts = (fun () -> 0); preimage }

(* The rebuild enumerator: a fresh instance and engine run per frame,
   nothing kept across frames; each run's events go to [trace]. *)
let rebuild ?trace m circuit =
  stateless (fun man cubes ->
      let r = Engine.run ?trace m (Instance.make circuit cubes) in
      let s = Engine.stats r in
      ( Check.result_bdd man r.Engine.run ~width:(B.nvars man),
        Ps_util.Stats.get s "solve_calls",
        Ps_util.Stats.get s "conflicts" ))

(* The BDD enumerator: one transition context for the whole fixpoint,
   one preimage in it per frame. *)
let bdd circuit =
  let ctx = Bdd_engine.create circuit in
  stateless (fun man cubes -> (Bdd_engine.preimage ctx ~into:man cubes, 0, 0))

let backward ?(engine = E_sds) ?max_steps ?trace ?store ?resume circuit target =
  let enumerator =
    match engine with
    | E_sds -> Some (rebuild ?trace Engine.Sds circuit)
    | E_sds_dynamic -> Some (rebuild ?trace Engine.SdsDynamic circuit)
    | E_blocking_lift -> Some (rebuild ?trace Engine.BlockingLift circuit)
    | E_bdd -> Some (bdd circuit)
    | E_incremental -> None (* the session *)
  in
  let r = Ri.run ?enumerator ?max_steps ?trace ?store ?resume circuit target in
  {
    engine;
    steps = r.Ri.frames;
    fixpoint = r.Ri.fixpoint;
    total_states = r.Ri.total_states;
    reached = r.Ri.reached;
    man = r.Ri.man;
    layers = r.Ri.layers;
    time_s = r.Ri.time_s;
  }

let mem r state_bits = B.eval r.reached state_bits

(* Witness extraction: from a state at backward distance d, one SAT call
   per step finds inputs whose successor lies within distance d-1. *)
let trace r circuit ~from =
  let tr = T.of_netlist circuit in
  let nstate = Array.length tr.T.state_nets in
  if Array.length from <> nstate then invalid_arg "Reach.trace: bad state width";
  if not (mem r from) then None
  else begin
    let layers = Array.of_list r.layers in
    let depth_of s =
      let rec find i = if B.eval layers.(i) s then i else find (i + 1) in
      find 0
    in
    let module Solver = Ps_sat.Solver in
    let module Lit = Ps_sat.Lit in
    let trace = ref [] in
    let state = ref (Array.copy from) in
    let d = ref (depth_of from) in
    while !d > 0 do
      let closer = Ps_allsat.Cube_set.of_bdd layers.(!d - 1) ~width:nstate in
      let inst = Instance.make ~include_inputs:true circuit closer in
      let solver = Instance.solver inst in
      let assumptions =
        List.init nstate (fun i ->
            Lit.make tr.T.state_nets.(i) !state.(i))
      in
      (match Solver.solve ~assumptions solver with
      | Solver.Unsat | Solver.Unknown ->
        (* cannot happen: the state is in layer d = Pre(layer d-1) ∪ ...,
           and an unbudgeted solve never returns Unknown *)
        assert false
      | Solver.Sat ->
        let inputs =
          Array.map (fun net -> Solver.model_value solver net) tr.T.input_nets
        in
        let _, next = Ps_circuit.Sim.step circuit ~inputs ~state:!state in
        trace := inputs :: !trace;
        state := next;
        d := depth_of next)
    done;
    Some (List.rev !trace)
  end
