module B = Ps_bdd.Bdd
module Sg = Ps_allsat.Solution_graph
module Cube = Ps_allsat.Cube
module N = Ps_circuit.Netlist
module T = Ps_circuit.Transition
module Sim = Ps_circuit.Sim
module G = Ps_circuit.Gate

(* Projection position [i] becomes BDD variable [positions.(i)]
   (default: [i]). *)
let run_bdd ?positions man (r : Ps_allsat.Run.t) ~width =
  match r.graph with
  | Some g ->
    Sg.to_bdd man (Option.value positions ~default:(Array.init width Fun.id)) g
  | None -> Ps_allsat.Cube_set.to_bdd ?var_of_pos:positions man r.cubes

let result_bdd man r ~width = run_bdd man r ~width

let engines_agree instance results =
  let width = Ps_allsat.Project.width instance.Instance.proj in
  let man = B.new_man ~nvars:(max width 1) in
  let named =
    List.map
      (fun r ->
        ( Engine.method_name r.Engine.method_,
          run_bdd ~positions:instance.Instance.positions man r.Engine.run
            ~width ))
      results
  in
  let named =
    if instance.Instance.include_inputs then named
    else begin
      let ctx = Bdd_engine.create instance.Instance.circuit in
      let pre =
        Bdd_engine.preimage ~negate:instance.Instance.negate ctx ~into:man
          instance.Instance.target
      in
      ("bdd", pre) :: named
    end
  in
  match named with
  | [] -> Ok 0.0
  | (name0, f0) :: rest ->
    let mismatches =
      List.filter_map
        (fun (name, f) ->
          if B.equal f f0 then None else Some (name0 ^ " vs " ^ name))
        rest
    in
    if mismatches = [] then Ok (B.count_models ~nvars:width f0)
    else Error (String.concat "; " mismatches)

(* One enumerator for both oracles. Two-valued simulation is ternary
   simulation without X, so one [env]/[values] pair serves every state
   and input vector; it shares no code with the BDD and SAT engines. *)
let brute_force ~negate circuit target =
  let tr = T.of_netlist circuit in
  let nstate = Array.length tr.T.state_nets in
  let ninputs = Array.length tr.T.input_nets in
  if nstate + ninputs > 20 then
    invalid_arg "Check.brute_force: state+input space too large";
  let env = Array.make (N.num_nets circuit) G.F in
  let values = Array.copy env in
  let next = Array.make nstate false in
  let assign nets code =
    Array.iteri
      (fun i net -> env.(net) <- (if (code lsr i) land 1 = 1 then G.T else G.F))
      nets
  in
  Array.init (1 lsl nstate) (fun scode ->
      assign tr.T.state_nets scode;
      let rec reaches icode =
        icode < 1 lsl ninputs
        && begin
          assign tr.T.input_nets icode;
          Sim.eval3_into circuit ~env ~values;
          Array.iteri (fun i net -> next.(i) <- values.(net) == G.T) tr.T.next_nets;
          List.exists (fun c -> Cube.contains c next) target <> negate
          || reaches (icode + 1)
        end
      in
      reaches 0)

let brute_force_preimage circuit target = brute_force ~negate:false circuit target

let brute_force_objective instance =
  brute_force ~negate:instance.Instance.negate instance.Instance.circuit
    instance.Instance.target

let matches_brute_force instance (r : Engine.result) =
  if instance.Instance.include_inputs then
    invalid_arg "Check.matches_brute_force: states-only projection required";
  let expected = brute_force_objective instance in
  let nstate = Instance.num_state instance in
  let width = nstate in
  let man = B.new_man ~nvars:(max width 1) in
  let f =
    run_bdd ~positions:instance.Instance.positions man r.Engine.run ~width
  in
  let bits = Array.make width false in
  let ok = ref true in
  for scode = 0 to (1 lsl nstate) - 1 do
    for i = 0 to nstate - 1 do
      bits.(i) <- (scode lsr i) land 1 = 1
    done;
    if B.eval f bits <> expected.(scode) then ok := false
  done;
  !ok
