module B = Ps_bdd.Bdd
module Sg = Ps_allsat.Solution_graph
module Cube = Ps_allsat.Cube
module N = Ps_circuit.Netlist
module T = Ps_circuit.Transition
module Sim = Ps_circuit.Sim

let result_bdd ?positions man (r : Engine.result) ~width =
  let var_of_pos =
    match positions with
    | None -> Array.init width Fun.id
    | Some p ->
      if Array.length p <> width then
        invalid_arg "Check.result_bdd: positions length mismatch";
      p
  in
  match Engine.graph r with
  | Some g -> Sg.to_bdd_unordered man var_of_pos g
  | None ->
    List.fold_left
      (fun acc c ->
        let lits =
          List.map (fun (pos, v) -> (var_of_pos.(pos), v)) (Cube.to_list c)
        in
        B.bor acc (B.cube man lits))
      (B.zero man) (Engine.cubes r)

let engines_agree instance results =
  let width = Ps_allsat.Project.width instance.Instance.proj in
  let man = B.new_man ~nvars:(max width 1) in
  let named =
    List.map
      (fun r ->
        ( Engine.method_name r.Engine.method_,
          result_bdd ~positions:instance.Instance.positions man r ~width ))
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

let brute_force_preimage circuit target =
  let tr = T.of_netlist circuit in
  let nstate = Array.length tr.T.state_nets in
  let ninputs = Array.length tr.T.input_nets in
  if nstate + ninputs > 20 then
    invalid_arg "Check.brute_force_preimage: state+input space too large";
  let holds bits = List.exists (fun c -> Cube.contains c bits) target in
  let result = Array.make (1 lsl nstate) false in
  let state = Array.make nstate false in
  let inputs = Array.make ninputs false in
  for scode = 0 to (1 lsl nstate) - 1 do
    for i = 0 to nstate - 1 do
      state.(i) <- (scode lsr i) land 1 = 1
    done;
    let found = ref false in
    let icode = ref 0 in
    while (not !found) && !icode < 1 lsl ninputs do
      for j = 0 to ninputs - 1 do
        inputs.(j) <- (!icode lsr j) land 1 = 1
      done;
      let _, next = Sim.step circuit ~inputs ~state in
      if holds next then found := true;
      incr icode
    done;
    result.(scode) <- !found
  done;
  result

let brute_force_objective instance =
  let tr = T.of_netlist instance.Instance.circuit in
  let nstate = Array.length tr.T.state_nets in
  let ninputs = Array.length tr.T.input_nets in
  if nstate + ninputs > 20 then
    invalid_arg "Check.brute_force_objective: state+input space too large";
  let circuit = instance.Instance.circuit in
  let target = instance.Instance.target in
  let holds bits =
    let in_t = List.exists (fun c -> Cube.contains c bits) target in
    if instance.Instance.negate then not in_t else in_t
  in
  let result = Array.make (1 lsl nstate) false in
  let state = Array.make nstate false in
  let inputs = Array.make ninputs false in
  for scode = 0 to (1 lsl nstate) - 1 do
    for i = 0 to nstate - 1 do
      state.(i) <- (scode lsr i) land 1 = 1
    done;
    let found = ref false in
    let icode = ref 0 in
    while (not !found) && !icode < 1 lsl ninputs do
      for j = 0 to ninputs - 1 do
        inputs.(j) <- (!icode lsr j) land 1 = 1
      done;
      let _, next = Sim.step circuit ~inputs ~state in
      if holds next then found := true;
      incr icode
    done;
    result.(scode) <- !found
  done;
  result

let matches_brute_force instance (r : Engine.result) =
  if instance.Instance.include_inputs then
    invalid_arg "Check.matches_brute_force: states-only projection required";
  let expected = brute_force_objective instance in
  let nstate = Instance.num_state instance in
  let width = nstate in
  let man = B.new_man ~nvars:(max width 1) in
  let f = result_bdd ~positions:instance.Instance.positions man r ~width in
  let bits = Array.make width false in
  let ok = ref true in
  for scode = 0 to (1 lsl nstate) - 1 do
    for i = 0 to nstate - 1 do
      bits.(i) <- (scode lsr i) land 1 = 1
    done;
    if B.eval f bits <> expected.(scode) then ok := false
  done;
  !ok
