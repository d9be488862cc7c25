module N = Ps_circuit.Netlist
module B = Ps_circuit.Builder
module U = Ps_circuit.Unroll
module Cube = Ps_allsat.Cube
module Solver = Ps_sat.Solver
module Lit = Ps_sat.Lit

type counterexample = {
  depth : int;
  initial : bool array;
  inputs : bool array list;
  final : bool array;
}

(* DNF-over-nets block: returns the net that is 1 iff the assignment of
   [nets] matches some cube. *)
let dnf_block b nets cubes prefix =
  match Instance.cube_nets b nets cubes ~prefix with
  | [] -> invalid_arg "Bmc: empty cube list"
  | [ single ] -> single
  | nets -> B.or_ b ~name:(B.fresh_name b (prefix ^ "any")) nets

let holds cubes bits = List.exists (fun c -> Cube.contains c bits) cubes

(* Depth 0: is some initial state already bad? Decide by SAT over the
   state variables alone (cube lists can overlap arbitrarily). *)
let depth0 circuit ~init ~bad =
  let nstate = List.length (N.latches circuit) in
  let b = B.create () in
  let vars = Array.init nstate (fun i -> B.input b (Printf.sprintf "s%d" i)) in
  let i_net = dnf_block b vars init "_i" in
  let b_net = dnf_block b vars bad "_b" in
  let both = B.and_ b ~name:"_both" [ i_net; b_net ] in
  B.output b both;
  let net = B.finalize b in
  let cnf = Ps_circuit.Tseitin.encode net in
  let s = Solver.create () in
  ignore (Solver.load s cnf);
  ignore (Solver.add_clause s [ Lit.pos both ]);
  match Solver.solve s with
  | Solver.Unsat | Solver.Unknown -> None
  | Solver.Sat ->
    let state = Array.map (fun v -> Solver.model_value s v) vars in
    Some { depth = 0; initial = state; inputs = []; final = state }

let attempt_depth circuit ~init ~bad k =
  let unrolled = U.unroll circuit ~k in
  let b = B.of_netlist unrolled.U.netlist in
  let init_net = dnf_block b unrolled.U.state0 init "_init" in
  let final = unrolled.U.state_at.(k) in
  let bad_net = dnf_block b final bad "_bad" in
  let both = B.and_ b ~name:"_cex" [ init_net; bad_net ] in
  B.output b both;
  let net = B.finalize b in
  let cone = N.cone net [ both ] in
  let cnf = Ps_circuit.Tseitin.encode ~cone net in
  let s = Solver.create () in
  ignore (Solver.load s cnf);
  ignore (Solver.add_clause s [ Lit.pos both ]);
  match Solver.solve s with
  | Solver.Unsat | Solver.Unknown -> None
  | Solver.Sat ->
    let value net = Solver.model_value s net in
    let initial = Array.map value unrolled.U.state0 in
    let inputs =
      List.init k (fun t -> Array.map value unrolled.U.frame_inputs.(t))
    in
    Some (initial, inputs)

let check circuit ~init ~bad ~max_depth =
  if max_depth < 0 then invalid_arg "Bmc.check: negative depth bound";
  match depth0 circuit ~init ~bad with
  | Some cex -> Some cex
  | None ->
    let rec loop k =
      if k > max_depth then None
      else begin
        match attempt_depth circuit ~init ~bad k with
        | None -> loop (k + 1)
        | Some (initial, inputs) ->
          (* replay on the simulator: the returned trace must be real *)
          let state = ref (Array.copy initial) in
          List.iter
            (fun iv ->
              let _, next = Ps_circuit.Sim.step circuit ~inputs:iv ~state:!state in
              state := next)
            inputs;
          if not (holds bad !state) then
            invalid_arg "Bmc.check: internal error — replay diverged";
          Some { depth = k; initial; inputs; final = !state }
      end
    in
    loop 1
