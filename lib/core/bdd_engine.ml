module B = Ps_bdd.Bdd
module N = Ps_circuit.Netlist
module T = Ps_circuit.Transition
module G = Ps_circuit.Gate
module Cube = Ps_allsat.Cube

type result = {
  preimage : B.t;
  man : B.man;
  nodes_allocated : int;
  preimage_size : int;
  time_s : float;
}

(* BDD of every net of the next-state cone, by topological walk. *)
let next_state_functions man tr ~state_vars ~input_vars =
  let circuit = tr.T.netlist in
  let funcs = Array.make (N.num_nets circuit) (B.zero man) in
  Array.iteri (fun i net -> funcs.(net) <- B.var man state_vars.(i)) tr.T.state_nets;
  Array.iteri (fun j net -> funcs.(net) <- B.var man input_vars.(j)) tr.T.input_nets;
  let apply kind args =
    match (kind : G.kind) with
    | G.And -> Array.fold_left B.band (B.one man) args
    | G.Nand -> B.bnot (Array.fold_left B.band (B.one man) args)
    | G.Or -> Array.fold_left B.bor (B.zero man) args
    | G.Nor -> B.bnot (Array.fold_left B.bor (B.zero man) args)
    | G.Xor -> Array.fold_left B.bxor (B.zero man) args
    | G.Xnor -> B.bnot (Array.fold_left B.bxor (B.zero man) args)
    | G.Not -> B.bnot args.(0)
    | G.Buf -> args.(0)
    | G.Const0 -> B.zero man
    | G.Const1 -> B.one man
  in
  let cone = N.cone circuit (Array.to_list tr.T.next_nets) in
  Array.iter
    (fun g ->
      if cone.(g) then
        match N.driver circuit g with
        | N.Gate (kind, fanins) ->
          funcs.(g) <- apply kind (Array.map (fun f -> funcs.(f)) fanins)
        | N.Input | N.Latch _ -> assert false)
    (N.topo_gates circuit);
  Array.map (fun net -> funcs.(net)) tr.T.next_nets

type context = {
  man : B.man;
  state_vars : int array;
  input_vars : int array;
  deltas : B.t array;
}

(* State bit [i] is variable [i], input [j] is variable [nstate + j]. *)
let create circuit =
  let tr = T.of_netlist circuit in
  let nstate = Array.length tr.T.state_nets in
  let ninputs = Array.length tr.T.input_nets in
  let state_vars = Array.init nstate Fun.id in
  let input_vars = Array.init ninputs (fun j -> nstate + j) in
  let man = B.new_man ~nvars:(nstate + ninputs) in
  { man; state_vars; input_vars;
    deltas = next_state_functions man tr ~state_vars ~input_vars }

(* T(δ(s, x)), or its complement: the target DNF over the function BDDs. *)
let objective ctx ~negate target =
  let man = ctx.man in
  let t =
    List.fold_left
      (fun acc c ->
        let cube_bdd =
          List.fold_left
            (fun acc (i, v) ->
              let d = ctx.deltas.(i) in
              B.band acc (if v then d else B.bnot d))
            (B.one man) (Cube.to_list c)
        in
        B.bor acc cube_bdd)
      (B.zero man) target
  in
  if negate then B.bnot t else t

let quantify_inputs ctx f = B.exists (Array.to_list ctx.input_vars) f

let preimage ?(negate = false) ctx ~into target =
  (* State bit [i] is variable [i] in both managers. *)
  B.copy ~into ~vars:ctx.state_vars
    (quantify_inputs ctx (objective ctx ~negate target))

let run instance =
  let t0 = Unix.gettimeofday () in
  let ctx = create instance.Instance.circuit in
  let constr = objective ctx ~negate:instance.Instance.negate instance.Instance.target in
  let preimage =
    if instance.Instance.include_inputs then constr else quantify_inputs ctx constr
  in
  {
    preimage;
    man = ctx.man;
    nodes_allocated = B.num_nodes ctx.man;
    preimage_size = B.size preimage;
    time_s = Unix.gettimeofday () -. t0;
  }

let count (r : result) ~nstate =
  let total_vars = B.nvars r.man in
  B.count_models ~nvars:total_vars r.preimage
  /. (2.0 ** float_of_int (total_vars - nstate))
