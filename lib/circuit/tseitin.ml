module Cnf = Ps_sat.Cnf
module Lit = Ps_sat.Lit

(* Consistency clauses for [y = kind(fanins)], all as positive-logic
   implications in both directions. [aux] allocates chain variables. *)
let gate_clauses y kind fanins fresh =
  let p v = Lit.pos v and n v = Lit.neg v in
  let fanins = Array.to_list fanins in
  match (kind : Gate.kind) with
  | Gate.Buf -> (
    match fanins with
    | [ a ] -> [ [ n y; p a ]; [ p y; n a ] ]
    | _ -> assert false)
  | Gate.Not -> (
    match fanins with
    | [ a ] -> [ [ n y; n a ]; [ p y; p a ] ]
    | _ -> assert false)
  | Gate.Const0 -> [ [ n y ] ]
  | Gate.Const1 -> [ [ p y ] ]
  | Gate.And ->
    [ p y :: List.map n fanins ] @ List.map (fun a -> [ n y; p a ]) fanins
  | Gate.Nand ->
    [ n y :: List.map n fanins ] @ List.map (fun a -> [ p y; p a ]) fanins
  | Gate.Or ->
    [ n y :: List.map p fanins ] @ List.map (fun a -> [ p y; n a ]) fanins
  | Gate.Nor ->
    [ p y :: List.map p fanins ] @ List.map (fun a -> [ n y; n a ]) fanins
  | Gate.Xor | Gate.Xnor ->
    (* Chain: t1 = a1, t(k) = t(k-1) xor a(k), y = t(n) (or its negation
       for XNOR). 2-input XOR of z = u xor v:
       (¬z ∨ u ∨ v)(¬z ∨ ¬u ∨ ¬v)(z ∨ ¬u ∨ v)(z ∨ u ∨ ¬v). *)
    let xor2 z u v =
      [ [ n z; p u; p v ]; [ n z; n u; n v ]; [ p z; n u; p v ]; [ p z; p u; n v ] ]
    in
    let eq2 z u = [ [ n z; p u ]; [ p z; n u ] ] in
    let neq2 z u = [ [ n z; n u ]; [ p z; p u ] ] in
    let rec chain acc prev rest =
      match rest with
      | [] ->
        (* y equals the accumulated parity [prev] (negated for Xnor). *)
        acc @ (if kind = Gate.Xor then eq2 y prev else neq2 y prev)
      | [ a ] ->
        acc
        @ (if kind = Gate.Xor then xor2 y prev a
           else
             (* y = not (prev xor a): encode via aux t = prev xor a, y = ¬t. *)
             let t = fresh () in
             xor2 t prev a @ neq2 y t)
      | a :: rest ->
        let t = fresh () in
        chain (acc @ xor2 t prev a) t rest
    in
    (match fanins with
    | [] -> assert false
    | [ a ] -> if kind = Gate.Xor then eq2 y a else neq2 y a
    | a :: rest -> chain [] a rest)

let encode ?cone n =
  let next_aux = ref (Netlist.num_nets n) in
  let fresh () =
    let v = !next_aux in
    incr next_aux;
    v
  in
  let include_gate g = match cone with None -> true | Some c -> c.(g) in
  let clauses =
    Array.to_list (Netlist.topo_gates n)
    |> List.filter include_gate
    |> List.concat_map (fun g ->
           match Netlist.driver n g with
           | Netlist.Gate (kind, fanins) -> gate_clauses g kind fanins fresh
           | Netlist.Input | Netlist.Latch _ -> assert false)
  in
  let cnf = Cnf.of_clauses ~nvars:(Netlist.num_nets n) clauses in
  { cnf with Cnf.nvars = max cnf.Cnf.nvars !next_aux }
