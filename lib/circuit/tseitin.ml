module Cnf = Ps_sat.Cnf
module Lit = Ps_sat.Lit

(* Consistency clauses for [y = kind(fanins)], all as positive-logic
   implications in both directions, passed to [emit] one array each.
   [fresh] allocates chain variables. *)
let gate_clauses emit y kind fanins fresh =
  let p v = Lit.pos v and n v = Lit.neg v in
  let k = Array.length fanins in
  (* The wide clause [y_lit ∨ lit(a) for every fanin a], then the binary
     clause [y_bin ∨ bin(a)] per fanin. *)
  let and_like y_lit lit y_bin bin =
    emit (Array.init (k + 1) (fun i -> if i = 0 then y_lit else lit fanins.(i - 1)));
    Array.iter (fun a -> emit [| y_bin; bin a |]) fanins
  in
  match (kind : Gate.kind) with
  | Gate.Buf ->
    let a = fanins.(0) in
    emit [| n y; p a |];
    emit [| p y; n a |]
  | Gate.Not ->
    let a = fanins.(0) in
    emit [| n y; n a |];
    emit [| p y; p a |]
  | Gate.Const0 -> emit [| n y |]
  | Gate.Const1 -> emit [| p y |]
  | Gate.And -> and_like (p y) n (n y) p
  | Gate.Nand -> and_like (n y) n (p y) p
  | Gate.Or -> and_like (n y) p (p y) n
  | Gate.Nor -> and_like (p y) p (n y) n
  | Gate.Xor | Gate.Xnor ->
    (* Chain: t1 = a1, t(k) = t(k-1) xor a(k), y = t(n) (or its negation
       for XNOR). 2-input XOR of z = u xor v:
       (¬z ∨ u ∨ v)(¬z ∨ ¬u ∨ ¬v)(z ∨ ¬u ∨ v)(z ∨ u ∨ ¬v). *)
    let xor2 z u v =
      emit [| n z; p u; p v |];
      emit [| n z; n u; n v |];
      emit [| p z; n u; p v |];
      emit [| p z; p u; n v |]
    in
    let eq2 z u =
      emit [| n z; p u |];
      emit [| p z; n u |]
    in
    let neq2 z u =
      emit [| n z; n u |];
      emit [| p z; p u |]
    in
    if k = 1 then (if kind = Gate.Xor then eq2 y fanins.(0) else neq2 y fanins.(0))
    else begin
      let prev = ref fanins.(0) in
      for i = 1 to k - 2 do
        let t = fresh () in
        xor2 t !prev fanins.(i);
        prev := t
      done;
      let a = fanins.(k - 1) in
      if kind = Gate.Xor then xor2 y !prev a
      else begin
        (* y = not (prev xor a): encode via aux t = prev xor a, y = ¬t. *)
        let t = fresh () in
        xor2 t !prev a;
        neq2 y t
      end
    end

(* Every variable is a net or a chain auxiliary, so the variable count is
   the next auxiliary; the clause list is newest first, as {!Cnf} keeps
   it. *)
let encode ?cone n =
  let next_aux = ref (Netlist.num_nets n) in
  let fresh () =
    let v = !next_aux in
    incr next_aux;
    v
  in
  let clauses = ref [] in
  let emit c = clauses := c :: !clauses in
  Array.iter
    (fun g ->
      if match cone with None -> true | Some c -> c.(g) then
        match Netlist.driver n g with
        | Netlist.Gate (kind, fanins) -> gate_clauses emit g kind fanins fresh
        | Netlist.Input | Netlist.Latch _ -> assert false)
    (Netlist.topo_gates n);
  { Cnf.nvars = !next_aux; clauses = !clauses }
