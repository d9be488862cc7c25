let eval n ~env =
  let nnets = Netlist.num_nets n in
  if Array.length env < nnets then invalid_arg "Sim.eval: env too short";
  let values = Array.copy env in
  Array.iter
    (fun g ->
      match Netlist.driver n g with
      | Netlist.Gate (kind, fanins) ->
        values.(g) <- Gate.eval kind (Array.map (fun f -> values.(f)) fanins)
      | Netlist.Input | Netlist.Latch _ -> assert false)
    (Netlist.topo_gates n);
  values

(* The three-valued folds below read the fanins in place instead of
   gathering them into an array for [Gate.eval3], so a pass allocates
   nothing. [Netlist.make] has already checked every gate's arity. *)

let not3 = function Gate.F -> Gate.T | Gate.T -> Gate.F | Gate.X -> Gate.X

(* AND ([ctrl] = F) and OR ([ctrl] = T): a controlling fanin decides the
   output, otherwise any X leaves it unknown. *)
let dominated ctrl values fanins =
  let acc = ref (not3 ctrl) in
  let i = ref 0 in
  let len = Array.length fanins in
  while !acc != ctrl && !i < len do
    let v = values.(fanins.(!i)) in
    if v == ctrl || v == Gate.X then acc := v;
    incr i
  done;
  !acc

(* XOR: any X makes the parity unknown. *)
let xor3 values fanins =
  let acc = ref Gate.F in
  let i = ref 0 in
  let len = Array.length fanins in
  while !acc != Gate.X && !i < len do
    (match values.(fanins.(!i)) with
    | Gate.X -> acc := Gate.X
    | Gate.T -> acc := (if !acc == Gate.T then Gate.F else Gate.T)
    | Gate.F -> ());
    incr i
  done;
  !acc

let eval3_into n ~env ~values =
  let nnets = Netlist.num_nets n in
  if Array.length env < nnets || Array.length values < nnets then
    invalid_arg "Sim.eval3_into: arrays too short";
  Array.blit env 0 values 0 nnets;
  let topo = Netlist.topo_gates n in
  for i = 0 to Array.length topo - 1 do
    let g = topo.(i) in
    match Netlist.driver n g with
    | Netlist.Gate (kind, fanins) ->
      values.(g) <-
        (match kind with
        | Gate.And -> dominated Gate.F values fanins
        | Gate.Nand -> not3 (dominated Gate.F values fanins)
        | Gate.Or -> dominated Gate.T values fanins
        | Gate.Nor -> not3 (dominated Gate.T values fanins)
        | Gate.Xor -> xor3 values fanins
        | Gate.Xnor -> not3 (xor3 values fanins)
        | Gate.Not -> not3 values.(fanins.(0))
        | Gate.Buf -> values.(fanins.(0))
        | Gate.Const0 -> Gate.F
        | Gate.Const1 -> Gate.T)
    | Netlist.Input | Netlist.Latch _ -> assert false
  done

let eval3 n ~env =
  let values = Array.make (Netlist.num_nets n) Gate.X in
  eval3_into n ~env ~values;
  values

let step n ~inputs ~state =
  let input_nets = Netlist.inputs n in
  let latch_nets = Netlist.latches n in
  if Array.length inputs <> List.length input_nets then
    invalid_arg "Sim.step: wrong number of inputs";
  if Array.length state <> List.length latch_nets then
    invalid_arg "Sim.step: wrong number of state bits";
  let env = Array.make (Netlist.num_nets n) false in
  List.iteri (fun i net -> env.(net) <- inputs.(i)) input_nets;
  List.iteri (fun i net -> env.(net) <- state.(i)) latch_nets;
  let values = eval n ~env in
  let outputs =
    Array.of_list (List.map (fun o -> values.(o)) (Netlist.outputs n))
  in
  let next_state =
    Array.of_list
      (List.map (fun l -> values.(Netlist.latch_data n l)) latch_nets)
  in
  (outputs, next_state)

let run n ~state ~input_seq =
  let current = ref state in
  List.map
    (fun inputs ->
      let outputs, next = step n ~inputs ~state:!current in
      current := next;
      (outputs, next))
    input_seq
