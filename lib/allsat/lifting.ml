module N = Ps_circuit.Netlist
module G = Ps_circuit.Gate
module Vec = Ps_util.Vec

(* For AND/NAND the controlling input value is false; for OR/NOR true.
   When the gate output shows the controlled result, one controlling
   fanin justifies it. *)
let controlling_value = function
  | G.And | G.Nand -> Some false
  | G.Or | G.Nor -> Some true
  | G.Xor | G.Xnor | G.Not | G.Buf | G.Const0 | G.Const1 -> None

(* Output value a gate takes when a controlling input is present. *)
let controlled_output = function
  | G.And -> false
  | G.Nand -> true
  | G.Or -> true
  | G.Nor -> false
  | G.Xor | G.Xnor | G.Not | G.Buf | G.Const0 | G.Const1 ->
    invalid_arg "Lifting: gate has no controlling value"

(* Net [i] is visited (resp. required) in the current call iff
   [visited.(i) = epoch] (resp. [required.(i)]): bumping [epoch] clears
   both buffers in O(1), so repeated calls allocate nothing. *)
type scratch = {
  netlist : N.t;
  visited : int array;
  required : int array;
  mutable epoch : int;
  stack : int Vec.t;
}

let scratch n =
  let m = N.num_nets n in
  {
    netlist = n;
    visited = Array.make m 0;
    required = Array.make m 0;
    epoch = 0;
    stack = Vec.create ~dummy:0;
  }

(* Depth-first from the roots, in order, with an explicit stack: a net's
   fanins are pushed in reverse so they pop in fanin order, and the
   visited test happens at pop time — exactly the order of the recursive
   walk, so the chosen fanins (and hence the cubes) do not depend on the
   stack discipline, and deep cones cannot overflow the call stack. *)
let justify_roots s ~roots ~value =
  s.epoch <- s.epoch + 1;
  let ep = s.epoch in
  let stack = s.stack in
  Vec.clear stack;
  List.iter (Vec.push stack) (List.rev roots);
  while not (Vec.is_empty stack) do
    let net = Vec.pop stack in
    if s.visited.(net) <> ep then begin
      s.visited.(net) <- ep;
      match N.driver s.netlist net with
      | N.Input | N.Latch _ -> s.required.(net) <- ep
      | N.Gate (kind, fanins) -> (
        match controlling_value kind with
        | Some cv when value net = controlled_output kind ->
          (* One controlling fanin suffices: the last one that is already
             visited, so justifications share leaves across gates, else
             the last one. *)
          let pick = ref (-1) and shared = ref (-1) in
          for k = Array.length fanins - 1 downto 0 do
            let f = fanins.(k) in
            if !shared < 0 && value f = cv then begin
              if !pick < 0 then pick := f;
              if s.visited.(f) = ep then shared := f
            end
          done;
          if !pick < 0 then
            (* the values are inconsistent with the netlist *)
            invalid_arg "Lifting: values are not a valid simulation";
          Vec.push stack (if !shared >= 0 then !shared else !pick)
        | Some _ | None ->
          (* Non-controlled case (or parity/unary/constant): every fanin
             participates in the value. *)
          for k = Array.length fanins - 1 downto 0 do
            Vec.push stack fanins.(k)
          done)
    end
  done

let required s net = s.required.(net) = s.epoch

let lift_mask n ~root ~proj_nets =
  let s = scratch n and roots = [ root ] in
  fun values ->
    if Array.length values < N.num_nets n then
      invalid_arg "Lifting.lift_mask: values too short";
    justify_roots s ~roots ~value:(Array.get values);
    Array.map (required s) proj_nets
