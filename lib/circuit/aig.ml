module Vec = Ps_util.Vec

type lit = int

(* Node storage: node i has fanin literals lit0.(i), lit1.(i).
   Node 0 is the constant false. Inputs have lit0 = -1. *)
type t = {
  lit0 : lit Vec.t;
  lit1 : lit Vec.t;
  strash : (int * int, lit) Hashtbl.t;
  mutable inputs : int list; (* reversed allocation order *)
}

let false_lit = 0
let true_lit = 1

let neg l = l lxor 1
let is_complemented l = l land 1 = 1
let node_of l = l lsr 1

let create () =
  let a =
    {
      lit0 = Vec.create ~dummy:(-2);
      lit1 = Vec.create ~dummy:(-2);
      strash = Hashtbl.create 1024;
      inputs = [];
    }
  in
  (* constant node *)
  Vec.push a.lit0 (-2);
  Vec.push a.lit1 (-2);
  a

let new_node a l0 l1 =
  Vec.push a.lit0 l0;
  Vec.push a.lit1 l1;
  2 * (Vec.size a.lit0 - 1)

let fresh_input a =
  let l = new_node a (-1) (-1) in
  a.inputs <- node_of l :: a.inputs;
  l

let is_input a n = n <> 0 && Vec.get a.lit0 n = -1

let conj a x y =
  let x, y = if x <= y then (x, y) else (y, x) in
  if x = false_lit then false_lit
  else if x = true_lit then y
  else if x = y then x
  else if x = neg y then false_lit
  else begin
    match Hashtbl.find_opt a.strash (x, y) with
    | Some l -> l
    | None ->
      let l = new_node a x y in
      Hashtbl.add a.strash (x, y) l;
      l
  end

let disj a x y = neg (conj a (neg x) (neg y))

let xor a x y =
  (* x xor y = (x ∨ y) ∧ ¬(x ∧ y) *)
  conj a (disj a x y) (neg (conj a x y))

let rec balanced op a = function
  | [] -> invalid_arg "Aig: empty literal list"
  | [ l ] -> l
  | ls ->
    let rec pair acc = function
      | [] -> List.rev acc
      | [ l ] -> List.rev (l :: acc)
      | x :: y :: rest -> pair (op a x y :: acc) rest
    in
    balanced op a (pair [] ls)

let conj_list a = function [] -> true_lit | ls -> balanced conj a ls
let disj_list a = function [] -> false_lit | ls -> balanced disj a ls

let num_nodes a =
  let n = ref 0 in
  for i = 1 to Vec.size a.lit0 - 1 do
    if not (is_input a i) then incr n
  done;
  !n

let num_inputs a = List.length a.inputs

let eval a assignment l =
  let values = Array.make (Vec.size a.lit0) false in
  let input_index = Hashtbl.create 16 in
  List.iteri
    (fun i n -> Hashtbl.add input_index n i)
    (List.rev a.inputs);
  for n = 1 to Vec.size a.lit0 - 1 do
    if is_input a n then begin
      let i = Hashtbl.find input_index n in
      if i >= Array.length assignment then invalid_arg "Aig.eval: assignment too short";
      values.(n) <- assignment.(i)
    end
    else begin
      let v l = values.(node_of l) <> is_complemented l in
      values.(n) <- v (Vec.get a.lit0 n) && v (Vec.get a.lit1 n)
    end
  done;
  values.(node_of l) <> is_complemented l

let of_netlist n =
  let a = create () in
  let lits = Array.make (Netlist.num_nets n) false_lit in
  List.iter (fun net -> lits.(net) <- fresh_input a) (Netlist.inputs n);
  List.iter (fun net -> lits.(net) <- fresh_input a) (Netlist.latches n);
  Array.iter
    (fun gnet ->
      match Netlist.driver n gnet with
      | Netlist.Gate (kind, fanins) ->
        let ins = Array.to_list (Array.map (fun f -> lits.(f)) fanins) in
        lits.(gnet) <-
          (match (kind : Gate.kind) with
          | Gate.And -> conj_list a ins
          | Gate.Nand -> neg (conj_list a ins)
          | Gate.Or -> disj_list a ins
          | Gate.Nor -> neg (disj_list a ins)
          | Gate.Xor -> List.fold_left (xor a) false_lit ins
          | Gate.Xnor -> neg (List.fold_left (xor a) false_lit ins)
          | Gate.Not -> neg (List.hd ins)
          | Gate.Buf -> List.hd ins
          | Gate.Const0 -> false_lit
          | Gate.Const1 -> true_lit)
      | Netlist.Input | Netlist.Latch _ -> assert false)
    (Netlist.topo_gates n);
  (a, lits)
