module N = Ps_circuit.Netlist
module B = Ps_circuit.Builder
module T = Ps_circuit.Transition
module Cube = Ps_allsat.Cube
module Project = Ps_allsat.Project
module Solver = Ps_sat.Solver
module Lit = Ps_sat.Lit

type order = Natural | Cone_first | Reverse

type t = {
  circuit : N.t;
  augmented : N.t;
  root : int;
  tr : T.t;
  target : Cube.t list;
  proj : Project.t;
  proj_nets : int array;
  include_inputs : bool;
  negate : bool;
  order : order;
  positions : int array;
  cnf : Ps_sat.Cnf.t;
}

(* One net per cube of [cubes] over [nets]: the AND of its literals, a
   0 reading a shared inverter, the literal's own net for a one-literal
   cube and a constant 1 for the empty one. *)
let cube_nets b nets cubes ~prefix =
  List.iter
    (fun c ->
      if Cube.width c <> Array.length nets then
        invalid_arg "target cube width <> number of latches")
    cubes;
  let inv_cache = Hashtbl.create 16 in
  let inverted net =
    match Hashtbl.find_opt inv_cache net with
    | Some n -> n
    | None ->
      let n = B.not_ b ~name:(B.fresh_name b (prefix ^ "inv")) net in
      Hashtbl.add inv_cache net n;
      n
  in
  let cube_net c =
    match Cube.to_list c with
    | [] -> B.const1 b ~name:(B.fresh_name b (prefix ^ "true")) ()
    | lits -> (
      match List.map (fun (i, v) -> if v then nets.(i) else inverted nets.(i)) lits with
      | [ single ] -> single
      | ins -> B.and_ b ~name:(B.fresh_name b (prefix ^ "cube")) ins)
  in
  List.map cube_net cubes

(* Graft the target DNF onto the circuit over the latch-data nets. The
   root must be a gate net inside the encoded cone so the CNF ties it to
   the target logic; a buffer covers the single-cube and bare-net cases
   uniformly. With [negate] the objective becomes "next state misses the
   target" (used for universal preimages). *)
let build_target_block ~negate circuit target =
  let b = B.of_netlist circuit in
  let tr = T.of_netlist circuit in
  let wrap = if negate then B.not_ else B.buf in
  let root =
    match cube_nets b tr.T.next_nets target ~prefix:"_t" with
    | [] -> invalid_arg "Instance.make: empty target"
    | [ single ] -> wrap b ~name:"_target" single
    | nets -> wrap b ~name:"_target" (B.or_ b ~name:"_target_any" nets)
  in
  (B.finalize b, root)

(* BFS distance of every net from [root], walking fanin edges; leaves the
   target never reads get max_int. *)
let bfs_depth augmented root =
  let depth = Array.make (N.num_nets augmented) max_int in
  let q = Queue.create () in
  depth.(root) <- 0;
  Queue.add root q;
  while not (Queue.is_empty q) do
    let net = Queue.pop q in
    match N.driver augmented net with
    | N.Gate (_, fanins) ->
      Array.iter
        (fun f ->
          if depth.(f) = max_int then begin
            depth.(f) <- depth.(net) + 1;
            Queue.add f q
          end)
        fanins
    | N.Input | N.Latch _ -> ()
  done;
  depth

let make ?(include_inputs = false) ?(negate = false) ?(order = Natural) circuit
    target =
  let tr = T.of_netlist circuit in
  if Array.length tr.T.state_nets = 0 then
    invalid_arg "Instance.make: circuit has no latches";
  let augmented, root = build_target_block ~negate circuit target in
  let cone = N.cone augmented [ root ] in
  let cnf = Ps_circuit.Tseitin.encode ~cone augmented in
  let canonical =
    if include_inputs then Array.append tr.T.state_nets tr.T.input_nets
    else tr.T.state_nets
  in
  let n = Array.length canonical in
  let positions =
    match order with
    | Natural -> Array.init n Fun.id
    | Reverse -> Array.init n (fun i -> n - 1 - i)
    | Cone_first ->
      let depth = bfs_depth augmented root in
      let idx = Array.init n Fun.id in
      let key i = (depth.(canonical.(i)), i) in
      Array.sort (fun a b -> compare (key a) (key b)) idx;
      idx
  in
  let proj_nets = Array.map (fun i -> canonical.(i)) positions in
  let names = Array.map (fun net -> N.name augmented net) proj_nets in
  let proj = Project.make ~vars:(Array.copy proj_nets) ~names in
  {
    circuit; augmented; root; tr; target; proj; proj_nets; include_inputs;
    negate; order; positions; cnf;
  }

let solver i =
  let s = Solver.create () in
  ignore (Solver.load s i.cnf);
  ignore (Solver.add_clause s [ Lit.pos i.root ]);
  s

let num_state i = Array.length i.tr.T.state_nets

let lift i model =
  let values = Array.sub model 0 (N.num_nets i.augmented) in
  Ps_allsat.Lifting.lift_mask i.augmented ~root:i.root ~values
    ~proj_nets:i.proj_nets

let target_holds i next_bits =
  List.exists (fun c -> Cube.contains c next_bits) i.target
