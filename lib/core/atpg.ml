module N = Ps_circuit.Netlist
module F = Ps_circuit.Faults
module A = Ps_allsat
module Sg = A.Solution_graph

type fault_report = {
  fault : F.fault;
  net_name : string;
  detectable : bool;
  vectors : float;
  cubes : int;
  graph_nodes : int option;
  sat_calls : int;
}

(* Full scan means latch data inputs are observable: mark every
   next-state net as an additional output before building the miter.
   Net indices are preserved, so the fault refers to the same net. *)
let scan_view circuit =
  let b = Ps_circuit.Builder.of_netlist circuit in
  List.iter
    (fun l -> Ps_circuit.Builder.output b (N.latch_data circuit l))
    (N.latches circuit);
  Ps_circuit.Builder.finalize b

let test_set ?(method_ = Engine.Sds) circuit fault =
  let circuit = scan_view circuit in
  let faulty = F.inject circuit fault in
  let m, top = F.miter circuit faulty in
  (* controllable leaves of the miter = its inputs, which are the shared
     (input ∪ pseudo-input) names; enumerate over all of them *)
  let proj_nets = Array.of_list (N.inputs m) in
  let _, proj, solver = Instance.encode m ~root:top ~proj_nets in
  let r = Engine.enumerate method_ ~netlist:m ~root:top ~proj (solver ()) in
  let vectors = A.Run.solutions r in
  ( {
      fault;
      net_name = N.name circuit fault.F.net;
      detectable = vectors > 0.0;
      vectors;
      cubes = List.length r.A.Run.cubes;
      graph_nodes = Option.map Sg.size r.A.Run.graph;
      sat_calls = Ps_util.Stats.get r.A.Run.stats "sat_calls";
    },
    r.A.Run.cubes )

let all ?method_ circuit =
  List.map
    (fun fault -> fst (test_set ?method_ circuit fault))
    (F.all_faults circuit)

let summary reports =
  let n = List.length reports in
  let detectable = List.filter (fun r -> r.detectable) reports in
  let vectors = List.fold_left (fun acc r -> acc +. r.vectors) 0.0 detectable in
  let cover =
    match detectable with
    | [] -> 0.0
    | _ ->
      float_of_int (List.fold_left (fun acc r -> acc + r.cubes) 0 detectable)
      /. float_of_int (List.length detectable)
  in
  (n, List.length detectable, vectors, cover)
