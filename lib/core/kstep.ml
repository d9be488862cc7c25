module N = Ps_circuit.Netlist
module B = Ps_circuit.Builder
module U = Ps_circuit.Unroll
module A = Ps_allsat
module Cube = A.Cube
module Sg = A.Solution_graph
module Solver = Ps_sat.Solver
module Lit = Ps_sat.Lit

type result = {
  run : A.Run.t;
  solutions : float;
  time_s : float;
}

let cubes r = r.run.A.Run.cubes
let stats r = r.run.A.Run.stats

(* Target block over the final-frame state nets, mirroring
   Instance.build_target_block but on a combinational unrolling. *)
let graft_target unrolled target =
  let b = B.of_netlist unrolled.U.netlist in
  let final = unrolled.U.state_at.(Array.length unrolled.U.state_at - 1) in
  let nstate = Array.length final in
  List.iter
    (fun c ->
      if Cube.width c <> nstate then
        invalid_arg "Kstep.preimage: target cube width <> number of latches")
    target;
  let inv_cache = Hashtbl.create 16 in
  let inverted net =
    match Hashtbl.find_opt inv_cache net with
    | Some n -> n
    | None ->
      let n = B.not_ b ~name:(B.fresh_name b "_kinv") net in
      Hashtbl.add inv_cache net n;
      n
  in
  let cube_net c =
    match Cube.to_list c with
    | [] -> B.const1 b ~name:(B.fresh_name b "_ktrue") ()
    | lits ->
      let nets =
        List.map (fun (i, v) -> if v then final.(i) else inverted final.(i)) lits
      in
      (match nets with
      | [ single ] -> single
      | _ -> B.and_ b ~name:(B.fresh_name b "_kcube") nets)
  in
  let root =
    match List.map cube_net target with
    | [] -> invalid_arg "Kstep.preimage: empty target"
    | [ single ] -> B.buf b ~name:"_ktarget" single
    | nets -> B.or_ b ~name:"_ktarget" nets
  in
  (B.finalize b, root)

let preimage ?(method_ = Engine.Sds) ?sink circuit target ~k =
  let t0 = Unix.gettimeofday () in
  let unrolled = U.unroll circuit ~k in
  let augmented, root = graft_target unrolled target in
  let cone = N.cone augmented [ root ] in
  let cnf = Ps_circuit.Tseitin.encode ~cone augmented in
  let proj_nets = unrolled.U.state0 in
  let proj =
    A.Project.make ~vars:(Array.copy proj_nets)
      ~names:(Array.map (N.name augmented) proj_nets)
  in
  let solver = Solver.create () in
  ignore (Solver.load solver cnf);
  ignore (Solver.add_clause solver [ Lit.pos root ]);
  let r = Engine.enumerate ?sink method_ ~netlist:augmented ~root ~proj solver in
  { run = r; solutions = A.Run.solutions r; time_s = Unix.gettimeofday () -. t0 }

let preimage_bdd man r ~nstate =
  match r.run.A.Run.graph with
  | Some g -> Sg.to_bdd man (Array.init nstate Fun.id) g
  | None -> A.Cube_set.to_bdd man (cubes r)
