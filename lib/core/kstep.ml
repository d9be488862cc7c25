module N = Ps_circuit.Netlist
module B = Ps_circuit.Builder
module U = Ps_circuit.Unroll
module A = Ps_allsat
module Solver = Ps_sat.Solver
module Lit = Ps_sat.Lit

type result = {
  run : A.Run.t;
  solutions : float;
  time_s : float;
}

let cubes r = r.run.A.Run.cubes
let stats r = r.run.A.Run.stats

(* The target block of Instance.make over the final-frame state nets. *)
let graft_target unrolled target =
  let b = B.of_netlist unrolled.U.netlist in
  let final = unrolled.U.state_at.(Array.length unrolled.U.state_at - 1) in
  let root =
    match Instance.cube_nets b final target ~prefix:"_k" with
    | [] -> invalid_arg "Kstep.preimage: empty target"
    | [ single ] -> B.buf b ~name:"_ktarget" single
    | nets -> B.or_ b ~name:"_ktarget" nets
  in
  (B.finalize b, root)

let preimage ?(method_ = Engine.Sds) circuit target ~k =
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
  let r = Engine.enumerate method_ ~netlist:augmented ~root ~proj solver in
  { run = r; solutions = A.Run.solutions r; time_s = Unix.gettimeofday () -. t0 }
