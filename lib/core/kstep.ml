module U = Ps_circuit.Unroll
module A = Ps_allsat

type result = {
  run : A.Run.t;
  solutions : float;
  time_s : float;
}

let cubes r = r.run.A.Run.cubes
let stats r = r.run.A.Run.stats

let preimage ?(method_ = Engine.Sds) circuit target ~k =
  let t0 = Unix.gettimeofday () in
  let unrolled = U.unroll circuit ~k in
  let final = unrolled.U.state_at.(Array.length unrolled.U.state_at - 1) in
  let netlist, root = Instance.target_block unrolled.U.netlist ~nets:final target in
  let _, proj, solver = Instance.encode netlist ~root ~proj_nets:unrolled.U.state0 in
  let r = Engine.enumerate method_ ~netlist ~root ~proj (solver ()) in
  { run = r; solutions = A.Run.solutions r; time_s = Unix.gettimeofday () -. t0 }
