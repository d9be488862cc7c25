module B = Ps_bdd.Bdd
module Cube = Ps_allsat.Cube

type result = {
  states : B.t;
  man : B.man;
  count : float;
  cubes : Cube.t list;
  time_s : float;
}

let preimage ?(method_ = Engine.Sds) circuit target =
  let t0 = Unix.gettimeofday () in
  let inst = Instance.make ~negate:true circuit target in
  let r = Engine.run method_ inst in
  let nstate = Instance.num_state inst in
  let man = B.new_man ~nvars:(max nstate 1) in
  let escape = Check.result_bdd man r.Engine.run ~width:nstate in
  let states = B.bnot escape in
  {
    states;
    man;
    count = B.count_models ~nvars:nstate states;
    cubes = Ps_allsat.Cube_set.of_bdd states ~width:nstate;
    time_s = Unix.gettimeofday () -. t0;
  }

let mem r state_bits = B.eval r.states state_bits
