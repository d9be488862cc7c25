type t = {
  netlist : Netlist.t;
  state_nets : int array;
  next_nets : int array;
  input_nets : int array;
}

let of_netlist netlist =
  let latches = Array.of_list (Netlist.latches netlist) in
  {
    netlist;
    state_nets = latches;
    next_nets = Array.map (Netlist.latch_data netlist) latches;
    input_nets = Array.of_list (Netlist.inputs netlist);
  }

let num_state t = Array.length t.state_nets
let num_inputs t = Array.length t.input_nets
