let depth n =
  let d = Array.make (Netlist.num_nets n) 0 in
  let deepest = ref 0 in
  Array.iter
    (fun g ->
      match Netlist.driver n g with
      | Netlist.Gate (_, fanins) ->
        let below = Array.fold_left (fun acc f -> max acc d.(f)) 0 fanins in
        d.(g) <- below + 1;
        if d.(g) > !deepest then deepest := d.(g)
      | Netlist.Input | Netlist.Latch _ -> assert false)
    (Netlist.topo_gates n);
  !deepest

let max_fanout n =
  Array.fold_left (fun acc l -> max acc (List.length l)) 0 (Netlist.fanouts n)
