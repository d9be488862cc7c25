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

let gate_histogram n =
  let tbl = Hashtbl.create 11 in
  Array.iter
    (fun g ->
      match Netlist.driver n g with
      | Netlist.Gate (kind, _) ->
        Hashtbl.replace tbl kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl kind))
      | Netlist.Input | Netlist.Latch _ -> assert false)
    (Netlist.topo_gates n);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) ->
         String.compare (Gate.kind_to_string a) (Gate.kind_to_string b))
