type driver =
  | Input
  | Latch of { data : int; init : bool option }
  | Gate of Gate.kind * int array

type t = {
  drivers : driver array;
  names : string array;
  name_index : (string, int) Hashtbl.t;
  outputs : int list;
  inputs : int list;
  latches : int list;
  topo : int array;                 (* gate nets, topological order *)
  fanouts : int list array;
}

let num_nets t = Array.length t.drivers
let driver t n = t.drivers.(n)
let name t n = t.names.(n)
let find t s = Hashtbl.find t.name_index s
let find_opt t s = Hashtbl.find_opt t.name_index s
let inputs t = t.inputs
let latches t = t.latches
let outputs t = t.outputs
let topo_gates t = t.topo
let num_gates t = Array.length t.topo
let fanouts t = t.fanouts

let latch_data t n =
  match t.drivers.(n) with
  | Latch { data; _ } -> data
  | Input | Gate _ -> invalid_arg "Netlist.latch_data: not a latch"

let validate drivers names outputs =
  let n = Array.length drivers in
  if Array.length names <> n then
    invalid_arg "Netlist.make: names and drivers length mismatch";
  let tbl = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i nm ->
      if nm = "" then invalid_arg (Printf.sprintf "Netlist.make: net %d unnamed" i);
      if Hashtbl.mem tbl nm then
        invalid_arg (Printf.sprintf "Netlist.make: duplicate name %S" nm);
      Hashtbl.add tbl nm i)
    names;
  (* The referrer is [what] followed by net [i]'s name ([i] < 0: none);
     the message is only built for an invalid reference. *)
  let check_net what i j =
    if j < 0 || j >= n then
      let ctx = if i < 0 then what else Printf.sprintf "%s %S" what names.(i) in
      invalid_arg (Printf.sprintf "Netlist.make: %s references invalid net %d" ctx j)
  in
  Array.iteri
    (fun i d ->
      match d with
      | Input -> ()
      | Latch { data; _ } -> check_net "latch" i data
      | Gate (kind, fanins) ->
        if not (Gate.arity_ok kind (Array.length fanins)) then
          invalid_arg
            (Printf.sprintf "Netlist.make: gate %S has bad arity %d" names.(i)
               (Array.length fanins));
        for k = 0 to Array.length fanins - 1 do
          check_net "gate" i fanins.(k)
        done)
    drivers;
  List.iter (check_net "outputs" (-1)) outputs;
  tbl

exception Cycle of int

(* Topological sort of the gate part; raises [Cycle g] with a gate [g]
   on a combinational cycle. A depth-first post-order walk with an
   explicit stack of gates, so a deep netlist cannot overflow the call
   stack; the fanins are entered in order, as a recursive walk would. *)
let topo_sort drivers =
  let n = Array.length drivers in
  (* 0 unvisited, -1 done, k > 0 on the stack with fanin k-1 next *)
  let state = Array.make n 0 in
  let stack = Array.make n 0 in
  let depth = ref 0 in
  let order = ref [] in
  let enter i =
    if state.(i) > 0 then raise (Cycle i);
    if state.(i) = 0 then
      match drivers.(i) with
      | Input | Latch _ -> state.(i) <- -1
      | Gate _ ->
        state.(i) <- 1;
        stack.(!depth) <- i;
        incr depth
  in
  for i = 0 to n - 1 do
    enter i;
    while !depth > 0 do
      let g = stack.(!depth - 1) in
      let k = state.(g) - 1 in
      match drivers.(g) with
      | Gate (_, fanins) when k < Array.length fanins ->
        state.(g) <- k + 2;
        enter fanins.(k)
      | Gate _ | Input | Latch _ ->
        decr depth;
        state.(g) <- -1;
        order := g :: !order
    done
  done;
  Array.of_list (List.rev !order)

let find_cycle drivers =
  match topo_sort drivers with _ -> None | exception Cycle g -> Some g

let make ~drivers ~names ~outputs =
  let name_index = validate drivers names outputs in
  let topo =
    try topo_sort drivers
    with Cycle i ->
      invalid_arg
        (Printf.sprintf "Netlist.make: combinational cycle through %S" names.(i))
  in
  let n = Array.length drivers in
  let collect pred =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if pred drivers.(i) then acc := i :: !acc
    done;
    !acc
  in
  let fanouts = Array.make n [] in
  Array.iteri
    (fun i d ->
      match d with
      | Gate (_, fanins) ->
        Array.iter (fun j -> fanouts.(j) <- i :: fanouts.(j)) fanins
      | Input | Latch _ -> ())
    drivers;
  Array.iteri (fun i l -> fanouts.(i) <- List.rev l) fanouts;
  {
    drivers = Array.copy drivers;
    names = Array.copy names;
    name_index;
    outputs;
    inputs = collect (function Input -> true | _ -> false);
    latches = collect (function Latch _ -> true | _ -> false);
    topo;
    fanouts;
  }

(* An explicit stack rather than a recursive walk, so a deep cone cannot
   overflow the call stack. Nets are marked when pushed, so each is pushed
   at most once. *)
let cone t roots =
  let mem = Array.make (num_nets t) false in
  let stack = Array.make (num_nets t) 0 in
  let top = ref 0 in
  let push i =
    if not mem.(i) then begin
      mem.(i) <- true;
      stack.(!top) <- i;
      incr top
    end
  in
  List.iter push roots;
  while !top > 0 do
    decr top;
    match t.drivers.(stack.(!top)) with
    | Gate (_, fanins) -> Array.iter push fanins
    | Input | Latch _ -> ()
  done;
  mem

let stats t =
  (List.length t.inputs, List.length t.latches, num_gates t, List.length t.outputs)

let pp ppf t =
  let i, l, g, o = stats t in
  Format.fprintf ppf "<netlist inputs=%d latches=%d gates=%d outputs=%d>" i l g o
