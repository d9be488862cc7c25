module Vec = Ps_util.Vec

type t = {
  drivers : Netlist.driver Vec.t;
  names : string Vec.t;
  used_names : (string, unit) Hashtbl.t;
  mutable outputs : int list;          (* reversed *)
  mutable counter : int;
}

let create () =
  {
    drivers = Vec.create ~dummy:Netlist.Input;
    names = Vec.create ~dummy:"";
    used_names = Hashtbl.create 64;
    outputs = [];
    counter = 0;
  }

let of_netlist n =
  let b = create () in
  for i = 0 to Netlist.num_nets n - 1 do
    Vec.push b.drivers (Netlist.driver n i);
    let nm = Netlist.name n i in
    Vec.push b.names nm;
    Hashtbl.replace b.used_names nm ()
  done;
  b.outputs <- List.rev (Netlist.outputs n);
  b

let fresh_name b prefix =
  let rec try_name i =
    let candidate = Printf.sprintf "%s%d" prefix i in
    if Hashtbl.mem b.used_names candidate then try_name (i + 1) else candidate
  in
  b.counter <- b.counter + 1;
  if prefix <> "" && not (Hashtbl.mem b.used_names prefix) then prefix
  else try_name b.counter

let alloc b name driver =
  if name = "" then invalid_arg "Builder: empty net name";
  if Hashtbl.mem b.used_names name then
    invalid_arg (Printf.sprintf "Builder: duplicate net name %S" name);
  Hashtbl.add b.used_names name ();
  Vec.push b.drivers driver;
  Vec.push b.names name;
  Vec.size b.drivers - 1

let input b name = alloc b name Netlist.Input

let latch b ?init name =
  alloc b name (Netlist.Latch { data = -1; init })

let set_latch_data b l data =
  if l < 0 || l >= Vec.size b.drivers then invalid_arg "Builder.set_latch_data";
  match Vec.get b.drivers l with
  | Netlist.Latch { init; _ } -> Vec.set b.drivers l (Netlist.Latch { data; init })
  | Netlist.Input | Netlist.Gate _ ->
    invalid_arg "Builder.set_latch_data: not a latch"

let gate b ?name kind fanins =
  let name = match name with Some n -> n | None -> fresh_name b "_n" in
  alloc b name (Netlist.Gate (kind, Array.of_list fanins))

let not_ b ?name a = gate b ?name Gate.Not [ a ]
let buf b ?name a = gate b ?name Gate.Buf [ a ]
let and_ b ?name fanins = gate b ?name Gate.And fanins
let or_ b ?name fanins = gate b ?name Gate.Or fanins
let nor_ b ?name fanins = gate b ?name Gate.Nor fanins
let xor_ b ?name fanins = gate b ?name Gate.Xor fanins
let xnor_ b ?name fanins = gate b ?name Gate.Xnor fanins
let const0 b ?name () = gate b ?name Gate.Const0 []
let const1 b ?name () = gate b ?name Gate.Const1 []

let output b net =
  if net < 0 || net >= Vec.size b.drivers then invalid_arg "Builder.output";
  b.outputs <- net :: b.outputs

let finalize b =
  Vec.iteri
    (fun i d ->
      match d with
      | Netlist.Latch { data = -1; _ } ->
        invalid_arg
          (Printf.sprintf "Builder.finalize: latch %S never connected"
             (Vec.get b.names i))
      | _ -> ())
    b.drivers;
  Netlist.make ~drivers:(Vec.to_array b.drivers) ~names:(Vec.to_array b.names)
    ~outputs:(List.rev b.outputs)
