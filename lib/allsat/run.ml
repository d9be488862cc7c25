type stopped =
  [ `Complete
  | `CubeLimit
  | `Deadline
  | `Conflicts
  | `Decisions
  | `Propagations
  | `Cancelled ]

type t = {
  cubes : Cube.t list;
  witnesses : Witness.t list option;
  graph : Solution_graph.t option;
  stats : Ps_util.Stats.t;
  stopped : stopped;
}

type sink = {
  on_cube : Cube.t -> unit;
  on_shard : prefix:string -> cubes:Cube.t list -> unit;
  witnessed : witnessed option;
}

and witnessed = {
  on_witnessed : Cube.t -> Witness.t -> unit;
  on_witnessed_shard : prefix:string -> cubes:(Cube.t * Witness.t) list -> unit;
}

let sink_of_fun on_cube =
  { on_cube; on_shard = (fun ~prefix:_ ~cubes:_ -> ()); witnessed = None }

let takes_witnesses = function
  | Some { witnessed = Some _; _ } -> true
  | _ -> false

let emit_cube ?witness sink c =
  match (sink, witness) with
  | None, _ -> ()
  | Some { witnessed = Some ws; _ }, Some w -> ws.on_witnessed c w
  | Some s, _ -> s.on_cube c

let emit_cubes ?witnesses sink cubes =
  match (sink, witnesses) with
  | None, _ -> ()
  | Some { witnessed = Some ws; _ }, Some w -> List.iter2 ws.on_witnessed cubes w
  | Some s, _ -> List.iter s.on_cube cubes

let solutions r =
  List.fold_left (fun acc c -> acc +. Cube.minterm_count c) 0.0 r.cubes

let complete r = r.stopped = `Complete

let stopped_name : stopped -> string = function
  | `Complete -> "complete"
  | `CubeLimit -> "cube_limit"
  | #Ps_util.Budget.stop as s -> Ps_util.Budget.stop_name s

let pp_stopped ppf s = Format.pp_print_string ppf (stopped_name s)

let stopped_of_budget budget ~default =
  match budget with
  | None -> default
  | Some b ->
    (match Ps_util.Budget.stopped b with
    | Some s -> (s :> stopped)
    | None -> default)
