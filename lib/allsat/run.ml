type stopped = [ `Complete | `CubeLimit | `Deadline | `Conflicts | `Cancelled ]

type t = {
  cubes : Cube.t list;
  witnesses : Witness.t list option;
  graph : Solution_graph.t option;
  stats : Ps_util.Stats.t;
  stopped : stopped;
}

type sink = {
  on_cube : ?witness:Witness.t -> Cube.t -> unit;
  on_shard : prefix:string -> (Cube.t * Witness.t option) list -> unit;
}

let sink_of_fun f =
  { on_cube = (fun ?witness:_ c -> f c); on_shard = (fun ~prefix:_ _ -> ()) }

let solutions r =
  List.fold_left (fun acc c -> acc +. Cube.minterm_count c) 0.0 r.cubes

let complete r = r.stopped = `Complete

let stopped_name : stopped -> string = function
  | `Complete -> "complete"
  | `CubeLimit -> "cube_limit"
  | #Ps_util.Budget.stop as s -> Ps_util.Budget.stop_name s

let stopped_of_budget budget ~default =
  match budget with
  | None -> default
  | Some b ->
    (match Ps_util.Budget.stopped b with
    | Some s -> (s :> stopped)
    | None -> default)
