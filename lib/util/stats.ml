type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 16

let counter_ref t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t name r;
    r

let add t name n =
  let r = counter_ref t name in
  r := !r + n

let set_max t name n =
  let r = counter_ref t name in
  if n > !r then r := n

let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge ~into src = List.iter (fun (k, v) -> add into k v) (counters src)

(* Cross-domain summation: each worker domain owns its private Stats and
   only the spawning domain sums them after the workers have been joined
   (Domain.join establishes the happens-before edge), so the plain-ref
   counters never race. *)
let sum ts =
  let acc = create () in
  List.iter (fun t -> merge ~into:acc t) ts;
  acc
