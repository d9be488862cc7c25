type t = string

let vars (proj : Project.t) ~nvars =
  let projected = Array.make nvars false in
  Array.iter (fun v -> if v < nvars then projected.(v) <- true) proj.Project.vars;
  Array.of_list (List.filter (fun v -> not projected.(v)) (List.init nvars Fun.id))

let bytes n = (n + 7) / 8

let init n f =
  let b = Bytes.make (bytes n) '\000' in
  for i = 0 to n - 1 do
    if f i then
      Bytes.set b (i lsr 3)
        (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))
  done;
  Bytes.unsafe_to_string b

let get w i = Char.code w.[i lsr 3] land (1 lsl (i land 7)) <> 0
