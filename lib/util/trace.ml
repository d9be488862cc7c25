type event =
  | Restart of { conflicts : int; learnts : int }
  | Reduce_db of { before : int; after : int }
  | Gc of { before_words : int; after_words : int }
  | Solve of { result : string; conflicts : int }
  | Cube of { index : int; fixed : int; width : int }
  | Memo_hit of { depth : int; hits : int }
  | Phase of { engine : string; phase : string }
  | Shard_start of { shard : string; depth : int }
  | Shard_done of {
      shard : string;
      cubes : int;
      conflicts : int;
      stopped : string;
    }
  | Stopped of { reason : string }
  | Frame_start of { index : int; frontier_cubes : int; learnts : int }
  | Frame_done of {
      index : int;
      new_cubes : int;
      blocked : int;
      sat_calls : int;
      conflicts : int;
    }
  | Store_open of { path : string; cubes : int; resumed : bool }
  | Checkpoint of { frame : int; cubes : int; bytes : int }
  | Store_verified of { cubes : int; sound : bool; complete : bool }

let event_name = function
  | Restart _ -> "restart"
  | Reduce_db _ -> "reduce_db"
  | Gc _ -> "gc"
  | Solve _ -> "solve"
  | Cube _ -> "cube"
  | Memo_hit _ -> "memo_hit"
  | Phase _ -> "phase"
  | Shard_start _ -> "shard_start"
  | Shard_done _ -> "shard_done"
  | Stopped _ -> "stopped"
  | Frame_start _ -> "frame_start"
  | Frame_done _ -> "frame_done"
  | Store_open _ -> "store_open"
  | Checkpoint _ -> "checkpoint"
  | Store_verified _ -> "store_verified"

(* The only strings we embed are engine/phase/result names and stop
   reasons — all identifier-like — but escape defensively anyway. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_json ~time_s ev =
  let fields =
    match ev with
    | Restart { conflicts; learnts } ->
      Printf.sprintf {|"conflicts":%d,"learnts":%d|} conflicts learnts
    | Reduce_db { before; after } ->
      Printf.sprintf {|"before":%d,"after":%d|} before after
    | Gc { before_words; after_words } ->
      Printf.sprintf {|"before_words":%d,"after_words":%d|} before_words
        after_words
    | Solve { result; conflicts } ->
      Printf.sprintf {|"result":%s,"conflicts":%d|} (json_string result) conflicts
    | Cube { index; fixed; width } ->
      Printf.sprintf {|"index":%d,"fixed":%d,"width":%d|} index fixed width
    | Memo_hit { depth; hits } ->
      Printf.sprintf {|"depth":%d,"hits":%d|} depth hits
    | Phase { engine; phase } ->
      Printf.sprintf {|"engine":%s,"phase":%s|} (json_string engine)
        (json_string phase)
    | Shard_start { shard; depth } ->
      Printf.sprintf {|"shard":%s,"depth":%d|} (json_string shard) depth
    | Shard_done { shard; cubes; conflicts; stopped } ->
      Printf.sprintf {|"shard":%s,"cubes":%d,"conflicts":%d,"stopped":%s|}
        (json_string shard) cubes conflicts (json_string stopped)
    | Stopped { reason } -> Printf.sprintf {|"reason":%s|} (json_string reason)
    | Frame_start { index; frontier_cubes; learnts } ->
      Printf.sprintf {|"index":%d,"frontier_cubes":%d,"learnts":%d|} index
        frontier_cubes learnts
    | Frame_done { index; new_cubes; blocked; sat_calls; conflicts } ->
      Printf.sprintf
        {|"index":%d,"new_cubes":%d,"blocked":%d,"sat_calls":%d,"conflicts":%d|}
        index new_cubes blocked sat_calls conflicts
    | Store_open { path; cubes; resumed } ->
      Printf.sprintf {|"path":%s,"cubes":%d,"resumed":%b|} (json_string path)
        cubes resumed
    | Checkpoint { frame; cubes; bytes } ->
      Printf.sprintf {|"frame":%d,"cubes":%d,"bytes":%d|} frame cubes bytes
    | Store_verified { cubes; sound; complete } ->
      Printf.sprintf {|"cubes":%d,"sound":%b,"complete":%b|} cubes sound
        complete
  in
  Printf.sprintf {|{"t":%.6f,"ev":%s,%s}|} time_s
    (json_string (event_name ev))
    fields

type sink =
  | Null
  | Sink of { t0 : float; f : time_s:float -> event -> unit }

let null = Null

let is_null = function Null -> true | Sink _ -> false

let callback f = Sink { t0 = Unix.gettimeofday (); f }

let jsonl oc =
  callback (fun ~time_s ev ->
      output_string oc (to_json ~time_s ev);
      output_char oc '\n';
      match ev with Stopped _ -> flush oc | _ -> ())

let jsonl_file path =
  let oc = open_out path in
  (jsonl oc, fun () -> close_out oc)

let throttled ?(interval_s = 0.1) f =
  let last = ref neg_infinity in
  callback (fun ~time_s ev ->
      match ev with
      | Stopped _ | Phase _ | Frame_start _ | Frame_done _ | Store_open _
      | Checkpoint _ | Store_verified _ ->
        last := time_s;
        f ~time_s ev
      | _ ->
        if time_s -. !last >= interval_s then begin
          last := time_s;
          f ~time_s ev
        end)

let emit sink ev =
  match sink with
  | Null -> ()
  | Sink { t0; f } -> f ~time_s:(Unix.gettimeofday () -. t0) ev

(* Serializes concurrent emissions with a mutex so one sink (e.g. a JSONL
   channel) can be shared by worker domains without interleaved writes.
   Timestamps come from the wrapped sink's own epoch. *)
let locked sink =
  match sink with
  | Null -> Null
  | Sink _ ->
    let m = Mutex.create () in
    callback (fun ~time_s:_ ev ->
        Mutex.lock m;
        Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> emit sink ev))
