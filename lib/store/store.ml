module Cube = Ps_allsat.Cube
module Cube_trie = Ps_allsat.Cube_trie
module Run = Ps_allsat.Run
module Witness = Ps_allsat.Witness
module Trace = Ps_util.Trace

let magic = "PSTORE1\n"

type meta = {
  engine : string;
  width : int;
  vars : int array;
  source : string;
  source_crc : int;
}

type checkpoint = {
  kind : string;
  frame : int;
  cubes : int;
  complete : bool;
  ints : (string * int) list;
  floats : (string * float) list;
}

type stats = {
  records : int;
  bytes : int;
  cubes : int;
  subsumed_on_write : int;
  checkpoints : int;
}

(* ------------------------------------------------------------------ *)
(* Payload encodings: line-oriented "k=v" text inside the binary frame.
   Keys never contain '='; values never contain '\n' (enforced on the
   string-valued meta fields). Floats use %h so they round-trip
   bit-exactly. *)

exception Bad_payload of string

let parse_kv payload =
  String.split_on_char '\n' payload
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.index_opt l '=' with
         | Some i ->
           (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
         | None -> raise (Bad_payload ("malformed line: " ^ l)))

let kv_find kvs k =
  match List.assoc_opt k kvs with
  | Some v -> v
  | None -> raise (Bad_payload ("missing key: " ^ k))

let kv_int kvs k =
  match int_of_string_opt (kv_find kvs k) with
  | Some v -> v
  | None -> raise (Bad_payload ("bad int for key: " ^ k))

let no_newline what s =
  if String.contains s '\n' then
    invalid_arg (Printf.sprintf "Store: %s must not contain newlines" what)

let meta_payload m =
  no_newline "meta.engine" m.engine;
  no_newline "meta.source" m.source;
  let b = Buffer.create 128 in
  Printf.bprintf b "engine=%s\n" m.engine;
  Printf.bprintf b "width=%d\n" m.width;
  Printf.bprintf b "vars=%s\n"
    (String.concat "," (List.map string_of_int (Array.to_list m.vars)));
  Printf.bprintf b "source=%s\n" m.source;
  Printf.bprintf b "source_crc=%d\n" m.source_crc;
  Buffer.contents b

let meta_of_payload payload =
  let kvs = parse_kv payload in
  let vars =
    match kv_find kvs "vars" with
    | "" -> [||]
    | s ->
      Array.of_list
        (List.map
           (fun v ->
             match int_of_string_opt v with
             | Some v -> v
             | None -> raise (Bad_payload "bad vars entry"))
           (String.split_on_char ',' s))
  in
  {
    engine = kv_find kvs "engine";
    width = kv_int kvs "width";
    vars;
    source = kv_find kvs "source";
    source_crc = kv_int kvs "source_crc";
  }

let checkpoint_payload (c : checkpoint) =
  no_newline "checkpoint.kind" c.kind;
  let b = Buffer.create 128 in
  Printf.bprintf b "kind=%s\n" c.kind;
  Printf.bprintf b "frame=%d\n" c.frame;
  Printf.bprintf b "cubes=%d\n" c.cubes;
  Printf.bprintf b "complete=%d\n" (if c.complete then 1 else 0);
  List.iter
    (fun (k, v) ->
      no_newline "checkpoint int key" k;
      Printf.bprintf b "i:%s=%d\n" k v)
    c.ints;
  List.iter
    (fun (k, v) ->
      no_newline "checkpoint float key" k;
      Printf.bprintf b "f:%s=%h\n" k v)
    c.floats;
  Buffer.contents b

let checkpoint_of_payload payload =
  let kvs = parse_kv payload in
  let pref p (k, _) =
    String.length k > 2 && k.[0] = p && k.[1] = ':'
  in
  let strip (k, v) = (String.sub k 2 (String.length k - 2), v) in
  let ints =
    List.filter (pref 'i') kvs |> List.map strip
    |> List.map (fun (k, v) ->
           match int_of_string_opt v with
           | Some v -> (k, v)
           | None -> raise (Bad_payload "bad checkpoint int"))
  in
  let floats =
    List.filter (pref 'f') kvs |> List.map strip
    |> List.map (fun (k, v) ->
           match float_of_string_opt v with
           | Some v -> (k, v)
           | None -> raise (Bad_payload "bad checkpoint float"))
  in
  {
    kind = kv_find kvs "kind";
    frame = kv_int kvs "frame";
    cubes = kv_int kvs "cubes";
    complete = kv_int kvs "complete" <> 0;
    ints;
    floats;
  }

(* ------------------------------------------------------------------ *)
(* Writer *)

type writer = {
  w_path : string;
  oc : out_channel;
  meta : meta;
  trie : Cube_trie.t;
  checkpoint_every : int;
  trace : Trace.sink;
  mutable w_records : int;
  mutable w_bytes : int;
  mutable w_cubes : int;
  mutable w_subsumed : int;
  mutable w_checkpoints : int;
  mutable since_ckpt : int;
  mutable closed : bool;
  (* Shard sub-log bookkeeping: written concurrently by parallel worker
     domains (distinct files), so the list mutation needs a lock. *)
  shard_mutex : Mutex.t;
  mutable shard_files : string list;
}

let path w = w.w_path

let stats w =
  {
    records = w.w_records;
    bytes = w.w_bytes;
    cubes = w.w_cubes;
    subsumed_on_write = w.w_subsumed;
    checkpoints = w.w_checkpoints;
  }

let write_record w ~tag ~payload =
  if w.closed then invalid_arg "Store: writer is closed";
  let n = Record.write w.oc ~tag ~payload in
  w.w_records <- w.w_records + 1;
  w.w_bytes <- w.w_bytes + n;
  (* Durability at record granularity: a crash loses at most the record
     being written, never a previously appended one. *)
  flush w.oc

let checkpoint ?(kind = "auto") ?(frame = -1) ?(complete = false) ?(ints = [])
    ?(floats = []) w () =
  let c = { kind; frame; cubes = w.w_cubes; complete; ints; floats } in
  write_record w ~tag:'K' ~payload:(checkpoint_payload c);
  w.w_checkpoints <- w.w_checkpoints + 1;
  w.since_ckpt <- 0;
  if not (Trace.is_null w.trace) then
    Trace.emit w.trace
      (Trace.Checkpoint { frame; cubes = w.w_cubes; bytes = w.w_bytes })

let append ?(witness = "") w cube =
  if Cube.width cube <> w.meta.width then
    invalid_arg "Store.append: cube width mismatch";
  if w.closed then invalid_arg "Store.append: writer is closed";
  if not (Cube_trie.insert w.trie cube) then begin
    w.w_subsumed <- w.w_subsumed + 1;
    false
  end
  else begin
    (* One record either way, so still one flush per cube. An empty
       witness needs none. *)
    (if witness = "" then write_record w ~tag:'C' ~payload:(Cube.to_string cube)
     else write_record w ~tag:'W' ~payload:(Cube.to_string cube ^ witness));
    w.w_cubes <- w.w_cubes + 1;
    w.since_ckpt <- w.since_ckpt + 1;
    if w.checkpoint_every > 0 && w.since_ckpt >= w.checkpoint_every then
      checkpoint ~kind:"auto" w ();
    true
  end

let make_writer ?(checkpoint_every = 256) ?(trace = Trace.null) ~path:w_path
    ~oc ~bytes meta =
  {
    w_path;
    oc;
    meta;
    trie = Cube_trie.create meta.width;
    checkpoint_every;
    trace;
    w_records = 0;
    w_bytes = bytes;
    w_cubes = 0;
    w_subsumed = 0;
    w_checkpoints = 0;
    since_ckpt = 0;
    closed = false;
    shard_mutex = Mutex.create ();
    shard_files = [];
  }

let create ?checkpoint_every ?(trace = Trace.null) ~path meta =
  let oc = open_out_bin path in
  output_string oc magic;
  let w =
    make_writer ?checkpoint_every ~trace ~path ~oc ~bytes:(String.length magic)
      meta
  in
  write_record w ~tag:'M' ~payload:(meta_payload meta);
  if not (Trace.is_null trace) then
    Trace.emit trace (Trace.Store_open { path; cubes = 0; resumed = false });
  (* The "start" checkpoint anchors recovery even for a run killed
     before its first cube. *)
  checkpoint ~kind:"start" w ();
  w

let remove_shard_files w =
  Mutex.lock w.shard_mutex;
  let files = w.shard_files in
  w.shard_files <- [];
  Mutex.unlock w.shard_mutex;
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) files

let finalize ?(ints = []) ?(floats = []) w ~complete () =
  checkpoint ~kind:"final" ~complete ~ints ~floats w ();
  close_out w.oc;
  w.closed <- true;
  remove_shard_files w

(* A shard sub-log is a complete miniature store (same format, same
   meta) built in a temp file and renamed into place — atomic on POSIX,
   so a crash leaves either the whole shard or nothing, and recovery
   reuses the ordinary log reader. *)
let write_shard w ~prefix cubes =
  let file = w.w_path ^ ".shard-" ^ prefix in
  let tmp = file ^ ".tmp" in
  let sw = create ~checkpoint_every:0 ~path:tmp w.meta in
  List.iter (fun (c, witness) -> ignore (append ?witness sw c)) cubes;
  finalize sw ~complete:true ();
  Sys.rename tmp file;
  Mutex.lock w.shard_mutex;
  w.shard_files <- file :: w.shard_files;
  Mutex.unlock w.shard_mutex

let sink w =
  {
    Run.on_cube = (fun ?witness c -> ignore (append ?witness w c));
    on_shard = write_shard w;
  }

(* ------------------------------------------------------------------ *)
(* Recovery *)

type recovered = {
  meta : meta;
  cubes : Cube.t list;
  witnesses : Witness.t option list;
  segments : (checkpoint * Cube.t list) list;
  last : checkpoint;
  torn : bool;
  dropped_cubes : int;
  valid_bytes : int;
  rstats : stats;
}

let recover ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let m = Bytes.create (String.length magic) in
        if
          Record.read_exact ic m (String.length magic)
          <> String.length magic
          || Bytes.to_string m <> magic
        then Error "not a solution log (bad magic)"
        else begin
          let offset = ref (String.length magic) in
          let meta = ref None in
          let torn = ref false in
          (* Cubes since the last checkpoint with their witnesses
             (reverse order), the closed (checkpoint, segment) pairs so
             far, and the witnesses of all closed segments (reverse
             order). *)
          let pending = ref [] in
          let segments = ref [] in
          let witnesses = ref [] in
          let valid_bytes = ref 0 in
          (* Counters over the *valid* region only, snapshotted at each
             checkpoint. *)
          let records = ref 0 and cubes = ref 0 and ckpts = ref 0 in
          let vrecords = ref 0 and vcubes = ref 0 and vckpts = ref 0 in
          let stop = ref false in
          while not !stop do
            match Record.read ic with
            | Record.Eof -> stop := true
            | Record.Corrupt _ ->
              torn := true;
              stop := true
            | Record.Record { tag; payload; bytes } -> (
              match
                (match tag with
                | 'M' ->
                  if !meta <> None then raise (Bad_payload "duplicate meta");
                  meta := Some (meta_of_payload payload)
                | ('C' | 'W') as tag ->
                  let width =
                    match !meta with
                    | Some m -> m.width
                    | None -> raise (Bad_payload "cube before meta")
                  in
                  let n = String.length payload in
                  if (tag = 'C' && n <> width) || n < width then
                    raise (Bad_payload "cube width mismatch");
                  let c =
                    try Cube.of_string (String.sub payload 0 width)
                    with Invalid_argument _ ->
                      raise (Bad_payload "bad cube payload")
                  in
                  let witness =
                    if tag = 'C' then None
                    else Some (String.sub payload width (n - width))
                  in
                  pending := (c, witness) :: !pending;
                  incr cubes
                | 'K' ->
                  if !meta = None then
                    raise (Bad_payload "checkpoint before meta");
                  let ck = checkpoint_of_payload payload in
                  segments := (ck, List.rev_map fst !pending) :: !segments;
                  witnesses := List.map snd !pending @ !witnesses;
                  pending := [];
                  incr ckpts;
                  valid_bytes := !offset + bytes;
                  vrecords := !records + 1;
                  vcubes := !cubes;
                  vckpts := !ckpts
                | _ -> raise (Bad_payload "unknown record tag"))
              with
              | () ->
                incr records;
                offset := !offset + bytes
              | exception Bad_payload _ ->
                (* Structurally framed but semantically garbage — same
                   treatment as a CRC failure: damaged tail. *)
                torn := true;
                stop := true)
          done;
          match (!meta, List.rev !segments) with
          | None, _ -> Error "log damaged before its meta record"
          | Some _, [] -> Error "no surviving checkpoint"
          | Some meta, segments ->
            let last, _ = List.nth segments (List.length segments - 1) in
            let cube_list = List.concat_map snd segments in
            Ok
              {
                meta;
                cubes = cube_list;
                witnesses = List.rev !witnesses;
                segments;
                last;
                torn = !torn;
                dropped_cubes = List.length !pending;
                valid_bytes = !valid_bytes;
                rstats =
                  {
                    records = !vrecords;
                    bytes = !valid_bytes;
                    cubes = !vcubes;
                    subsumed_on_write = 0;
                    checkpoints = !vckpts;
                  };
              }
        end)

(* Shard sub-logs surviving a crash, sorted by file name = guiding-path
   prefix, which is the deterministic merge order. *)
let surviving_shards path =
  let dir = Filename.dirname path in
  let base = Filename.basename path ^ ".shard-" in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter (fun e ->
           String.length e > String.length base
           && String.sub e 0 (String.length base) = base)
    |> List.sort compare
    |> List.map (Filename.concat dir)

let resume ?checkpoint_every ?(trace = Trace.null) ~path () =
  match recover ~path with
  | Error e -> Error e
  | Ok r ->
    (* Discard the damaged tail for good, then reopen for append. *)
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Unix.ftruncate fd r.valid_bytes;
    Unix.close fd;
    let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
    let w =
      make_writer ?checkpoint_every ~trace ~path ~oc ~bytes:r.valid_bytes
        r.meta
    in
    w.w_records <- r.rstats.records;
    w.w_cubes <- r.rstats.cubes;
    w.w_checkpoints <- r.rstats.checkpoints;
    List.iter (fun c -> ignore (Cube_trie.insert w.trie c)) r.cubes;
    (* Consolidate crash-surviving shard sub-logs in prefix order; the
       trie dedups against the main log and across shards. Leftover
       .tmp files are partial writes — delete them. *)
    let shard_cubes = ref [] in
    List.iter
      (fun f ->
        if Filename.check_suffix f ".tmp" then (
          try Sys.remove f with Sys_error _ -> ())
        else begin
          (match recover ~path:f with
          | Ok sr ->
            List.iter2
              (fun c witness ->
                if append ?witness w c then
                  shard_cubes := (c, witness) :: !shard_cubes)
              sr.cubes sr.witnesses
          | Error _ -> ());
          try Sys.remove f with Sys_error _ -> ()
        end)
      (surviving_shards path);
    if not (Trace.is_null trace) then
      Trace.emit trace
        (Trace.Store_open { path; cubes = w.w_cubes; resumed = true });
    checkpoint ~kind:"resume" w ();
    let shard_cubes = List.rev !shard_cubes in
    Ok
      ( {
          r with
          cubes = r.cubes @ List.map fst shard_cubes;
          witnesses = r.witnesses @ List.map snd shard_cubes;
        },
        w )
