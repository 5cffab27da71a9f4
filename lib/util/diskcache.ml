type t = {
  dir : string;
  max_entries : int;
  lock : Mutex.t;
  mutable count : int;  (* estimate; resynced on every eviction scan *)
}

let key_name key = Fnv.to_hex key ^ ".json"

let is_entry name = Filename.check_suffix name ".json"

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let scan dir =
  match Sys.readdir dir with
  | names -> Array.to_list (Array.of_seq (Seq.filter is_entry (Array.to_seq names)))
  | exception Sys_error _ -> []

let open_dir ?(max_entries = 4096) dir =
  try
    mkdir_p dir;
    if not (Sys.is_directory dir) then
      Error (Printf.sprintf "Diskcache: %S is not a directory" dir)
    else
      Ok
        {
          dir;
          max_entries = max 1 max_entries;
          lock = Mutex.create ();
          count = List.length (scan dir);
        }
  with
  | Unix.Unix_error (e, _, arg) ->
    Error (Printf.sprintf "Diskcache: cannot open %S: %s %s" dir (Unix.error_message e) arg)
  | Sys_error e -> Error (Printf.sprintf "Diskcache: cannot open %S: %s" dir e)

let dir t = t.dir

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let path_of t key = Filename.concat t.dir (key_name key)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Some s
        | exception (End_of_file | Sys_error _) -> None)

let touch path =
  (* Refresh mtime so eviction approximates LRU; best-effort. *)
  try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ()

let find t key =
  let path = path_of t key in
  match read_file path with
  | None ->
    Telemetry.incr "diskcache.misses";
    None
  | Some v ->
    Telemetry.incr "diskcache.hits";
    touch path;
    Some v

let mtime path = try (Unix.stat path).Unix.st_mtime with Unix.Unix_error _ -> 0.

(* Past the bound, evict down to a low-water mark an eighth below it,
   so the directory scan runs once per [max_entries / 8] fresh adds
   rather than once per add.  Bounds under 8 have no headroom. *)
let evict_locked t =
  Telemetry.incr "diskcache.scans";
  let names = scan t.dir in
  t.count <- List.length names;
  if t.count > t.max_entries then begin
    let dated =
      List.sort compare
        (List.map (fun n -> (mtime (Filename.concat t.dir n), n)) names)
    in
    let excess = t.count - (t.max_entries - (t.max_entries / 8)) in
    List.iteri
      (fun i (_, n) ->
        if i < excess then begin
          (try Sys.remove (Filename.concat t.dir n) with Sys_error _ -> ());
          Telemetry.incr "diskcache.evictions";
          t.count <- t.count - 1
        end)
      dated
  end

(* Write through a tmp sibling and rename it over [path]; [true] iff
   the rename happened, i.e. [path] now holds [value]. *)
let write_atomically ~tmp path value =
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc value;
        close_out oc);
    Sys.rename tmp path;
    true
  with Sys_error _ ->
    (try Sys.remove tmp with Sys_error _ -> ());
    false

let add t key value =
  let path = path_of t key in
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf ".tmp-%d-%s" (Unix.getpid ()) (key_name key))
  in
  with_lock t (fun () ->
      let existed = Sys.file_exists path in
      if write_atomically ~tmp path value then begin
        Telemetry.incr "diskcache.writes";
        if not existed then begin
          t.count <- t.count + 1;
          if t.count > t.max_entries then evict_locked t
        end
      end)

let entries t = with_lock t (fun () -> List.length (scan t.dir))
