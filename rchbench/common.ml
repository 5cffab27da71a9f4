(* Shared plumbing: the work directory, output checks, digests, counter
   deltas and the environment stamp. *)

module Json = Rchls_util.Json
module Telemetry = Rchls_util.Telemetry
module Pool = Rchls_util.Pool
module Resp = Rchls_api.Response

let now_ns = Telemetry.now_ns
let secs_since t = Int64.to_float (Int64.sub (now_ns ()) t) /. 1e9

(* --- work directory (inside the checkout; removed at exit) ------------ *)

let work_root = ".rchbench"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let scratch_counter = ref 0

(* A fresh directory under the run's own directory.  Paths stay
   relative, so Unix socket paths stay short wherever the checkout is. *)
let fresh_dir name =
  incr scratch_counter;
  let d =
    Filename.concat work_root
      (Printf.sprintf "run-%d/%s-%d" (Unix.getpid ()) name !scratch_counter)
  in
  rm_rf d;
  mkdir_p d;
  d

let cleanup () = rm_rf (Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())))

(* --- output checks ------------------------------------------------------ *)

let checks : (string * bool * string) list ref = ref []
let check name ok detail = checks := (name, ok, detail) :: !checks
let all_passed () = List.for_all (fun (_, ok, _) -> ok) !checks

let checks_json () =
  Json.List
    (List.rev_map
       (fun (name, ok, detail) ->
         Json.Obj
           [ ("check", Json.Str name); ("ok", Json.Bool ok); ("detail", Json.Str detail) ])
       !checks)

(* --- results ------------------------------------------------------------ *)

let payload_string p = Json.to_string (Resp.payload_to_json p)

let result_string = function
  | Ok p -> payload_string p
  | Error (e : Resp.error) -> "error:" ^ Resp.error_code_name e.code ^ ":" ^ e.message

(* Results are compared by MD5 fingerprint, so a long run keeps 32
   bytes per response rather than the response. *)
let fingerprint s = Digest.to_hex (Digest.string s)

(* A run's digest: MD5 over the newline-joined fingerprints of its
   results, in op order. *)
let digest_fps fps = fingerprint (String.concat "\n" fps)
let digest strings = digest_fps (List.map fingerprint strings)

(* Committed per-seed digests: lines "<workload> <seed> <md5>". *)
let expected_file = "rchbench/expected.txt"

let expected_digest ~workload ~seed =
  match open_in expected_file with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | l -> (
        match String.split_on_char ' ' (String.trim l) with
        | [ w; s; d ] when w = workload && s = string_of_int seed -> Some d
        | _ -> scan ())
    in
    let r = scan () in
    close_in ic;
    r

(* Compare a run's digest with the committed one, or — for a seed with
   no committed digest — with [reference ()], the same digest computed
   in-process the way the committed ones were produced. *)
let check_digest ~workload ~seed ~how got reference =
  match expected_digest ~workload ~seed with
  | Some d ->
    check "digest" (d = got) (Printf.sprintf "committed %s, got %s (%s)" d got how)
  | None ->
    let d = reference () in
    check "digest" (d = got)
      (Printf.sprintf "no committed digest for seed %d; in-process reference %s, got %s (%s)"
         seed d got how)

(* Ops per second of [op 0], [op 1], ... run back to back for
   [seconds]. *)
let rate_for ~seconds op =
  let t0 = now_ns () in
  let n = ref 0 in
  while secs_since t0 < seconds do
    op !n;
    incr n
  done;
  float_of_int !n /. secs_since t0

(* How much faster the same ops run at two domains than at one (below 1:
   the parallel path loses). *)
let two_domain_speedup ~seconds op =
  let one = rate_for ~seconds (op ~domains:1) in
  rate_for ~seconds (op ~domains:2) /. one

(* --- telemetry ---------------------------------------------------------- *)

let counters () = Telemetry.counters ()

let delta before after name =
  Option.value ~default:0 (List.assoc_opt name after)
  - Option.value ~default:0 (List.assoc_opt name before)

(* --- environment stamp -------------------------------------------------- *)

let git_rev () =
  if not (Sys.file_exists ".git") then "unavailable (not a git checkout)"
  else
  match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
  | exception Unix.Unix_error _ -> "unavailable"
  | ic ->
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    let ok = match Unix.close_process_in ic with Unix.WEXITED 0 -> true | _ -> false in
    if ok && rev <> "" then rev else "unavailable (not a git checkout)"

(* MD5 over every library source file, sorted by path: names the code
   under test where no git revision is available. *)
let source_digest () =
  let rec files dir =
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  match files "lib" with
  | exception Sys_error _ -> "unavailable"
  | fs ->
    let fs = List.sort compare fs in
    Digest.to_hex
      (Digest.string (String.concat "" (List.map (fun f -> f ^ Digest.file f) fs)))

(* VmHWM of a process (this one by default), in MiB. *)
let peak_rss_mb ?pid () =
  let file =
    match pid with
    | Some p -> Printf.sprintf "/proc/%d/status" p
    | None -> "/proc/self/status"
  in
  match open_in file with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

let env_stamp ~seed =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ( "RCHLS_DOMAINS",
        Json.Str (Option.value ~default:"unset" (Sys.getenv_opt "RCHLS_DOMAINS")) );
      ("pool_domains", Json.Int (Pool.num_domains ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("git_rev", Json.Str (git_rev ()));
      ("source_md5", Json.Str (source_digest ()));
      ("seed", Json.Int seed);
    ]
