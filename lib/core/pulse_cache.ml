module Obs = Pqc_obs.Obs

type entry = {
  key : string;
  duration_ns : float;
  grape_runs : int;
  grape_iterations : int;
  seconds : float;
  fidelity : float option;
  fallback : string option;
  run_id : string option;
      (* correlation id of the request that produced this pulse *)
}

let version = 1
let header = Printf.sprintf "PQC-PULSE-CACHE v%d" version
let journal_path path = path ^ ".journal"

(* FNV-1a 64-bit: tiny, dependency-free, and plenty to catch the
   truncation and bit-flip corruption this file guards against (it is an
   integrity check, not a cryptographic one). *)
let checksum s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
             0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let opt_float = function
  | Some f -> Printf.sprintf "%h" f
  | None -> "-"

let opt_string = function Some s -> s | None -> "-"

(* One tab-separated record per line.  The key is an OCaml-quoted string
   (keys may contain any byte); floats are hex literals for lossless
   round-trips.  The trailing field is the correlation run_id ("-" when
   the entry was produced outside any request context); readers accept
   the older 7-field records without it. *)
let payload e =
  Printf.sprintf "%S\t%h\t%d\t%d\t%h\t%s\t%s\t%s" e.key e.duration_ns
    e.grape_runs e.grape_iterations e.seconds (opt_float e.fidelity)
    (opt_string e.fallback)
    (opt_string e.run_id)

let parse_opt_float = function
  | "-" -> Some None
  | s -> (match float_of_string_opt s with
          | Some f -> Some (Some f)
          | None -> None)

let mk_entry key duration_ns grape_runs grape_iterations seconds fid fb rid =
  match parse_opt_float fid with
  | None -> None
  | Some fidelity ->
    if Float.is_finite duration_ns && duration_ns >= 0.0 then
      Some { key; duration_ns; grape_runs; grape_iterations; seconds;
             fidelity;
             fallback = (if fb = "-" then None else Some fb);
             run_id = (if rid = "-" then None else Some rid) }
    else None

(* The run_id is the last field and runs to the end of the record: a
   bench-matrix id ("<manifest name>/<cell id>") may hold spaces.  A
   7-field vintage record has no tab after its fallback field, and reads
   with no run_id. *)
let parse_payload s =
  match
    Scanf.sscanf s "%S\t%h\t%d\t%d\t%h\t%s@\t%[^\n]%!"
      (fun key duration_ns grape_runs grape_iterations seconds fid rest ->
        let fb, rid =
          match String.index_opt rest '\t' with
          | Some i ->
            (String.sub rest 0 i,
             String.sub rest (i + 1) (String.length rest - i - 1))
          | None -> (rest, "-")
        in
        mk_entry key duration_ns grape_runs grape_iterations seconds fid fb
          rid)
  with
  | r -> r
  | exception _ -> None

let parse_line line =
  match String.index_opt line '\t' with
  | None -> None
  | Some i ->
    let crc = String.sub line 0 i in
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    if String.equal (checksum rest) crc then parse_payload rest else None

let encode_entry e =
  let p = payload e in
  checksum p ^ "\t" ^ p

let decode_entry = parse_line

(* --- Durability primitives --- *)

(* Directory fsync pins a rename/unlink to disk; some filesystems refuse
   it, in which case the rename is still atomic — we just lose the
   stronger power-failure guarantee, so errors are ignored. *)
let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* Atomic, durable snapshot: temp file, fsync, rename, directory fsync.
   A crash at any point leaves either the old complete file or the new
   complete file — never a torn snapshot. *)
let write_snapshot ~path entries =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc header;
      output_char oc '\n';
      List.iter
        (fun e ->
          output_string oc (encode_entry e);
          output_char oc '\n')
        entries;
      flush oc;
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir path

(* Per-path operation counter, the deterministic key for the storage
   fault sites (so a seeded plan tears the same operation every run). *)
let op_counts : (string, int) Hashtbl.t = Hashtbl.create 8

let next_op path =
  let k = Option.value (Hashtbl.find_opt op_counts path) ~default:0 in
  Hashtbl.replace op_counts path (k + 1);
  k

(* Write-ahead append: once this returns, the records survive a crash
   (salvageable from the journal even if the snapshot rewrite that
   follows never happens).  The fault sites live here: ENOSPC fires
   before any byte is written (a full disk must not half-write), and
   the torn-write site truncates into the freshly appended tail exactly
   as a crash between write and fsync would. *)
let journal_append ~path entries =
  if entries <> [] then begin
    let jp = journal_path path in
    let op = next_op path in
    if Fault.fire Fault.Enospc ~key:op then
      raise (Unix.Unix_error (Unix.ENOSPC, "write", jp));
    let fd =
      Unix.openfile jp [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
    in
    let oc = Unix.out_channel_of_descr fd in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        List.iter
          (fun e ->
            output_string oc (encode_entry e);
            output_char oc '\n')
          entries;
        flush oc;
        Unix.fsync fd);
    if Fault.fire Fault.Cache_truncate ~key:op then begin
      let size = (Unix.stat jp).Unix.st_size in
      (* At least 2 bytes: cutting only the newline would leave the last
         record complete, which is no fault at all. *)
      let cut = 2 + (op * 7919) mod 16 in
      Unix.truncate jp (max 0 (size - cut))
    end
  end

(* --- Tolerant, salvaging reads --- *)

type load_result = { entries : entry list; dropped : int; salvaged : int }

(* [None] when the file does not exist (distinct from existing-but-empty). *)
let read_lines path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let lines = ref [] in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            lines := input_line ic :: !lines
          done
        with End_of_file -> ());
    Some (List.rev !lines)
  end

(* Classify record lines: invalid lines with at least one valid record
   after them are genuine corruption (dropped — a bit flip must not
   grow into silent tail loss), while an invalid tail with nothing
   valid after it is the signature of a torn or truncated write and is
   salvaged away: the valid prefix is exactly what survives. *)
let classify lines =
  let parsed = Array.of_list (List.map parse_line lines) in
  let last_valid = ref (-1) in
  Array.iteri (fun i p -> if p <> None then last_valid := i) parsed;
  let entries = ref [] and dropped = ref 0 and salvaged = ref 0 in
  Array.iteri
    (fun i p ->
      match p with
      | Some e -> entries := e :: !entries
      | None -> if i > !last_valid then incr salvaged else incr dropped)
    parsed;
  (List.rev !entries, !dropped, !salvaged)

(* Newest record wins on key collision: fresh entries replace their
   on-disk predecessors in place; genuinely new keys append once each
   (latest value) at their first position in [fresh]. *)
let apply_over existing fresh =
  let latest = Hashtbl.create (List.length fresh * 2 + 16) in
  List.iter (fun e -> Hashtbl.replace latest e.key e) fresh;
  let kept =
    List.map
      (fun e ->
        match Hashtbl.find_opt latest e.key with
        | Some v ->
          Hashtbl.remove latest e.key;
          v
        | None -> e)
      existing
  in
  let appended =
    List.filter_map
      (fun e ->
        match Hashtbl.find_opt latest e.key with
        | Some v ->
          Hashtbl.remove latest e.key;
          Some v
        | None -> None)
      fresh
  in
  kept @ appended

let load ~path =
  let entries, dropped, salvaged =
    match read_lines path with
    | None | Some [] -> ([], 0, 0)
    | Some (first :: rest) ->
      if not (String.equal first header) then
        (* Unknown version or clobbered header: nothing in the file can
           be trusted; count every record as dropped. *)
        ([], List.length rest + 1, 0)
      else classify rest
  in
  (* Replay the write-ahead journal (records only, no header) over the
     snapshot: a crash between journal append and compaction loses
     nothing, and replaying an already-compacted journal is idempotent
     (same records, newest-wins).  The journal's torn tail — the
     expected crash artifact — salvages like the snapshot's. *)
  let entries, dropped, salvaged =
    match read_lines (journal_path path) with
    | None | Some [] -> (entries, dropped, salvaged)
    | Some jlines ->
      let je, jd, js = classify jlines in
      if je <> [] then
        Obs.count ~by:(float_of_int (List.length je)) "cache.journal.replayed";
      (apply_over entries je, dropped + jd, salvaged + js)
  in
  if salvaged > 0 then Obs.count ~by:(float_of_int salvaged) "cache.salvaged";
  if dropped > 0 then Obs.count ~by:(float_of_int dropped) "cache.dropped";
  { entries; dropped; salvaged }

(* --- Writes --- *)

let remove_journal path =
  match Sys.remove (journal_path path) with
  | () -> fsync_dir path
  | exception Sys_error _ -> ()

let save ~path entries =
  (* Full replace: clear the journal first so previously journaled
     records cannot resurrect over the explicit new contents. *)
  remove_journal path;
  write_snapshot ~path entries

(* Fold journal + snapshot into a fresh snapshot, then retire the
   journal.  Order matters: the snapshot lands (atomically, durably)
   before the journal is unlinked, so every record is on disk in at
   least one of the two files at every instant. *)
let compact ~path entries =
  write_snapshot ~path entries;
  remove_journal path;
  Obs.count "cache.compaction"

(* Journal-append-then-compact under an exclusive advisory lock on
   [path ^ ".lock"]: concurrent pools persisting to the same cache
   serialize here, so a merge sees every record an earlier merge wrote
   (the union survives), while the journal + atomic snapshot mean a
   crash at any instant — even mid-write — costs at most the unsynced
   tail of the in-flight append. *)
let merge ~path entries =
  let lock_path = path ^ ".lock" in
  let fd = Unix.openfile lock_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  (* Fun.protect, not manual cleanup: the lock must release and the fd
     must close on every exit path, including a reader or codec raising
     mid-merge — a leaked lockf here would wedge every other pool
     persisting to this cache. *)
  Fun.protect
    ~finally:(fun () ->
      (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ()))
    (fun () ->
      Unix.lockf fd Unix.F_LOCK 0;
      journal_append ~path entries;
      (* Disk is the source of truth from here: whatever survived the
         append (all of it, absent injected faults) is what compacts. *)
      let { entries = merged; dropped = _; salvaged = _ } = load ~path in
      compact ~path merged)
