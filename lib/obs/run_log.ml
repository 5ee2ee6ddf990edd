type compile_info = {
  strategy : string;
  precompute_s : float;
  compile_latency_s : float;
  pulse_duration_ns : float;
  gate_duration_ns : float;
  cache_hits : int;
  degradations : int;
}

type t = {
  oc : out_channel;
  algo : string;
  label : string;
  run_id : string option;
  info : compile_info option;
  flush_every : int;
  t_start : float;
  mutable t_last : float;
  mutable written : int;
  mutable closed : bool;
}

let json_string = Pqc_util.Jsonx.escape_string

(* Every bit of each float, and null for inf/nan (which JSON has no
   token for), so every line parses. *)
let json_float = Pqc_util.Jsonx.number

let create ?run_id ?info ?(flush_every = 1) ~algo ~label ~path () =
  let oc = open_out path in
  let now = Obs.Clock.now () in
  (* The correlation id is captured once at creation: every record of
     one recorder belongs to one run, and the ambient context may have
     moved on by the time late records are written. *)
  let run_id =
    match run_id with Some _ as r -> r | None -> Obs.Ctx.current ()
  in
  { oc; algo; label; run_id; info; flush_every = max 1 flush_every;
    t_start = now; t_last = now; written = 0; closed = false }

let record t ~iteration ~energy =
  if not t.closed then begin
    let now = Obs.Clock.now () in
    let iter_s = now -. t.t_last in
    t.t_last <- now;
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"algo\": %s, \"label\": %s, \"seq\": %d, \"iteration\": %d, \
          \"energy\": %s, \"iteration_s\": %s, \"elapsed_s\": %s"
         (json_string t.algo) (json_string t.label) (t.written + 1) iteration
         (json_float energy) (json_float iter_s)
         (json_float (now -. t.t_start)));
    (match t.run_id with
    | None -> ()
    | Some rid ->
      Buffer.add_string buf
        (Printf.sprintf ", \"run_id\": %s" (json_string rid)));
    (match t.info with
    | None -> ()
    | Some i ->
      Buffer.add_string buf
        (Printf.sprintf
           ", \"strategy\": %s, \"precompute_s\": %s, \"compile_latency_s\": \
            %s, \"pulse_duration_ns\": %s, \"gate_duration_ns\": %s, \
            \"pulse_speedup\": %s, \"cache_hits\": %d, \"degradations\": %d"
           (json_string i.strategy)
           (json_float i.precompute_s)
           (json_float i.compile_latency_s)
           (json_float i.pulse_duration_ns)
           (json_float i.gate_duration_ns)
           (json_float (i.gate_duration_ns /. i.pulse_duration_ns))
           i.cache_hits i.degradations));
    Buffer.add_string buf "}\n";
    output_string t.oc (Buffer.contents buf);
    t.written <- t.written + 1;
    if t.written mod t.flush_every = 0 then flush t.oc
  end

let written t = t.written

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try flush t.oc with Sys_error _ -> ());
    close_out_noerr t.oc
  end

let path_from_env () =
  match Sys.getenv_opt "PQC_RUN_LOG" with
  | None -> None
  | Some s ->
    let s = String.trim s in
    if s = "" then None else Some s

let with_log ?run_id ?info ~algo ~label ~path f =
  match path with
  | None -> f None
  | Some path ->
    let t = create ?run_id ?info ~algo ~label ~path () in
    Fun.protect ~finally:(fun () -> close t) (fun () -> f (Some t))

(* ------------------------------------------------------------------ *)
(* Tolerant reader.                                                    *)

type record = {
  r_algo : string;
  r_label : string;
  r_iteration : int;
  r_energy : float;
  r_elapsed_s : float;
  r_seq : int option;  (** [None] on pre-provenance records. *)
  r_run_id : string option;  (** [None] on pre-provenance records. *)
  r_strategy : string option;
}

let parse_record line =
  let module J = Pqc_util.Jsonx in
  let line = String.trim line in
  if line = "" then None
  else
    match J.parse line with
    | Error _ -> None
    | Ok j ->
      let str k = Option.bind (J.member k j) J.to_string in
      let int k = Option.bind (J.member k j) J.to_int in
      let flt k = Option.bind (J.member k j) J.to_float in
      (* Only the fields every format version has are required; run_id
         and seq are optional so pre-provenance logs still read. *)
      (match (str "algo", str "label", int "iteration", flt "energy") with
      | Some r_algo, Some r_label, Some r_iteration, Some r_energy ->
        Some
          { r_algo; r_label; r_iteration; r_energy;
            r_elapsed_s = Option.value ~default:Float.nan (flt "elapsed_s");
            r_seq = int "seq"; r_run_id = str "run_id";
            r_strategy = str "strategy" }
      | _ -> None)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> (
      match parse_record line with
      | Some r -> go (r :: acc)
      | None -> go acc)
  in
  go []
