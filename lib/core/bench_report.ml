(* Bumped on any change to the document structure; the reader accepts
   this version only. *)
let schema_version = 5

type experiment = {
  name : string;
  strategy : string;
  engine : string;
  run_id : string;
  pulse_duration_ns : float;
  cache_hits : int;
  blocks_compiled : int;
  workers : int;
  equal_pulse : bool;
}

type t = { mode : string; workers : int; experiments : experiment list }

let json_string = Pqc_util.Jsonx.escape_string

(* Every bit of a pulse duration, so neither the pinned rollups nor
   [bench diff] miss a pulse that moves by less than a rounded digit; a
   non-finite value renders as null rather than emitting a document
   nothing can parse. *)
let json_float = Pqc_util.Jsonx.number

let experiment_json e =
  String.concat ""
    [ "    {\n";
      "      \"name\": "; json_string e.name; ",\n";
      "      \"strategy\": "; json_string e.strategy; ",\n";
      "      \"engine\": "; json_string e.engine; ",\n";
      "      \"run_id\": "; json_string e.run_id; ",\n";
      "      \"pulse_duration_ns\": "; json_float e.pulse_duration_ns; ",\n";
      "      \"cache_hits\": "; string_of_int e.cache_hits; ",\n";
      "      \"blocks_compiled\": "; string_of_int e.blocks_compiled; ",\n";
      "      \"workers\": "; string_of_int e.workers; ",\n";
      "      \"equal_pulse\": "; string_of_bool e.equal_pulse; "\n";
      "    }" ]

(* The diff and the rollup both key experiments by name/strategy/engine;
   '/' cannot appear in a strategy or engine token, so the key is
   unambiguous. *)
let experiment_key e = e.name ^ "/" ^ e.strategy ^ "/" ^ e.engine

let sorted t =
  { t with
    experiments =
      List.sort
        (fun a b -> String.compare (experiment_key a) (experiment_key b))
        t.experiments }

let to_json ?(extra = []) t =
  let member (key, value) = "  " ^ json_string key ^ ": " ^ value ^ ",\n" in
  String.concat ""
    ([ "{\n";
       member ("schema_version", string_of_int schema_version);
       member ("mode", json_string t.mode);
       member ("workers", string_of_int t.workers) ]
    @ List.map member extra
    @ [ (match t.experiments with
        | [] -> "  \"experiments\": []\n"
        | es ->
          "  \"experiments\": [\n"
          ^ String.concat ",\n" (List.map experiment_json es)
          ^ "\n  ]\n");
        "}\n" ])

let write ?extra ~path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json ?extra t));
  Sys.rename tmp path

(* ---- reader ----------------------------------------------------------

   Strict: a document of any other schema version, or one missing a
   field, is an error.  The regression gate must not silently compare
   against a half-parsed report. *)

module J = Pqc_util.Jsonx

exception Malformed of string

let req what = function
  | Some v -> v
  | None -> raise (Malformed ("missing or mistyped " ^ what))

let get conv ctx key j = req (ctx ^ "." ^ key) (Option.bind (J.member key j) conv)

let experiment_of_json j =
  let ctx =
    match Option.bind (J.member "name" j) J.to_string with
    | Some n -> "experiment " ^ n
    | None -> "experiment"
  in
  { name = get J.to_string ctx "name" j;
    strategy = get J.to_string ctx "strategy" j;
    engine = get J.to_string ctx "engine" j;
    run_id = get J.to_string ctx "run_id" j;
    pulse_duration_ns = get J.to_float ctx "pulse_duration_ns" j;
    cache_hits = get J.to_int ctx "cache_hits" j;
    blocks_compiled = get J.to_int ctx "blocks_compiled" j;
    workers = get J.to_int ctx "workers" j;
    equal_pulse = get J.to_bool ctx "equal_pulse" j }

let of_json s =
  match J.parse s with
  | Error e -> Error e
  | Ok doc -> (
    try
      let version = get J.to_int "report" "schema_version" doc in
      if version <> schema_version then
        Error
          (Printf.sprintf "unsupported schema_version %d (this build reads %d)"
             version schema_version)
      else
        Ok
          { mode = get J.to_string "report" "mode" doc;
            workers = get J.to_int "report" "workers" doc;
            experiments =
              List.map experiment_of_json
                (req "experiments array"
                   (Option.bind (J.member "experiments" doc) J.to_list)) }
    with Malformed what -> Error what)

let read ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> (
    match of_json s with
    | Ok t -> Ok t
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e
