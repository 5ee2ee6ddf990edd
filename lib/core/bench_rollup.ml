module J = Pqc_util.Jsonx

type t = {
  report : Bench_report.t;
  cells : int;
  missing_cells : string list;
}

let parse_index s =
  match J.parse s with
  | Error e -> Error ("cells.json: " ^ e)
  | Ok doc -> (
    let name =
      Option.value
        (Option.bind (J.member "manifest" doc) J.to_string)
        ~default:"matrix"
    in
    match Option.bind (J.member "cells" doc) J.to_list with
    | None -> Error "cells.json: missing cells array"
    | Some items -> (
      let ids = List.filter_map J.to_string items in
      if List.length ids <> List.length items then
        Error "cells.json: cells must be an array of strings"
      else Ok (name, ids)))

let of_results_dir ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "%s: not a directory" dir)
  else
    match
      In_channel.with_open_bin (Filename.concat dir "cells.json")
        In_channel.input_all
    with
    | exception Sys_error e -> Error e
    | s -> (
      match parse_index s with
      | Error e -> Error (Printf.sprintf "%s: %s" dir e)
      | Ok (name, ids) ->
        let experiments = ref [] in
        let missing = ref [] in
        List.iter
          (fun id ->
            let path = Filename.concat (Filename.concat dir id) "report.json" in
            match Bench_report.read ~path with
            | Error _ -> missing := id :: !missing
            | Ok r ->
              experiments := List.rev_append r.Bench_report.experiments !experiments)
          ids;
        let workers =
          List.fold_left
            (fun acc (e : Bench_report.experiment) ->
              max acc e.Bench_report.workers)
            1 !experiments
        in
        let report =
          Bench_report.sorted
            { Bench_report.mode = "matrix:" ^ name;
              workers;
              experiments = List.rev !experiments }
        in
        Ok
          { report;
            cells = List.length ids;
            missing_cells = List.sort String.compare (List.rev !missing) })

let extra t =
  [ ("cells", string_of_int t.cells);
    ( "missing_cells",
      "[" ^ String.concat ", " (List.map J.escape_string t.missing_cells) ^ "]"
    ) ]

let to_json t = Bench_report.to_json ~extra:(extra t) t.report
let write ~path t = Bench_report.write ~extra:(extra t) ~path t.report

let render t =
  let buf = Buffer.create 1024 in
  let present = List.length t.report.Bench_report.experiments in
  Buffer.add_string buf
    (Printf.sprintf "%s: %d/%d cells reported\n" t.report.Bench_report.mode
       present t.cells);
  if t.missing_cells <> [] then
    Buffer.add_string buf
      ("missing: " ^ String.concat ", " t.missing_cells ^ "\n");
  let cells_t =
    Pqc_util.Table.create
      [ "cell"; "strategy"; "pulse (ns)"; "cache"; "blocks"; "equal" ]
  in
  List.iter
    (fun e ->
      Pqc_util.Table.add_row cells_t
        [ e.Bench_report.name; e.Bench_report.strategy;
          Pqc_util.Table.cell_f ~decimals:2 e.Bench_report.pulse_duration_ns;
          string_of_int e.Bench_report.cache_hits;
          string_of_int e.Bench_report.blocks_compiled;
          (if e.Bench_report.equal_pulse then "yes" else "NO") ])
    t.report.Bench_report.experiments;
  Buffer.add_string buf (Pqc_util.Table.render cells_t);
  Buffer.add_char buf '\n';
  Buffer.contents buf
