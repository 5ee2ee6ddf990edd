module Table = Pqc_util.Table

type row = {
  key : string;
  old_value : float;
  new_value : float;
  delta_pct : float;
  regression : bool;
  note : string;
}

type t = {
  rows : row list;
  missing : string list;
  added : string list;
  broken : string list;
  regressions : string list;
}

(* Growth from 0 has no finite percentage; it reads as +inf, so a pulse
   that appears where there was none gates at every threshold. *)
let pct ~old_value ~new_value =
  if old_value = 0. then if new_value > 0. then Float.infinity else 0.
  else (new_value -. old_value) /. old_value *. 100.

let delta_text d = Printf.sprintf "%+.1f%%" d

(* A row gates when the relative growth exceeds the threshold.
   Shrinkage never gates. *)
let make_row ~key ~threshold ~old_value ~new_value =
  let delta_pct = pct ~old_value ~new_value in
  let regression = delta_pct > threshold in
  let note =
    if regression then Printf.sprintf "%s > %.1f%%" (delta_text delta_pct) threshold
    else ""
  in
  { key; old_value; new_value; delta_pct; regression; note }

let diff ?(threshold_pct = 20.) ~old_report ~new_report () =
  let olds = (old_report : Bench_report.t).experiments in
  let news = (new_report : Bench_report.t).experiments in
  let find es k = List.find_opt (fun e -> Bench_report.experiment_key e = k) es in
  let rows = ref [] and missing = ref [] and broken = ref [] in
  List.iter
    (fun (o : Bench_report.experiment) ->
      let k = Bench_report.experiment_key o in
      match find news k with
      | None -> missing := k :: !missing
      | Some n ->
        if not n.equal_pulse then broken := k :: !broken;
        rows :=
          make_row ~key:k ~threshold:threshold_pct
            ~old_value:o.pulse_duration_ns ~new_value:n.pulse_duration_ns
          :: !rows)
    olds;
  let added =
    List.filter_map
      (fun n ->
        let k = Bench_report.experiment_key n in
        if find olds k = None then Some k else None)
      news
  in
  let rows = List.rev !rows in
  let missing = List.rev !missing in
  let broken = List.rev !broken in
  let regressions =
    List.map (fun k -> Printf.sprintf "%s: missing from new report" k) missing
    @ List.map
        (fun k -> Printf.sprintf "%s: equal_pulse is false in new report" k)
        broken
    @ List.filter_map
        (fun r ->
          if r.regression then
            Some (Printf.sprintf "%s: pulse_duration_ns %s" r.key r.note)
          else None)
        rows
  in
  { rows; missing; added; broken; regressions }

let render t =
  let tbl =
    Table.create [ "experiment"; "old (ns)"; "new (ns)"; "delta"; "gate" ]
  in
  List.iter
    (fun r ->
      let delta =
        if Float.is_nan r.delta_pct then "n/a" else delta_text r.delta_pct
      in
      Table.add_row tbl
        [ r.key;
          Table.cell_f ~decimals:3 r.old_value;
          Table.cell_f ~decimals:3 r.new_value;
          delta;
          (if r.regression then "FAIL" else "ok") ])
    t.rows;
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Table.render tbl);
  Buffer.add_char buf '\n';
  List.iter
    (fun k -> Buffer.add_string buf (Printf.sprintf "missing: %s\n" k))
    t.missing;
  List.iter
    (fun k -> Buffer.add_string buf (Printf.sprintf "added:   %s\n" k))
    t.added;
  List.iter
    (fun k ->
      Buffer.add_string buf
        (Printf.sprintf "broken determinism contract: %s\n" k))
    t.broken;
  (match t.regressions with
  | [] -> Buffer.add_string buf "bench diff: PASS\n"
  | rs ->
    Buffer.add_string buf
      (Printf.sprintf "bench diff: FAIL (%d regression%s)\n" (List.length rs)
         (if List.length rs = 1 then "" else "s"));
    List.iter (fun r -> Buffer.add_string buf ("  - " ^ r ^ "\n")) rs);
  Buffer.contents buf
