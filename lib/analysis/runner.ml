module Circuit = Pqc_quantum.Circuit

type report = {
  diagnostics : Diagnostic.t list;
  errors : int;
  warnings : int;
  infos : int;
  suppressed : int;
  rules_run : string list;
  skipped_structural : bool;
}

exception Rejected of report

type override = Off | Severity of Diagnostic.severity

let parse_overrides spec =
  let parse_one item =
    match String.index_opt item '=' with
    | None ->
      if String.length item > 1 && item.[0] = '-' then
        Ok (String.sub item 1 (String.length item - 1), Off)
      else Error (Printf.sprintf "override %S: expected RULE=LEVEL or -RULE" item)
    | Some eq ->
      let id = String.sub item 0 eq in
      let level = String.sub item (eq + 1) (String.length item - eq - 1) in
      if id = "" then Error (Printf.sprintf "override %S: empty rule id" item)
      else (
        match String.lowercase_ascii level with
        | "off" | "none" -> Ok (id, Off)
        | "error" -> Ok (id, Severity Diagnostic.Error)
        | "warning" -> Ok (id, Severity Diagnostic.Warning)
        | "info" -> Ok (id, Severity Diagnostic.Info)
        | _ ->
          Error
            (Printf.sprintf
               "override %S: unknown level %S (off|error|warning|info)" item
               level))
  in
  String.split_on_char ',' spec
  |> List.filter (fun s -> String.trim s <> "")
  |> List.fold_left
       (fun acc item ->
         match acc with
         | Error _ -> acc
         | Ok l -> (
           match parse_one (String.trim item) with
           | Ok o -> Ok (o :: l)
           | Error e -> Error e))
       (Ok [])
  |> Result.map List.rev

let count sev diags =
  List.length (List.filter (fun (d : Diagnostic.t) -> d.severity = sev) diags)

(* Overrides apply at report time, after every rule has run: a disabled
   rule still executes (its crash would still surface), only its findings
   are dropped.  The first binding for an id wins, so CLI flags prepended
   before PQC_LINT_RULES take precedence. *)
let apply_overrides overrides diags =
  List.fold_left
    (fun (kept, suppressed) (d : Diagnostic.t) ->
      match List.assoc_opt d.rule overrides with
      | None -> (d :: kept, suppressed)
      | Some Off -> (kept, suppressed + 1)
      | Some (Severity s) -> ({ d with severity = s } :: kept, suppressed))
    ([], 0) diags
  |> fun (kept, suppressed) -> (List.rev kept, suppressed)

let make_report ?(overrides = []) ~rules_run ~skipped_structural diags =
  let diags, suppressed = apply_overrides overrides diags in
  let diagnostics = List.stable_sort Diagnostic.compare diags in
  { diagnostics;
    errors = count Diagnostic.Error diagnostics;
    warnings = count Diagnostic.Warning diagnostics;
    infos = count Diagnostic.Info diagnostics;
    suppressed;
    rules_run;
    skipped_structural }

let has_errors r = r.errors > 0

let errors r =
  List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error)
    r.diagnostics

let warnings r =
  List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Warning)
    r.diagnostics

(* A rule must never take the pipeline down: a crashing check is itself
   reported as an internal-error finding (PQC999, outside the catalog so
   it can never be confused with a real finding of the crashed rule),
   carrying the exception and a backtrace.  Callers read the backtrace
   first thing in their handler, before anything else can raise, so it
   is the crashed rule's own; this relies on {!run} keeping backtrace
   recording on for the whole run. *)
let crashed id e backtrace =
  let bt =
    match String.trim backtrace with
    | "" -> "backtrace unavailable"
    | s -> s
  in
  [ Diagnostic.error ~rule:"PQC999"
      ~hint:"this is a bug in the analyzer, not in the analyzed circuit"
      (Printf.sprintf "rule %s crashed: %s\n%s" id (Printexc.to_string e) bt) ]

let guarded id f =
  match f () with
  | diags -> diags
  | exception e -> crashed id e (Printexc.get_backtrace ())

let run ?(rules = Rules.all) ?(overrides = []) ctx =
  Rules.assert_unique rules;
  (* One toggle per run, not one per rule call: the stream pass calls
     every stream rule once per instruction. *)
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace recording)
  @@ fun () ->
  let stream_rules, structural_rules, external_rules =
    List.fold_left
      (fun (s, t, e) (r : Rule.t) ->
        match r.check with
        | Rule.Stream _ -> (r :: s, t, e)
        | Rule.Structural _ -> (s, r :: t, e)
        | Rule.External _ -> (s, t, r :: e))
      ([], [], []) (List.rev rules)
  in
  (* One shared pass drives every stream rule.  Each checker is called in
     place, in rule order per instruction, and only non-empty results are
     kept, so a clean instruction allocates nothing here. *)
  let ids = Array.of_list (List.map (fun (r : Rule.t) -> r.id) stream_rules) in
  let checkers =
    Array.of_list
      (List.map
         (fun (r : Rule.t) ->
           match r.check with
           | Rule.Stream mk -> mk ctx
           | Rule.Structural _ | Rule.External _ -> assert false)
         stream_rules)
  in
  let acc = ref [] in
  let instrs = ctx.Rule.instrs in
  for idx = 0 to Array.length instrs - 1 do
    let i = instrs.(idx) in
    for k = 0 to Array.length checkers - 1 do
      match checkers.(k).Rule.on_instr idx i with
      | [] -> ()
      | diags -> acc := diags :: !acc
      | exception e ->
        acc := crashed ids.(k) e (Printexc.get_backtrace ()) :: !acc
    done
  done;
  Array.iteri
    (fun k (c : Rule.stream_checker) ->
      acc := guarded ids.(k) c.finish :: !acc)
    checkers;
  let stream_diags = List.concat (List.rev !acc) in
  let validity_ids =
    List.map (fun (r : Rule.t) -> r.id) Rules.validity_rules
  in
  let stream_valid =
    not
      (List.exists
         (fun (d : Diagnostic.t) ->
           Diagnostic.is_error d && List.mem d.rule validity_ids)
         stream_diags)
  in
  let structural_diags, skipped_structural =
    if not stream_valid then ([], structural_rules <> [])
    else
      match
        Circuit.of_instrs ctx.Rule.n (Array.to_list ctx.Rule.instrs)
      with
      | exception Invalid_argument msg ->
        (* The validity rules mirror Circuit.validate_instr, so this arm
           is unreachable unless they drift apart — report it loudly. *)
        ( [ Diagnostic.error ~rule:"PQC001"
              ("stream rejected by Circuit.of_instrs despite clean validity \
                rules: " ^ msg) ],
          structural_rules <> [] )
      | c ->
        ( List.concat_map
            (fun (r : Rule.t) ->
              match r.check with
              | Rule.Structural f -> guarded r.id (fun () -> f ctx c)
              | Rule.Stream _ | Rule.External _ -> assert false)
            structural_rules,
          false )
  in
  let external_diags =
    List.concat_map
      (fun (r : Rule.t) ->
        match r.check with
        | Rule.External f -> guarded r.id (fun () -> f ctx)
        | Rule.Stream _ | Rule.Structural _ -> assert false)
      external_rules
  in
  make_report ~overrides
    ~rules_run:(List.map (fun (r : Rule.t) -> r.id) rules)
    ~skipped_structural
    (stream_diags @ structural_diags @ external_diags)

let analyze ?rules ?overrides ?theta_len ?max_width ?topology ?cache_file
    ?target c =
  run ?rules ?overrides
    (Rule.of_circuit ?theta_len ?max_width ?topology ?cache_file ?target c)

let check ?rules ?overrides ?theta_len ?max_width ?topology ?cache_file
    ?target c =
  let report =
    analyze ?rules ?overrides ?theta_len ?max_width ?topology ?cache_file
      ?target c
  in
  if has_errors report then raise (Rejected report);
  report

let summary r =
  Printf.sprintf "%d error%s, %d warning%s, %d info%s" r.errors
    (if r.errors = 1 then "" else "s")
    r.warnings
    (if r.warnings = 1 then "" else "s")
    r.infos
    (if r.infos = 1 then "" else "s")

let to_string r =
  let lines = List.map Diagnostic.to_string r.diagnostics in
  let skipped =
    if r.skipped_structural then
      [ "note: structural rules skipped (stream is not a well-formed \
         circuit)" ]
    else []
  in
  String.concat "\n" (lines @ skipped @ [ summary r ])

let to_json r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"diagnostics\":[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Diagnostic.to_json d))
    r.diagnostics;
  Buffer.add_string buf
    (Printf.sprintf
       "],\"errors\":%d,\"warnings\":%d,\"infos\":%d,\"suppressed\":%d,\
        \"skipped_structural\":%b}"
       r.errors r.warnings r.infos r.suppressed r.skipped_structural);
  Buffer.contents buf

let exit_code r = if has_errors r then 1 else 0

let () =
  Printexc.register_printer (function
    | Rejected r ->
      Some
        (Printf.sprintf "Pqc_analysis.Runner.Rejected (%s)" (summary r))
    | _ -> None)
