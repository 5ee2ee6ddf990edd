module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Topology = Pqc_transpile.Topology
module Slice = Pqc_transpile.Slice
module Diagnostic = Pqc_analysis.Diagnostic
module Rule = Pqc_analysis.Rule
module Rules = Pqc_analysis.Rules
module Runner = Pqc_analysis.Runner
module Cache_audit = Pqc_analysis.Cache_audit
module Pulse_cache = Pqc_core.Pulse_cache
module Resilience = Pqc_core.Resilience
module Strategy = Pqc_core.Strategy
module Engine = Pqc_core.Engine
module Compiler = Pqc_core.Compiler
module Cost = Pqc_analysis.Cost

let diags_of id (report : Runner.report) =
  List.filter (fun (d : Diagnostic.t) -> d.rule = id) report.diagnostics

let has_rule id report = diags_of id report <> []

let span_of id report =
  match diags_of id report with
  | { Diagnostic.span = Some s; _ } :: _ -> Some (s.first, s.last)
  | _ -> None

(* --- diagnostics --- *)

let test_diagnostic_ordering () =
  let e = Diagnostic.error ~rule:"PQC001" ~span:(Diagnostic.point 9) "e" in
  let w = Diagnostic.warning ~rule:"PQC030" ~span:(Diagnostic.point 1) "w" in
  let i = Diagnostic.info ~rule:"PQC040" "i" in
  let sorted = List.sort Diagnostic.compare [ i; w; e ] in
  Alcotest.(check (list string)) "errors first"
    [ "PQC001"; "PQC030"; "PQC040" ]
    (List.map (fun (d : Diagnostic.t) -> d.rule) sorted)

let test_diagnostic_json () =
  let d =
    Diagnostic.error ~rule:"PQC020" ~span:(Diagnostic.span ~first:2 ~last:5)
      ~hint:"a \"quoted\" hint" "bad\nthing"
  in
  let j = Diagnostic.to_json d in
  let contains needle =
    let n = String.length needle and h = String.length j in
    let rec go i = i + n <= h && (String.sub j i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "rule" true (contains "\"rule\":\"PQC020\"");
  Alcotest.(check bool) "span" true (contains "\"first\":2");
  Alcotest.(check bool) "newline escaped" true (contains "bad\\nthing");
  Alcotest.(check bool) "quote escaped" true (contains "\\\"quoted\\\"")

(* --- validity rules on malformed streams --- *)

let test_validity_rules_on_malformed_stream () =
  let instrs =
    [ { Circuit.gate = Gate.H; qubits = [| 5 |] };
      { Circuit.gate = Gate.CX; qubits = [| 0 |] };
      { Circuit.gate = Gate.CX; qubits = [| 1; 1 |] } ]
  in
  let report = Runner.run (Rule.of_instrs ~n:2 instrs) in
  Alcotest.(check bool) "has errors" true (Runner.has_errors report);
  Alcotest.(check (option (pair int int))) "bounds span" (Some (0, 0))
    (span_of "PQC001" report);
  Alcotest.(check (option (pair int int))) "arity span" (Some (1, 1))
    (span_of "PQC002" report);
  Alcotest.(check (option (pair int int))) "duplicate span" (Some (2, 2))
    (span_of "PQC003" report);
  Alcotest.(check bool) "structural rules skipped" true
    report.Runner.skipped_structural

let test_clean_circuit_reports_nothing () =
  let c = Pqc_vqe.Uccsd.ansatz Pqc_vqe.Molecule.h2 in
  let report = Runner.analyze ~theta_len:3 c in
  Alcotest.(check int) "no errors" 0 report.Runner.errors;
  Alcotest.(check int) "no warnings" 0 report.Runner.warnings;
  Alcotest.(check bool) "structural ran" false report.Runner.skipped_structural;
  Alcotest.(check int) "exit code" 0 (Runner.exit_code report)

(* --- parameter rules --- *)

let test_non_finite_angle () =
  let c = Circuit.of_gates 1 [ (Gate.Rx (Param.const Float.nan), [ 0 ]) ] in
  let report = Runner.analyze c in
  Alcotest.(check bool) "flagged" true (has_rule "PQC010" report);
  Alcotest.(check bool) "is error" true (Runner.has_errors report)

(* NaN != NaN under IEEE [=]: the reconcile checks of PQC021 and PQC022
   must still find a NaN rotation equal to its copy in the slices, so the
   real PQC010 error comes alone. *)
let test_nan_angle_reconciles () =
  let c =
    Pqc_quantum.Qasm.of_qasm
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\n\
       rx(1e400-1e400) q[0];\ncx q[0],q[1];\n"
  in
  let report = Runner.analyze c in
  Alcotest.(check bool) "PQC010 flagged" true (has_rule "PQC010" report);
  Alcotest.(check bool) "no PQC021" false (has_rule "PQC021" report);
  Alcotest.(check bool) "no PQC022" false (has_rule "PQC022" report)

let test_unbound_param () =
  let c = Circuit.of_gates 1 [ (Gate.Rz (Param.var 2), [ 0 ]) ] in
  let short = Runner.analyze ~theta_len:1 c in
  Alcotest.(check (option (pair int int))) "span" (Some (0, 0))
    (span_of "PQC011" short);
  let ok = Runner.analyze ~theta_len:3 c in
  Alcotest.(check bool) "covered is clean" false (has_rule "PQC011" ok)

(* --- slicing invariants --- *)

let non_monotone =
  Circuit.of_gates 1
    [ (Gate.Rz (Param.var 0), [ 0 ]); (Gate.Rz (Param.var 1), [ 0 ]);
      (Gate.Rz (Param.var 0), [ 0 ]) ]

let test_monotonicity_violation_detected () =
  let report = Runner.analyze ~theta_len:2 non_monotone in
  Alcotest.(check bool) "error without target" true (Runner.has_errors report);
  Alcotest.(check (option (pair int int))) "span is the reopening gate"
    (Some (2, 2))
    (span_of "PQC020" report)

let test_monotonicity_severity_by_target () =
  let severity target =
    let r = Runner.analyze ~theta_len:2 ~target non_monotone in
    match diags_of "PQC020" r with
    | d :: _ -> Some d.Diagnostic.severity
    | [] -> None
  in
  Alcotest.(check bool) "fatal for flexible" true
    (severity Rule.Flexible_partial = Some Diagnostic.Error);
  Alcotest.(check bool) "advisory for strict" true
    (severity Rule.Strict_partial = Some Diagnostic.Warning);
  Alcotest.(check bool) "advisory for gate-based" true
    (severity Rule.Gate_based = Some Diagnostic.Warning)

let test_slice_rules_pass_on_benchmarks () =
  List.iter
    (fun c ->
      let report = Runner.analyze c in
      Alcotest.(check bool) "PQC021 silent" false (has_rule "PQC021" report);
      Alcotest.(check bool) "PQC022 silent" false (has_rule "PQC022" report))
    [ Pqc_vqe.Uccsd.ansatz Pqc_vqe.Molecule.h2;
      Pqc_vqe.Uccsd.ansatz Pqc_vqe.Molecule.lih;
      Pqc_qaoa.Qaoa.circuit (Pqc_qaoa.Graph.clique 4) ~p:2 ]

let slice_of n gates = { Slice.var = None; circuit = Circuit.of_gates n gates }

let test_reconcile_predicate () =
  let c = Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.X, [ 1 ]) ] in
  (* Same total count, but q0 gained a gate and q1 lost one: a mismatch
     to report, not a crash of the rule. *)
  let lost_and_gained = [ slice_of 2 [ (Gate.H, [ 0 ]); (Gate.H, [ 0 ]) ] ] in
  List.iter
    (fun linear ->
      Alcotest.(check bool)
        (Printf.sprintf "linear %b: shifted gate rejected" linear)
        false
        (Rules.slice_reconciles ~linear c lost_and_gained))
    [ false; true ];
  (* Across qubits the order may change; on each qubit it may not. *)
  let reordered =
    [ slice_of 2 [ (Gate.X, [ 1 ]) ]; slice_of 2 [ (Gate.H, [ 0 ]) ] ]
  in
  Alcotest.(check bool) "region: per-qubit order kept" true
    (Rules.slice_reconciles ~linear:false c reordered);
  Alcotest.(check bool) "linear: reordering rejected" false
    (Rules.slice_reconciles ~linear:true c reordered);
  Alcotest.(check bool) "region: missing gate rejected" false
    (Rules.slice_reconciles ~linear:false c [ slice_of 2 [ (Gate.H, [ 0 ]) ] ])

(* Random circuits over widths 1..[max_qubits], with a small parameter
   pool so runs collide and break monotonicity often, and constant
   rotations (zero and pi) for the lint rules. *)
let gen_circuit ~max_qubits ~max_len =
  QCheck.Gen.(
    int_range 1 max_qubits >>= fun n ->
    int_range 0 max_len >>= fun len ->
    let qubit = int_range 0 (n - 1) in
    let gate_1q =
      oneof
        [ return Gate.H; return Gate.X; return Gate.T; return Gate.S;
          map (fun v -> Gate.Rz (Param.var v)) (int_range 0 3);
          map (fun v -> Gate.Rx (Param.var v)) (int_range 0 3);
          map (fun v -> Gate.Ry (Param.var v)) (int_range 0 3);
          map
            (fun a -> Gate.Rz (Param.const a))
            (oneofl [ 0.0; Float.pi; 0.3 ]) ]
    in
    let instr =
      if n = 1 then map2 (fun g q -> (g, [ q ])) gate_1q qubit
      else
        frequency
          [ (3, map2 (fun g q -> (g, [ q ])) gate_1q qubit);
            ( 2,
              qubit >>= fun a ->
              int_range 0 (n - 2) >>= fun b' ->
              let b = if b' >= a then b' + 1 else b' in
              oneofl [ Gate.CX; Gate.CZ; Gate.Swap ] >>= fun g ->
              return (g, [ a; b ]) ) ]
    in
    list_size (return len) instr >>= fun gates ->
    return (Circuit.of_gates n gates))

let print_circuit c = Format.asprintf "%a" Circuit.pp c

let prop_slicings_reconcile =
  QCheck.Test.make ~count:200 ~name:"strict and linear slicings reconcile"
    (QCheck.make ~print:print_circuit (gen_circuit ~max_qubits:6 ~max_len:24))
    (fun c ->
      Rules.slice_reconciles ~linear:false c (Slice.strict c)
      && Rules.slice_reconciles ~linear:true c (Slice.strict_linear c)
      && ((not (Slice.is_monotone c))
         || Rules.slice_reconciles ~linear:true c (Slice.flexible c)))

(* --- blocking and connectivity --- *)

let entangling_chain n =
  Circuit.of_gates n
    (List.init (n - 1) (fun q -> (Gate.CX, [ q; q + 1 ])))

let test_block_width_oversized () =
  let c = entangling_chain 6 in
  let report = Runner.analyze ~max_width:6 c in
  let errors =
    List.filter Diagnostic.is_error (diags_of "PQC030" report)
  in
  (match errors with
  | [ d ] ->
    Alcotest.(check (option (pair int int))) "span covers the chain"
      (Some (0, 4))
      (Option.map (fun (s : Diagnostic.span) -> (s.first, s.last)) d.span)
  | _ -> Alcotest.fail "expected exactly one oversized-block error");
  Alcotest.(check bool) "budget warning too" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Warning)
       (diags_of "PQC030" report))

let test_block_width_within_cap () =
  let report = Runner.analyze ~max_width:4 (entangling_chain 6) in
  Alcotest.(check bool) "silent at cap" false (has_rule "PQC030" report)

let test_block_width_budget_too_small () =
  let report = Runner.analyze ~max_width:1 (entangling_chain 3) in
  Alcotest.(check bool) "budget < 2 is an error" true
    (List.exists Diagnostic.is_error (diags_of "PQC030" report))

let test_connectivity () =
  let c = Circuit.of_gates 3 [ (Gate.CX, [ 0; 2 ]); (Gate.CX, [ 0; 1 ]) ] in
  let report = Runner.analyze ~topology:(Topology.line 3) c in
  Alcotest.(check (option (pair int int))) "non-adjacent pair flagged"
    (Some (0, 0))
    (span_of "PQC031" report);
  Alcotest.(check int) "only the bad gate" 1
    (List.length (diags_of "PQC031" report));
  let no_topo = Runner.analyze c in
  Alcotest.(check bool) "silent without topology" false
    (has_rule "PQC031" no_topo)

(* --- lints --- *)

let test_adjacent_inverse_lint () =
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]); (Gate.H, [ 0 ]) ] in
  let report = Runner.analyze c in
  Alcotest.(check (option (pair int int))) "pair span" (Some (0, 1))
    (span_of "PQC040" report);
  Alcotest.(check int) "advisory only" 0 report.Runner.errors

let test_mergeable_rotation_lint () =
  let c =
    Circuit.of_gates 1
      [ (Gate.Rz (Param.const 0.1), [ 0 ]); (Gate.Rz (Param.const 0.2), [ 0 ]);
        (Gate.Rx (Param.const (4.0 *. Float.pi)), [ 0 ]) ]
  in
  let report = Runner.analyze c in
  let found = diags_of "PQC041" report in
  Alcotest.(check bool) "merge pair found" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.span = Some { Diagnostic.first = 0; last = 1 })
       found);
  Alcotest.(check bool) "dead rotation found" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.span = Some { Diagnostic.first = 2; last = 2 })
       found)

(* --- runner mechanics --- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_crashing_rule_is_contained () =
  let crashing =
    { Rule.id = "TST999"; title = "crash"; doc = "always crashes";
      check = Rule.Structural (fun _ _ -> failwith "boom") }
  in
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
  let report = Runner.run ~rules:(Rules.all @ [ crashing ]) (Rule.of_circuit c) in
  Alcotest.(check (list string)) "no finding under the crashed rule's id" []
    (List.map (fun (d : Diagnostic.t) -> d.message) (diags_of "TST999" report));
  match diags_of "PQC999" report with
  | [ d ] ->
    Alcotest.(check bool) "reported as error" true (Diagnostic.is_error d);
    Alcotest.(check bool) "names the crashed rule" true
      (contains ~sub:"TST999" d.Diagnostic.message);
    Alcotest.(check bool) "carries the exception" true
      (contains ~sub:"boom" d.Diagnostic.message);
    (* The backtrace (or the explicit unavailability marker) follows the
       exception on its own lines. *)
    Alcotest.(check bool) "message is multi-line" true
      (contains ~sub:"\n" d.Diagnostic.message)
  | _ -> Alcotest.fail "crash must surface as exactly one PQC999 diagnostic"

(* The stream pass calls every stream rule once per instruction; a crash
   on one instruction must cost exactly one PQC999 and leave every other
   rule's findings alone. *)
let crash_on_second =
  { Rule.id = "TST998"; title = "crash-on-second";
    doc = "crashes on instruction 1";
    check =
      Rule.Stream
        (fun _ctx ->
          Rule.pure_stream (fun idx _ ->
              if idx = 1 then failwith "stream boom" else [])) }

(* H H is a PQC040 finding, so the clean run has something to compare. *)
let h_h_cx =
  Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]) ]

let test_crashing_stream_rule_is_contained () =
  let clean = Runner.run (Rule.of_circuit h_h_cx) in
  let crashed =
    Runner.run ~rules:(Rules.all @ [ crash_on_second ]) (Rule.of_circuit h_h_cx)
  in
  (match diags_of "PQC999" crashed with
  | [ d ] ->
    Alcotest.(check bool) "names the crashed rule" true
      (contains ~sub:"TST998" d.Diagnostic.message);
    Alcotest.(check bool) "carries the exception" true
      (contains ~sub:"stream boom" d.Diagnostic.message);
    Alcotest.(check bool) "message is multi-line" true
      (contains ~sub:"\n" d.Diagnostic.message)
  | ds ->
    Alcotest.fail
      (Printf.sprintf "expected exactly one PQC999, got %d" (List.length ds)));
  let others (r : Runner.report) =
    List.filter_map
      (fun (d : Diagnostic.t) ->
        if d.rule = "PQC999" then None else Some (Diagnostic.to_string d))
      r.diagnostics
  in
  Alcotest.(check bool) "the clean run has findings" true (others clean <> []);
  Alcotest.(check (list string)) "other rules' findings unchanged"
    (others clean) (others crashed)

(* Runner.run turns backtrace recording on for the run and must hand the
   caller's setting back, whether or not a rule crashed. *)
let test_backtrace_status_restored () =
  let initial = Printexc.backtrace_status () in
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace initial)
  @@ fun () ->
  List.iter
    (fun (recording, crash) ->
      Printexc.record_backtrace recording;
      let rules =
        if crash then Rules.all @ [ crash_on_second ] else Rules.all
      in
      let report = Runner.run ~rules (Rule.of_circuit h_h_cx) in
      let what = Printf.sprintf "recording %b, crash %b" recording crash in
      Alcotest.(check bool) (what ^ ": restored") recording
        (Printexc.backtrace_status ());
      Alcotest.(check bool) (what ^ ": PQC999 iff a rule crashed") crash
        (has_rule "PQC999" report))
    [ (false, false); (true, false); (false, true); (true, true) ]

let test_duplicate_rule_rejected () =
  let dup =
    { Rule.id = "PQC020"; title = "imposter"; doc = "duplicate id";
      check = Rule.Structural (fun _ _ -> []) }
  in
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
  (match Runner.run ~rules:(Rules.all @ [ dup ]) (Rule.of_circuit c) with
  | _ -> Alcotest.fail "duplicate rule id must be rejected"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the id" true (contains ~sub:"PQC020" msg))

let test_overrides () =
  (* non_monotone trips PQC020 (error, lint target) and PQC060/PQC061. *)
  let base = Runner.analyze ~theta_len:2 non_monotone in
  Alcotest.(check bool) "baseline has errors" true (Runner.has_errors base);
  let off =
    Runner.analyze ~overrides:[ ("PQC020", Runner.Off) ] ~theta_len:2
      non_monotone
  in
  Alcotest.(check int) "PQC020 findings suppressed" 0
    (List.length (diags_of "PQC020" off));
  Alcotest.(check bool) "suppressed counted" true (off.Runner.suppressed > 0);
  Alcotest.(check int) "totals exclude suppressed"
    (List.length off.Runner.diagnostics)
    (off.Runner.errors + off.Runner.warnings + off.Runner.infos);
  let demoted =
    Runner.analyze
      ~overrides:[ ("PQC020", Runner.Severity Diagnostic.Info) ]
      ~theta_len:2 non_monotone
  in
  List.iter
    (fun (d : Diagnostic.t) ->
      Alcotest.(check bool) "demoted to info" true
        (d.severity = Diagnostic.Info))
    (diags_of "PQC020" demoted);
  let promoted =
    Runner.analyze
      ~overrides:[ ("PQC060", Runner.Severity Diagnostic.Error) ]
      ~theta_len:2 non_monotone
  in
  List.iter
    (fun (d : Diagnostic.t) ->
      Alcotest.(check bool) "promoted to error" true (Diagnostic.is_error d))
    (diags_of "PQC060" promoted)

let test_parse_overrides () =
  (match Runner.parse_overrides "PQC040=off, -PQC041 ,PQC030=error" with
  | Ok
      [ ("PQC040", Runner.Off); ("PQC041", Runner.Off);
        ("PQC030", Runner.Severity Diagnostic.Error) ] ->
    ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e);
  (match Runner.parse_overrides "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty spec must parse to no overrides");
  (match Runner.parse_overrides "PQC030=fatal" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown level must be rejected");
  match Runner.parse_overrides "PQC040" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bare id without '-' or '=' must be rejected"

let test_check_raises_rejected () =
  (match Runner.check ~theta_len:2 non_monotone with
  | _ -> Alcotest.fail "must raise"
  | exception Runner.Rejected report ->
    Alcotest.(check bool) "report has errors" true (Runner.has_errors report));
  let clean = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
  Alcotest.(check int) "clean passes" 0 (Runner.check clean).Runner.errors

let test_registry () =
  Alcotest.(check int) "catalog size" 16 (List.length (Rules.catalog ()));
  Alcotest.(check bool) "find by id" true (Rules.find "PQC020" <> None);
  Alcotest.(check bool) "find by title" true
    (Rules.find "param-monotonicity" <> None);
  Alcotest.(check bool) "unknown" true (Rules.find "PQC999" = None)

(* --- cache audit --- *)

let temp_path () = Filename.temp_file "pqc_analysis" ".cache"

let sample_entries =
  [ { Pulse_cache.key = "blk[0,1]|cx 0,1"; duration_ns = 12.5; grape_runs = 3;
      grape_iterations = 120; seconds = 0.4; fidelity = Some 0.999;
      fallback = None; run_id = None };
    { Pulse_cache.key = "blk[2]|h 2"; duration_ns = 4.0; grape_runs = 1;
      grape_iterations = 40; seconds = 0.1; fidelity = None;
      fallback = Some "diverged"; run_id = None } ]

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

(* Pins the standalone scanner in pqc_analysis to the real on-disk format
   written by Pqc_core.Pulse_cache: a freshly saved cache must audit
   clean.  If the two implementations ever drift, this test fails. *)
let test_cache_audit_accepts_real_cache () =
  let path = temp_path () in
  Pulse_cache.save ~path sample_entries;
  let findings = Cache_audit.audit ~path in
  Sys.remove path;
  Alcotest.(check (list string)) "clean audit" []
    (List.map Diagnostic.to_string findings)

let test_cache_audit_detects_corruption () =
  let path = temp_path () in
  Pulse_cache.save ~path sample_entries;
  (match read_lines path with
  | header :: record :: rest ->
    let corrupt = String.map (fun c -> if c = 'b' then 'X' else c) record in
    write_lines path (header :: corrupt :: rest)
  | _ -> Alcotest.fail "expected header + records");
  let findings = Cache_audit.audit ~path in
  Sys.remove path;
  match List.filter Diagnostic.is_error findings with
  | [ d ] ->
    Alcotest.(check string) "rule id" "PQC050" d.Diagnostic.rule;
    Alcotest.(check (option (pair int int))) "line span" (Some (2, 2))
      (Option.map (fun (s : Diagnostic.span) -> (s.first, s.last))
         d.Diagnostic.span)
  | _ -> Alcotest.fail "expected exactly one checksum error"

let test_cache_audit_bad_header () =
  let path = temp_path () in
  Pulse_cache.save ~path sample_entries;
  (match read_lines path with
  | _ :: rest -> write_lines path ("PQC-PULSE-CACHE v9" :: rest)
  | [] -> Alcotest.fail "empty cache file");
  let findings = Cache_audit.audit ~path in
  Sys.remove path;
  Alcotest.(check bool) "version mismatch is an error" true
    (List.exists Diagnostic.is_error findings)

let test_cache_audit_duplicate_key () =
  let path = temp_path () in
  Pulse_cache.save ~path sample_entries;
  (match read_lines path with
  | header :: record :: rest ->
    write_lines path ((header :: record :: rest) @ [ record ])
  | _ -> Alcotest.fail "expected header + records");
  let findings = Cache_audit.audit ~path in
  Sys.remove path;
  Alcotest.(check bool) "duplicate key warned" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Warning)
       findings)

let test_cache_audit_missing_file () =
  let findings = Cache_audit.audit ~path:"/nonexistent/pqc.cache" in
  Alcotest.(check bool) "missing file is a warning, not an error" true
    (findings <> [] && not (List.exists Diagnostic.is_error findings))

(* --- the Compiler.compile gate --- *)

let test_compile_rejects_flexible_on_non_monotone () =
  match
    Compiler.compile ~engine:Engine.model Compiler.Flexible_partial
      non_monotone ~theta:[| 0.1; 0.2 |]
  with
  | _ -> Alcotest.fail "compile must refuse before GRAPE"
  | exception Runner.Rejected report ->
    Alcotest.(check bool) "monotonicity error in report" true
      (List.exists
         (fun (d : Diagnostic.t) -> d.rule = "PQC020" && Diagnostic.is_error d)
         report.Runner.diagnostics)

let test_compile_records_lint_warnings () =
  let r =
    Compiler.compile ~engine:Engine.model Compiler.Strict_partial non_monotone
      ~theta:[| 0.1; 0.2 |]
  in
  Alcotest.(check bool) "degraded accounting" true (Strategy.degraded r);
  Alcotest.(check bool) "lint degradation recorded" true
    (List.exists
       (fun (d : Resilience.degradation) ->
         d.Resilience.stage = "analysis" && d.Resilience.reason = Resilience.Lint)
       r.Strategy.degradations)

let test_compile_rejects_unbound_param () =
  let c = Circuit.of_gates 1 [ (Gate.Rz (Param.var 5), [ 0 ]) ] in
  match
    Compiler.compile ~engine:Engine.model Compiler.Gate_based c ~theta:[| 0.1 |]
  with
  | _ -> Alcotest.fail "compile must refuse an uncoverable binding"
  | exception Runner.Rejected report ->
    Alcotest.(check bool) "PQC011 error" true
      (List.exists
         (fun (d : Diagnostic.t) -> d.rule = "PQC011")
         report.Runner.diagnostics)

(* The gate skips the rules outside Rules.gate.  That is sound only if
   those rules never report above Info and the gate's errors and warnings
   are exactly what the full catalog reports. *)
let gate_decides_as_all ~theta_len ~max_width ~target c =
  let gate_ids = List.map (fun (r : Rule.t) -> r.id) Rules.gate in
  let full = Runner.analyze ~theta_len ~max_width ~target c in
  let gated =
    Runner.analyze ~rules:Rules.gate ~theta_len ~max_width ~target c
  in
  let blocking (r : Runner.report) =
    List.filter_map
      (fun (d : Diagnostic.t) ->
        if d.severity = Diagnostic.Info then None
        else Some (Diagnostic.to_string d))
      r.diagnostics
  in
  List.for_all
    (fun (d : Diagnostic.t) ->
      List.mem d.rule gate_ids || d.severity = Diagnostic.Info)
    full.Runner.diagnostics
  && blocking full = blocking gated

let targets =
  [ Rule.Gate_based; Rule.Strict_partial; Rule.Flexible_partial;
    Rule.Full_grape ]

let prop_gate_decides_as_all =
  let gen =
    QCheck.Gen.(
      gen_circuit ~max_qubits:6 ~max_len:20 >>= fun c ->
      bool >>= fun short ->
      int_range 2 6 >>= fun max_width ->
      oneofl targets >>= fun target ->
      let theta_len = max 0 (Circuit.n_params c - if short then 1 else 0) in
      return (c, theta_len, max_width, target))
  in
  let print (c, theta_len, max_width, target) =
    Printf.sprintf "%s\ntheta_len %d, max_width %d, target %s"
      (print_circuit c) theta_len max_width (Rule.target_to_string target)
  in
  QCheck.Test.make ~count:300 ~name:"gate rules decide as all rules"
    (QCheck.make ~print gen)
    (fun (c, theta_len, max_width, target) ->
      gate_decides_as_all ~theta_len ~max_width ~target c)

let test_gate_decides_as_all_on_fixtures () =
  let dir = "../examples/fixtures" in
  let circuits =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun f ->
           if not (Filename.check_suffix f ".qasm") then None
           else
             let ic = open_in (Filename.concat dir f) in
             let src = really_input_string ic (in_channel_length ic) in
             close_in ic;
             match Pqc_quantum.Qasm.of_qasm src with
             | c -> Some (f, c)
             | exception Pqc_quantum.Qasm.Parse_error _ -> None)
  in
  Alcotest.(check bool) "several fixtures parse" true
    (List.length circuits >= 4);
  List.iter
    (fun (f, c) ->
      let n_params = Circuit.n_params c in
      List.iter
        (fun theta_len ->
          for max_width = 2 to 6 do
            List.iter
              (fun target ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s theta_len %d max_width %d %s" f theta_len
                     max_width (Rule.target_to_string target))
                  true
                  (gate_decides_as_all ~theta_len ~max_width ~target c))
              targets
          done)
        (List.sort_uniq compare [ n_params; max 0 (n_params - 1) ]))
    circuits

(* Neither the gate-based strategy nor the gate at the default width
   partitions the circuit: PQC030 has nothing to find at or below the
   GRAPE cap, and PQC062 is not a gate rule. *)
let test_gate_skips_partition_at_cap () =
  let module Obs = Pqc_obs.Obs in
  let c = Compiler.prepare (Pqc_vqe.Uccsd.ansatz Pqc_vqe.Molecule.lih) in
  let theta = Cost.canonical_theta c in
  Obs.reset ();
  Obs.enable ();
  let rollup =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        ignore
          (Compiler.compile ~max_width:4 ~engine:Engine.model
             Compiler.Gate_based c ~theta);
        Obs.rollup ())
  in
  let calls name =
    List.fold_left
      (fun acc (n, k, _) -> if n = name then acc + k else acc)
      0 rollup
  in
  Alcotest.(check int) "the gate ran" 1 (calls "compiler.analysis");
  Alcotest.(check int) "no block.partition span" 0 (calls "block.partition")

(* --- dataflow/cost rules (PQC06x) --- *)

let test_commutation_reslice_rule () =
  (* non_monotone is all-Rz, hence fully commuting: reslicable. *)
  let report = Runner.analyze ~theta_len:2 non_monotone in
  Alcotest.(check bool) "PQC060 fires" true (has_rule "PQC060" report);
  (* An H pins the Rz order: t0's run genuinely cannot be made
     contiguous, so the rule must stay silent. *)
  let pinned =
    Circuit.of_gates 1
      [ (Gate.Rz (Param.var 0), [ 0 ]); (Gate.H, [ 0 ]);
        (Gate.Rz (Param.var 1), [ 0 ]); (Gate.H, [ 0 ]);
        (Gate.Rz (Param.var 0), [ 0 ]) ]
  in
  let report = Runner.analyze ~theta_len:2 pinned in
  Alcotest.(check bool) "PQC060 silent when not reslicable" false
    (has_rule "PQC060" report)

let test_dead_parameter_rule () =
  let c =
    Circuit.of_gates 2
      [ (Gate.Rx (Param.var 0), [ 0 ]); (Gate.CX, [ 0; 1 ]);
        (Gate.Rz (Param.var 1), [ 1 ]) ]
  in
  let report = Runner.analyze ~theta_len:2 c in
  (match diags_of "PQC061" report with
  | [ d ] ->
    Alcotest.(check bool) "names t1" true
      (contains ~sub:"t1" d.Diagnostic.message);
    Alcotest.(check (option (pair int int))) "span is the dead gate"
      (Some (2, 2)) (span_of "PQC061" report)
  | ds ->
    Alcotest.fail
      (Printf.sprintf "expected exactly one PQC061, got %d" (List.length ds)));
  (* An X basis change after the Rz keeps the parameter live. *)
  let live =
    Circuit.of_gates 1
      [ (Gate.Rz (Param.var 0), [ 0 ]); (Gate.H, [ 0 ]) ]
  in
  Alcotest.(check bool) "live param is silent" false
    (has_rule "PQC061" (Runner.analyze ~theta_len:1 live))

let test_block_beats_grape_rule () =
  (* Two Rz(pi) on one qubit: the modelled GRAPE time equals the lookup
     table exactly (both are pure Z-drive content), so pulses buy
     nothing. *)
  let tie =
    Circuit.of_gates 1
      [ (Gate.Rz (Param.const Float.pi), [ 0 ]);
        (Gate.Rz (Param.const Float.pi), [ 0 ]) ]
  in
  Alcotest.(check bool) "PQC062 fires on a no-win block" true
    (has_rule "PQC062" (Runner.analyze tie));
  (* Bell pair: GRAPE compresses H+CX well below the table. *)
  let bell = Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]) ] in
  Alcotest.(check bool) "PQC062 silent when GRAPE wins" false
    (has_rule "PQC062" (Runner.analyze bell))

(* --- the strategy advisor --- *)

let prepared_h2 = Compiler.prepare (Pqc_vqe.Uccsd.ansatz Pqc_vqe.Molecule.h2)

(* The advisor compiles each strategy on the model engine, so its
   estimates are exactly what a model compile reports, bit for bit. *)
let test_cost_matches_model_compiler () =
  let bits = Int64.bits_of_float in
  List.iter
    (fun spec ->
      let c =
        match Pqc_core.Bench_matrix.circuit_of_spec spec with
        | Ok c -> Compiler.prepare c
        | Error e -> Alcotest.fail e
      in
      let theta = Cost.canonical_theta c in
      let advice = Compiler.advise c in
      List.iter
        (fun (e : Cost.estimate) ->
          let r = Compiler.compile ~engine:Engine.model e.target c ~theta in
          let name = spec ^ " " ^ Compiler.strategy_name e.target in
          Alcotest.(check (option string)) (name ^ " feasible") None
            e.infeasible;
          Alcotest.(check int64) (name ^ " pulse")
            (bits r.Strategy.duration_ns) (bits e.pulse_ns);
          Alcotest.(check int64) (name ^ " precompute")
            (bits r.Strategy.precompute.Engine.seconds) (bits e.precompute_s);
          Alcotest.(check int64) (name ^ " per-iteration")
            (bits r.Strategy.per_iteration.Engine.seconds)
            (bits e.per_iteration_s);
          Alcotest.(check int) (name ^ " blocks")
            (List.length
               (List.filter
                  (function
                    | Pqc_pulse.Pulse.Optimized _ -> true
                    | Pqc_pulse.Pulse.Lookup _ -> false)
                  (Pqc_pulse.Pulse.segments r.Strategy.pulse)))
            e.blocks)
        advice.Cost.estimates)
    [ "h2"; "lih"; "3reg6p1" ]

(* Neither the worker count nor an active fault plan reaches the advice,
   and the caller's plan is back in place afterwards. *)
let test_advise_ignores_workers_and_faults () =
  let advice () = Cost.advice_to_json (Compiler.advise prepared_h2) in
  let reference = advice () in
  let old = Sys.getenv_opt "PQC_WORKERS" in
  Unix.putenv "PQC_WORKERS" "4";
  let under_workers =
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "PQC_WORKERS" (Option.value old ~default:""))
      advice
  in
  Alcotest.(check string) "PQC_WORKERS=4" reference under_workers;
  let spec = "seed=1,nan=1,no-converge=1,stall=1" in
  let plan =
    match Pqc_core.Fault.parse spec with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Pqc_core.Fault.set (Some plan);
  Fun.protect ~finally:Pqc_core.Fault.clear (fun () ->
      Alcotest.(check string) "under an active fault plan" reference
        (advice ());
      Alcotest.(check (option string)) "plan still active"
        (Some (Pqc_core.Fault.to_string plan))
        (Option.map Pqc_core.Fault.to_string (Pqc_core.Fault.current ())))

(* A block over the GRAPE cap: every strategy that would run GRAPE on it
   refuses, so only gate-based is feasible. *)
let test_advise_wide_block_infeasible () =
  let path = "../examples/fixtures/bad_wide_block.qasm" in
  let c =
    Pqc_quantum.Qasm.of_qasm (In_channel.with_open_text path In_channel.input_all)
  in
  let advice = Compiler.advise ~max_width:6 c in
  List.iter
    (fun (e : Cost.estimate) ->
      Alcotest.(check bool)
        (Compiler.strategy_name e.target ^ " infeasible")
        (e.target <> Compiler.Gate_based) (e.infeasible <> None))
    advice.Cost.estimates;
  Alcotest.(check string) "recommends gate-based" "gate-based"
    (Compiler.strategy_name advice.Cost.recommended)

(* The advisor's predicted pulse-duration ordering must reproduce the
   measured ordering in the committed numeric baseline: the rollup of
   bench/workloads/numeric.json. *)
let test_ranking_matches_committed_baseline () =
  match
    Pqc_core.Bench_report.read ~path:"../bench/workloads/numeric.rollup.json"
  with
  | Error e -> Alcotest.fail e
  | Ok report ->
    let target_of = function
      | "gate-based" -> Rule.Gate_based
      | "strict-partial" -> Rule.Strict_partial
      | "flexible-partial" -> Rule.Flexible_partial
      | "full-grape" -> Rule.Full_grape
      | s -> Alcotest.fail ("unknown strategy in baseline: " ^ s)
    in
    (* A cell name starts with its workload spec: "h2+line+w2+fp0". *)
    let circuit_of name =
      let spec = List.hd (String.split_on_char '+' name) in
      match Pqc_core.Bench_matrix.circuit_of_spec spec with
      | Ok c -> Compiler.prepare c
      | Error e -> Alcotest.fail e
    in
    let rows =
      List.map
        (fun (x : Pqc_core.Bench_report.experiment) ->
          let c = circuit_of x.name in
          let e =
            List.find
              (fun (e : Cost.estimate) -> e.target = target_of x.strategy)
              (Compiler.advise c).Cost.estimates
          in
          (x.name, e.Cost.pulse_ns, x.pulse_duration_ns))
        report.Pqc_core.Bench_report.experiments
    in
    Alcotest.(check bool) "baseline has experiments" true (rows <> []);
    List.iter
      (fun (na, pa, ma) ->
        List.iter
          (fun (nb, pb, mb) ->
            if ma <> mb then
              Alcotest.(check bool)
                (Printf.sprintf "%s vs %s: predicted order matches measured"
                   na nb)
                true
                (compare pa pb = compare ma mb))
          rows)
      rows

let test_advise_deterministic () =
  let a = Cost.advice_to_json (Compiler.advise prepared_h2) in
  let b = Cost.advice_to_json (Compiler.advise prepared_h2) in
  Alcotest.(check string) "two runs, same advice" a b

let () =
  Alcotest.run "analysis"
    [ ( "diagnostic",
        [ Alcotest.test_case "ordering" `Quick test_diagnostic_ordering;
          Alcotest.test_case "json" `Quick test_diagnostic_json ] );
      ( "validity",
        [ Alcotest.test_case "malformed stream" `Quick
            test_validity_rules_on_malformed_stream;
          Alcotest.test_case "clean circuit" `Quick
            test_clean_circuit_reports_nothing ] );
      ( "parameters",
        [ Alcotest.test_case "non-finite angle" `Quick test_non_finite_angle;
          Alcotest.test_case "NaN angle reconciles" `Quick
            test_nan_angle_reconciles;
          Alcotest.test_case "unbound param" `Quick test_unbound_param ] );
      ( "slicing",
        [ Alcotest.test_case "monotonicity violation" `Quick
            test_monotonicity_violation_detected;
          Alcotest.test_case "severity by target" `Quick
            test_monotonicity_severity_by_target;
          Alcotest.test_case "benchmarks pass" `Quick
            test_slice_rules_pass_on_benchmarks;
          Alcotest.test_case "reconcile predicate" `Quick
            test_reconcile_predicate;
          QCheck_alcotest.to_alcotest prop_slicings_reconcile ] );
      ( "blocking",
        [ Alcotest.test_case "oversized block" `Quick test_block_width_oversized;
          Alcotest.test_case "within cap" `Quick test_block_width_within_cap;
          Alcotest.test_case "budget too small" `Quick
            test_block_width_budget_too_small;
          Alcotest.test_case "connectivity" `Quick test_connectivity ] );
      ( "lint",
        [ Alcotest.test_case "adjacent inverse" `Quick test_adjacent_inverse_lint;
          Alcotest.test_case "mergeable rotation" `Quick
            test_mergeable_rotation_lint ] );
      ( "runner",
        [ Alcotest.test_case "crashing rule contained" `Quick
            test_crashing_rule_is_contained;
          Alcotest.test_case "crashing stream rule contained" `Quick
            test_crashing_stream_rule_is_contained;
          Alcotest.test_case "backtrace status restored" `Quick
            test_backtrace_status_restored;
          Alcotest.test_case "duplicate rule rejected" `Quick
            test_duplicate_rule_rejected;
          Alcotest.test_case "overrides" `Quick test_overrides;
          Alcotest.test_case "parse overrides" `Quick test_parse_overrides;
          Alcotest.test_case "check raises" `Quick test_check_raises_rejected;
          Alcotest.test_case "registry" `Quick test_registry ] );
      ( "cache-audit",
        [ Alcotest.test_case "accepts real cache" `Quick
            test_cache_audit_accepts_real_cache;
          Alcotest.test_case "detects corruption" `Quick
            test_cache_audit_detects_corruption;
          Alcotest.test_case "bad header" `Quick test_cache_audit_bad_header;
          Alcotest.test_case "duplicate key" `Quick
            test_cache_audit_duplicate_key;
          Alcotest.test_case "missing file" `Quick
            test_cache_audit_missing_file ] );
      ( "compile-gate",
        [ Alcotest.test_case "rejects non-monotone flexible" `Quick
            test_compile_rejects_flexible_on_non_monotone;
          Alcotest.test_case "records lint warnings" `Quick
            test_compile_records_lint_warnings;
          Alcotest.test_case "rejects unbound param" `Quick
            test_compile_rejects_unbound_param;
          QCheck_alcotest.to_alcotest prop_gate_decides_as_all;
          Alcotest.test_case "gate rules on fixtures" `Quick
            test_gate_decides_as_all_on_fixtures;
          Alcotest.test_case "no partition at the cap" `Quick
            test_gate_skips_partition_at_cap ] );
      ( "dataflow-rules",
        [ Alcotest.test_case "commutation reslice" `Quick
            test_commutation_reslice_rule;
          Alcotest.test_case "dead parameter" `Quick test_dead_parameter_rule;
          Alcotest.test_case "block beats grape" `Quick
            test_block_beats_grape_rule ] );
      ( "advisor",
        [ Alcotest.test_case "cost matches model compiler" `Quick
            test_cost_matches_model_compiler;
          Alcotest.test_case "ignores workers and faults" `Quick
            test_advise_ignores_workers_and_faults;
          Alcotest.test_case "wide block infeasible" `Quick
            test_advise_wide_block_infeasible;
          Alcotest.test_case "ranking matches baseline" `Quick
            test_ranking_matches_committed_baseline;
          Alcotest.test_case "deterministic" `Quick
            test_advise_deterministic ] ) ]
