(* Run-level observability: per-iteration JSONL run logs, the Jsonx
   reader underneath the bench tooling, Bench_report round-trips and its
   schema-version check, and the bench diff regression gate. *)

module Jsonx = Pqc_util.Jsonx
module Obs = Pqc_obs.Obs
module Run_log = Pqc_obs.Run_log
module Circuit = Pqc_quantum.Circuit
module Gate = Pqc_quantum.Gate
module Bench_report = Pqc_core.Bench_report
module Bench_diff = Pqc_core.Bench_diff

let with_temp_file f =
  let path = Filename.temp_file "pqc_run" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let with_env key value f =
  let old = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv key (Option.value old ~default:""))
    f

let demo_info =
  { Run_log.strategy = "strict-partial"; precompute_s = 1.5;
    compile_latency_s = 0.004; pulse_duration_ns = 120.0;
    gate_duration_ns = 240.0; cache_hits = 3; degradations = 0 }

(* --- Jsonx --- *)

let test_jsonx_basics () =
  let doc =
    {|{"s": "aé\"b", "n": -1.5e2, "b": true, "nul": null,
       "arr": [1, 2, 3], "obj": {"k": 0}}|}
  in
  match Jsonx.parse doc with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
    Alcotest.(check (option string)) "string with escapes"
      (Some "a\xc3\xa9\"b")
      (Option.bind (Jsonx.member "s" j) Jsonx.to_string);
    Alcotest.(check (option (float 0.0))) "number" (Some (-150.0))
      (Option.bind (Jsonx.member "n" j) Jsonx.to_float);
    Alcotest.(check (option bool)) "bool" (Some true)
      (Option.bind (Jsonx.member "b" j) Jsonx.to_bool);
    Alcotest.(check bool) "null reads as nan" true
      (match Option.bind (Jsonx.member "nul" j) Jsonx.to_float with
      | Some v -> Float.is_nan v
      | None -> false);
    Alcotest.(check (option int)) "array length" (Some 3)
      (Option.map List.length
         (Option.bind (Jsonx.member "arr" j) Jsonx.to_list));
    Alcotest.(check bool) "trailing garbage rejected" true
      (match Jsonx.parse "{} extra" with Error _ -> true | Ok _ -> false);
    Alcotest.(check bool) "unterminated rejected" true
      (match Jsonx.parse "[1, 2" with Error _ -> true | Ok _ -> false)

(* Jsonx.number keeps every bit: a finite double, drawn as raw bits so
   subnormals and extreme exponents turn up, parses back to itself.  The
   edge cases ride along on every run: both zeros, the smallest
   subnormal, the largest subnormal, 1e308, the extremes, and the
   flexible pulse of 3reg6p1 that %.9g rounded to 93.2641182. *)
let prop_jsonx_number_round_trip =
  let edges =
    [ 0.0; -0.0; 4.9e-324; -4.9e-324; 2.2250738585072009e-308; 1e308;
      -1e308; max_float; -.max_float; min_float; 0.1; 93.264118229642875 ]
  in
  QCheck.Test.make ~count:2000
    ~name:"Jsonx.number round-trips every finite double"
    QCheck.(
      make ~print:(Printf.sprintf "%h")
        Gen.(
          oneof
            [ map Int64.float_of_bits ui64; oneofl edges;
              map (fun x -> x *. 1e-310) float ]))
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match Jsonx.parse (Jsonx.number f) with
      | Ok (Jsonx.Num g) ->
        Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
      | Ok _ | Error _ -> false)

let test_jsonx_number_text () =
  List.iter
    (fun (f, text) ->
      Alcotest.(check string) (Printf.sprintf "%h" f) text (Jsonx.number f))
    [ (93.264118229642875, "93.26411822964288"); (114.7, "114.7");
      (0.1, "0.1"); (-0.0, "-0"); (1e308, "1e+308");
      (4.9e-324, "4.94065645841247e-324"); (Float.nan, "null");
      (Float.infinity, "null"); (Float.neg_infinity, "null") ]

(* --- Run_log --- *)

(* A 200-iteration recorded VQE run: one valid JSONL record per
   objective evaluation, compile context on every line, and — the
   bounded-memory contract — zero growth of the Obs event list no
   matter how many iterations stream through. *)
let test_vqe_run_jsonl () =
  with_temp_file @@ fun path ->
  let m = Option.get (Pqc_vqe.Molecule.find "h2") in
  let prep = Circuit.of_gates 2 [ (Gate.X, [ 0 ]) ] in
  let ansatz = Circuit.concat prep (Pqc_vqe.Uccsd.ansatz m) in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let events_before = List.length (Obs.events ()) in
      let r =
        Run_log.with_log ~info:demo_info ~algo:"vqe" ~label:"H2"
          ~path:(Some path) (fun recorder ->
            Pqc_vqe.Vqe.run ~max_evals:200 ?recorder
              ~hamiltonian:Pqc_vqe.Chemistry.h2 ~ansatz ())
      in
      Alcotest.(check int) "recording pushes no events" events_before
        (List.length (Obs.events ()));
      let lines = read_lines path in
      Alcotest.(check int) "one line per evaluation" r.Pqc_vqe.Vqe.evaluations
        (List.length lines);
      List.iteri
        (fun i line ->
          match Jsonx.parse line with
          | Error e -> Alcotest.failf "line %d is not JSON: %s" (i + 1) e
          | Ok j ->
            Alcotest.(check (option int)) "iteration index" (Some (i + 1))
              (Option.bind (Jsonx.member "iteration" j) Jsonx.to_int);
            Alcotest.(check (option string)) "algo" (Some "vqe")
              (Option.bind (Jsonx.member "algo" j) Jsonx.to_string);
            Alcotest.(check (option string)) "strategy context"
              (Some "strict-partial")
              (Option.bind (Jsonx.member "strategy" j) Jsonx.to_string);
            Alcotest.(check (option (float 1e-9))) "pulse speedup" (Some 2.0)
              (Option.bind (Jsonx.member "pulse_speedup" j) Jsonx.to_float);
            Alcotest.(check bool) "energy is finite" true
              (match Option.bind (Jsonx.member "energy" j) Jsonx.to_float with
              | Some e -> Float.is_finite e
              | None -> false))
        lines)

let test_recorder_never_changes_results () =
  with_temp_file @@ fun path ->
  let m = Option.get (Pqc_vqe.Molecule.find "h2") in
  let prep = Circuit.of_gates 2 [ (Gate.X, [ 0 ]) ] in
  let ansatz = Circuit.concat prep (Pqc_vqe.Uccsd.ansatz m) in
  let run recorder =
    Pqc_vqe.Vqe.run ~max_evals:150 ?recorder
      ~hamiltonian:Pqc_vqe.Chemistry.h2 ~ansatz ()
  in
  let plain = run None in
  let recorded =
    Run_log.with_log ~algo:"vqe" ~label:"H2" ~path:(Some path) run
  in
  Alcotest.(check (float 0.0)) "identical energy" plain.Pqc_vqe.Vqe.energy
    recorded.Pqc_vqe.Vqe.energy;
  Alcotest.(check int) "identical evaluations" plain.Pqc_vqe.Vqe.evaluations
    recorded.Pqc_vqe.Vqe.evaluations;
  Alcotest.(check bool) "identical theta" true
    (plain.Pqc_vqe.Vqe.theta = recorded.Pqc_vqe.Vqe.theta)

let test_qaoa_run_jsonl () =
  with_temp_file @@ fun path ->
  let rng = Pqc_util.Rng.create 1 in
  let g = Pqc_qaoa.Graph.random_regular rng ~degree:3 6 in
  let o =
    Run_log.with_log ~algo:"qaoa" ~label:"3reg6p1" ~path:(Some path)
      (fun recorder -> Pqc_qaoa.Qaoa.optimize ~max_evals:120 ?recorder g ~p:1)
  in
  let lines = read_lines path in
  Alcotest.(check int) "one line per evaluation"
    o.Pqc_qaoa.Qaoa.evaluations (List.length lines);
  let last = List.nth lines (List.length lines - 1) in
  match Jsonx.parse last with
  | Error e -> Alcotest.failf "last line is not JSON: %s" e
  | Ok j ->
    Alcotest.(check (option string)) "algo" (Some "qaoa")
      (Option.bind (Jsonx.member "algo" j) Jsonx.to_string);
    Alcotest.(check bool) "logged energy is the positive cut" true
      (match Option.bind (Jsonx.member "energy" j) Jsonx.to_float with
      | Some e -> e >= 0.0
      | None -> false)

let test_streaming_flush () =
  with_temp_file @@ fun path ->
  let t = Run_log.create ~algo:"vqe" ~label:"x" ~path () in
  Fun.protect
    ~finally:(fun () -> Run_log.close t)
    (fun () ->
      for i = 1 to 3 do
        Run_log.record t ~iteration:i ~energy:(float_of_int i)
      done;
      (* flush_every defaults to 1: all three lines must already be on
         disk while the recorder is still open. *)
      Alcotest.(check int) "records on disk before close" 3
        (List.length (read_lines path));
      Alcotest.(check int) "written" 3 (Run_log.written t));
  Run_log.close t;
  (* idempotent *)
  Alcotest.(check int) "unchanged after close" 3
    (List.length (read_lines path))

let test_path_from_env () =
  with_env "PQC_RUN_LOG" "" (fun () ->
      Alcotest.(check (option string)) "empty is unset" None
        (Run_log.path_from_env ()));
  with_env "PQC_RUN_LOG" "  /tmp/run.jsonl  " (fun () ->
      Alcotest.(check (option string)) "trimmed" (Some "/tmp/run.jsonl")
        (Run_log.path_from_env ()))

let test_run_log_provenance_roundtrip () =
  with_temp_file @@ fun path ->
  let t =
    Run_log.create ~run_id:"r007-cafe#2" ~info:demo_info ~algo:"vqe"
      ~label:"lih" ~path ()
  in
  Fun.protect ~finally:(fun () -> Run_log.close t) (fun () ->
      for i = 1 to 3 do
        Run_log.record t ~iteration:i ~energy:(-.float_of_int i)
      done);
  Run_log.close t;
  let records = Run_log.read_file path in
  Alcotest.(check int) "all records read back" 3 (List.length records);
  List.iteri
    (fun i r ->
      Alcotest.(check (option int)) "seq is the 1-based write count"
        (Some (i + 1)) r.Run_log.r_seq;
      Alcotest.(check (option string)) "run_id round-trips"
        (Some "r007-cafe#2") r.Run_log.r_run_id;
      Alcotest.(check int) "iteration round-trips" (i + 1)
        r.Run_log.r_iteration;
      Alcotest.(check (option string)) "strategy context round-trips"
        (Some "strict-partial") r.Run_log.r_strategy)
    records

let test_run_log_run_id_defaults_to_ambient () =
  with_temp_file @@ fun path ->
  Pqc_obs.Obs.Ctx.with_ctx (Some "r001-ambient") (fun () ->
      Run_log.with_log ~algo:"qaoa" ~label:"g" ~path:(Some path)
        (fun recorder ->
          Run_log.record (Option.get recorder) ~iteration:1 ~energy:0.5));
  match Run_log.read_file path with
  | [ r ] ->
    Alcotest.(check (option string)) "ambient context captured at create"
      (Some "r001-ambient") r.Run_log.r_run_id
  | rs -> Alcotest.failf "expected 1 record, read %d" (List.length rs)

let test_run_log_reader_tolerates_old_records () =
  with_temp_file @@ fun path ->
  (* A pre-provenance line (no seq/run_id — the format before schema
     growth), a torn tail from a crashed writer, and a non-record JSON
     object: the reader keeps the first and skips the rest. *)
  let oc = open_out path in
  output_string oc
    "{\"algo\": \"vqe\", \"label\": \"H2\", \"iteration\": 7, \"energy\": \
     -1.85, \"elapsed_s\": 0.25}\n";
  output_string oc "{\"algo\": \"vqe\", \"label\": \"H2\", \"iter\n";
  output_string oc "{\"note\": \"not a run record\"}\n";
  close_out oc;
  (match Run_log.read_file path with
  | [ r ] ->
    Alcotest.(check string) "algo" "vqe" r.Run_log.r_algo;
    Alcotest.(check int) "iteration" 7 r.Run_log.r_iteration;
    Alcotest.(check (float 1e-9)) "energy" (-1.85) r.Run_log.r_energy;
    Alcotest.(check (option int)) "old record has no seq" None
      r.Run_log.r_seq;
    Alcotest.(check (option string)) "old record has no run_id" None
      r.Run_log.r_run_id
  | rs -> Alcotest.failf "expected 1 tolerated record, read %d"
            (List.length rs));
  Alcotest.(check bool) "torn line parses to None" true
    (Run_log.parse_record "{\"algo\": \"vqe\", \"label\":" = None)

(* --- Bench_report reader --- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let experiment ?(name = "uccsd-h2") ?(pulse = 100.0) ?(equal_pulse = true) ()
    =
  { Bench_report.name; strategy = "strict-partial"; engine = "numeric";
    run_id = "numeric/" ^ name; pulse_duration_ns = pulse; cache_hits = 5;
    blocks_compiled = 7; workers = 4; equal_pulse }

let report experiments = { Bench_report.mode = "fast"; workers = 4; experiments }

let test_report_roundtrip () =
  let t = report [ experiment (); experiment ~name:"weird \"name\"\n" () ] in
  match Bench_report.of_json (Bench_report.to_json t) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok t' -> Alcotest.(check bool) "round-trips exactly" true (t = t')

let test_report_rejects_other_schemas () =
  let doc version =
    Printf.sprintf
      {|{"schema_version": %d, "mode": "fast", "workers": 2, "experiments": [
          {"name": "uccsd-h2", "strategy": "strict-partial",
           "engine": "numeric", "run_id": "", "pulse_duration_ns": 100.0,
           "cache_hits": 5, "blocks_compiled": 7, "workers": 2,
           "equal_pulse": true}]}|}
      version
  in
  Alcotest.(check bool) "current schema reads" true
    (Result.is_ok (Bench_report.of_json (doc Bench_report.schema_version)));
  List.iter
    (fun v ->
      match Bench_report.of_json (doc v) with
      | Ok _ -> Alcotest.failf "schema_version %d accepted" v
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error names version %d" v)
          true
          (contains e (Printf.sprintf "schema_version %d" v)))
    [ 1; 2; 3; 4; 99 ];
  Alcotest.(check bool) "missing core field rejected" true
    (match
       Bench_report.of_json
         (Printf.sprintf
            {|{"schema_version": %d, "mode": "fast", "workers": 1,
               "experiments": [{}]}|}
            Bench_report.schema_version)
     with
    | Error _ -> true
    | Ok _ -> false);
  Alcotest.(check bool) "unreadable path is Error, not raise" true
    (match Bench_report.read ~path:"/no/such/bench.json" with
    | Error _ -> true
    | Ok _ -> false)

(* --- Bench_diff --- *)

let test_diff_identical_passes () =
  let t = report [ experiment (); experiment ~name:"uccsd-lih" () ] in
  let d = Bench_diff.diff ~old_report:t ~new_report:t () in
  Alcotest.(check (list string)) "no regressions" []
    d.Bench_diff.regressions;
  Alcotest.(check int) "one row per experiment" 2
    (List.length d.Bench_diff.rows)

let test_diff_pulse_regression_gates () =
  let old_report = report [ experiment () ] in
  (* +25% pulse duration: past the 20% default threshold. *)
  let regressed = report [ experiment ~pulse:125.0 () ] in
  let d = Bench_diff.diff ~old_report ~new_report:regressed () in
  Alcotest.(check int) "one regression" 1
    (List.length d.Bench_diff.regressions);
  let row = List.hd d.Bench_diff.rows in
  Alcotest.(check bool) "pulse row gates" true row.Bench_diff.regression;
  Alcotest.(check (float 1e-9)) "delta percent" 25.0 row.Bench_diff.delta_pct;
  (* +10% stays under the default threshold... *)
  let mild = report [ experiment ~pulse:110.0 () ] in
  Alcotest.(check (list string)) "under threshold passes" []
    (Bench_diff.diff ~old_report ~new_report:mild ()).Bench_diff.regressions;
  (* ...but a tightened threshold catches it. *)
  Alcotest.(check bool) "tightened threshold catches it" true
    ((Bench_diff.diff ~threshold_pct:5.0 ~old_report ~new_report:mild ())
       .Bench_diff.regressions
    <> []);
  (* Improvements never gate. *)
  let improved = report [ experiment ~pulse:50.0 () ] in
  Alcotest.(check (list string)) "improvement passes" []
    (Bench_diff.diff ~old_report ~new_report:improved ())
      .Bench_diff.regressions

let test_diff_missing_and_broken () =
  let old_report = report [ experiment (); experiment ~name:"uccsd-lih" () ] in
  let missing = report [ experiment () ] in
  let d = Bench_diff.diff ~old_report ~new_report:missing () in
  Alcotest.(check (list string)) "missing experiment is a regression"
    [ "uccsd-lih/strict-partial/numeric" ]
    d.Bench_diff.missing;
  Alcotest.(check bool) "missing gates" true
    (d.Bench_diff.regressions <> []);
  let broken = report [ experiment ~equal_pulse:false () ] in
  let d = Bench_diff.diff ~old_report:(report [ experiment () ])
      ~new_report:broken ()
  in
  Alcotest.(check bool) "broken determinism contract gates" true
    (d.Bench_diff.regressions <> []);
  (* An experiment only the new report has is an addition, not a gate. *)
  let grown = report [ experiment (); experiment ~name:"uccsd-beh2" () ] in
  let d =
    Bench_diff.diff ~old_report:(report [ experiment () ]) ~new_report:grown ()
  in
  Alcotest.(check (list string)) "addition reported"
    [ "uccsd-beh2/strict-partial/numeric" ] d.Bench_diff.added;
  Alcotest.(check (list string)) "addition does not gate" []
    d.Bench_diff.regressions

let test_diff_growth_from_zero_gates () =
  (* A pulse that grows from 0 ns has no finite percentage: it reads as
     +inf% and gates at every threshold, so diffing both ways at
     threshold 0 catches a pulse that appears or vanishes.  0 -> 0 stays
     clean. *)
  let diff ~threshold old_pulse new_pulse =
    Bench_diff.diff ~threshold_pct:threshold
      ~old_report:(report [ experiment ~pulse:old_pulse () ])
      ~new_report:(report [ experiment ~pulse:new_pulse () ])
      ()
  in
  List.iter
    (fun threshold ->
      let grown = diff ~threshold 0.0 5.0 in
      Alcotest.(check int)
        (Printf.sprintf "0 -> 5 gates at %g%%" threshold)
        1
        (List.length grown.Bench_diff.regressions);
      Alcotest.(check bool) "delta is +inf" true
        ((List.hd grown.Bench_diff.rows).Bench_diff.delta_pct = Float.infinity);
      Alcotest.(check (list string)) "5 -> 0 is shrinkage" []
        (diff ~threshold 5.0 0.0).Bench_diff.regressions;
      Alcotest.(check (list string)) "0 -> 0 is clean" []
        (diff ~threshold 0.0 0.0).Bench_diff.regressions)
    [ 0.0; 20.0; 1e9 ];
  Alcotest.(check bool) "rendered as +inf%" true
    (contains (Bench_diff.render (diff ~threshold:0.0 0.0 5.0)) "+inf%")

let test_diff_render_mentions_verdict () =
  let old_report = report [ experiment () ] in
  let pass = Bench_diff.render (Bench_diff.diff ~old_report ~new_report:old_report ()) in
  Alcotest.(check bool) "pass verdict" true (contains pass "PASS");
  let fail =
    Bench_diff.render
      (Bench_diff.diff ~old_report
         ~new_report:(report [ experiment ~pulse:125.0 () ])
         ())
  in
  Alcotest.(check bool) "fail verdict" true (contains fail "FAIL")

let () =
  Alcotest.run "run-metrics"
    [ ( "jsonx",
        [ Alcotest.test_case "parser basics" `Quick test_jsonx_basics;
          Alcotest.test_case "number text" `Quick test_jsonx_number_text;
          QCheck_alcotest.to_alcotest prop_jsonx_number_round_trip ] );
      ( "run-log",
        [ Alcotest.test_case "vqe 200-iteration jsonl" `Quick
            test_vqe_run_jsonl;
          Alcotest.test_case "recorder never changes results" `Quick
            test_recorder_never_changes_results;
          Alcotest.test_case "qaoa jsonl" `Quick test_qaoa_run_jsonl;
          Alcotest.test_case "streaming flush" `Quick test_streaming_flush;
          Alcotest.test_case "PQC_RUN_LOG parsing" `Quick
            test_path_from_env;
          Alcotest.test_case "run_id/seq round-trip" `Quick
            test_run_log_provenance_roundtrip;
          Alcotest.test_case "run_id defaults to ambient context" `Quick
            test_run_log_run_id_defaults_to_ambient;
          Alcotest.test_case "reader tolerates pre-provenance records"
            `Quick test_run_log_reader_tolerates_old_records ] );
      ( "bench-report",
        [ Alcotest.test_case "round-trip" `Quick test_report_roundtrip;
          Alcotest.test_case "other schema versions rejected" `Quick
            test_report_rejects_other_schemas ] );
      ( "bench-diff",
        [ Alcotest.test_case "identical passes" `Quick
            test_diff_identical_passes;
          Alcotest.test_case "pulse regression gates" `Quick
            test_diff_pulse_regression_gates;
          Alcotest.test_case "missing/broken experiments gate" `Quick
            test_diff_missing_and_broken;
          Alcotest.test_case "growth from zero gates" `Quick
            test_diff_growth_from_zero_gates;
          Alcotest.test_case "render verdicts" `Quick
            test_diff_render_mentions_verdict ] ) ]
