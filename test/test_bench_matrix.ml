(* Tests for the manifest-driven bench matrix: manifest parsing and
   validation, cartesian expansion, end-to-end cell execution with the
   workers:1 == workers:4 determinism contract, rollup aggregation and
   missing-cell detection, and property tests for the Bench_diff gate and
   the Bench_report reader. *)

module Bench_matrix = Pqc_core.Bench_matrix
module Bench_rollup = Pqc_core.Bench_rollup
module Bench_report = Pqc_core.Bench_report
module Bench_diff = Pqc_core.Bench_diff
module Compiler = Pqc_core.Compiler
module Fault = Pqc_core.Fault

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pqc_matrix_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with _ -> ()) (fun () -> f dir)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")

(* ---- manifest parsing and validation -------------------------------- *)

let mini_manifest_json =
  {|{ "schema_version": 1, "name": "mini", "engine": "model",
      "seed": 3, "iterations": 4,
      "workloads": ["h2"], "topologies": ["line"],
      "strategies": ["strict", "flexible"],
      "workers": [1, 2], "fault_plans": ["none"] }|}

let test_manifest_parse () =
  let m = ok_or_fail "mini manifest" (Bench_matrix.manifest_of_json mini_manifest_json) in
  checks "name" "mini" m.Bench_matrix.name;
  checks "engine" "model" m.Bench_matrix.engine;
  checki "seed" 3 m.Bench_matrix.seed;
  checki "iterations" 4 m.Bench_matrix.iterations;
  checki "strategies" 2 (List.length m.Bench_matrix.strategies);
  checki "workers axis" 2 (List.length m.Bench_matrix.workers);
  checki "fault plans" 1 (List.length m.Bench_matrix.fault_plans);
  checkb "fault-free plan is None" true
    (List.for_all Option.is_none m.Bench_matrix.fault_plans)

let test_manifest_defaults () =
  (* Only the required axes: everything else takes its documented
     default, including a single fault-free plan. *)
  let m =
    ok_or_fail "defaults"
      (Bench_matrix.manifest_of_json
         {|{ "workloads": ["h2"], "strategies": ["strict"] }|})
  in
  checks "engine default" "model" m.Bench_matrix.engine;
  checkb "topologies default non-empty" true (m.Bench_matrix.topologies <> []);
  checkb "workers default non-empty" true (m.Bench_matrix.workers <> []);
  checki "fault plans default" 1 (List.length m.Bench_matrix.fault_plans);
  checkb "default plan is fault-free" true
    (List.for_all Option.is_none m.Bench_matrix.fault_plans)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let expect_error what json =
  match Bench_matrix.manifest_of_json json with
  | Ok _ -> Alcotest.failf "%s: expected Error, got Ok" what
  | Error e -> checkb (what ^ " message non-empty") true (String.length e > 0)

let test_manifest_rejects () =
  expect_error "unknown workload"
    {|{ "workloads": ["unobtainium"], "strategies": ["strict"] }|};
  expect_error "unknown strategy"
    {|{ "workloads": ["h2"], "strategies": ["yolo"] }|};
  expect_error "unknown topology"
    {|{ "workloads": ["h2"], "strategies": ["strict"], "topologies": ["torus"] }|};
  (* h2 is 2 qubits; the 2-row grid needs an even width >= 4. *)
  expect_error "grid over too-narrow workload"
    {|{ "workloads": ["h2"], "strategies": ["strict"], "topologies": ["grid"] }|};
  expect_error "empty axis"
    {|{ "workloads": [], "strategies": ["strict"] }|};
  expect_error "bad engine"
    {|{ "workloads": ["h2"], "strategies": ["strict"], "engine": "warp" }|};
  expect_error "malformed fault plan"
    {|{ "workloads": ["h2"], "strategies": ["strict"], "fault_plans": ["bogus=plan="] }|};
  expect_error "hang plan without item_deadline_s"
    {|{ "workloads": ["h2"], "strategies": ["strict"],
        "fault_plans": ["seed=1,hang=0.5"] }|};
  expect_error "unsupported schema_version"
    {|{ "schema_version": 99, "workloads": ["h2"], "strategies": ["strict"] }|};
  (* A deadline that is not a finite number > 0 is an error, not a silent
     "no deadline". *)
  List.iter
    (fun d ->
      expect_error ("item_deadline_s " ^ d)
        (Printf.sprintf
           {|{ "workloads": ["h2"], "strategies": ["strict"],
               "item_deadline_s": %s }|}
           d))
    [ "0"; "-1"; {|"5"|}; "null" ];
  (* Optimizer faults change pulses, so every cell's sequential/parallel
     comparison would fail; the error names the site. *)
  List.iter
    (fun site ->
      match
        Bench_matrix.manifest_of_json
          (Printf.sprintf
             {|{ "workloads": ["h2"], "strategies": ["strict"],
                 "fault_plans": ["seed=1,crash-pre=0.2,%s=0.5"] }|}
             site)
      with
      | Ok _ -> Alcotest.failf "optimizer site %s: expected Error, got Ok" site
      | Error e -> checkb ("error names " ^ site) true (contains e site))
    [ "nan"; "no-converge"; "stall" ];
  expect_error "not json at all" "][";
  (* A hang plan WITH a deadline is accepted. *)
  ignore
    (ok_or_fail "hang plan with deadline"
       (Bench_matrix.manifest_of_json
          {|{ "workloads": ["h2"], "strategies": ["strict"],
              "item_deadline_s": 5.0,
              "fault_plans": ["seed=1,hang=0.5"] }|}))

(* ---- expansion ------------------------------------------------------- *)

let test_expand_product () =
  let m = ok_or_fail "mini" (Bench_matrix.manifest_of_json mini_manifest_json) in
  let cells = Bench_matrix.expand m in
  checki "cell count = axis product" 4 (List.length cells);
  let ids = List.map (fun c -> c.Bench_matrix.id) cells in
  let unique = List.sort_uniq String.compare ids in
  checki "cell ids unique" (List.length ids) (List.length unique);
  List.iteri
    (fun i c -> checki "indices follow expansion order" i c.Bench_matrix.index)
    cells;
  (* Expansion is deterministic: same manifest, same ids. *)
  let ids' = List.map (fun c -> c.Bench_matrix.id) (Bench_matrix.expand m) in
  check (Alcotest.list Alcotest.string) "expansion stable" ids ids'

let test_committed_smoke_manifest () =
  (* The committed CI manifest must expand to at least 12 cells (the
     acceptance floor) and keep using the model engine so the smoke job
     stays fast. *)
  let m =
    ok_or_fail "committed smoke manifest"
      (Bench_matrix.load_manifest ~path:"../bench/workloads/smoke.json")
  in
  let cells = Bench_matrix.expand m in
  checkb "smoke matrix has >= 12 cells" true (List.length cells >= 12);
  checks "smoke engine" "model" m.Bench_matrix.engine;
  let ids = List.map (fun c -> c.Bench_matrix.id) cells in
  checki "smoke ids unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

(* ---- matrix execution and determinism -------------------------------- *)

let run_matrix ~workers dir =
  let m = ok_or_fail "mini" (Bench_matrix.manifest_of_json mini_manifest_json) in
  let outcomes = Bench_matrix.run ~workers m ~out_dir:dir in
  List.iter
    (fun o ->
      match o.Bench_matrix.status with
      | Ok () -> ()
      | Error e -> Alcotest.failf "cell %s failed: %s" o.Bench_matrix.cell.Bench_matrix.id e)
    outcomes;
  outcomes

let test_matrix_artifacts () =
  with_temp_dir (fun dir ->
      let outcomes = run_matrix ~workers:1 dir in
      checki "all cells ran" 4 (List.length outcomes);
      checkb "index written" true
        (Sys.file_exists (Bench_matrix.index_path ~out_dir:dir));
      List.iter
        (fun o ->
          let cdir = Bench_matrix.cell_dir ~out_dir:dir o.Bench_matrix.cell in
          let report_path = Filename.concat cdir "report.json" in
          checkb "report.json exists" true (Sys.file_exists report_path);
          let r = ok_or_fail "cell report" (Bench_report.read ~path:report_path) in
          checki "one experiment per cell" 1 (List.length r.Bench_report.experiments);
          let e = List.hd r.Bench_report.experiments in
          checkb "equal_pulse holds" true e.Bench_report.equal_pulse;
          (* iterations > 0 => a run log; the optimizer may converge
             before max_evals, so only assert the stream is non-empty. *)
          let files = List.sort String.compare (Array.to_list (Sys.readdir cdir)) in
          check (Alcotest.list Alcotest.string) "a report and a run log, nothing else"
            [ "report.json"; "run.jsonl" ] files;
          checkb "run.jsonl non-empty" true
            (read_lines (Filename.concat cdir "run.jsonl") <> []))
        outcomes)

let test_matrix_determinism_across_driver_workers () =
  (* The acceptance contract: the same manifest at driver workers:1 and
     workers:4 yields byte-identical rollups. *)
  with_temp_dir (fun dir1 ->
      with_temp_dir (fun dir4 ->
          ignore (run_matrix ~workers:1 dir1);
          ignore (run_matrix ~workers:4 dir4);
          let roll dir =
            Bench_rollup.to_json
              (ok_or_fail "rollup" (Bench_rollup.of_results_dir ~dir))
          in
          checks "rollups byte-identical" (roll dir1) (roll dir4)))

let test_matrix_keeps_caller_trace () =
  (* A cell traces its parallel compile into the caller's trace: it must
     not reset it (which dropped the caller's spans, and in a forked
     worker running cells moved the trace epoch under open spans, so
     they closed with negative durations) and must leave tracing on or
     off as the caller had it.  An untraced caller keeps none of the
     cells' events: its event count and every counter the cells
     increment read as before the run. *)
  let module Obs = Pqc_obs.Obs in
  List.iter
    (fun workers ->
      let label = Printf.sprintf "workers:%d" workers in
      Obs.reset ();
      Obs.enable ();
      let counters = ref [] in
      Fun.protect
        ~finally:(fun () ->
          Obs.disable ();
          Obs.reset ())
        (fun () ->
          with_temp_dir (fun dir ->
              Obs.Span.with_ ~name:"caller" (fun () ->
                  ignore (run_matrix ~workers dir)));
          checkb (label ^ ": still tracing") true (Obs.enabled ());
          let spans =
            List.filter_map
              (function Obs.Span s -> Some (s.name, s.dur) | _ -> None)
              (Obs.events ())
          in
          (match List.filter (fun (name, _) -> name = "caller") spans with
          | [ (_, dur) ] ->
            checkb (label ^ ": caller span non-negative") true (dur >= 0.0)
          | l ->
            Alcotest.failf "%s: %d caller spans" label (List.length l));
          checkb (label ^ ": cells traced into the caller's trace") true
            (List.mem_assoc "compiler.compile" spans);
          List.iter
            (fun (name, dur) ->
              if not (dur >= 0.0) then
                Alcotest.failf "%s: span %s lasted %g s" label name dur)
            spans;
          counters :=
            List.sort_uniq compare
              (List.filter_map
                 (function Obs.Count c -> Some c.name | _ -> None)
                 (Obs.events ())));
      checkb (label ^ ": cells count") true (!counters <> []);
      (* The untraced caller has counted before, while it traced. *)
      Obs.enable ();
      List.iter (fun name -> Obs.count ~by:3.0 name) !counters;
      Obs.disable ();
      let mark = Obs.mark () in
      let values () = List.map (fun name -> (name, Obs.counter_value name)) !counters in
      let before = values () in
      Fun.protect ~finally:Obs.reset (fun () ->
          with_temp_dir (fun dir -> ignore (run_matrix ~workers dir));
          checkb (label ^ ": still not tracing") false (Obs.enabled ());
          checki (label ^ ": untraced caller keeps no event") mark (Obs.mark ());
          check
            (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 0.0)))
            (label ^ ": untraced caller's counters unchanged") before (values ())))
    [ 1; 2 ]

let test_ambient_optimizer_plan () =
  (* Optimizer faults change pulses, so a cell's sequential reference
     compile runs with no plan even under an ambient one; the parallel
     compile runs under the cell's own (here fault-free) plan. *)
  let m =
    ok_or_fail "manifest"
      (Bench_matrix.manifest_of_json
         {|{ "name": "ambient", "workloads": ["h2"], "strategies": ["strict"] }|})
  in
  Fault.set (Some (ok_or_fail "plan" (Fault.parse "seed=1,nan=1")));
  Fun.protect ~finally:Fault.clear (fun () ->
      with_temp_dir (fun dir ->
          List.iter
            (fun cell ->
              ok_or_fail cell.Bench_matrix.id
                (Bench_matrix.run_cell m ~out_dir:dir cell))
            (Bench_matrix.expand m));
      checkb "ambient plan restored" true (Fault.active ()))

(* The rollup document's shape: its top-level keys, the report schema
   version, every cell present with one experiment each, the keys of each
   experiment, and equal sequential and parallel pulses in every cell. *)
let check_rollup_document ~min_cells json =
  let module J = Pqc_util.Jsonx in
  let doc = ok_or_fail "rollup JSON" (J.parse json) in
  let keys = function
    | J.Obj members -> List.sort String.compare (List.map fst members)
    | _ -> Alcotest.fail "not a JSON object"
  in
  let field name j =
    match J.member name j with
    | Some v -> v
    | None -> Alcotest.failf "rollup lacks %s" name
  in
  let int_field name j =
    match J.to_int (field name j) with
    | Some i -> i
    | None -> Alcotest.failf "%s is not an integer" name
  in
  check (Alcotest.list Alcotest.string) "top-level keys"
    [ "cells"; "experiments"; "missing_cells"; "mode"; "schema_version";
      "workers" ]
    (keys doc);
  checki "schema version" Bench_report.schema_version
    (int_field "schema_version" doc);
  check (Alcotest.option (Alcotest.list Alcotest.string)) "no missing cells"
    (Some []) (Option.map (List.filter_map J.to_string) (J.to_list (field "missing_cells" doc)));
  let cells = int_field "cells" doc in
  checkb (Printf.sprintf "%d cells >= %d" cells min_cells) true
    (cells >= min_cells);
  let experiments = Option.get (J.to_list (field "experiments" doc)) in
  checki "one experiment per cell" cells (List.length experiments);
  List.iter
    (fun e ->
      check (Alcotest.list Alcotest.string) "experiment keys"
        [ "blocks_compiled"; "cache_hits"; "engine"; "equal_pulse"; "name";
          "pulse_duration_ns"; "run_id"; "strategy"; "workers" ]
        (keys e);
      check (Alcotest.option Alcotest.bool) "equal_pulse" (Some true)
        (J.to_bool (field "equal_pulse" e)))
    experiments

let test_smoke_manifest_determinism_extended () =
  (* Extended determinism over the committed smoke manifest: a third
     worker count, on the full 24-cell matrix rather than the 4-cell mini
     manifest above.  Any summation-order drift in the numeric kernels, or
     order-dependence in [Bench_matrix.run], shows up as a rollup byte
     diff here.  Both rollups must also have the documented shape. *)
  let m =
    ok_or_fail "smoke manifest"
      (Bench_matrix.load_manifest ~path:"../bench/workloads/smoke.json")
  in
  let run ~workers dir =
    List.iter
      (fun o ->
        match o.Bench_matrix.status with
        | Ok () -> ()
        | Error e ->
          Alcotest.failf "cell %s failed: %s" o.Bench_matrix.cell.Bench_matrix.id
            e)
      (Bench_matrix.run ~workers m ~out_dir:dir)
  in
  with_temp_dir (fun dir1 ->
      with_temp_dir (fun dir3 ->
          run ~workers:1 dir1;
          run ~workers:3 dir3;
          let roll dir =
            ok_or_fail "rollup" (Bench_rollup.of_results_dir ~dir)
          in
          let j1 = Bench_rollup.to_json (roll dir1) in
          let j3 = Bench_rollup.to_json (roll dir3) in
          check_rollup_document ~min_cells:12 j1;
          check_rollup_document ~min_cells:12 j3;
          checks "smoke rollups byte-identical at workers 1 vs 3" j1 j3))

let test_rollup_aggregation () =
  with_temp_dir (fun dir ->
      ignore (run_matrix ~workers:2 dir);
      let r = ok_or_fail "rollup" (Bench_rollup.of_results_dir ~dir) in
      checki "cells counted" 4 r.Bench_rollup.cells;
      check (Alcotest.list Alcotest.string) "no missing cells" []
        r.Bench_rollup.missing_cells;
      checki "all experiments collected" 4
        (List.length r.Bench_rollup.report.Bench_report.experiments);
      (* The written rollup reads back as a bench report holding the same
         experiments: the form bench diff gates.  Pulses are written at 9
         significant digits, so compare rendered reports. *)
      let path = Filename.concat dir "rollup.json" in
      Bench_rollup.write ~path r;
      checks "written bytes are to_json" (Bench_rollup.to_json r) (read_file path);
      let back = ok_or_fail "rollup read-back" (Bench_report.read ~path) in
      checks "rollup reads back as its report"
        (Bench_report.to_json r.Bench_rollup.report)
        (Bench_report.to_json back))

let test_rollup_missing_cell () =
  with_temp_dir (fun dir ->
      let outcomes = run_matrix ~workers:1 dir in
      let victim = (List.hd outcomes).Bench_matrix.cell in
      Sys.remove
        (Filename.concat (Bench_matrix.cell_dir ~out_dir:dir victim) "report.json");
      let r = ok_or_fail "rollup" (Bench_rollup.of_results_dir ~dir) in
      checki "cells still counted from index" 4 r.Bench_rollup.cells;
      check (Alcotest.list Alcotest.string) "missing cell detected"
        [ victim.Bench_matrix.id ] r.Bench_rollup.missing_cells;
      checki "remaining experiments collected" 3
        (List.length r.Bench_rollup.report.Bench_report.experiments))

let test_rollup_usage_errors () =
  (match Bench_rollup.of_results_dir ~dir:"/nonexistent/matrix-out" with
  | Ok _ -> Alcotest.fail "expected Error for missing dir"
  | Error _ -> ());
  with_temp_dir (fun dir ->
      match Bench_rollup.of_results_dir ~dir with
      | Ok _ -> Alcotest.fail "expected Error for dir without cells.json"
      | Error _ -> ())

(* ---- Bench_diff properties (satellite: threshold boundary) ----------- *)

let experiment ?(name = "h2+line") ?(strategy = "strict-partial")
    ?(engine = "model") ?(pulse = 100.0) ?(equal_pulse = true) () =
  { Bench_report.name; strategy; engine; run_id = ""; pulse_duration_ns = pulse;
    cache_hits = 3; blocks_compiled = 4; workers = 2; equal_pulse }

let report experiments = { Bench_report.mode = "test"; workers = 2; experiments }

let prop_threshold_boundary =
  QCheck.Test.make ~name:"growth exactly at threshold never gates" ~count:200
    QCheck.(pair (int_range 1 100_000) (int_range 1 50_000))
    (fun (old_i, grow_i) ->
      let old_pulse = float_of_int old_i in
      let new_pulse = old_pulse +. float_of_int grow_i in
      (* The exact delta Bench_diff will compute, FP rounding included. *)
      let delta_pct = (new_pulse -. old_pulse) /. old_pulse *. 100.0 in
      let diff threshold =
        Bench_diff.diff ~threshold_pct:threshold
          ~old_report:(report [ experiment ~pulse:old_pulse () ])
          ~new_report:(report [ experiment ~pulse:new_pulse () ])
          ()
      in
      let at = diff delta_pct in
      let below = diff (delta_pct *. (1.0 -. 1e-12)) in
      (* Strictly-greater gate: exactly at the threshold passes ... *)
      at.Bench_diff.regressions = []
      (* ... and any threshold epsilon below the delta gates. *)
      && below.Bench_diff.regressions <> [])

let prop_missing_added_symmetry =
  (* Keys missing when diffing A against B are exactly the keys added
     when diffing B against A. *)
  let arb_names =
    QCheck.(list_of_size Gen.(int_range 0 6) (string_gen_of_size (Gen.int_range 1 8) Gen.printable))
  in
  QCheck.Test.make ~name:"missing(A,B) = added(B,A)" ~count:200
    QCheck.(pair arb_names arb_names)
    (fun (names_a, names_b) ->
      let mk names =
        report
          (List.map (fun n -> experiment ~name:n ())
             (List.sort_uniq String.compare names))
      in
      let a = mk names_a and b = mk names_b in
      let ab = Bench_diff.diff ~old_report:a ~new_report:b () in
      let ba = Bench_diff.diff ~old_report:b ~new_report:a () in
      let sorted l = List.sort String.compare l in
      sorted ab.Bench_diff.missing = sorted ba.Bench_diff.added
      && sorted ab.Bench_diff.added = sorted ba.Bench_diff.missing)

let prop_self_diff_clean =
  QCheck.Test.make ~name:"diff of identical reports is clean" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 5) (pair (string_gen_of_size (Gen.int_range 1 8) Gen.printable) (int_range 1 10_000)))
    (fun entries ->
      let r =
        report
          (List.map
             (fun (n, p) -> experiment ~name:n ~pulse:(float_of_int p) ())
             (List.sort_uniq compare entries))
      in
      let d = Bench_diff.diff ~old_report:r ~new_report:r () in
      d.Bench_diff.regressions = []
      && d.Bench_diff.missing = []
      && d.Bench_diff.added = [])

(* ---- Bench_report.of_json ------------------------------------------- *)

let js = Pqc_util.Jsonx.escape_string

(* Assemble an experiment object from (key, rendered-value) pairs in an
   arbitrary order, so key order can be permuted by the fuzzer. *)
let obj_of_fields fields =
  "{ " ^ String.concat ", " (List.map (fun (k, v) -> js k ^ ": " ^ v) fields) ^ " }"

let doc_of ~version ~mode ~experiments =
  obj_of_fields
    [ ("schema_version", string_of_int version); ("mode", js mode);
      ("workers", "4");
      ("experiments", "[" ^ String.concat ", " experiments ^ "]") ]

let required_fields ~name ~pulse =
  [ ("name", js name); ("strategy", js "strict-partial");
    ("engine", js "model"); ("run_id", js name);
    ("pulse_duration_ns", Pqc_util.Jsonx.number pulse);
    ("cache_hits", "2"); ("blocks_compiled", "5"); ("workers", "4");
    ("equal_pulse", "true") ]

(* Deterministic permutation of a list driven by a generated seed. *)
let permute seed l =
  let arr = Array.of_list l in
  let st = Random.State.make [| seed |] in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

let hostile_names =
  [ "quote\"back\\slash"; "tab\there\nnewline"; "control\x01char";
    "non-ascii: h\xc3\xa9h\xc3\xa9 \xe2\x88\x9a"; "trailing space "; " " ]

let prop_reader_tolerant =
  (* Keys arrive in any order, names may be hostile and numbers huge: a
     document of the current version reads back whole.  Any other
     version is an error that names it. *)
  QCheck.Test.make ~name:"of_json tolerates versions, key order, hostile strings"
    ~count:300
    QCheck.(
      quad (int_range 1 (Bench_report.schema_version + 1)) (int_bound 1_000_000)
        (int_bound (List.length hostile_names - 1))
        (bool))
    (fun (version, seed, name_i, huge) ->
      let name = List.nth hostile_names name_i in
      let pulse = if huge then max_float else 123.25 in
      let fields = permute seed (required_fields ~name ~pulse) in
      let doc =
        doc_of ~version ~mode:name ~experiments:[ obj_of_fields fields ]
      in
      match Bench_report.of_json doc with
      | Error e ->
        version <> Bench_report.schema_version
        && contains e (Printf.sprintf "schema_version %d" version)
      | Ok r ->
        let e = List.hd r.Bench_report.experiments in
        version = Bench_report.schema_version
        && r.Bench_report.mode = name
        && e.Bench_report.name = name
        && e.Bench_report.run_id = name
        && e.Bench_report.pulse_duration_ns = pulse)

let prop_reader_requires_core_fields =
  (* Dropping any field is a hard error whose message names the field —
     the gate must not compare half-parsed reports. *)
  let required = List.map fst (required_fields ~name:"x" ~pulse:1.0) in
  QCheck.Test.make ~name:"missing required field raises a named error" ~count:100
    QCheck.(pair (int_bound (List.length required - 1)) (int_bound 1_000_000))
    (fun (drop_i, seed) ->
      let dropped = List.nth required drop_i in
      let fields =
        permute seed
          (List.filter
             (fun (k, _) -> k <> dropped)
             (required_fields ~name:"x" ~pulse:1.0))
      in
      let doc =
        doc_of ~version:Bench_report.schema_version ~mode:"fast"
          ~experiments:[ obj_of_fields fields ]
      in
      match Bench_report.of_json doc with
      | Ok _ -> QCheck.Test.fail_reportf "accepted doc without %s" dropped
      | Error e ->
        (* The error must point at the missing field by name. *)
        contains e dropped)

let test_writer_reader_roundtrip_hostile () =
  (* Hostile strings survive a full to_json/of_json round trip. *)
  List.iter
    (fun name ->
      let r = report [ experiment ~name () ] in
      match Bench_report.of_json (Bench_report.to_json r) with
      | Error e -> Alcotest.failf "round trip of %S failed: %s" name e
      | Ok r' ->
        checks "name survives" name
          (List.hd r'.Bench_report.experiments).Bench_report.name)
    hostile_names

(* ---- sorted --------------------------------------------------------- *)

let test_sorted () =
  let r =
    Bench_report.sorted
      (report
         [ experiment ~name:"zzz" ();
           experiment ~name:"aaa" ~strategy:"strict-partial" ();
           experiment ~name:"aaa" ~strategy:"flexible-partial" () ])
  in
  check (Alcotest.list Alcotest.string) "sorted by key"
    [ "aaa/flexible-partial/model"; "aaa/strict-partial/model";
      "zzz/strict-partial/model" ]
    (List.map Bench_report.experiment_key r.Bench_report.experiments)

let () =
  Random.self_init ();
  Alcotest.run "bench-matrix"
    [ ( "manifest",
        [ Alcotest.test_case "parse" `Quick test_manifest_parse;
          Alcotest.test_case "defaults" `Quick test_manifest_defaults;
          Alcotest.test_case "rejects invalid" `Quick test_manifest_rejects ] );
      ( "expansion",
        [ Alcotest.test_case "cartesian product" `Quick test_expand_product;
          Alcotest.test_case "committed smoke manifest" `Quick
            test_committed_smoke_manifest ] );
      ( "execution",
        [ Alcotest.test_case "per-cell artifacts" `Quick test_matrix_artifacts;
          Alcotest.test_case "deterministic across driver workers" `Quick
            test_matrix_determinism_across_driver_workers;
          Alcotest.test_case "cells keep the caller's trace" `Quick
            test_matrix_keeps_caller_trace;
          Alcotest.test_case "ambient optimizer plan spares the reference"
            `Quick test_ambient_optimizer_plan;
          Alcotest.test_case "smoke manifest determinism (extended)" `Slow
            test_smoke_manifest_determinism_extended ] );
      ( "rollup",
        [ Alcotest.test_case "fleet aggregation" `Quick test_rollup_aggregation;
          Alcotest.test_case "missing cell detection" `Quick
            test_rollup_missing_cell;
          Alcotest.test_case "usage errors" `Quick test_rollup_usage_errors ] );
      ( "bench-diff",
        [ QCheck_alcotest.to_alcotest prop_threshold_boundary;
          QCheck_alcotest.to_alcotest prop_missing_added_symmetry;
          QCheck_alcotest.to_alcotest prop_self_diff_clean ] );
      ( "report-reader",
        [ QCheck_alcotest.to_alcotest prop_reader_tolerant;
          QCheck_alcotest.to_alcotest prop_reader_requires_core_fields;
          Alcotest.test_case "hostile round trip" `Quick
            test_writer_reader_roundtrip_hostile ] );
      ( "report-shape",
        [ Alcotest.test_case "sorted by experiment key" `Quick test_sorted ] ) ]
