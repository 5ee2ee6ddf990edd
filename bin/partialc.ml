(* partialc — compile variational benchmark circuits under the four
   compilation strategies and inspect the results.

   Subcommands:
     partialc compile --benchmark lih [--strategy flexible] [--numeric]
     partialc tables                      # Tables 1-3 benchmark stats
     partialc vqe --molecule h2           # end-to-end VQE
     partialc qaoa --nodes 6 --p 2        # end-to-end QAOA
     partialc grape --gate cx             # numeric GRAPE on one gate *)

module Rng = Pqc_util.Rng
module Table = Pqc_util.Table
module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Gate_times = Pqc_pulse.Gate_times
module Hamiltonian = Pqc_grape.Hamiltonian
module Grape = Pqc_grape.Grape
open Pqc_core

(* Workload spec parsing (molecule names and "<kind><nodes>p<rounds>"
   QAOA specs) lives in Bench_matrix so the bench-matrix manifests and
   the CLI agree on exactly one spec language. *)
let benchmark_circuit name = Bench_matrix.circuit_of_spec name

(* The one QASM reader behind compile, lint and analyze; each command
   maps the two failures onto its own exit contract. *)
let read_qasm path :
    (Circuit.t, [ `Io of string | `Parse of int * int * string ]) result =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error (`Io e)
  | source -> (
    match Pqc_quantum.Qasm.of_qasm source with
    | c -> Ok c
    | exception Pqc_quantum.Qasm.Parse_error { line; col; message } ->
      Error (`Parse (line, col, message)))

(* An unwritable output path is a usage problem, not a crash: one line
   on stderr, exit 2. *)
let cannot_write what e =
  Printf.eprintf "partialc: cannot write %s: %s\n" what e;
  2

(* --- compile --- *)

(* Scope tracing to the wrapped action: enable, run, write the Chrome
   trace atomically, and print the summary table. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    let module Obs = Pqc_obs.Obs in
    Obs.reset ();
    Obs.enable ();
    let code = f () in
    (match Obs.write ~path () with
    | () ->
      Printf.printf "wrote trace %s (%d events)\n" path
        (List.length (Obs.events ()));
      print_string (Obs.summary ());
      print_newline ();
      code
    | exception Sys_error e -> cannot_write "trace" e)

let run_compile file benchmark strategy numeric seed trace =
  let circuit =
    match file with
    | Some path -> (
      match read_qasm path with
      | Ok c -> Ok c
      | Error (`Io e) -> Error e
      | Error (`Parse (line, col, message)) ->
        Error (Printf.sprintf "%s:%d:%d: %s" path line col message))
    | None -> benchmark_circuit benchmark
  in
  let label = match file with Some p -> p | None -> benchmark in
  match circuit with
  | Error e ->
    prerr_endline e;
    1
  | Ok circuit ->
    with_trace trace @@ fun () ->
    let prepared = Compiler.prepare circuit in
    let theta = Bench_matrix.theta_for seed prepared in
    let engine = if numeric then Engine.numeric () else Engine.model in
    let strategies =
      match strategy with
      | None -> Compiler.all_strategies
      | Some s -> [ s ]
    in
    Printf.printf "%s: %d qubits, %d gates, %d parameters (seed %d)\n" label
      (Circuit.n_qubits prepared) (Circuit.length prepared)
      (List.length (Circuit.depends prepared))
      seed;
    let baseline = Compiler.gate_based prepared ~theta in
    let table =
      Table.create [ "strategy"; "pulse (ns)"; "speedup"; "latency/iter"; "precompute" ]
    in
    let degraded = ref [] in
    List.iter
      (fun s ->
        let r = Compiler.compile ~engine s prepared ~theta in
        if Strategy.degraded r then
          degraded := (Compiler.strategy_name s, r) :: !degraded;
        Table.add_row table
          [ r.Strategy.strategy;
            Table.cell_f r.Strategy.duration_ns;
            Table.cell_x (Strategy.speedup ~baseline r);
            Printf.sprintf "%.2f s" r.Strategy.per_iteration.Engine.seconds;
            Printf.sprintf "%.2f s" r.Strategy.precompute.Engine.seconds ])
      strategies;
    Table.print table;
    List.iter
      (fun (requested, r) ->
        Printf.printf "degraded [%s -> %s]: %s\n" requested r.Strategy.strategy
          (Strategy.degradation_report r))
      (List.rev !degraded);
    (* Save freshly optimized block pulses when PQC_PULSE_CACHE is set. *)
    Engine.persist engine;
    0

(* --- tables --- *)

let run_tables () =
  print_endline "Table 1: gate pulse durations (ns)";
  let t1 = Table.create [ "gate"; "pulse (ns)" ] in
  List.iter (fun (g, d) -> Table.add_row t1 [ g; Table.cell_f d ]) Gate_times.table;
  Table.print t1;
  print_newline ();
  print_endline "Table 2: VQE-UCCSD benchmarks";
  let t2 = Table.create [ "molecule"; "qubits"; "params"; "gate-based (ns)" ] in
  List.iter
    (fun m ->
      let c = Compiler.prepare (Pqc_vqe.Uccsd.ansatz m) in
      Table.add_row t2
        [ m.Pqc_vqe.Molecule.name;
          string_of_int m.Pqc_vqe.Molecule.n_qubits;
          string_of_int (Pqc_vqe.Molecule.n_params m);
          Table.cell_f (Gate_times.circuit_duration c) ])
    Pqc_vqe.Molecule.all;
  Table.print t2;
  0

(* --- run recording (vqe / qaoa) --- *)

(* A run log's per-iteration records carry compile-side context (compile
   latency, pulse vs gate-based duration) alongside the optimizer-side
   energy, so one JSONL file reproduces the paper's latency-vs-duration
   tradeoff.  The model engine keeps recording cheap. *)
let compile_info_for strategy circuit =
  let prepared = Compiler.prepare circuit in
  let theta = Bench_matrix.theta_for 42 prepared in
  let r = Compiler.compile ~engine:Engine.model strategy prepared ~theta in
  let baseline = Compiler.gate_based prepared ~theta in
  { Pqc_obs.Run_log.strategy = r.Strategy.strategy;
    precompute_s = r.Strategy.precompute.Engine.seconds;
    compile_latency_s = r.Strategy.per_iteration.Engine.seconds;
    pulse_duration_ns = r.Strategy.duration_ns;
    gate_duration_ns = baseline.Strategy.duration_ns;
    cache_hits = r.Strategy.pool.Engine.cache_hits;
    degradations = List.length r.Strategy.degradations }

(* [f] receives the recorder (or None when no path was given).  The
   whole run — the compile-context probe and every recorded iteration —
   shares one minted run_id, so the JSONL joins against the traces and
   cache entries the embedded compiles produce. *)
let with_run_log run_log ~strategy ~algo ~label ~circuit f =
  match run_log with
  | None -> f None
  | Some path -> (
    Pqc_obs.Obs.Ctx.with_ctx
      (Some (Pqc_obs.Obs.Ctx.mint (algo ^ ":" ^ label)))
    @@ fun () ->
    let info = compile_info_for strategy circuit in
    match Pqc_obs.Run_log.create ~info ~algo ~label ~path () with
    | exception Sys_error e -> cannot_write "run log" e
    | r ->
      Fun.protect
        ~finally:(fun () -> Pqc_obs.Run_log.close r)
        (fun () ->
          let code = f (Some r) in
          Printf.printf "wrote run log %s (%d records)\n" path
            (Pqc_obs.Run_log.written r);
          code))

(* --- vqe --- *)

let run_vqe molecule strategy run_log =
  match Pqc_vqe.Molecule.find molecule with
  | None ->
    Printf.eprintf "unknown molecule %S\n" molecule;
    1
  | Some m when m.Pqc_vqe.Molecule.name <> "H2" ->
    (* Only H2 has a chemistry-accurate Hamiltonian (DESIGN.md); wider
       molecules run against a seeded synthetic operator. *)
    let h = Pqc_vqe.Chemistry.synthetic ~seed:7 ~n_qubits:m.Pqc_vqe.Molecule.n_qubits in
    let ansatz = Pqc_vqe.Uccsd.ansatz m in
    with_run_log run_log ~strategy ~algo:"vqe" ~label:m.Pqc_vqe.Molecule.name
      ~circuit:ansatz
    @@ fun recorder ->
    let r = Pqc_vqe.Vqe.run ~max_evals:400 ?recorder ~hamiltonian:h ~ansatz () in
    Printf.printf "%s (synthetic Hamiltonian): E = %.6f in %d iterations\n"
      m.Pqc_vqe.Molecule.name r.energy r.evaluations;
    0
  | Some m ->
    let prep = Circuit.of_gates 2 [ (Gate.X, [ 0 ]) ] in
    let ansatz = Circuit.concat prep (Pqc_vqe.Uccsd.ansatz m) in
    with_run_log run_log ~strategy ~algo:"vqe" ~label:m.Pqc_vqe.Molecule.name
      ~circuit:ansatz
    @@ fun recorder ->
    let r = Pqc_vqe.Vqe.run ?recorder ~hamiltonian:Pqc_vqe.Chemistry.h2 ~ansatz () in
    Printf.printf "H2: E = %.6f Ha (exact %.6f) in %d iterations\n" r.energy
      Pqc_vqe.Chemistry.h2_exact_energy r.evaluations;
    0

(* --- qaoa --- *)

let run_qaoa nodes p seed run_log =
  let rng = Rng.create seed in
  let graph = Pqc_qaoa.Graph.random_regular rng ~degree:3 nodes in
  let label = Printf.sprintf "3reg%dp%d" nodes p in
  with_run_log run_log ~strategy:Compiler.Strict_partial ~algo:"qaoa" ~label
    ~circuit:(Pqc_qaoa.Qaoa.circuit graph ~p)
  @@ fun recorder ->
  let o = Pqc_qaoa.Qaoa.optimize ~seed ?recorder graph ~p in
  Printf.printf "3-regular %d-node MAXCUT, p = %d: cut %.2f / %d (ratio %.3f) in %d iterations\n"
    nodes p o.expected_cut o.optimum o.approximation_ratio o.evaluations;
  0

(* --- grape --- *)

let run_grape gate =
  let target =
    match String.lowercase_ascii gate with
    | "x" -> Some (1, Circuit.of_gates 1 [ (Gate.X, [ 0 ]) ], 5.0)
    | "h" -> Some (1, Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ], 4.0)
    | "rz" -> Some (1, Circuit.of_gates 1 [ (Gate.Rz (Param.const Float.pi), [ 0 ]) ], 2.0)
    | "cx" -> Some (2, Circuit.of_gates 2 [ (Gate.CX, [ 0; 1 ]) ], 8.0)
    | "swap" -> Some (2, Circuit.of_gates 2 [ (Gate.Swap, [ 0; 1 ]) ], 10.0)
    | _ -> None
  in
  match target with
  | None ->
    Printf.eprintf "unknown gate %S (x, h, rz, cx, swap)\n" gate;
    1
  | Some (n, circuit, upper) ->
    let sys = Hamiltonian.gmon n in
    let settings =
      { Grape.fast_settings with Grape.dt = 0.1; max_iters = 400;
        target_fidelity = 0.999 }
    in
    (match
       Grape.minimal_time ~settings ~upper_bound:upper sys
         ~target:(Circuit.unitary circuit)
     with
    | Some s ->
      Printf.printf
        "%s: minimal pulse %.2f ns (lookup %.1f ns), fidelity %.4f, %d GRAPE \
         iterations over %d runs\n"
        gate s.minimal.total_time
        (Gate_times.circuit_duration circuit)
        s.minimal.fidelity s.grape_iterations_total (List.length s.probes);
      0
    | None ->
      Printf.printf "%s: did not converge\n" gate;
      1)

(* --- export --- *)

let run_export benchmark strategy out seed =
  match benchmark_circuit benchmark with
  | Error e -> prerr_endline e; 1
  | Ok circuit ->
    let prepared = Compiler.prepare circuit in
    let theta = Bench_matrix.theta_for seed prepared in
    let r = Compiler.compile ~engine:Engine.model strategy prepared ~theta in
    let qasm = Pqc_quantum.Qasm.to_qasm ~theta prepared in
    let json = Pqc_pulse.Pulse.to_json r.Strategy.pulse in
    let write path contents =
      Out_channel.with_open_text path (fun oc -> output_string oc contents);
      Printf.printf "wrote %s\n" path
    in
    match
      write (out ^ ".qasm") qasm;
      write (out ^ ".pulse.json") json
    with
    | exception Sys_error e -> cannot_write "export" e
    | () ->
      Printf.printf "%s under %s: %.1f ns over %d segments\n" benchmark
        r.Strategy.strategy r.Strategy.duration_ns
        (Pqc_pulse.Pulse.length r.Strategy.pulse);
      0

(* --- slices --- *)

let run_slices benchmark =
  match benchmark_circuit benchmark with
  | Error e -> prerr_endline e; 1
  | Ok circuit ->
    let module Slice = Pqc_transpile.Slice in
    let prepared = Compiler.prepare circuit in
    let show title slices =
      Printf.printf "%s: %d slices\n" title (List.length slices);
      List.iteri
        (fun k (s : Slice.slice) ->
          match s.Slice.var with
          | Some v ->
            Printf.printf "  %3d  theta_%-3d %d gate\n" k v
              (Circuit.length s.Slice.circuit)
          | None ->
            Printf.printf "  %3d  fixed     %d gates on qubits {%s}\n" k
              (Circuit.length s.Slice.circuit)
              (String.concat ","
                 (List.map string_of_int
                    (List.filter
                       (Circuit.qubit_used s.Slice.circuit)
                       (List.init (Circuit.n_qubits prepared) Fun.id)))))
        slices
    in
    Printf.printf "%s: %d qubits, %d gates, monotone=%b\n\n" benchmark
      (Circuit.n_qubits prepared) (Circuit.length prepared)
      (Slice.is_monotone prepared);
    show "strict (regions)" (Slice.strict prepared);
    print_newline ();
    show "flexible (single-parameter)" (Slice.flexible prepared);
    0

(* --- lint / analyze --- *)

let print_report ~json report =
  if json then print_endline (Pqc_analysis.Runner.to_json report)
  else print_endline (Pqc_analysis.Runner.to_string report)

(* CLI --disable/--promote flags first, then PQC_LINT_RULES entries: the
   first binding for a rule id wins, so the command line takes precedence
   over the environment. *)
let build_overrides ~disable ~promote =
  let cli =
    List.map (fun id -> id ^ "=off") disable @ promote
  in
  let env = Option.value ~default:"" (Sys.getenv_opt "PQC_LINT_RULES") in
  Pqc_analysis.Runner.parse_overrides (String.concat "," (cli @ [ env ]))

let parse_error_report (line, col, message) =
  let module A = Pqc_analysis in
  (* Syntax errors are reported through the same diagnostic channel as
     analysis findings, so --json consumers see one format. *)
  let d =
    A.Diagnostic.error ~rule:"PQC000" ~span:(A.Diagnostic.point line)
      ~hint:"fix the syntax error before analysis can run"
      (Printf.sprintf "parse error at %d:%d: %s" line col message)
  in
  { A.Runner.diagnostics = [ d ]; errors = 1; warnings = 0; infos = 0;
    suppressed = 0; rules_run = []; skipped_structural = false }

(* FILE or --benchmark, for lint and analyze: an unknown benchmark is a
   usage error like an unreadable file.  A benchmark is prepared, so lint
   and analyze check the circuit compile compiles; a FILE stays as
   written, because its diagnostics point at source positions. *)
let input_circuit file benchmark =
  match (file, benchmark) with
  | Some f, _ -> Result.map Option.some (read_qasm f)
  | None, Some bench -> (
    match benchmark_circuit bench with
    | Ok c -> Ok (Some (Compiler.prepare c))
    | Error e -> Error (`Io e))
  | None, None -> Ok None

let run_lint file benchmark cache max_width json list_rules disable promote =
  let module A = Pqc_analysis in
  if list_rules then begin
    List.iter
      (fun (id, title, doc) -> Printf.printf "%s  %-20s %s\n" id title doc)
      (A.Rules.catalog ());
    0
  end
  else begin
    let usage msg =
      prerr_endline ("lint: " ^ msg);
      2
    in
    match build_overrides ~disable ~promote with
    | Error e -> usage e
    | Ok overrides -> (
      match (file, benchmark) with
      | Some _, Some _ -> usage "pass either FILE or --benchmark, not both"
      | None, None when cache = None ->
        usage "nothing to lint (pass FILE, --benchmark or --cache)"
      | _ -> (
        match input_circuit file benchmark with
        | Error (`Io e) -> usage e
        | Error (`Parse pe) ->
          print_report ~json (parse_error_report pe);
          1
        | Ok circuit ->
          let c =
            match circuit with
            | Some c -> c
            | None -> Circuit.of_gates 1 [] (* cache-only audit *)
          in
          let report =
            A.Runner.analyze ~overrides ?cache_file:cache ~max_width c
          in
          print_report ~json report;
          A.Runner.exit_code report))
  end

(* analyze = lint + dataflow/cost advisory.  The exit code follows the
   lint contract: 0 clean, 1 findings (errors), 2 usage or unreadable
   input. *)
let run_analyze file benchmark cache max_width json disable promote
    latency_budget =
  let module A = Pqc_analysis in
  let usage msg =
    prerr_endline ("analyze: " ^ msg);
    2
  in
  match build_overrides ~disable ~promote with
  | Error e -> usage e
  | Ok overrides -> (
    match (file, benchmark) with
    | Some _, Some _ -> usage "pass either FILE or --benchmark, not both"
    | _ -> (
      match input_circuit file benchmark with
      | Error (`Io e) -> usage e
      | Error (`Parse pe) ->
        print_report ~json (parse_error_report pe);
        1
      | Ok None -> usage "nothing to analyze (pass FILE or --benchmark)"
      | Ok (Some c) ->
        let report =
          A.Runner.analyze ~overrides ?cache_file:cache ~max_width c
        in
        let advice =
          Compiler.advise ~max_width ~latency_budget_s:latency_budget c
        in
        if json then
          Printf.printf "{\"report\":%s,\"advice\":%s}\n"
            (A.Runner.to_json report)
            (A.Cost.advice_to_json advice)
        else begin
          print_report ~json:false report;
          print_newline ();
          print_endline (A.Cost.advice_to_string advice)
        end;
        A.Runner.exit_code report))

(* --- bench diff --- *)

let run_bench_diff old_path new_path threshold =
  match Bench_report.read ~path:old_path with
  | Error e ->
    Printf.eprintf "partialc: %s\n" e;
    2
  | Ok old_report -> (
    match Bench_report.read ~path:new_path with
    | Error e ->
      Printf.eprintf "partialc: %s\n" e;
      2
    | Ok new_report ->
      let d = Bench_diff.diff ~threshold_pct:threshold ~old_report ~new_report () in
      print_string (Bench_diff.render d);
      if d.Bench_diff.regressions = [] then 0 else 1)

(* --- bench matrix / rollup --- *)

let run_bench_matrix manifest_path out_dir workers dry_run =
  match Bench_matrix.load_manifest ~path:manifest_path with
  | Error e ->
    Printf.eprintf "partialc: %s\n" e;
    2
  | Ok manifest ->
    if dry_run then begin
      let cells = Bench_matrix.expand manifest in
      List.iter
        (fun c -> print_endline c.Bench_matrix.id)
        cells;
      Printf.printf "%d cells\n" (List.length cells);
      0
    end
    else begin
      match Bench_matrix.run ?workers manifest ~out_dir with
      | exception Sys_error e -> cannot_write "results" e
      | exception Unix.Unix_error (err, "mkdir", path) ->
        cannot_write "results" (path ^ ": " ^ Unix.error_message err)
      | outcomes ->
        let failed =
          List.filter
            (fun o -> Result.is_error o.Bench_matrix.status)
            outcomes
        in
        List.iter
          (fun o ->
            match o.Bench_matrix.status with
            | Ok () -> Printf.printf "ok   %s\n" o.Bench_matrix.cell.Bench_matrix.id
            | Error e ->
              Printf.printf "FAIL %s: %s\n" o.Bench_matrix.cell.Bench_matrix.id e)
          outcomes;
        Printf.printf "%d/%d cells ok; results under %s\n"
          (List.length outcomes - List.length failed)
          (List.length outcomes) out_dir;
        if failed = [] then 0 else 1
    end

let run_bench_rollup dir out =
  match Bench_rollup.of_results_dir ~dir with
  | Error e ->
    Printf.eprintf "partialc: %s\n" e;
    2
  | Ok rollup -> (
    let out = Option.value out ~default:(Filename.concat dir "rollup.json") in
    match Bench_rollup.write ~path:out rollup with
    | exception Sys_error e -> cannot_write "rollup" e
    | () ->
      print_string (Bench_rollup.render rollup);
      Printf.printf "wrote %s\n" out;
      if rollup.Bench_rollup.missing_cells = [] then 0 else 1)

(* --- cmdliner plumbing --- *)

open Cmdliner

let strategy_of_string s =
  Result.map_error (fun e -> `Msg e) (Compiler.strategy_of_string s)

let strategy_conv =
  let parse s =
    if String.lowercase_ascii s = "all" then Ok None
    else Result.map Option.some (strategy_of_string s)
  in
  let print fmt = function
    | None -> Format.pp_print_string fmt "all"
    | Some s -> Format.pp_print_string fmt (Compiler.strategy_name s)
  in
  Arg.conv (parse, print)

let strategy_one_conv =
  let print fmt s = Format.pp_print_string fmt (Compiler.strategy_name s) in
  Arg.conv (strategy_of_string, print)

let run_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "run-log" ] ~docv:"RUN.jsonl"
        ~env:(Cmd.Env.info "PQC_RUN_LOG")
        ~doc:
          "Stream one JSON line per variational iteration (iteration \
           index, energy, wall-clock, compile latency, pulse vs \
           gate-based duration) to $(docv).")

let compile_cmd =
  let benchmark =
    Arg.(value & opt string "lih" & info [ "benchmark"; "b" ] ~doc:"Benchmark circuit.")
  in
  let strategy =
    Arg.(value & opt strategy_conv None & info [ "strategy"; "s" ] ~doc:"Strategy or 'all'.")
  in
  let numeric =
    Arg.(value & flag & info [ "numeric" ] ~doc:"Use the real GRAPE engine (slow).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Parametrization seed.") in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"OUT.json"
          ~doc:
            "Record compilation telemetry and write a Chrome trace-event \
             JSON file (open in chrome://tracing or Perfetto). A span/counter \
             summary table is printed after the compile.")
  in
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Optional OpenQASM 2.0 file to compile instead of a named benchmark.")
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a benchmark under the four strategies")
    Term.(const run_compile $ file $ benchmark $ strategy $ numeric $ seed $ trace)

let tables_cmd =
  Cmd.v (Cmd.info "tables" ~doc:"Print the Table 1/2 benchmark statistics")
    Term.(const run_tables $ const ())

let vqe_cmd =
  let molecule =
    Arg.(value & opt string "h2" & info [ "molecule"; "m" ] ~doc:"Molecule name.")
  in
  let strategy =
    Arg.(value & opt strategy_one_conv Compiler.Strict_partial
        & info [ "strategy"; "s" ]
            ~doc:"Strategy used for the run log's compile context.")
  in
  Cmd.v (Cmd.info "vqe" ~doc:"Run end-to-end VQE")
    Term.(const run_vqe $ molecule $ strategy $ run_log_arg)

let qaoa_cmd =
  let nodes = Arg.(value & opt int 6 & info [ "nodes"; "n" ] ~doc:"Graph nodes.") in
  let p = Arg.(value & opt int 2 & info [ "p" ] ~doc:"QAOA rounds.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Graph/start seed.") in
  Cmd.v (Cmd.info "qaoa" ~doc:"Run end-to-end QAOA MAXCUT")
    Term.(const run_qaoa $ nodes $ p $ seed $ run_log_arg)

let grape_cmd =
  let gate = Arg.(value & opt string "h" & info [ "gate"; "g" ] ~doc:"Gate name.") in
  Cmd.v (Cmd.info "grape" ~doc:"Numeric GRAPE minimal-time search for one gate")
    Term.(const run_grape $ gate)

let export_cmd =
  let benchmark =
    Arg.(value & opt string "h2" & info [ "benchmark"; "b" ] ~doc:"Benchmark circuit.")
  in
  let strategy =
    Arg.(value & opt strategy_one_conv Compiler.Strict_partial
        & info [ "strategy"; "s" ] ~doc:"Strategy to export.")
  in
  let out =
    Arg.(value & opt string "compiled" & info [ "out"; "o" ] ~doc:"Output prefix.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Parametrization seed.") in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a compiled benchmark as OpenQASM + pulse JSON")
    Term.(const run_export $ benchmark $ strategy $ out $ seed)

let disable_arg =
  Arg.(value & opt_all string []
      & info [ "disable" ] ~docv:"RULE"
          ~doc:
            "Suppress a rule's findings (repeatable). Suppressed findings \
             are counted in the report's $(b,suppressed) field. Also \
             settable via $(b,PQC_LINT_RULES) (e.g. \
             PQC040=off,PQC030=error); command-line flags win.")

let promote_arg =
  Arg.(value & opt_all string []
      & info [ "promote" ] ~docv:"RULE=LEVEL"
          ~doc:
            "Override a rule's severity, e.g. $(b,PQC030=error) or \
             $(b,PQC020=info) (repeatable).")

let lint_cmd =
  let file =
    Arg.(value & pos 0 (some string) None
        & info [] ~docv:"FILE" ~doc:"OpenQASM 2.0 file to lint.")
  in
  let benchmark =
    Arg.(value & opt (some string) None
        & info [ "benchmark"; "b" ] ~doc:"Benchmark circuit to lint.")
  in
  let cache =
    Arg.(value & opt (some string) None
        & info [ "cache" ] ~doc:"Pulse-cache file to audit.")
  in
  let max_width =
    Arg.(value & opt int 4 & info [ "max-width" ] ~doc:"Blocking budget.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
  in
  let rules =
    Arg.(value & flag & info [ "rules" ] ~doc:"List the rule catalog and exit.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a circuit before compilation (exit 0 clean, 1 \
          errors, 2 usage)")
    Term.(const run_lint $ file $ benchmark $ cache $ max_width $ json $ rules
          $ disable_arg $ promote_arg)

let analyze_cmd =
  let file =
    Arg.(value & pos 0 (some string) None
        & info [] ~docv:"FILE" ~doc:"OpenQASM 2.0 file to analyze.")
  in
  let benchmark =
    Arg.(value & opt (some string) None
        & info [ "benchmark"; "b" ] ~doc:"Benchmark circuit to analyze.")
  in
  let cache =
    Arg.(value & opt (some string) None
        & info [ "cache" ] ~doc:"Pulse-cache file to audit alongside.")
  in
  let max_width =
    Arg.(value & opt int 4 & info [ "max-width" ] ~doc:"Blocking budget.")
  in
  let json =
    Arg.(value & flag
        & info [ "json" ]
            ~doc:"One JSON object with $(b,report) and $(b,advice) keys.")
  in
  let latency_budget =
    Arg.(value & opt float 1.0
        & info [ "latency-budget" ] ~docv:"SECONDS"
            ~doc:
              "Per-variational-iteration compile-latency budget the \
               strategy advisor must respect.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Lint plus dataflow/cost analysis: per-strategy pulse and latency \
          predictions, a strategy recommendation, per-block gate-vs-pulse \
          decisions (exit 0 clean, 1 findings, 2 usage)")
    Term.(const run_analyze $ file $ benchmark $ cache $ max_width $ json
          $ disable_arg $ promote_arg $ latency_budget)

let bench_cmd =
  let diff_cmd =
    let old_path =
      Arg.(required & pos 0 (some string) None
          & info [] ~docv:"OLD.json" ~doc:"Baseline bench report.")
    in
    let new_path =
      Arg.(required & pos 1 (some string) None
          & info [] ~docv:"NEW.json" ~doc:"Candidate bench report.")
    in
    let threshold =
      Arg.(value & opt float 20.
          & info [ "threshold" ] ~docv:"PCT"
              ~env:(Cmd.Env.info "PQC_BENCH_THRESHOLD")
              ~doc:
                "Fail when pulse duration grows by more than $(docv) \
                 percent.")
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two bench reports (exit 0 clean, 1 regression, 2 \
            unreadable input)")
      Term.(const run_bench_diff $ old_path $ new_path $ threshold)
  in
  let matrix_cmd =
    let manifest =
      Arg.(required & pos 0 (some string) None
          & info [] ~docv:"MANIFEST.json"
              ~doc:"Workload-matrix manifest (see bench/workloads/).")
    in
    let out_dir =
      Arg.(value & opt string "matrix-out"
          & info [ "out"; "o" ] ~docv:"DIR"
              ~doc:"Results directory (per-cell reports + cells.json).")
    in
    let workers =
      Arg.(value & opt (some int) None
          & info [ "workers"; "j" ] ~docv:"N"
              ~env:(Cmd.Env.info "PQC_WORKERS")
              ~doc:"Driver processes executing cells (cells' own worker \
                    counts come from the manifest).")
    in
    let dry_run =
      Arg.(value & flag
          & info [ "dry-run" ]
              ~doc:"Print the expanded cell ids and exit without running.")
    in
    Cmd.v
      (Cmd.info "matrix"
         ~doc:
           "Expand and execute a workload-matrix manifest (exit 0 all \
            cells ok, 1 cell failure or pulse mismatch, 2 unreadable or \
            invalid manifest)")
      Term.(const run_bench_matrix $ manifest $ out_dir $ workers $ dry_run)
  in
  let rollup_cmd =
    let dir =
      Arg.(required & pos 0 (some string) None
          & info [] ~docv:"DIR"
              ~doc:"Results directory produced by $(b,bench matrix).")
    in
    let out =
      Arg.(value & opt (some string) None
          & info [ "out"; "o" ] ~docv:"ROLLUP.json"
              ~doc:"Rollup output path (default: DIR/rollup.json).")
    in
    Cmd.v
      (Cmd.info "rollup"
         ~doc:
           "Aggregate a matrix results directory into one fleet report \
            (exit 0 complete, 1 missing cells, 2 unreadable directory)")
      Term.(const run_bench_rollup $ dir $ out)
  in
  Cmd.group
    (Cmd.info "bench" ~doc:"Benchmark report tooling")
    [ diff_cmd; matrix_cmd; rollup_cmd ]

let slices_cmd =
  let benchmark =
    Arg.(value & opt string "h2" & info [ "benchmark"; "b" ] ~doc:"Benchmark circuit.")
  in
  Cmd.v (Cmd.info "slices" ~doc:"Show the strict/flexible slicing of a benchmark")
    Term.(const run_slices $ benchmark)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "partialc" ~version:"1.0.0"
      ~doc:"Partial compilation of variational quantum algorithms"
  in
  exit (Cmd.eval' (Cmd.group ~default info [ compile_cmd; tables_cmd; vqe_cmd; qaoa_cmd; grape_cmd; export_cmd; slices_cmd; lint_cmd; analyze_cmd; bench_cmd ]))
