(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (MICRO-52, Gokhale et al. 2019).

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table4 fig7  # selected experiments
     REPRO_MODE=full dune exec bench/main.exe # larger numeric-GRAPE budgets

   Experiments: table1 table2 table3 table4 table5 fig2 fig4 fig6 fig7
   ablation-blocking ablation-transpile micro.  (Figure 5 is the speedup
   view of Table 4's VQE rows and is printed by table4.)

   Fast mode (default) prices blocks with the calibrated Pulse_model engine
   and runs the real numeric GRAPE engine only where it is cheap (1-3 qubit
   searches); full mode raises the numeric budgets.  Paper-reported values
   are printed alongside measured ones; EXPERIMENTS.md records both. *)

module Rng = Pqc_util.Rng
module Stats = Pqc_util.Stats
module Table = Pqc_util.Table
module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Topology = Pqc_transpile.Topology
module Slice = Pqc_transpile.Slice
module Route = Pqc_transpile.Route
module Gate_times = Pqc_pulse.Gate_times
module Hamiltonian = Pqc_grape.Hamiltonian
module Grape = Pqc_grape.Grape
module Hyperopt = Pqc_hyperopt.Hyperopt
module Pulse_model = Pqc_analysis.Pulse_model
module Molecule = Pqc_vqe.Molecule
module Uccsd = Pqc_vqe.Uccsd
module Graph = Pqc_qaoa.Graph
module Qaoa = Pqc_qaoa.Qaoa
open Pqc_core

let full_mode =
  match Sys.getenv_opt "REPRO_MODE" with Some "full" -> true | Some _ | None -> false

let section id title = Printf.printf "\n=== %s: %s ===\n%!" id title

let note fmt = Printf.printf fmt

(* Benchmark circuits, seeded for reproducibility. *)
let graph_seed = 2019

let qaoa_graphs n =
  let rng = Rng.create graph_seed in
  let reg = Graph.random_regular rng ~degree:3 n in
  let er = Graph.erdos_renyi rng ~p:0.5 n in
  (reg, er)

let theta_for seed c =
  let rng = Rng.create seed in
  let n = Circuit.n_params c in
  Array.init n (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:(2.0 *. Float.pi))

let prepared_cache : (string, Circuit.t) Hashtbl.t = Hashtbl.create 64

let prepared key circuit =
  match Hashtbl.find_opt prepared_cache key with
  | Some c -> c
  | None ->
    let c = Compiler.prepare circuit in
    Hashtbl.replace prepared_cache key c;
    c

let vqe_prepared m = prepared m.Molecule.name (Uccsd.ansatz m)

let qaoa_prepared ~kind ~n ~p =
  let reg, er = qaoa_graphs n in
  let g = match kind with `Regular -> reg | `Erdos -> er in
  prepared
    (Printf.sprintf "%s%dp%d"
       (match kind with `Regular -> "3reg" | `Erdos -> "er")
       n p)
    (Qaoa.circuit g ~p)

let kind_name = function `Regular -> "3-Regular" | `Erdos -> "Erdos-Renyi"

(* All four strategies on one prepared circuit (model engine). *)
let compile_all c ~theta =
  let engine = Engine.model in
  ( Compiler.gate_based c ~theta,
    Compiler.strict_partial ~engine c ~theta,
    Compiler.flexible_partial ~engine c ~theta,
    Compiler.full_grape ~engine c ~theta )

(* ------------------------------------------------------------------ *)
(* Table 1: gate set pulse durations                                   *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "table1" "gate-set pulse durations (ns)";
  let numeric_settings =
    { Grape.fast_settings with Grape.dt = 0.1;
      max_iters = (if full_mode then 500 else 350); target_fidelity = 0.999 }
  in
  let numeric n circuit upper =
    let sys = Hamiltonian.gmon n in
    match
      Grape.minimal_time ~settings:numeric_settings ~upper_bound:upper sys
        ~target:(Circuit.unitary circuit)
    with
    | Some s -> Printf.sprintf "%.1f" s.Grape.minimal.Grape.total_time
    | None -> "-"
  in
  let gates =
    [ ("Rz", Circuit.of_gates 1 [ (Gate.Rz (Param.const Float.pi), [ 0 ]) ], 2.0, Gate_times.rz);
      ("Rx", Circuit.of_gates 1 [ (Gate.Rx (Param.const Float.pi), [ 0 ]) ], 5.0, Gate_times.rx);
      ("H", Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ], 4.0, Gate_times.h);
      ("CX", Circuit.of_gates 2 [ (Gate.CX, [ 0; 1 ]) ], 8.0, Gate_times.cx);
      ("SWAP", Circuit.of_gates 2 [ (Gate.Swap, [ 0; 1 ]) ], 10.0, Gate_times.swap) ]
  in
  let t = Table.create [ "gate"; "paper (ns)"; "lookup"; "model"; "numeric GRAPE" ] in
  List.iter
    (fun (name, circuit, upper, paper) ->
      Table.add_row t
        [ name; Table.cell_f paper;
          Table.cell_f (Gate_times.circuit_duration circuit);
          Table.cell_f (Pulse_model.block_duration circuit);
          numeric (Circuit.n_qubits circuit) circuit upper ])
    gates;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Table 2: VQE-UCCSD benchmark statistics                              *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "table2" "VQE-UCCSD benchmarks (width, params, gate-based runtime)";
  let paper =
    [ ("H2", 35.0); ("LiH", 872.0); ("BeH2", 5308.0); ("NaH", 5490.0); ("H2O", 33842.0) ]
  in
  let t =
    Table.create
      [ "molecule"; "qubits"; "params"; "gate-based (ns)"; "paper (ns)"; "theta-gate %" ]
  in
  List.iter
    (fun m ->
      let c = vqe_prepared m in
      Table.add_row t
        [ m.Molecule.name;
          string_of_int m.Molecule.n_qubits;
          string_of_int (Molecule.n_params m);
          Table.cell_f (Gate_times.circuit_duration c);
          Table.cell_f (List.assoc m.Molecule.name paper);
          Table.cell_f (100.0 *. (1.0 -. Slice.fixed_gate_fraction c)) ])
    Molecule.all;
  Table.print t;
  note "Paper: theta gates are 5-8%% of VQE-UCCSD gates (Section 6).\n"

(* ------------------------------------------------------------------ *)
(* Table 3: QAOA gate-based runtimes                                    *)
(* ------------------------------------------------------------------ *)

let paper_table3 =
  [ (`Regular, 6, 1, 113.0); (`Erdos, 6, 1, 84.0); (`Regular, 8, 1, 163.0); (`Erdos, 8, 1, 157.0);
    (`Regular, 6, 2, 199.0); (`Erdos, 6, 2, 151.0); (`Regular, 8, 2, 365.0); (`Erdos, 8, 2, 297.0);
    (`Regular, 6, 3, 277.0); (`Erdos, 6, 3, 223.0); (`Regular, 8, 3, 530.0); (`Erdos, 8, 3, 443.0);
    (`Regular, 6, 4, 356.0); (`Erdos, 6, 4, 296.0); (`Regular, 8, 4, 695.0); (`Erdos, 8, 4, 596.0);
    (`Regular, 6, 5, 434.0); (`Erdos, 6, 5, 368.0); (`Regular, 8, 5, 860.0); (`Erdos, 8, 5, 750.0);
    (`Regular, 6, 6, 512.0); (`Erdos, 6, 6, 440.0); (`Regular, 8, 6, 1025.0); (`Erdos, 8, 6, 903.0);
    (`Regular, 6, 7, 590.0); (`Erdos, 6, 7, 512.0); (`Regular, 8, 7, 1191.0); (`Erdos, 8, 7, 1056.0);
    (`Regular, 6, 8, 668.0); (`Erdos, 6, 8, 584.0); (`Regular, 8, 8, 1356.0); (`Erdos, 8, 8, 1209.0) ]

let table3 () =
  section "table3" "QAOA MAXCUT gate-based runtimes (32 circuits)";
  let t =
    Table.create
      [ "p"; "3-Reg N=6"; "paper"; "ER N=6"; "paper"; "3-Reg N=8"; "paper"; "ER N=8"; "paper" ]
  in
  for p = 1 to 8 do
    let dur kind n = Gate_times.circuit_duration (qaoa_prepared ~kind ~n ~p) in
    let paper kind n =
      List.find_map
        (fun (k, n', p', v) -> if k = kind && n' = n && p' = p then Some v else None)
        paper_table3
      |> Option.get
    in
    Table.add_row t
      [ string_of_int p;
        Table.cell_f (dur `Regular 6); Table.cell_f (paper `Regular 6);
        Table.cell_f (dur `Erdos 6); Table.cell_f (paper `Erdos 6);
        Table.cell_f (dur `Regular 8); Table.cell_f (paper `Regular 8);
        Table.cell_f (dur `Erdos 8); Table.cell_f (paper `Erdos 8) ]
  done;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 2: K4 clique — gate-based linear in p, GRAPE asymptotes       *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  section "fig2" "MAXCUT on the 4-node clique: gate-based vs full GRAPE vs p";
  let k4 = Graph.clique 4 in
  let engine = Engine.model in
  let t = Table.create [ "p"; "gate-based (ns)"; "GRAPE (ns)"; "ratio"; "paper ratio" ] in
  let paper_ratio = [ (1, 2.0); (6, 12.0) ] in
  List.iter
    (fun p ->
      (* Routed to a line and GRAPE'd as a single 4-qubit block. *)
      let c = prepared (Printf.sprintf "k4p%d" p) (Qaoa.circuit k4 ~p) in
      let theta = theta_for (500 + p) c in
      let g = Compiler.gate_based c ~theta in
      let fg = Compiler.full_grape ~engine c ~theta in
      let ratio = g.Strategy.duration_ns /. fg.Strategy.duration_ns in
      Table.add_row t
        [ string_of_int p;
          Table.cell_f g.Strategy.duration_ns;
          Table.cell_f fg.Strategy.duration_ns;
          Table.cell_x ratio;
          (match List.assoc_opt p paper_ratio with
          | Some r -> Table.cell_x r
          | None -> "") ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Table.print t;
  note "Paper: GRAPE times asymptote below 50 ns while gate-based grows linearly.\n"

(* ------------------------------------------------------------------ *)
(* Figure 4: hyperparameter robustness across angle bindings            *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  section "fig4" "GRAPE error vs ADAM learning rate, across angle bindings";
  note
    "Numeric engine on the single-angle flexible slices of the H2 UCCSD\n\
     ansatz (2 qubits; the paper uses 4-qubit LiH slices — same protocol,\n\
     reduced width so the sweep runs on one CPU; see DESIGN.md).\n";
  let slices = Slice.flexible (vqe_prepared Molecule.h2) in
  let sys = Hamiltonian.gmon 2 in
  let settings =
    { Grape.fast_settings with Grape.dt = 0.2;
      max_iters = (if full_mode then 300 else 150) }
  in
  let lr_grid = Stats.logspace (-2.0) 0.5 6 in
  let angles = [| 0.4; 1.2; 2.7 |] in
  List.iteri
    (fun idx (s : Slice.slice) ->
      match s.var with
      | None -> ()
      | Some v ->
        let target_of angle =
          let theta = Array.make (v + 1) 0.0 in
          theta.(v) <- angle;
          Circuit.unitary (Circuit.bind s.circuit theta)
        in
        let obj =
          { Hyperopt.system = sys; target_of;
            total_time = Gate_times.circuit_duration s.circuit *. 0.8;
            settings }
        in
        let points = Hyperopt.robustness ~lr_grid obj ~angles in
        let t =
          Table.create
            ("angle"
            :: List.map (fun lr -> Printf.sprintf "lr=%.3f" lr)
                 (Array.to_list lr_grid))
        in
        List.iter
          (fun (p : Hyperopt.robustness_point) ->
            Table.add_row t
              (Printf.sprintf "%.1f" p.angle
              :: List.map (fun (_, e) -> Printf.sprintf "%.3f" e) p.error_by_lr))
          points;
        Printf.printf "slice %d (theta_%d): final GRAPE error by learning rate\n" idx v;
        Table.print t;
        Printf.printf "best-lr stability across angles: %.2f (1.00 = perfectly robust)\n\n"
          (Hyperopt.best_lr_stability points))
    slices

(* ------------------------------------------------------------------ *)
(* Table 4 + Figures 5 and 6 (aggregate): pulse durations               *)
(* ------------------------------------------------------------------ *)

let paper_table4_vqe =
  [ ("H2", (35.3, 15.0, 5.0, 3.1)); ("LiH", (871.1, 307.0, 84.0, 19.3));
    ("BeH2", (5308.3, 2596.5, 2503.8, 2461.7)); ("NaH", (5490.4, 2842.7, 2770.8, 2752.0));
    ("H2O", (33842.2, 24781.4, 23546.7, 23546.7)) ]

let table4 () =
  section "table4" "pulse durations under the four strategies (Table 4, Figures 5-6)";
  let t =
    Table.create [ "benchmark"; "gate"; "strict"; "flex"; "grape"; "paper(g/s/f/G)" ]
  in
  let add_row name c paper =
    let theta = theta_for 42 c in
    let g, s, f, fg = compile_all c ~theta in
    Table.add_row t
      [ name;
        Table.cell_f g.Strategy.duration_ns;
        Table.cell_f s.Strategy.duration_ns;
        Table.cell_f f.Strategy.duration_ns;
        Table.cell_f fg.Strategy.duration_ns;
        paper ];
    (g, s, f, fg)
  in
  let vqe_results =
    List.map
      (fun m ->
        let paper =
          match List.assoc_opt m.Molecule.name paper_table4_vqe with
          | Some (a, b, c, d) -> Printf.sprintf "%.0f/%.0f/%.0f/%.0f" a b c d
          | None -> ""
        in
        (m.Molecule.name, add_row m.Molecule.name (vqe_prepared m) paper))
      Molecule.all
  in
  let qaoa_results =
    List.concat_map
      (fun (kind, n) ->
        List.map
          (fun p ->
            let name = Printf.sprintf "%s N=%d p=%d" (kind_name kind) n p in
            (n, add_row name (qaoa_prepared ~kind ~n ~p) ""))
          [ 1; 5 ])
      [ (`Regular, 6); (`Erdos, 6); (`Regular, 8); (`Erdos, 8) ]
  in
  Table.print t;

  Printf.printf "\nFigure 5 — VQE speedups over gate-based (paper strict/flex/grape:\n";
  Printf.printf "BeH2 2.04/2.12/2.15, NaH 1.93/1.98/2.00, H2O 1.37/1.44/1.44):\n";
  let t5 = Table.create [ "molecule"; "strict"; "flexible"; "grape" ] in
  List.iter
    (fun (name, (g, s, f, fg)) ->
      Table.add_row t5
        [ name;
          Table.cell_x (Strategy.speedup ~baseline:g s);
          Table.cell_x (Strategy.speedup ~baseline:g f);
          Table.cell_x (Strategy.speedup ~baseline:g fg) ])
    vqe_results;
  Table.print t5;

  Printf.printf "\nFigure 6 (aggregate) — QAOA speedups (paper: strict 1.22x/1.33x for\n";
  Printf.printf "N=6/8; flexible ~2.3x N=6, ~1.8x N=8, matching GRAPE):\n";
  let speedups n pick =
    qaoa_results
    |> List.filter_map (fun (n', r) -> if n' = n then Some (pick r) else None)
    |> Array.of_list
  in
  let t6 = Table.create [ "width"; "strict"; "flexible"; "grape" ] in
  List.iter
    (fun n ->
      let agg pick = Stats.geometric_mean (speedups n pick) in
      Table.add_row t6
        [ Printf.sprintf "N=%d" n;
          Table.cell_x (agg (fun (g, s, _, _) -> Strategy.speedup ~baseline:g s));
          Table.cell_x (agg (fun (g, _, f, _) -> Strategy.speedup ~baseline:g f));
          Table.cell_x (agg (fun (g, _, _, fg) -> Strategy.speedup ~baseline:g fg)) ])
    [ 6; 8 ];
  Table.print t6

(* Figure 6 detailed series: pulse durations vs p for all four families. *)
let figure6 () =
  section "fig6" "QAOA pulse durations vs p (per-family series)";
  List.iter
    (fun (kind, n) ->
      Printf.printf "\n%s N=%d:\n" (kind_name kind) n;
      let t = Table.create [ "p"; "gate"; "strict"; "flexible"; "grape" ] in
      for p = 1 to 8 do
        let c = qaoa_prepared ~kind ~n ~p in
        let theta = theta_for (42 + p) c in
        let g, s, f, fg = compile_all c ~theta in
        Table.add_row t
          [ string_of_int p;
            Table.cell_f g.Strategy.duration_ns;
            Table.cell_f s.Strategy.duration_ns;
            Table.cell_f f.Strategy.duration_ns;
            Table.cell_f fg.Strategy.duration_ns ]
      done;
      Table.print t)
    [ (`Regular, 6); (`Erdos, 6); (`Regular, 8); (`Erdos, 8) ]

(* ------------------------------------------------------------------ *)
(* Figure 7: compilation latency reduction of flexible vs full GRAPE    *)
(* ------------------------------------------------------------------ *)

let figure7 () =
  section "fig7" "compilation latency: flexible partial vs full GRAPE";
  let paper =
    [ ("BeH2", 56.0); ("NaH", 12.0); ("H2O", 15.0); ("3-Regular N=6", 80.0);
      ("3-Regular N=8", 82.0); ("Erdos-Renyi N=6", 44.0); ("Erdos-Renyi N=8", 15.0) ]
  in
  let t =
    Table.create
      [ "benchmark"; "grape s/iter"; "flex s/iter"; "reduction"; "paper"; "flex precompute" ]
  in
  let add name c =
    let theta = theta_for 42 c in
    let engine = Engine.model in
    let f = Compiler.flexible_partial ~engine c ~theta in
    let fg = Compiler.full_grape ~engine c ~theta in
    let reduction =
      fg.Strategy.per_iteration.Engine.seconds /. f.Strategy.per_iteration.Engine.seconds
    in
    Table.add_row t
      [ name;
        Table.cell_f fg.Strategy.per_iteration.Engine.seconds;
        Table.cell_f f.Strategy.per_iteration.Engine.seconds;
        Table.cell_x reduction;
        (match List.assoc_opt name paper with Some r -> Table.cell_x r | None -> "");
        Printf.sprintf "%.0f s" f.Strategy.precompute.Engine.seconds ]
  in
  List.iter
    (fun m -> add m.Molecule.name (vqe_prepared m))
    [ Molecule.beh2; Molecule.nah; Molecule.h2o ];
  List.iter
    (fun (kind, n) ->
      add (Printf.sprintf "%s N=%d" (kind_name kind) n) (qaoa_prepared ~kind ~n ~p:5))
    [ (`Regular, 6); (`Regular, 8); (`Erdos, 6); (`Erdos, 8) ];
  Table.print t;
  note
    "Flexible reruns one tuned GRAPE per slice (no binary search, tuned\n\
     hyperparameters); full GRAPE repeats the whole search every iteration.\n"

(* ------------------------------------------------------------------ *)
(* Table 5: standard vs realistic GRAPE settings                        *)
(* ------------------------------------------------------------------ *)

let table5 () =
  section "table5" "GRAPE speedup under standard vs realistic settings";
  note
    "Realistic = coarse sampling, qutrit leakage, aggressive pulse\n\
     regularization (paper Section 8.3).  Numeric engine on H2 VQE (2\n\
     qubits) and Erdos-Renyi N=3 QAOA.  In fast mode the 3-qubit realistic\n\
     run omits the leakage level (its 27-dimensional qutrit space exceeds\n\
     the fast budget; REPRO_MODE=full includes it).\n%!";
  let bench name circuit ~realistic_level =
    let circuit = Circuit.bind circuit (theta_for 42 circuit) in
    let n = Circuit.n_qubits circuit in
    let gate = Gate_times.circuit_duration circuit in
    let run level settings =
      let sys = Hamiltonian.gmon ~level n in
      match
        Grape.minimal_time ~settings ~precision:1.0 ~upper_bound:gate sys
          ~target:(Circuit.unitary circuit)
      with
      | Some s -> Some s.Grape.minimal.Grape.total_time
      | None -> None
    in
    let standard =
      run Hamiltonian.Qubit { Grape.fast_settings with Grape.dt = 0.25; max_iters = 700 }
    in
    let realistic =
      run realistic_level
        { Grape.realistic_settings with
          Grape.max_iters = (if full_mode then 1600 else 1000) }
    in
    let show = function
      | Some d -> Printf.sprintf "%.1f ns (%.1fx)" d (gate /. d)
      | None -> "-"
    in
    (name, gate, show standard, show realistic)
  in
  let h2 =
    bench "H2 VQE" (vqe_prepared Molecule.h2) ~realistic_level:Hamiltonian.Qutrit
  in
  let er3 =
    let g = Graph.cycle 3 in
    bench "Erdos-Renyi N=3 QAOA"
      (prepared "er3p1" (Qaoa.circuit g ~p:1))
      ~realistic_level:
        (if full_mode then Hamiltonian.Qutrit else Hamiltonian.Qubit)
  in
  let t = Table.create [ "benchmark"; "gate (ns)"; "standard GRAPE"; "realistic GRAPE" ] in
  List.iter
    (fun (name, gate, std, real) -> Table.add_row t [ name; Table.cell_f gate; std; real ])
    [ h2; er3 ];
  Table.print t;
  note
    "Paper: H2 11.4x (standard) vs 8.8x (realistic); ER N=3 4.5x vs 3.0x —\n\
     realistic pulses keep most of the speedup.\n"

(* ------------------------------------------------------------------ *)
(* Section 8.4: aggregate impact on total runtime                      *)
(* ------------------------------------------------------------------ *)

let aggregate () =
  section "aggregate" "total compilation latency and success probability (Section 8.4)";
  note
    "BeH2 VQE at the paper's 3500 iterations (Kandala et al.): total\n\
     runtime compilation latency per strategy, plus the success-probability\n\
     advantage of the shorter pulses (decoherence is exponential in pulse\n\
     duration; T2 = 20 us).  Paper: full GRAPE would take years of latency;\n\
     strict partial compilation precompiles in under an hour and adds none.\n";
  let iterations = 3500 in
  let c = vqe_prepared Molecule.beh2 in
  let n_qubits = Circuit.n_qubits c in
  let theta = theta_for 42 c in
  let engine = Engine.model in
  let baseline = Compiler.gate_based c ~theta in
  let human_time s =
    if s < 120.0 then Printf.sprintf "%.0f s" s
    else if s < 7200.0 then Printf.sprintf "%.1f h" (s /. 3600.0)
    else if s < 2.0 *. 86400.0 then Printf.sprintf "%.1f h" (s /. 3600.0)
    else if s < 60.0 *. 86400.0 then Printf.sprintf "%.1f days" (s /. 86400.0)
    else Printf.sprintf "%.2f years" (s /. (365.25 *. 86400.0))
  in
  let t =
    Table.create
      [ "strategy"; "precompute"; "latency x3500 iters"; "pulse (ns)";
        "success prob"; "vs gate-based" ]
  in
  List.iter
    (fun strategy ->
      let r = Compiler.compile ~engine strategy c ~theta in
      let total =
        float_of_int iterations *. r.Strategy.per_iteration.Engine.seconds
      in
      let p =
        Pqc_pulse.Decoherence.success_probability ~n_qubits r.Strategy.duration_ns
      in
      let adv =
        Pqc_pulse.Decoherence.advantage ~n_qubits
          ~baseline_ns:baseline.Strategy.duration_ns r.Strategy.duration_ns
      in
      Table.add_row t
        [ r.Strategy.strategy;
          human_time r.Strategy.precompute.Engine.seconds;
          human_time total;
          Table.cell_f r.Strategy.duration_ns;
          Table.cell_f ~decimals:3 p;
          Table.cell_x adv ])
    Compiler.all_strategies;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Noisy-simulation check of the decoherence claim                      *)
(* ------------------------------------------------------------------ *)

let noise () =
  section "noise" "decoherence simulation: state fidelity under each strategy";
  note
    "Density-matrix simulation of the H2 VQE circuit with T1/T2 noise.\n\
     Each strategy's pulse compression is applied as a uniform time scale\n\
     on the gate schedule; fidelity is measured against the ideal final\n\
     state.  This turns the pulse-speedup numbers into the success\n\
     probabilities the paper argues for (Sections 1, 8.4).\n";
  let module Density = Pqc_quantum.Density in
  let module Schedule = Pqc_transpile.Schedule in
  let c = vqe_prepared Molecule.h2 in
  let theta = theta_for 42 c in
  let bound = Circuit.bind c theta in
  let ideal = Pqc_quantum.Statevec.run bound in
  let sched = Schedule.schedule ~duration:Gate_times.instr_duration bound in
  let base_timings =
    Array.to_list
      (Array.map
         (fun (e : Schedule.entry) ->
           { Density.instr = e.Schedule.instr; start_time = e.Schedule.start_time;
             duration = e.Schedule.finish_time -. e.Schedule.start_time })
         sched.Schedule.entries)
  in
  let engine = Engine.model in
  let baseline = Compiler.gate_based c ~theta in
  let t2_values = [ 2_000.0; 10_000.0; 50_000.0 ] in
  let t =
    Table.create
      ("strategy" :: "pulse (ns)"
      :: List.map (fun t2 -> Printf.sprintf "fid @T2=%.0fus" (t2 /. 1000.0)) t2_values)
  in
  List.iter
    (fun strategy ->
      let r = Compiler.compile ~engine strategy c ~theta in
      let scale = r.Strategy.duration_ns /. baseline.Strategy.duration_ns in
      let timings =
        List.map
          (fun (tm : Density.timing) ->
            { tm with
              Density.start_time = tm.Density.start_time *. scale;
              duration = tm.Density.duration *. scale })
          base_timings
      in
      let fids =
        List.map
          (fun t2 ->
            let rho =
              Density.run_noisy ~t1_ns:(1.5 *. t2) ~t2_ns:t2
                ~n:(Circuit.n_qubits c) timings
            in
            Table.cell_f ~decimals:4 (Density.fidelity_to rho ideal))
          t2_values
      in
      Table.add_row t
        (r.Strategy.strategy :: Table.cell_f r.Strategy.duration_ns :: fids))
    Compiler.all_strategies;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablation_blocking () =
  section "ablation-blocking" "full-GRAPE pulse duration vs blocking width";
  let t = Table.create [ "benchmark"; "k=2"; "k=3"; "k=4" ] in
  let engine = Engine.model in
  let add name c =
    let theta = theta_for 42 c in
    let dur k = (Compiler.full_grape ~max_width:k ~engine c ~theta).Strategy.duration_ns in
    Table.add_row t
      [ name; Table.cell_f (dur 2); Table.cell_f (dur 3); Table.cell_f (dur 4) ]
  in
  add "BeH2" (vqe_prepared Molecule.beh2);
  add "3-Regular N=6 p=3" (qaoa_prepared ~kind:`Regular ~n:6 ~p:3);
  Table.print t;
  note "Wider blocks give GRAPE more scope (the paper fixes k=4, Section 5.2).\n"

(* Strict slicing variants: the Figure-3b region slicing vs the linear
   alternation (the compiler normally takes the better of the two). *)
let ablation_slicing () =
  section "ablation-slicing" "strict partial compilation: region vs linear slicing";
  let engine = Engine.model in
  let t = Table.create [ "benchmark"; "gate"; "region slicing"; "linear slicing" ] in
  let strict_with slicer c theta =
    let jobs = ref [] and cost = ref Engine.zero_cost in
    List.iter
      (fun (s : Slice.slice) ->
        match s.Slice.var with
        | None ->
          List.iter
            (fun (b : Pqc_transpile.Block.block) ->
              let r = Engine.search engine (Pqc_transpile.Block.extract b) in
              cost := Engine.add_cost !cost r.Engine.search_cost;
              jobs :=
                { Strategy.label = "blk"; qubits = b.Pqc_transpile.Block.qubits;
                  duration = r.Engine.duration_ns }
                :: !jobs)
            (Pqc_transpile.Block.partition ~max_width:4 s.Slice.circuit)
        | Some _ ->
          Circuit.iter
            (fun (i : Circuit.instr) ->
              jobs :=
                { Strategy.label = "theta"; qubits = Array.to_list i.qubits;
                  duration = Gate_times.instr_duration i }
                :: !jobs)
            (Circuit.bind s.Slice.circuit theta))
      (slicer c);
    Strategy.makespan ~n:(Circuit.n_qubits c) (List.rev !jobs)
  in
  let add name c =
    let theta = theta_for 42 c in
    Table.add_row t
      [ name;
        Table.cell_f (Gate_times.circuit_duration (Circuit.bind c theta));
        Table.cell_f (strict_with Slice.strict c theta);
        Table.cell_f (strict_with Slice.strict_linear c theta) ]
  in
  add "BeH2" (vqe_prepared Molecule.beh2);
  add "H2O" (vqe_prepared Molecule.h2o);
  add "3-Regular N=6 p=1" (qaoa_prepared ~kind:`Regular ~n:6 ~p:1);
  add "3-Regular N=6 p=5" (qaoa_prepared ~kind:`Regular ~n:6 ~p:5);
  Table.print t;
  note
    "Linear slicing preserves deep fixed runs (VQE); region slicing keeps\n\
     cross-parameter parallelism (QAOA).  strict_partial takes the min.\n"

let ablation_transpile () =
  section "ablation-transpile" "gate-based runtime with/without optimization passes";
  let t = Table.create [ "benchmark"; "route only (ns)"; "optimized (ns)"; "gain" ] in
  let add name circuit =
    let topo = Topology.line (Circuit.n_qubits circuit) in
    let route_only = (Route.route topo circuit).Route.routed in
    let optimized = prepared name circuit in
    let a = Gate_times.circuit_duration route_only in
    let b = Gate_times.circuit_duration optimized in
    Table.add_row t [ name; Table.cell_f a; Table.cell_f b; Table.cell_x (a /. b) ]
  in
  add "LiH" (Uccsd.ansatz Molecule.lih);
  add "BeH2" (Uccsd.ansatz Molecule.beh2);
  (let reg, _ = qaoa_graphs 6 in
   add "3reg6p3" (Qaoa.circuit reg ~p:3));
  Table.print t;
  note "The paper's baseline includes these passes; so does ours (Section 4.1).\n"

(* QAOA solution quality vs p (Section 4.2's motivation: "at p = 1, QAOA
   ... yields a cut of size at least 69% of the optimal"; ratios improve
   with p). *)
let qaoa_quality () =
  section "qaoa-quality" "QAOA MAXCUT approximation ratio vs p (end-to-end)";
  let t = Table.create [ "graph"; "p=1"; "p=2"; "p=3" ] in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let g = Graph.random_regular rng ~degree:3 6 in
      let ratio p =
        (Qaoa.optimize ~max_evals:400 ~seed g ~p).Qaoa.approximation_ratio
      in
      Table.add_row t
        [ Printf.sprintf "3-regular N=6 (seed %d)" seed;
          Table.cell_f ~decimals:3 (ratio 1);
          Table.cell_f ~decimals:3 (ratio 2);
          Table.cell_f ~decimals:3 (ratio 3) ])
    [ 11; 12; 13 ];
  Table.print t;
  note "Paper (citing Farhi et al.): p=1 guarantees >= 0.69; quality grows with p.\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: compile-call latency per strategy         *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "micro" "bechamel micro-benchmarks of compile calls (model engine)";
  let open Bechamel in
  let c = vqe_prepared Molecule.lih in
  let theta = theta_for 42 c in
  let engine = Engine.model in
  let mk strategy =
    Test.make
      ~name:(Compiler.strategy_name strategy)
      (Staged.stage (fun () -> ignore (Compiler.compile ~engine strategy c ~theta)))
  in
  let test =
    Test.make_grouped ~name:"compile-lih" ~fmt:"%s %s"
      (List.map mk Compiler.all_strategies)
  in
  let benchmark () =
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
    Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let results = analyze (benchmark ()) in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-34s %12.1f ns/call\n" name est
      | Some _ | None -> Printf.printf "  %-34s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("table1", table1); ("table2", table2); ("table3", table3); ("fig2", figure2);
    ("fig4", figure4); ("table4", table4); ("fig6", figure6); ("fig7", figure7);
    ("table5", table5); ("aggregate", aggregate); ("noise", noise);
    ("ablation-blocking", ablation_blocking);
    ("ablation-slicing", ablation_slicing); ("qaoa-quality", qaoa_quality);
    ("ablation-transpile", ablation_transpile); ("micro", micro) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | [ _ ] | [] -> List.map fst experiments
  in
  Printf.printf "partial-compilation benchmark harness (%s mode)\n"
    (if full_mode then "full" else "fast");
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        (* Wall clock: [Sys.time] is process CPU time, which misses the
           forked workers' CPU entirely and overstates multi-domain runs. *)
        let t0 = Pqc_obs.Obs.Clock.now () in
        f ();
        Printf.printf "[%s done in %.1f s]\n%!" name (Pqc_obs.Obs.Clock.now () -. t0)
      | None ->
        Printf.printf "unknown experiment %S; available: %s\n" name
          (String.concat " " (List.map fst experiments)))
    requested
