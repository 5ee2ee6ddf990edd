module Rng = Pqc_util.Rng
module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Gate_times = Pqc_pulse.Gate_times
module Hamiltonian = Pqc_grape.Hamiltonian
module Grape = Pqc_grape.Grape
module Pulse_model = Pqc_analysis.Pulse_model
module Latency_model = Pqc_analysis.Latency_model
module Engine = Pqc_core.Engine
module Strategy = Pqc_core.Strategy
module Compiler = Pqc_core.Compiler
module Molecule = Pqc_vqe.Molecule
module Uccsd = Pqc_vqe.Uccsd
module Graph = Pqc_qaoa.Graph
module Qaoa = Pqc_qaoa.Qaoa

let theta_for rng c =
  let n = Circuit.n_params c in
  Array.init n (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:(2.0 *. Float.pi))

let random_block rng n len =
  let b = Circuit.Builder.create n in
  for _ = 1 to len do
    let q = Rng.int rng n in
    match Rng.int rng 5 with
    | 0 -> Circuit.Builder.add b Gate.H [ q ]
    | 1 -> Circuit.Builder.add b (Gate.Rx (Param.const (Rng.uniform rng ~lo:(-3.0) ~hi:3.0))) [ q ]
    | 2 -> Circuit.Builder.add b (Gate.Rz (Param.const (Rng.uniform rng ~lo:(-3.0) ~hi:3.0))) [ q ]
    | _ when n >= 2 ->
      let q2 = (q + 1 + Rng.int rng (n - 1)) mod n in
      Circuit.Builder.add b Gate.CX [ q; q2 ]
    | _ -> Circuit.Builder.add b Gate.X [ q ]
  done;
  Circuit.Builder.to_circuit b

(* --- Pulse model --- *)

let test_model_single_gates () =
  let d gates = Pulse_model.block_duration (Circuit.of_gates 2 gates) in
  Alcotest.(check (float 0.05)) "rz(pi)" 0.4 (d [ (Gate.Rz (Param.const Float.pi), [0]) ]);
  Alcotest.(check (float 0.05)) "rx(pi)" 2.5 (d [ (Gate.Rx (Param.const Float.pi), [0]) ]);
  Alcotest.(check (float 0.05)) "cx" 3.8 (d [ (Gate.CX, [0;1]) ]);
  Alcotest.(check bool) "h at most lookup" true (d [ (Gate.H, [0]) ] <= 1.4 +. 1e-9)

let test_model_fractional_rotation () =
  let d angle =
    Pulse_model.block_duration
      (Circuit.of_gates 1 [ (Gate.Rx (Param.const angle), [0]) ])
  in
  Alcotest.(check bool) "fractional cheaper" true (d 0.3 < d 3.0);
  Alcotest.(check bool) "wrap-around" true (d 6.0 < d 3.2)

let test_model_zz_sandwich () =
  (* CX . Rz(gamma) . CX is priced as a fractional ZZ, far below 2 CX. *)
  let sandwich =
    Circuit.of_gates 2
      [ (Gate.CX, [0;1]); (Gate.Rz (Param.const 0.6), [1]); (Gate.CX, [0;1]) ]
  in
  let two_cx = 2.0 *. 3.8 in
  Alcotest.(check bool) "fractional zz" true
    (Pulse_model.block_duration sandwich < 0.5 *. two_cx)

let test_model_pair_compression () =
  (* Repeated CXs on one pair are cheaper than first-CX price times count:
     GRAPE compiles the pair's composite unitary (calibration corpus,
     EXPERIMENTS.md). *)
  let chain k =
    Pulse_model.block_duration
      (Circuit.of_instrs 2
         (List.concat
            (List.init k (fun i ->
                 [ { Circuit.gate = Gate.H; qubits = [| i mod 2 |] };
                   { Circuit.gate = Gate.CX; qubits = [| 0; 1 |] } ]))))
  in
  Alcotest.(check bool) "3 interleaved CX cheaper than 3 lone CX" true
    (chain 3 < (3.0 *. 3.8) +. (3.0 *. 1.4));
  Alcotest.(check bool) "monotone in depth" true (chain 1 <= chain 3 +. 1e-9)

let test_model_swap_price () =
  let swap = Circuit.of_gates 2 [ (Gate.Swap, [ 0; 1 ]) ] in
  Alcotest.(check bool) "swap near its lookup price" true
    (Float.abs (Pulse_model.block_duration swap -. 7.4) < 0.6)

let test_model_cap_binds () =
  (* A very deep 2-qubit block asymptotes to the 2-qubit any-unitary cap:
     the Figure 2 phenomenon. *)
  let rng = Rng.create 5 in
  let deep = random_block rng 2 200 in
  Alcotest.(check bool) "capped" true
    (Pulse_model.block_duration deep <= Pulse_model.cap 2 +. 1e-9)

let test_model_monotone_caps () =
  Alcotest.(check bool) "caps grow with width" true
    (Pulse_model.cap 1 < Pulse_model.cap 2
    && Pulse_model.cap 2 < Pulse_model.cap 3
    && Pulse_model.cap 3 < Pulse_model.cap 4)

let test_model_empty () =
  Alcotest.(check (float 1e-12)) "empty" 0.0
    (Pulse_model.block_duration (Circuit.empty 2))

let test_model_rejects_parametrized () =
  let c = Circuit.of_gates 1 [ (Gate.Rz (Param.var 0), [0]) ] in
  Alcotest.(check bool) "raises" true
    (try ignore (Pulse_model.block_duration c); false
     with Invalid_argument _ -> true)

let test_model_rejects_wide () =
  Alcotest.(check bool) "width > 4" true
    (try ignore (Pulse_model.block_duration (Circuit.of_gates 5 [ (Gate.H, [4]) ])); false
     with Invalid_argument _ -> true)

let prop_model_never_beats_zero_and_never_worse_than_lookup =
  QCheck.Test.make ~name:"model within [0, gate-based]" ~count:60
    QCheck.(pair (int_range 0 100_000) (int_range 1 40))
    (fun (seed, len) ->
      let rng = Rng.create seed in
      let c = random_block rng 3 len in
      let m = Pulse_model.block_duration c in
      m >= 0.0 && m <= Gate_times.circuit_duration c +. 1e-9)

let prop_model_deterministic =
  QCheck.Test.make ~name:"model pricing is deterministic" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = random_block rng 3 20 in
      Pulse_model.block_duration c = Pulse_model.block_duration c)

(* --- Latency model --- *)

let test_latency_model_shape () =
  Alcotest.(check bool) "iterations grow with width" true
    (Latency_model.default_iterations 1 < Latency_model.default_iterations 4);
  Alcotest.(check bool) "tuning speedup > 1" true (Latency_model.tuning_speedup 2 > 1.0);
  Alcotest.(check bool) "seconds grow with steps" true
    (Latency_model.seconds_per_iteration ~width:3 ~steps:10
    < Latency_model.seconds_per_iteration ~width:3 ~steps:100)

(* --- Engine --- *)

let test_engine_cost_arithmetic () =
  let a = { Engine.grape_runs = 1; grape_iterations = 10; seconds = 0.5 } in
  let b = { Engine.grape_runs = 2; grape_iterations = 20; seconds = 1.0 } in
  let s = Engine.add_cost a b in
  Alcotest.(check int) "runs" 3 s.Engine.grape_runs;
  Alcotest.(check int) "iters" 30 s.Engine.grape_iterations;
  Alcotest.(check (float 1e-12)) "seconds" 1.5 s.Engine.seconds

let test_engine_model_empty_block () =
  let r = Engine.search Engine.model (Circuit.empty 2) in
  Alcotest.(check (float 1e-12)) "zero duration" 0.0 r.Engine.duration_ns

let test_engine_model_costs_populated () =
  let c = Circuit.of_gates 2 [ (Gate.CX, [0;1]); (Gate.H, [0]) ] in
  let r = Engine.search Engine.model c in
  Alcotest.(check bool) "duration positive" true (r.Engine.duration_ns > 0.0);
  Alcotest.(check bool) "search cost positive" true (r.Engine.search_cost.Engine.seconds > 0.0);
  Alcotest.(check int) "probes" Latency_model.probes_per_search
    r.Engine.search_cost.Engine.grape_runs

let test_engine_rejects_unbound () =
  let c = Circuit.of_gates 1 [ (Gate.Rz (Param.var 0), [0]) ] in
  Alcotest.(check bool) "raises" true
    (try ignore (Engine.search Engine.model c); false
     with Invalid_argument _ -> true)

let test_engine_numeric_1q () =
  let engine = Engine.numeric ~settings:{ Grape.fast_settings with Grape.dt = 0.2; max_iters = 250 } () in
  let c = Circuit.of_gates 1 [ (Gate.H, [0]) ] in
  let r = Engine.search engine c in
  Alcotest.(check bool) "beats or matches lookup" true
    (r.Engine.duration_ns <= Gate_times.circuit_duration c +. 0.21);
  match r.Engine.fidelity with
  | Some f -> Alcotest.(check bool) "fidelity reported" true (f >= 0.99)
  | None -> Alcotest.fail "numeric engine must report fidelity"

let test_engine_numeric_cached () =
  let engine = Engine.numeric ~settings:{ Grape.fast_settings with Grape.dt = 0.2; max_iters = 250 } () in
  let c = Circuit.of_gates 1 [ (Gate.H, [0]) ] in
  let t0 = Sys.time () in
  ignore (Engine.search engine c);
  let first = Sys.time () -. t0 in
  let t1 = Sys.time () in
  ignore (Engine.search engine c);
  let second = Sys.time () -. t1 in
  Alcotest.(check bool) "cache hit much faster" true (second < first /. 5.0 +. 1e-3)

let test_search_seconds_sum_probes () =
  (* Regression: [search_cost.seconds] was the minimal probe's time per
     iteration times the search's total iterations, though the first
     probes (at the upper bound and twice it) are several times longer.
     With a clock that advances 1 s per reading every GRAPE run measures
     exactly 1 s, so the summed time equals the run count.  At dt 1.0 the
     CX search's late probes round to step counts it already ran; those
     reuse the run, and neither its seconds nor [grape_runs] count them
     again. *)
  List.iter
    (fun (dt, c, repeats) ->
      let engine =
        Engine.numeric
          ~settings:{ Grape.fast_settings with Grape.dt; max_iters = 250 }
          ()
      in
      let t = ref 0.0 in
      Pqc_obs.Obs.Clock.set (fun () ->
          t := !t +. 1.0;
          !t);
      let r =
        Fun.protect ~finally:Pqc_obs.Obs.Clock.reset (fun () ->
            Engine.search engine c)
      in
      let runs = r.Engine.search_cost.Engine.grape_runs in
      Alcotest.(check bool) "the search converged" true (r.Engine.fallback = None);
      Alcotest.(check bool) "several probes" true (runs > 2);
      Alcotest.(check (float 0.0)) "one second per run" (float_of_int runs)
        r.Engine.search_cost.Engine.seconds;
      if repeats then begin
        (* The bisection probes the bound, then halves [0, hi] (hi at
           least the bound) down to the default 0.3 ns precision. *)
        let upper = Float.max (Gate_times.circuit_duration c) (4.0 *. dt) in
        let probes = 1 + int_of_float (Float.ceil (Float.log2 (upper /. 0.3))) in
        Alcotest.(check bool) "fewer runs than bisection probes" true
          (runs < probes)
      end)
    [ (0.2, Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ], false);
      (1.0, Circuit.of_gates 2 [ (Gate.CX, [ 0; 1 ]) ], true) ]

let test_hyperopt_cost_wall_clock () =
  (* Regression for the timing-clock bug: [hyperopt_cost]'s [seconds] was
     [Sys.time]-based (process CPU time) and started after [system_for]
     ran.  A sleeping [system_for] burns no CPU, so the old clock reported
     ~0 for it on both counts; the wall clock started before construction
     must see the sleep. *)
  let engine =
    Engine.numeric
      ~settings:{ Grape.fast_settings with Grape.max_iters = 2 }
      ~system_for:(fun w ->
        Unix.sleepf 0.08;
        Hamiltonian.gmon w)
      ()
  in
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
  let cost = Engine.hyperopt_cost engine c ~duration:2.0 in
  Alcotest.(check bool) "wall clock sees the sleep" true
    (cost.Engine.seconds >= 0.05)

(* The engine's grid: 4 learning rates x 2 decays, one probe angle. *)
let engine_grid =
  Array.to_list (Pqc_util.Stats.logspace (-1.0) 0.3 4)
  |> List.concat_map (fun learning_rate ->
         [ { Grape.learning_rate; decay = 0.998 };
           { Grape.learning_rate; decay = 1.0 } ])

let test_hyperopt_cost_counts_every_cell () =
  (* Regression: the grid reported 8 runs at 8x the winner's iterations,
     under-counting the losers' work and over-counting runs a deadline
     skipped. *)
  let settings = { Grape.fast_settings with Grape.max_iters = 30 } in
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
  let duration = 4.0 in
  let cost = Engine.hyperopt_cost (Engine.numeric ~settings ()) c ~duration in
  let iterations =
    List.map
      (fun hyperparams ->
        (Grape.optimize ~settings:{ settings with Grape.hyperparams }
           (Hamiltonian.gmon 1) ~target:(Circuit.unitary c)
           ~total_time:duration)
          .Grape.iterations)
      engine_grid
  in
  Alcotest.(check int) "one run per cell" (List.length engine_grid)
    cost.Engine.grape_runs;
  Alcotest.(check int) "iterations summed over every cell"
    (List.fold_left ( + ) 0 iterations)
    cost.Engine.grape_iterations;
  (* A deadline that has passed by the first cell's end cuts the grid to
     that one cell. *)
  let cut =
    Engine.hyperopt_cost (Engine.numeric ~settings ~deadline_s:1e-9 ()) c
      ~duration
  in
  Alcotest.(check int) "only the scored cell counted" 1 cut.Engine.grape_runs

let test_flex_tuned_run_uses_winner () =
  let settings = { Grape.fast_settings with Grape.max_iters = 60 } in
  let block =
    Circuit.of_gates 1 [ (Gate.Rz (Param.var 0), [ 0 ]); (Gate.H, [ 0 ]) ]
  in
  let theta = [| 0.7 |] in
  let engine = Engine.numeric ~settings () in
  match Engine.flex_many ~workers:1 engine ~theta [ block ] with
  | [ fr ], _, _ ->
    let winner =
      match fr.Engine.hyperparams with
      | Some hp -> hp
      | None -> Alcotest.fail "numeric flex result carries no winner"
    in
    let expected =
      Grape.optimize ~settings:{ settings with Grape.hyperparams = winner }
        (Hamiltonian.gmon 1)
        ~target:(Circuit.unitary (Circuit.bind block theta))
        ~total_time:fr.Engine.search.Engine.duration_ns
    in
    Alcotest.(check int) "tuned run at the winner's hyperparameters"
      expected.Grape.iterations fr.Engine.tuned.Engine.grape_iterations
  | _ -> Alcotest.fail "one result per block"

let test_tuned_run_cheaper_than_search () =
  let c = Circuit.of_gates 2 [ (Gate.CX, [0;1]); (Gate.H, [0]); (Gate.CX, [0;1]) ] in
  let search = (Engine.search Engine.model c).Engine.search_cost in
  let tuned = Engine.tuned_run_cost Engine.model c ~duration:5.0 in
  Alcotest.(check bool) "tuned iterations lower" true
    (tuned.Engine.grape_iterations * 5 < search.Engine.grape_iterations)

(* --- Strategy scheduling --- *)

let test_makespan_parallel () =
  let jobs =
    [ { Strategy.label = "a"; qubits = [ 0; 1 ]; duration = 10.0 };
      { Strategy.label = "b"; qubits = [ 2; 3 ]; duration = 7.0 } ]
  in
  Alcotest.(check (float 1e-12)) "disjoint jobs overlap" 10.0 (Strategy.makespan ~n:4 jobs)

let test_makespan_serial () =
  let jobs =
    [ { Strategy.label = "a"; qubits = [ 0; 1 ]; duration = 10.0 };
      { Strategy.label = "b"; qubits = [ 1; 2 ]; duration = 7.0 } ]
  in
  Alcotest.(check (float 1e-12)) "overlapping jobs serialize" 17.0
    (Strategy.makespan ~n:3 jobs)

let test_speedup () =
  let mk d = { Strategy.strategy = ""; duration_ns = d; precompute = Engine.zero_cost;
               per_iteration = Engine.zero_cost; pulse = Pqc_pulse.Pulse.empty;
               degradations = []; pool = Engine.zero_pool_stats } in
  Alcotest.(check (float 1e-12)) "2x" 2.0 (Strategy.speedup ~baseline:(mk 10.0) (mk 5.0))

(* --- Compiler: the paper's headline relationships --- *)

let benchmark_circuits () =
  let rng = Rng.create 3 in
  let g6 = Graph.random_regular rng ~degree:3 6 in
  [ ("H2", Uccsd.ansatz Molecule.h2); ("LiH", Uccsd.ansatz Molecule.lih);
    ("BeH2", Uccsd.ansatz Molecule.beh2); ("QAOA-p2", Qaoa.circuit g6 ~p:2) ]

let compiled_all name c =
  let prep = Compiler.prepare c in
  let theta = theta_for (Rng.create 42) prep in
  let engine = Engine.model in
  ( name,
    Compiler.gate_based prep ~theta,
    Compiler.strict_partial ~engine prep ~theta,
    Compiler.flexible_partial ~engine prep ~theta,
    Compiler.full_grape ~engine prep ~theta )

let test_strict_never_worse () =
  (* Section 6: "strict partial compilation is strictly better than
     gate-based compilation". *)
  List.iter
    (fun (name, c) ->
      let _, g, s, _, _ = compiled_all name c in
      Alcotest.(check bool) (name ^ " strict <= gate") true
        (s.Strategy.duration_ns <= g.Strategy.duration_ns +. 1e-9))
    (benchmark_circuits ())

let test_flexible_buys_speedup () =
  List.iter
    (fun (name, c) ->
      let _, g, _, f, _ = compiled_all name c in
      Alcotest.(check bool) (name ^ " flexible < gate") true
        (f.Strategy.duration_ns < g.Strategy.duration_ns))
    (benchmark_circuits ())

let test_grape_buys_speedup () =
  List.iter
    (fun (name, c) ->
      let _, g, _, _, fg = compiled_all name c in
      Alcotest.(check bool) (name ^ " grape < gate") true
        (fg.Strategy.duration_ns < g.Strategy.duration_ns))
    (benchmark_circuits ())

let test_latency_ordering () =
  (* Zero-latency strategies really have zero per-iteration cost, and
     flexible cuts full GRAPE's per-iteration latency dramatically. *)
  let _, g, s, f, fg = compiled_all "LiH" (Uccsd.ansatz Molecule.lih) in
  Alcotest.(check (float 1e-12)) "gate-based free" 0.0 g.Strategy.per_iteration.Engine.seconds;
  Alcotest.(check (float 1e-12)) "strict free" 0.0 s.Strategy.per_iteration.Engine.seconds;
  Alcotest.(check bool) "flexible 10x+ cheaper than grape" true
    (f.Strategy.per_iteration.Engine.seconds *. 10.0
    < fg.Strategy.per_iteration.Engine.seconds);
  Alcotest.(check bool) "strict precompute nonzero" true
    (s.Strategy.precompute.Engine.seconds > 0.0);
  Alcotest.(check bool) "flexible precompute includes hyperopt" true
    (f.Strategy.precompute.Engine.seconds > 0.0)

let test_strict_theta_independent_of_binding () =
  (* Strict never re-runs GRAPE: pulse duration reacts to theta only
     through the (angle-independent) lookup gates. *)
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let engine = Engine.model in
  let a = Compiler.strict_partial ~engine c ~theta:[| 0.1; 0.2; 0.3 |] in
  let b = Compiler.strict_partial ~engine c ~theta:[| 2.1; 1.2; 0.9 |] in
  Alcotest.(check (float 1e-9)) "same duration" a.Strategy.duration_ns b.Strategy.duration_ns

let test_compile_dispatch () =
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let theta = [| 0.5; 1.0; 1.5 |] in
  List.iter
    (fun strat ->
      let r = Compiler.compile ~engine:Engine.model strat c ~theta in
      Alcotest.(check string) "name matches" (Compiler.strategy_name strat)
        r.Strategy.strategy)
    Compiler.all_strategies

let test_prepare_legalizes () =
  let c = Circuit.of_gates 4 [ (Gate.CX, [0;3]) ] in
  let prep = Compiler.prepare c in
  Alcotest.(check bool) "routed to line" true
    (Pqc_transpile.Route.is_legal (Pqc_transpile.Topology.line 4) prep)

let test_figure2_asymptote () =
  (* Full GRAPE pulse length for K4 MAXCUT asymptotes with p while the
     gate-based length grows linearly (Figure 2). *)
  let k4 = Graph.clique 4 in
  let engine = Engine.model in
  let dur p =
    let c = Compiler.prepare (Qaoa.circuit k4 ~p) in
    let theta = theta_for (Rng.create (100 + p)) c in
    ( (Compiler.gate_based c ~theta).Strategy.duration_ns,
      (Compiler.full_grape ~engine c ~theta).Strategy.duration_ns )
  in
  let g1, f1 = dur 1 in
  let g6, f6 = dur 6 in
  Alcotest.(check bool) "gate-based grows ~linearly" true (g6 > 4.0 *. g1);
  Alcotest.(check bool) "grape asymptotes below 50 ns" true (f6 <= 50.0 +. 1e-9);
  Alcotest.(check bool) "ratio widens with p" true (g6 /. f6 > g1 /. f1)

(* Integration: the whole compiler stack over the real numeric GRAPE engine
   on a small 2-qubit variational circuit. *)
let test_numeric_engine_end_to_end () =
  let b = Circuit.Builder.create 2 in
  Circuit.Builder.add b Gate.H [ 0 ];
  Circuit.Builder.add b Gate.CX [ 0; 1 ];
  Circuit.Builder.add b (Gate.Rz (Param.var 0)) [ 1 ];
  Circuit.Builder.add b Gate.CX [ 0; 1 ];
  Circuit.Builder.add b (Gate.Rx (Param.var 1)) [ 0 ];
  Circuit.Builder.add b (Gate.Rx (Param.var 1)) [ 1 ];
  let c = Compiler.prepare (Circuit.Builder.to_circuit b) in
  let theta = [| 0.9; 0.4 |] in
  let engine =
    Engine.numeric
      ~settings:{ Grape.fast_settings with Grape.dt = 0.25; max_iters = 250 } ()
  in
  let g = Compiler.gate_based c ~theta in
  let s = Compiler.strict_partial ~engine c ~theta in
  let f = Compiler.flexible_partial ~engine c ~theta in
  let fg = Compiler.full_grape ~engine c ~theta in
  Alcotest.(check bool) "strict <= gate" true
    (s.Strategy.duration_ns <= g.Strategy.duration_ns +. 1e-9);
  Alcotest.(check bool) "flexible < gate" true
    (f.Strategy.duration_ns < g.Strategy.duration_ns);
  Alcotest.(check bool) "grape < gate" true
    (fg.Strategy.duration_ns < g.Strategy.duration_ns);
  Alcotest.(check bool) "numeric latencies measured" true
    (fg.Strategy.per_iteration.Engine.grape_iterations > 0
    && f.Strategy.per_iteration.Engine.grape_runs > 0);
  Alcotest.(check (float 1e-12)) "strict stays zero-latency" 0.0
    s.Strategy.per_iteration.Engine.seconds

let () =
  Alcotest.run "core"
    [ ( "pulse-model",
        [ Alcotest.test_case "single gates" `Quick test_model_single_gates;
          Alcotest.test_case "fractional rotations" `Quick test_model_fractional_rotation;
          Alcotest.test_case "zz sandwich" `Quick test_model_zz_sandwich;
          Alcotest.test_case "pair compression" `Quick test_model_pair_compression;
          Alcotest.test_case "swap price" `Quick test_model_swap_price;
          Alcotest.test_case "cap binds" `Quick test_model_cap_binds;
          Alcotest.test_case "caps monotone" `Quick test_model_monotone_caps;
          Alcotest.test_case "empty" `Quick test_model_empty;
          Alcotest.test_case "rejects parametrized" `Quick test_model_rejects_parametrized;
          Alcotest.test_case "rejects wide" `Quick test_model_rejects_wide;
          QCheck_alcotest.to_alcotest prop_model_never_beats_zero_and_never_worse_than_lookup;
          QCheck_alcotest.to_alcotest prop_model_deterministic ] );
      ( "latency-model",
        [ Alcotest.test_case "shape" `Quick test_latency_model_shape ] );
      ( "engine",
        [ Alcotest.test_case "cost arithmetic" `Quick test_engine_cost_arithmetic;
          Alcotest.test_case "empty block" `Quick test_engine_model_empty_block;
          Alcotest.test_case "model costs" `Quick test_engine_model_costs_populated;
          Alcotest.test_case "rejects unbound" `Quick test_engine_rejects_unbound;
          Alcotest.test_case "numeric 1q" `Slow test_engine_numeric_1q;
          Alcotest.test_case "numeric cached" `Slow test_engine_numeric_cached;
          Alcotest.test_case "search seconds sum every probe" `Quick
            test_search_seconds_sum_probes;
          Alcotest.test_case "hyperopt cost wall clock" `Slow
            test_hyperopt_cost_wall_clock;
          Alcotest.test_case "hyperopt cost counts every cell" `Quick
            test_hyperopt_cost_counts_every_cell;
          Alcotest.test_case "flex tuned run uses winner" `Quick
            test_flex_tuned_run_uses_winner;
          Alcotest.test_case "tuned cheaper" `Quick test_tuned_run_cheaper_than_search ] );
      ( "strategy",
        [ Alcotest.test_case "makespan parallel" `Quick test_makespan_parallel;
          Alcotest.test_case "makespan serial" `Quick test_makespan_serial;
          Alcotest.test_case "speedup" `Quick test_speedup ] );
      ( "compiler",
        [ Alcotest.test_case "strict never worse" `Quick test_strict_never_worse;
          Alcotest.test_case "flexible speedup" `Quick test_flexible_buys_speedup;
          Alcotest.test_case "grape speedup" `Quick test_grape_buys_speedup;
          Alcotest.test_case "latency ordering" `Quick test_latency_ordering;
          Alcotest.test_case "strict binding-independent" `Quick test_strict_theta_independent_of_binding;
          Alcotest.test_case "dispatch" `Quick test_compile_dispatch;
          Alcotest.test_case "prepare legalizes" `Quick test_prepare_legalizes;
          Alcotest.test_case "figure-2 asymptote" `Quick test_figure2_asymptote;
          Alcotest.test_case "numeric engine end-to-end" `Slow test_numeric_engine_end_to_end ] ) ]
