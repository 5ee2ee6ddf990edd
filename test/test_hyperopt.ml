module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Hamiltonian = Pqc_grape.Hamiltonian
module Grape = Pqc_grape.Grape
module Hyperopt = Pqc_hyperopt.Hyperopt

(* A 1-qubit single-angle slice: Rz(theta) H, the smallest realistic
   flexible-partial subcircuit. *)
let objective () =
  let sys = Hamiltonian.gmon 1 in
  let target_of angle =
    Circuit.unitary
      (Circuit.of_gates 1 [ (Gate.Rz (Param.const angle), [ 0 ]); (Gate.H, [ 0 ]) ])
  in
  { Hyperopt.system = sys; target_of; total_time = 2.4;
    settings = { Grape.fast_settings with Grape.dt = 0.2; max_iters = 200 } }

let test_evaluate_reports_convergence () =
  let obj = objective () in
  let s =
    Hyperopt.evaluate obj ~angles:[| 0.5; 2.0 |]
      { Grape.learning_rate = 0.3; decay = 0.999 }
  in
  Alcotest.(check bool) "good lr converges" true s.Hyperopt.converged_all;
  Alcotest.(check bool) "iterations positive" true (s.Hyperopt.iterations > 0.0)

let test_evaluate_bad_lr () =
  let obj = objective () in
  let s =
    Hyperopt.evaluate obj ~angles:[| 0.5 |]
      { Grape.learning_rate = 1e-6; decay = 0.999 }
  in
  Alcotest.(check bool) "tiny lr fails to converge" false s.Hyperopt.converged_all

let test_grid_search_beats_bad () =
  let obj = objective () in
  let search =
    Hyperopt.grid_search
      ~lr_grid:[| 1e-5; 0.3 |] ~decay_grid:[| 0.999 |] ~angles:[| 0.5 |] obj
  in
  let best = search.Hyperopt.best in
  Alcotest.(check bool) "picks the converging cell" true
    (best.Hyperopt.hyperparams.Grape.learning_rate > 1e-4);
  Alcotest.(check bool) "converged" true best.Hyperopt.converged_all;
  (* The work of every scored cell is reported, not just the winner's. *)
  Alcotest.(check int) "one run per cell" 2 search.Hyperopt.grape_runs;
  Alcotest.(check bool) "losing cell's iterations counted" true
    (search.Hyperopt.grape_iterations > best.Hyperopt.total_iterations);
  Alcotest.(check bool) "grid ran to the end" true search.Hyperopt.complete

let test_robustness_shape () =
  let obj = objective () in
  let points =
    Hyperopt.robustness ~lr_grid:[| 0.1; 0.3; 1.0 |] obj ~angles:[| 0.5; 2.5 |]
  in
  Alcotest.(check int) "one point per angle" 2 (List.length points);
  List.iter
    (fun (p : Hyperopt.robustness_point) ->
      Alcotest.(check int) "one error per lr" 3 (List.length p.error_by_lr);
      List.iter
        (fun (_, e) -> Alcotest.(check bool) "error in [0,1]" true (e >= 0.0 && e <= 1.0))
        p.error_by_lr)
    points

(* Synthetic robustness data exercises the stability metric without GRAPE. *)
let synth_point angle best =
  let lrs = [ 0.01; 0.1; 1.0 ] in
  { Hyperopt.angle;
    error_by_lr = List.map (fun lr -> (lr, if lr = best then 0.01 else 0.5)) lrs }

let test_stability_perfect () =
  let points = [ synth_point 0.5 0.1; synth_point 1.5 0.1; synth_point 2.5 0.1 ] in
  Alcotest.(check (float 1e-9)) "all agree" 1.0 (Hyperopt.best_lr_stability points)

let test_stability_partial () =
  (* One angle prefers a lr two grid steps away: not within one step. *)
  let points = [ synth_point 0.5 0.01; synth_point 1.5 0.01; synth_point 2.5 1.0 ] in
  let s = Hyperopt.best_lr_stability points in
  Alcotest.(check bool) "below 1" true (s < 1.0);
  Alcotest.(check bool) "above 0.5" true (s > 0.5)

let test_stability_empty () =
  Alcotest.(check (float 1e-9)) "vacuous" 1.0 (Hyperopt.best_lr_stability [])

let test_stability_diverged_lr () =
  (* Regression: a learning rate that diverges reports NaN infidelity at
     every probe angle.  NaN totals sort first under polymorphic compare,
     so pre-fix the diverged rate was crowned overall winner — two grid
     steps from every angle's actual best — collapsing stability to 0.
     Divergence must read as infinitely bad, not infinitely good. *)
  let point angle =
    { Hyperopt.angle;
      error_by_lr =
        [ (0.001, 0.3); (0.01, 0.02); (0.1, 0.4); (1.0, Float.nan) ] }
  in
  let points = [ point 0.5; point 1.5; point 2.5 ] in
  Alcotest.(check (float 1e-9)) "diverged lr never crowned" 1.0
    (Hyperopt.best_lr_stability points)

(* The paper's Figure 4 claim, measured for real: the winning learning-rate
   region is robust to the bound angle. *)
let test_figure4_robustness_real () =
  let obj = objective () in
  let points =
    Hyperopt.robustness ~lr_grid:[| 0.003; 0.03; 0.3; 3.0 |] obj
      ~angles:[| 0.4; 1.2; 2.7 |]
  in
  Alcotest.(check bool) "winning lr stable across angles" true
    (Hyperopt.best_lr_stability points >= 2.0 /. 3.0)

let () =
  Alcotest.run "hyperopt"
    [ ( "search",
        [ Alcotest.test_case "evaluate converging" `Quick test_evaluate_reports_convergence;
          Alcotest.test_case "evaluate bad lr" `Quick test_evaluate_bad_lr;
          Alcotest.test_case "grid search" `Slow test_grid_search_beats_bad ] );
      ( "robustness",
        [ Alcotest.test_case "shape" `Slow test_robustness_shape;
          Alcotest.test_case "stability perfect" `Quick test_stability_perfect;
          Alcotest.test_case "stability partial" `Quick test_stability_partial;
          Alcotest.test_case "stability empty" `Quick test_stability_empty;
          Alcotest.test_case "stability diverged lr" `Quick
            test_stability_diverged_lr;
          Alcotest.test_case "figure-4 robustness" `Slow test_figure4_robustness_real ] ) ]
