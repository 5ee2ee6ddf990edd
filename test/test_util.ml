module Rng = Pqc_util.Rng
module Stats = Pqc_util.Stats
module Nelder_mead = Pqc_util.Nelder_mead
module Table = Pqc_util.Table

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds diverge" true (Rng.int64 a <> Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (x >= 0 && x < 10)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 8 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_rng_uniform_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng ~lo:(-3.0) ~hi:(-1.0) in
    Alcotest.(check bool) "in [-3,-1)" true (x >= -3.0 && x < -1.0)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 10 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian rng) in
  let m = Stats.mean samples and s = Stats.stddev samples in
  Alcotest.(check bool) "mean near 0" true (Float.abs m < 0.05);
  Alcotest.(check bool) "stddev near 1" true (Float.abs (s -. 1.0) < 0.05)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_choice_member () =
  let rng = Rng.create 12 in
  let a = [| 3; 1; 4; 1; 5 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Rng.choice rng a) a)
  done

let test_rng_split_independent () =
  let parent = Rng.create 13 in
  let child = Rng.split parent in
  Alcotest.(check bool) "streams differ" true (Rng.int64 parent <> Rng.int64 child)

let test_rng_copy () =
  let a = Rng.create 14 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.int64 a) (Rng.int64 b)

(* --- Stats --- *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_geometric_mean () =
  check_float "geomean" 4.0 (Stats.geometric_mean [| 2.0; 8.0 |])

let test_stats_stddev () =
  check_float "stddev" 1.0 (Stats.stddev [| 1.0; 2.0; 3.0 |]);
  check_float "stddev single" 0.0 (Stats.stddev [| 5.0 |])

let test_stats_extrema () =
  check_float "min" (-2.0) (Stats.minimum [| 3.0; -2.0; 7.0 |]);
  check_float "max" 7.0 (Stats.maximum [| 3.0; -2.0; 7.0 |])

let test_stats_median () =
  check_float "odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  check_float "even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_stats_argmin () =
  Alcotest.(check int) "argmin" 1 (Stats.argmin [| 3.0; -2.0; 7.0 |])

(* NaN regressions: a diverged GRAPE run produces NaN infidelities, and
   NaN is unordered — a plain [<] fold silently poisons the result (or,
   worse, polymorphic compare sorts NaN *first* and crowns the diverged
   entry).  Order statistics skip NaNs and only raise when there is no
   finite data at all. *)

let nan = Float.nan

let raises_invalid f =
  try ignore (f ()); false with Invalid_argument _ -> true

let test_stats_nan_skipped () =
  check_float "min skips NaN" (-2.0) (Stats.minimum [| nan; 3.0; -2.0; nan |]);
  check_float "max skips NaN" 7.0 (Stats.maximum [| 7.0; nan; 3.0 |]);
  check_float "median skips NaN" 3.0 (Stats.median [| nan; 5.0; 1.0; nan; 3.0 |]);
  check_float "leading NaN" 4.0 (Stats.minimum [| nan; 4.0 |]);
  Alcotest.(check int) "argmin skips NaN" 2 (Stats.argmin [| nan; 3.0; -2.0 |]);
  Alcotest.(check int) "argmin first finite wins ties" 1
    (Stats.argmin [| nan; 5.0; 5.0 |])

let test_stats_all_nan_raises () =
  Alcotest.(check bool) "minimum" true
    (raises_invalid (fun () -> Stats.minimum [| nan; nan |]));
  Alcotest.(check bool) "maximum" true
    (raises_invalid (fun () -> Stats.maximum [| nan |]));
  Alcotest.(check bool) "median" true
    (raises_invalid (fun () -> Stats.median [| nan; nan; nan |]));
  Alcotest.(check bool) "argmin" true
    (raises_invalid (fun () -> Stats.argmin [| nan; nan |]))

let test_stats_linspace () =
  let l = Stats.linspace 0.0 1.0 5 in
  Alcotest.(check int) "count" 5 (Array.length l);
  check_float "first" 0.0 l.(0);
  check_float "last" 1.0 l.(4);
  check_float "step" 0.25 l.(1)

let test_stats_logspace () =
  let l = Stats.logspace 0.0 2.0 3 in
  check_float "first" 1.0 l.(0);
  check_float "mid" 10.0 l.(1);
  check_float "last" 100.0 l.(2)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean within extrema" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 40) (float_range (-100.) 100.))
    (fun a ->
      let m = Stats.mean a in
      m >= Stats.minimum a -. 1e-9 && m <= Stats.maximum a +. 1e-9)

let prop_median_bounded =
  QCheck.Test.make ~name:"median within extrema" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 40) (float_range (-100.) 100.))
    (fun a -> Stats.median a >= Stats.minimum a && Stats.median a <= Stats.maximum a)

(* --- Nelder-Mead --- *)

let test_nm_quadratic () =
  let f x = ((x.(0) -. 3.0) ** 2.0) +. 1.0 in
  let r = Nelder_mead.minimize ~f ~x0:[| 0.0 |] () in
  Alcotest.(check bool) "finds min" true (Float.abs (r.x.(0) -. 3.0) < 1e-3);
  Alcotest.(check bool) "value" true (Float.abs (r.f -. 1.0) < 1e-6)

let test_nm_sphere_4d () =
  let f x = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x in
  let r = Nelder_mead.minimize ~f ~x0:[| 1.0; -2.0; 0.5; 3.0 |] () in
  Alcotest.(check bool) "near zero" true (r.f < 1e-4)

let test_nm_rosenbrock () =
  let f x =
    let a = 1.0 -. x.(0) and b = x.(1) -. (x.(0) *. x.(0)) in
    (a *. a) +. (100.0 *. b *. b)
  in
  let options = { Nelder_mead.default_options with max_evals = 4000 } in
  let r = Nelder_mead.minimize ~options ~f ~x0:[| -1.0; 1.0 |] () in
  Alcotest.(check bool) "rosenbrock minimum" true (r.f < 1e-4)

let test_nm_budget () =
  let f x = x.(0) *. x.(0) in
  let options = { Nelder_mead.default_options with max_evals = 10 } in
  let r = Nelder_mead.minimize ~options ~f ~x0:[| 100.0 |] () in
  Alcotest.(check bool) "respects budget" true (r.evals <= 13)

let test_nm_history_monotone () =
  let f x = (x.(0) ** 2.0) +. (x.(1) ** 2.0) in
  let r = Nelder_mead.minimize ~f ~x0:[| 5.0; -4.0 |] () in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-12 && decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "best-so-far is monotone" true (decreasing r.history)

let test_nm_empty_rejected () =
  Alcotest.check_raises "empty x0" (Invalid_argument "Nelder_mead.minimize: empty initial point")
    (fun () -> ignore (Nelder_mead.minimize ~f:(fun _ -> 0.0) ~x0:[||] ()))

(* --- Table --- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b" ];
  Table.add_sep t;
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true (contains s "name");
  Alcotest.(check bool) "contains row" true (contains s "alpha");
  Alcotest.(check bool) "padded short row" true (contains s "| b    ")

let test_table_cells () =
  Alcotest.(check string) "float cell" "3.1" (Table.cell_f 3.14159);
  Alcotest.(check string) "float decimals" "3.142" (Table.cell_f ~decimals:3 3.14159);
  Alcotest.(check string) "speedup cell" "2.15x" (Table.cell_x 2.1537)

let test_table_too_many_cells () =
  let t = Table.create [ "one" ] in
  Alcotest.check_raises "too many" (Invalid_argument "Table.add_row: more cells than headers")
    (fun () -> Table.add_row t [ "a"; "b" ])

let () =
  Alcotest.run "util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "choice member" `Quick test_rng_choice_member;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_rng_copy ] );
      ( "stats",
        [ Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "geometric mean" `Quick test_stats_geometric_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "extrema" `Quick test_stats_extrema;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "argmin" `Quick test_stats_argmin;
          Alcotest.test_case "NaN skipped" `Quick test_stats_nan_skipped;
          Alcotest.test_case "all-NaN raises" `Quick test_stats_all_nan_raises;
          Alcotest.test_case "linspace" `Quick test_stats_linspace;
          Alcotest.test_case "logspace" `Quick test_stats_logspace;
          QCheck_alcotest.to_alcotest prop_mean_bounded;
          QCheck_alcotest.to_alcotest prop_median_bounded ] );
      ( "nelder-mead",
        [ Alcotest.test_case "quadratic" `Quick test_nm_quadratic;
          Alcotest.test_case "sphere 4d" `Quick test_nm_sphere_4d;
          Alcotest.test_case "rosenbrock" `Quick test_nm_rosenbrock;
          Alcotest.test_case "eval budget" `Quick test_nm_budget;
          Alcotest.test_case "history monotone" `Quick test_nm_history_monotone;
          Alcotest.test_case "empty x0 rejected" `Quick test_nm_empty_rejected ] );
      ( "table",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
          Alcotest.test_case "row validation" `Quick test_table_too_many_cells ] ) ]
