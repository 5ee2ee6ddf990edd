module Cmat = Pqc_linalg.Cmat
module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Gate_times = Pqc_pulse.Gate_times
module Hamiltonian = Pqc_grape.Hamiltonian
module Grape = Pqc_grape.Grape
module Resilience = Pqc_core.Resilience
module Pulse_cache = Pqc_core.Pulse_cache
module Engine = Pqc_core.Engine
module Strategy = Pqc_core.Strategy
module Compiler = Pqc_core.Compiler
module Fault = Pqc_core.Fault
module Molecule = Pqc_vqe.Molecule
module Uccsd = Pqc_vqe.Uccsd

let quick = { Grape.fast_settings with Grape.dt = 0.25; max_iters = 60 }

let temp_path () = Filename.temp_file "pqc_resilience" ".cache"

(* Run [f] with the fault plan [spec] active, cleared even on failure. *)
let with_plan spec f =
  (match Fault.parse spec with
   | Ok p -> Fault.set (Some p)
   | Error e -> Alcotest.failf "plan %S rejected: %s" spec e);
  Fun.protect ~finally:Fault.clear f

(* --- Resilience primitives --- *)

let test_failure_string_round_trip () =
  List.iter
    (fun f ->
      Alcotest.(check bool) "round trip" true
        (Resilience.failure_of_string (Resilience.failure_to_string f) = Some f))
    [ Resilience.Non_finite; Diverged; Deadline_exceeded; Cache_corrupt ];
  Alcotest.(check bool) "unknown tag" true
    (Resilience.failure_of_string "meltdown" = None)

let test_retryable () =
  Alcotest.(check bool) "non-finite retryable" true
    (Resilience.retryable Resilience.Non_finite);
  Alcotest.(check bool) "diverged retryable" true
    (Resilience.retryable Resilience.Diverged);
  Alcotest.(check bool) "deadline not retryable" false
    (Resilience.retryable Resilience.Deadline_exceeded);
  Alcotest.(check bool) "cache-corrupt not retryable" false
    (Resilience.retryable Resilience.Cache_corrupt)

let test_retune () =
  let p = Resilience.default_policy in
  let s0 = Grape.fast_settings in
  let id = Resilience.retune p ~attempt:0 s0 in
  Alcotest.(check bool) "attempt 0 unchanged" true (id = s0);
  let s1 = Resilience.retune p ~attempt:1 s0 in
  Alcotest.(check (float 1e-12)) "lr halved"
    (s0.Grape.hyperparams.Grape.learning_rate *. 0.5)
    s1.Grape.hyperparams.Grape.learning_rate;
  Alcotest.(check bool) "reseeded" true (s1.Grape.seed <> s0.Grape.seed);
  Alcotest.(check bool) "budget backed off" true
    (s1.Grape.max_iters > s0.Grape.max_iters);
  let s2 = Resilience.retune p ~attempt:2 s0 in
  Alcotest.(check (float 1e-12)) "lr quartered on second retry"
    (s0.Grape.hyperparams.Grape.learning_rate *. 0.25)
    s2.Grape.hyperparams.Grape.learning_rate;
  Alcotest.(check bool) "distinct seeds per attempt" true
    (s2.Grape.seed <> s1.Grape.seed)

let test_with_retries_bounded () =
  let p = { Resilience.default_policy with max_attempts = 4 } in
  let calls = ref 0 in
  let r =
    Resilience.with_retries p Resilience.no_deadline (fun ~attempt:_ ->
        incr calls;
        Error Resilience.Diverged)
  in
  Alcotest.(check int) "all attempts used" 4 !calls;
  Alcotest.(check bool) "last error returned" true (r = Error Resilience.Diverged)

let test_with_retries_stops_on_success () =
  let p = { Resilience.default_policy with max_attempts = 5 } in
  let calls = ref 0 in
  let r =
    Resilience.with_retries p Resilience.no_deadline (fun ~attempt ->
        incr calls;
        if attempt >= 2 then Ok attempt else Error Resilience.Non_finite)
  in
  Alcotest.(check int) "stopped at first success" 3 !calls;
  Alcotest.(check bool) "value returned" true (r = Ok 2)

let test_with_retries_deadline_not_retried () =
  let calls = ref 0 in
  let r =
    Resilience.with_retries Resilience.default_policy Resilience.no_deadline
      (fun ~attempt:_ ->
        incr calls;
        Error Resilience.Deadline_exceeded)
  in
  Alcotest.(check int) "no retry on deadline" 1 !calls;
  Alcotest.(check bool) "deadline error" true
    (r = Error Resilience.Deadline_exceeded)

let test_deadline_expiry () =
  Alcotest.(check bool) "no deadline never expires" false
    (Resilience.expired Resilience.no_deadline);
  let d0 = Resilience.deadline_after 0.0 in
  Unix.sleepf 0.002;
  Alcotest.(check bool) "zero-second deadline expires" true
    (Resilience.expired d0);
  Alcotest.(check bool) "distant deadline live" false
    (Resilience.expired (Resilience.deadline_after 3600.0));
  match Resilience.remaining_s (Resilience.deadline_after 3600.0) with
  | Some r -> Alcotest.(check bool) "remaining sane" true (r > 3500.0 && r <= 3600.0)
  | None -> Alcotest.fail "remaining_s must be Some for a real deadline"

let test_search_deadline_invalid_warns () =
  (* Regression: an invalid PQC_SEARCH_DEADLINE_S ("2s") used to be
     dropped silently.  It still reads as unset, but now warns on stderr
     (once per distinct value) and bumps the engine.env.invalid counter
     when tracing is on; an empty value is not an error. *)
  let module Obs = Pqc_obs.Obs in
  let var = "PQC_SEARCH_DEADLINE_S" in
  let old = Sys.getenv_opt var in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Unix.putenv var (Option.value old ~default:""))
    (fun () ->
      let read value =
        Unix.putenv var value;
        Resilience.deadline_seconds_from_env ()
      in
      let invalid () = Obs.counter_value "engine.env.invalid" in
      Alcotest.(check (option (float 0.0))) "valid value read" (Some 1.5)
        (read "1.5");
      Alcotest.(check (float 0.0)) "valid is not an error" 0.0 (invalid ());
      Alcotest.(check (option (float 0.0))) "invalid reads as unset" None
        (read "2s");
      Alcotest.(check (float 0.0)) "counter bumped" 1.0 (invalid ());
      Alcotest.(check (option (float 0.0))) "empty reads as unset" None
        (read "");
      Alcotest.(check (float 0.0)) "empty is not an error" 1.0 (invalid ()))

(* --- GRAPE guards --- *)

let gate_target n gate qs = Circuit.unitary (Circuit.of_gates n [ (gate, qs) ])

let test_grape_rejects_bad_dt () =
  let sys = Hamiltonian.gmon 1 in
  List.iter
    (fun dt ->
      Alcotest.(check bool) (Printf.sprintf "dt=%f rejected" dt) true
        (try
           ignore
             (Grape.optimize ~settings:{ quick with Grape.dt } sys
                ~target:(gate_target 1 Gate.X [ 0 ]) ~total_time:2.0);
           false
         with Invalid_argument _ -> true))
    [ 0.0; -0.5; Float.nan ]

let test_grape_rejects_step_explosion () =
  let sys = Hamiltonian.gmon 1 in
  Alcotest.(check bool) "n_steps cap enforced" true
    (try
       ignore
         (Grape.optimize ~settings:{ quick with Grape.dt = 0.001 } sys
            ~target:(gate_target 1 Gate.X [ 0 ]) ~total_time:1e6);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-finite total_time rejected" true
    (try
       ignore
         (Grape.optimize ~settings:quick sys
            ~target:(gate_target 1 Gate.X [ 0 ]) ~total_time:Float.infinity);
       false
     with Invalid_argument _ -> true)

let test_grape_deadline_stops_early () =
  let sys = Hamiltonian.gmon 1 in
  let r =
    Grape.optimize ~settings:quick
      ~deadline:(Pqc_obs.Obs.Clock.now () -. 1.0)
      sys ~target:(gate_target 1 Gate.H [ 0 ]) ~total_time:2.0
  in
  Alcotest.(check bool) "deadline_hit" true r.Grape.deadline_hit;
  Alcotest.(check bool) "stopped immediately" true (r.Grape.iterations <= 1);
  Alcotest.(check bool) "not converged" false r.Grape.converged

let test_grape_nan_target_diverges_cleanly () =
  let sys = Hamiltonian.gmon 1 in
  let target = gate_target 1 Gate.H [ 0 ] in
  Cmat.set target 0 0 { Complex.re = Float.nan; im = 0.0 };
  let r = Grape.optimize ~settings:quick sys ~target ~total_time:2.0 in
  Alcotest.(check bool) "flagged diverged" true r.Grape.diverged;
  Alcotest.(check bool) "aborted at first iteration" true (r.Grape.iterations <= 1);
  Alcotest.(check bool) "best fidelity stays finite" true
    (Float.is_finite r.Grape.fidelity);
  Array.iter
    (fun row ->
      Array.iter
        (fun v ->
          Alcotest.(check bool) "controls stay finite" true (Float.is_finite v))
        row)
    r.Grape.controls

let test_minimal_time_deadline_returns_none () =
  let sys = Hamiltonian.gmon 1 in
  match
    Grape.minimal_time ~settings:quick
      ~deadline:(Pqc_obs.Obs.Clock.now () -. 1.0) ~upper_bound:2.0 sys
      ~target:(gate_target 1 Gate.H [ 0 ])
  with
  | None -> ()
  | Some s ->
    Alcotest.(check bool) "if anything, deadline must be flagged" true
      s.Grape.deadline_hit

(* --- Pulse cache --- *)

let sample_entries =
  [ { Pulse_cache.key = "2;h,0;cx,0,1"; duration_ns = 3.75; grape_runs = 5;
      grape_iterations = 812; seconds = 0.42; fidelity = Some 0.9991;
      fallback = None; run_id = None };
    { Pulse_cache.key = "1;rx(3ff0000000000000),0"; duration_ns = 1.25;
      grape_runs = 3; grape_iterations = 200; seconds = 0.05;
      fidelity = None; fallback = Some "diverged"; run_id = None };
    { Pulse_cache.key = "weird\tkey\nwith\\bytes"; duration_ns = 0.5;
      grape_runs = 1; grape_iterations = 7; seconds = 0.001;
      fidelity = Some 1.0; fallback = None; run_id = None } ]

let test_cache_round_trip () =
  let path = temp_path () in
  Pulse_cache.save ~path sample_entries;
  let { Pulse_cache.entries; dropped; salvaged } = Pulse_cache.load ~path in
  Sys.remove path;
  Alcotest.(check int) "nothing dropped" 0 dropped;
  Alcotest.(check int) "nothing salvaged" 0 salvaged;
  Alcotest.(check int) "all entries back" (List.length sample_entries)
    (List.length entries);
  List.iter2
    (fun (a : Pulse_cache.entry) (b : Pulse_cache.entry) ->
      Alcotest.(check string) "key" a.key b.key;
      Alcotest.(check (float 0.0)) "duration bit-exact" a.duration_ns b.duration_ns;
      Alcotest.(check int) "runs" a.grape_runs b.grape_runs;
      Alcotest.(check int) "iters" a.grape_iterations b.grape_iterations;
      Alcotest.(check (float 0.0)) "seconds bit-exact" a.seconds b.seconds;
      Alcotest.(check bool) "fidelity" true (a.fidelity = b.fidelity);
      Alcotest.(check bool) "fallback" true (a.fallback = b.fallback))
    sample_entries entries

let test_cache_missing_file () =
  let r = Pulse_cache.load ~path:"/nonexistent/pqc/cache/file" in
  Alcotest.(check int) "no entries" 0 (List.length r.Pulse_cache.entries);
  Alcotest.(check int) "no drops" 0 r.Pulse_cache.dropped;
  Alcotest.(check int) "no salvage" 0 r.Pulse_cache.salvaged

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

let write_raw path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let test_cache_bit_flip_dropped () =
  let path = temp_path () in
  Pulse_cache.save ~path sample_entries;
  let lines = read_lines path in
  let flipped =
    List.mapi
      (fun i line ->
        if i = 2 then begin
          (* Flip one payload byte of the second record. *)
          let b = Bytes.of_string line in
          let pos = Bytes.length b - 1 in
          Bytes.set b pos (if Bytes.get b pos = 'x' then 'y' else 'x');
          Bytes.to_string b
        end
        else line)
      lines
  in
  write_raw path (String.concat "\n" flipped ^ "\n");
  let { Pulse_cache.entries; dropped; salvaged } = Pulse_cache.load ~path in
  Sys.remove path;
  Alcotest.(check int) "one record dropped" 1 dropped;
  Alcotest.(check int) "bit flip is damage, not a torn tail" 0 salvaged;
  Alcotest.(check int) "others survive" 2 (List.length entries)

let test_cache_truncation_salvaged () =
  let path = temp_path () in
  Pulse_cache.save ~path sample_entries;
  let lines = read_lines path in
  let keep = List.filteri (fun i _ -> i < 2) lines in
  let partial = List.nth lines 2 in
  let truncated = String.sub partial 0 (String.length partial / 2) in
  write_raw path (String.concat "\n" keep ^ "\n" ^ truncated);
  let { Pulse_cache.entries; dropped; salvaged } = Pulse_cache.load ~path in
  Sys.remove path;
  (* A torn tail is the expected crash artifact: salvaged, not dropped. *)
  Alcotest.(check int) "torn tail salvaged" 1 salvaged;
  Alcotest.(check int) "nothing dropped" 0 dropped;
  Alcotest.(check int) "intact prefix survives" 1 (List.length entries)

let test_cache_bad_header_drops_everything () =
  let path = temp_path () in
  Pulse_cache.save ~path sample_entries;
  let lines = read_lines path in
  let tampered = "PQC-PULSE-CACHE v999" :: List.tl lines in
  write_raw path (String.concat "\n" tampered ^ "\n");
  let { Pulse_cache.entries; dropped; salvaged = _ } = Pulse_cache.load ~path in
  Sys.remove path;
  Alcotest.(check int) "nothing trusted" 0 (List.length entries);
  Alcotest.(check bool) "drops counted" true (dropped > 0)

let test_cache_checksum_sensitivity () =
  Alcotest.(check bool) "checksum differs on payload change" true
    (Pulse_cache.checksum "abc" <> Pulse_cache.checksum "abd");
  Alcotest.(check string) "checksum deterministic"
    (Pulse_cache.checksum "abc") (Pulse_cache.checksum "abc")

(* --- Engine: block key --- *)

let rx_block angle = Circuit.of_gates 1 [ (Gate.Rx (Param.const angle), [ 0 ]) ]

let test_block_key_distinguishes_close_angles () =
  (* Regression: the old %.6f key collided bindings closer than 1e-6 rad
     and served one binding the other's cached pulse. *)
  let a = Engine.block_key (rx_block 1.0) in
  let b = Engine.block_key (rx_block (1.0 +. 1e-8)) in
  Alcotest.(check bool) "sub-1e-6 angles get distinct keys" true (a <> b);
  Alcotest.(check string) "equal angles share a key" a
    (Engine.block_key (rx_block 1.0))

let test_block_key_distinguishes_widths () =
  let a = Engine.block_key (Circuit.of_gates 2 [ (Gate.H, [ 0 ]) ]) in
  let b = Engine.block_key (Circuit.of_gates 3 [ (Gate.H, [ 0 ]) ]) in
  Alcotest.(check bool) "width is part of the key" true (a <> b)

let test_block_key_distinguishes_operands () =
  let a = Engine.block_key (Circuit.of_gates 2 [ (Gate.H, [ 0 ]) ]) in
  let b = Engine.block_key (Circuit.of_gates 2 [ (Gate.H, [ 1 ]) ]) in
  Alcotest.(check bool) "operand is part of the key" true (a <> b)

(* --- Engine: fault injection and degradation --- *)

let small_block =
  Circuit.of_gates 2 [ (Gate.H, [ 0 ]); (Gate.CX, [ 0; 1 ]) ]

let check_fallback name expected =
  let r =
    with_plan ("seed=7," ^ name ^ "=1") (fun () ->
        Engine.search Engine.model small_block)
  in
  Alcotest.(check bool) (name ^ " duration finite") true
    (Float.is_finite r.Engine.duration_ns);
  Alcotest.(check (float 1e-9)) (name ^ " falls back to lookup duration")
    (Gate_times.circuit_duration small_block) r.Engine.duration_ns;
  Alcotest.(check bool) (name ^ " fallback recorded") true
    (r.Engine.fallback = Some expected)

let test_faulty_nan () = check_fallback "nan" Resilience.Non_finite

let test_faulty_no_converge () =
  check_fallback "no-converge" Resilience.Diverged

let test_faulty_stall () = check_fallback "stall" Resilience.Deadline_exceeded

let test_faulty_zero_rate_is_transparent () =
  let plain = Engine.search Engine.model small_block in
  (* An active plan whose optimizer rates are all 0: only the storage
     site, which a search never consults, can fire. *)
  let wrapped =
    with_plan "seed=3,nan=0,no-converge=0,stall=0,enospc=1" (fun () ->
        Engine.search Engine.model small_block)
  in
  Alcotest.(check (float 1e-12)) "same duration" plain.Engine.duration_ns
    wrapped.Engine.duration_ns;
  Alcotest.(check bool) "no fallback" true (wrapped.Engine.fallback = None)

let test_faulty_results_not_cached () =
  let engine = Engine.numeric ~settings:quick () in
  let r =
    with_plan "seed=5,nan=1" (fun () -> Engine.search engine (rx_block 0.7))
  in
  Alcotest.(check bool) "degraded" true (r.Engine.fallback <> None);
  Alcotest.(check int) "poisoned result not memoized" 0 (Engine.cache_size engine)

let test_empty_optimizer_plan_rejected () =
  List.iter
    (fun spec ->
      Alcotest.(check bool) (spec ^ " rejected") true
        (Result.is_error (Fault.parse spec)))
    [ "seed=0,nan=0,no-converge=0,stall=0"; "nan=1.5"; "no-converge=-0.1";
      "stall=nan" ];
  Alcotest.(check bool) "one nonzero optimizer rate accepted" true
    (Result.is_ok (Fault.parse "seed=0,nan=0,no-converge=0,stall=0.5"))

let nan_system n =
  let sys = Hamiltonian.gmon n in
  Cmat.set sys.Hamiltonian.drift 0 0 { Complex.re = Float.nan; im = 0.0 };
  sys

let test_numeric_nan_hamiltonian_degrades () =
  (* A genuinely poisoned system: every GRAPE iteration produces NaN
     fidelity; the guard aborts each attempt cheaply and the engine lands
     on the lookup-table fallback instead of raising or spinning. *)
  let engine = Engine.numeric ~settings:quick ~system_for:nan_system () in
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
  let r = Engine.search engine c in
  Alcotest.(check bool) "finite duration" true (Float.is_finite r.Engine.duration_ns);
  Alcotest.(check (float 1e-9)) "lookup duration"
    (Gate_times.circuit_duration c) r.Engine.duration_ns;
  Alcotest.(check bool) "degradation visible" true (r.Engine.fallback <> None);
  Alcotest.(check bool) "failed attempts accounted" true
    (r.Engine.search_cost.Engine.grape_runs > 0)

let test_numeric_deadline_degrades () =
  let engine = Engine.numeric ~settings:quick ~deadline_s:0.0 () in
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
  let t0 = Unix.gettimeofday () in
  let r = Engine.search engine c in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "returned promptly" true (elapsed < 5.0);
  Alcotest.(check bool) "deadline fallback" true
    (r.Engine.fallback = Some Resilience.Deadline_exceeded);
  Alcotest.(check bool) "finite duration" true (Float.is_finite r.Engine.duration_ns)

(* --- Engine: persistent cache --- *)

let test_engine_preloaded_cache_hit () =
  let c = rx_block 0.9 in
  let key = Engine.block_key c in
  let entry =
    { Pulse_cache.key; duration_ns = 2.25; grape_runs = 4;
      grape_iterations = 333; seconds = 0.02; fidelity = Some 0.997;
      fallback = None; run_id = None }
  in
  let path = temp_path () in
  Pulse_cache.save ~path [ entry ];
  let engine = Engine.numeric ~settings:quick ~cache_file:path () in
  Sys.remove path;
  Alcotest.(check int) "entry loaded" 1 (Engine.cache_size engine);
  Alcotest.(check int) "nothing dropped" 0 (Engine.cache_dropped engine);
  let r = Engine.search engine c in
  Alcotest.(check (float 0.0)) "served from disk cache" 2.25 r.Engine.duration_ns;
  Alcotest.(check int) "memoized cost served too" 333
    r.Engine.search_cost.Engine.grape_iterations;
  Alcotest.(check bool) "hit does not grow the cache" true
    (Engine.cache_size engine = 1)

let test_engine_cache_round_trips_through_disk () =
  let path = temp_path () in
  Sys.remove path;
  let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
  let a = Engine.numeric ~settings:quick ~cache_file:path () in
  let r1 = Engine.search a c in
  Alcotest.(check int) "miss populates cache" 1 (Engine.cache_size a);
  Engine.persist a;
  let b = Engine.numeric ~settings:quick ~cache_file:path () in
  Alcotest.(check int) "restart reloads the entry" 1 (Engine.cache_size b);
  let t0 = Sys.time () in
  let r2 = Engine.search b c in
  let hit_time = Sys.time () -. t0 in
  Sys.remove path;
  Alcotest.(check (float 0.0)) "identical duration across restart"
    r1.Engine.duration_ns r2.Engine.duration_ns;
  Alcotest.(check bool) "hit runs no optimizer" true (hit_time < 0.05)

let test_engine_corrupt_cache_file_survives () =
  let path = temp_path () in
  let good =
    Pulse_cache.encode_entry
      { Pulse_cache.key = "1;h,0"; duration_ns = 1.5; grape_runs = 1;
        grape_iterations = 3; seconds = 0.0; fidelity = None;
        fallback = None; run_id = None }
  in
  (* Garbage with a valid record after it is mid-file damage (dropped);
     the same garbage as the final line would salvage as a torn tail. *)
  write_raw path
    ("PQC-PULSE-CACHE v1\ndeadbeef\tgarbage that is not a record\n" ^ good
   ^ "\n");
  let engine = Engine.numeric ~settings:quick ~cache_file:path () in
  Sys.remove path;
  Alcotest.(check int) "corrupt entry dropped, not fatal" 1
    (Engine.cache_dropped engine);
  Alcotest.(check int) "nothing salvaged" 0 (Engine.cache_salvaged engine);
  Alcotest.(check int) "valid record still loads" 1 (Engine.cache_size engine)

let test_engine_cache_miss_then_hit_accounting () =
  let engine = Engine.numeric ~settings:quick () in
  let c = rx_block 0.4 in
  let miss = Engine.search engine c in
  Alcotest.(check bool) "miss pays search cost" true
    (miss.Engine.search_cost.Engine.grape_iterations > 0);
  Alcotest.(check int) "miss stored" 1 (Engine.cache_size engine);
  let hit = Engine.search engine c in
  Alcotest.(check (float 0.0)) "hit returns stored duration"
    miss.Engine.duration_ns hit.Engine.duration_ns;
  Alcotest.(check int) "hit returns stored cost"
    miss.Engine.search_cost.Engine.grape_iterations
    hit.Engine.search_cost.Engine.grape_iterations;
  Alcotest.(check int) "hit does not grow cache" 1 (Engine.cache_size engine);
  ignore (Engine.search engine (rx_block (0.4 +. 1e-8)));
  Alcotest.(check int) "close-but-distinct angle is a fresh miss" 2
    (Engine.cache_size engine)

(* --- Compiler: graceful degradation chain --- *)

let h2_prepared = lazy (Compiler.prepare (Uccsd.ansatz Molecule.h2))
let h2_theta = [| 0.5; 1.0; 1.5 |]

let test_all_strategies_survive_injected_faults () =
  List.iter
    (fun spec ->
      with_plan spec @@ fun () ->
      let engine = Engine.model in
      let c = Lazy.force h2_prepared in
      List.iter
        (fun strat ->
          let r = Compiler.compile ~engine strat c ~theta:h2_theta in
          Alcotest.(check bool)
            (Compiler.strategy_name strat ^ " finite under faults") true
            (Float.is_finite r.Strategy.duration_ns
            && r.Strategy.duration_ns >= 0.0);
          if strat <> Compiler.Gate_based then
            Alcotest.(check bool)
              (Compiler.strategy_name strat ^ " degradations visible") true
              (Strategy.degraded r
              && String.length (Strategy.degradation_report r) > 0))
        Compiler.all_strategies)
    (* Sites fire in a fixed order (nan, no-converge, stall), so the
       last plan mixes all three kinds and still fails every attempt. *)
    [ "seed=11,nan=1"; "seed=11,no-converge=1"; "seed=11,stall=1";
      "seed=11,nan=0.34,no-converge=0.5,stall=1" ]

let test_strict_fallback_branch_under_faults () =
  (* With every block search degraded, strict partial's schedule is built
     from lookup durations; the Float.min against the plain gate-based
     duration must keep "strict never worse" true. *)
  let c = Lazy.force h2_prepared in
  let g = Compiler.gate_based c ~theta:h2_theta in
  let s =
    with_plan "seed=2,nan=0.34,no-converge=0.5,stall=1" (fun () ->
        Compiler.strict_partial ~engine:Engine.model c ~theta:h2_theta)
  in
  Alcotest.(check bool) "strict <= gate under total fault" true
    (s.Strategy.duration_ns <= g.Strategy.duration_ns +. 1e-9);
  Alcotest.(check bool) "strict duration finite" true
    (Float.is_finite s.Strategy.duration_ns);
  Alcotest.(check bool) "fault fallbacks recorded" true (Strategy.degraded s)

let test_compile_chain_flexible_to_strict () =
  (* dt = 0 makes every direct Grape call raise Invalid_argument.  The
     engine's own search absorbs that into lookup fallbacks, but flexible
     partial's hyperparameter tuning still dies — compile must degrade to
     strict partial and say so. *)
  let engine =
    Engine.numeric ~settings:{ quick with Grape.dt = 0.0 } ()
  in
  let c = Lazy.force h2_prepared in
  let r = Compiler.compile ~engine Compiler.Flexible_partial c ~theta:h2_theta in
  Alcotest.(check string) "landed on strict" "strict-partial" r.Strategy.strategy;
  Alcotest.(check bool) "finite duration" true
    (Float.is_finite r.Strategy.duration_ns);
  Alcotest.(check bool) "flexible abandonment recorded" true
    (List.exists
       (fun (d : Resilience.degradation) -> d.stage = "flexible-partial")
       r.Strategy.degradations)

let test_compile_chain_to_gate_based () =
  (* A hardware-config service that throws takes out every engine-backed
     strategy; the chain must bottom out at gate-based, which needs no
     engine at all. *)
  let engine =
    Engine.numeric ~settings:quick
      ~system_for:(fun _ -> failwith "hardware config service down") ()
  in
  let c = Lazy.force h2_prepared in
  let r = Compiler.compile ~engine Compiler.Flexible_partial c ~theta:h2_theta in
  Alcotest.(check string) "landed on gate-based" "gate-based" r.Strategy.strategy;
  Alcotest.(check bool) "finite duration" true
    (Float.is_finite r.Strategy.duration_ns);
  Alcotest.(check bool) "both abandoned rungs recorded" true
    (List.exists
       (fun (d : Resilience.degradation) -> d.stage = "flexible-partial")
       r.Strategy.degradations
    && List.exists
         (fun (d : Resilience.degradation) -> d.stage = "strict-partial")
         r.Strategy.degradations)

let test_compile_clean_run_reports_no_degradation () =
  let c = Lazy.force h2_prepared in
  List.iter
    (fun strat ->
      let r = Compiler.compile ~engine:Engine.model strat c ~theta:h2_theta in
      Alcotest.(check bool)
        (Compiler.strategy_name strat ^ " clean") false (Strategy.degraded r);
      Alcotest.(check string) "requested strategy ran"
        (Compiler.strategy_name strat) r.Strategy.strategy)
    Compiler.all_strategies

let test_degrade_chain_shape () =
  Alcotest.(check int) "gate-based is terminal" 1
    (List.length (Compiler.degrade_chain Compiler.Gate_based));
  List.iter
    (fun strat ->
      let chain = Compiler.degrade_chain strat in
      Alcotest.(check bool) "starts at the requested strategy" true
        (List.hd chain = strat);
      Alcotest.(check bool) "ends at gate-based" true
        (List.nth chain (List.length chain - 1) = Compiler.Gate_based))
    Compiler.all_strategies

let () =
  Alcotest.run "resilience"
    [ ( "primitives",
        [ Alcotest.test_case "failure strings" `Quick test_failure_string_round_trip;
          Alcotest.test_case "retryable" `Quick test_retryable;
          Alcotest.test_case "retune" `Quick test_retune;
          Alcotest.test_case "retries bounded" `Quick test_with_retries_bounded;
          Alcotest.test_case "retries stop on success" `Quick test_with_retries_stops_on_success;
          Alcotest.test_case "deadline not retried" `Quick test_with_retries_deadline_not_retried;
          Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
          Alcotest.test_case "PQC_SEARCH_DEADLINE_S invalid warns" `Quick
            test_search_deadline_invalid_warns ] );
      ( "grape-guards",
        [ Alcotest.test_case "bad dt rejected" `Quick test_grape_rejects_bad_dt;
          Alcotest.test_case "step explosion rejected" `Quick test_grape_rejects_step_explosion;
          Alcotest.test_case "deadline stops early" `Quick test_grape_deadline_stops_early;
          Alcotest.test_case "nan diverges cleanly" `Quick test_grape_nan_target_diverges_cleanly;
          Alcotest.test_case "minimal-time deadline" `Quick test_minimal_time_deadline_returns_none ] );
      ( "pulse-cache",
        [ Alcotest.test_case "round trip" `Quick test_cache_round_trip;
          Alcotest.test_case "missing file" `Quick test_cache_missing_file;
          Alcotest.test_case "bit flip dropped" `Quick test_cache_bit_flip_dropped;
          Alcotest.test_case "truncation salvaged" `Quick test_cache_truncation_salvaged;
          Alcotest.test_case "bad header untrusted" `Quick test_cache_bad_header_drops_everything;
          Alcotest.test_case "checksum sensitivity" `Quick test_cache_checksum_sensitivity ] );
      ( "block-key",
        [ Alcotest.test_case "close angles distinct" `Quick test_block_key_distinguishes_close_angles;
          Alcotest.test_case "widths distinct" `Quick test_block_key_distinguishes_widths;
          Alcotest.test_case "operands distinct" `Quick test_block_key_distinguishes_operands ] );
      ( "fault-injection",
        [ Alcotest.test_case "nan fault" `Quick test_faulty_nan;
          Alcotest.test_case "no-converge fault" `Quick test_faulty_no_converge;
          Alcotest.test_case "stall fault" `Quick test_faulty_stall;
          Alcotest.test_case "zero rate transparent" `Quick test_faulty_zero_rate_is_transparent;
          Alcotest.test_case "faults not cached" `Quick test_faulty_results_not_cached;
          Alcotest.test_case "empty optimizer plan rejected" `Quick test_empty_optimizer_plan_rejected;
          Alcotest.test_case "nan hamiltonian degrades" `Quick test_numeric_nan_hamiltonian_degrades;
          Alcotest.test_case "deadline degrades" `Quick test_numeric_deadline_degrades ] );
      ( "engine-cache",
        [ Alcotest.test_case "preloaded hit" `Quick test_engine_preloaded_cache_hit;
          Alcotest.test_case "disk round trip" `Slow test_engine_cache_round_trips_through_disk;
          Alcotest.test_case "corrupt file survives" `Quick test_engine_corrupt_cache_file_survives;
          Alcotest.test_case "miss then hit accounting" `Slow test_engine_cache_miss_then_hit_accounting ] );
      ( "degradation-chain",
        [ Alcotest.test_case "all strategies survive faults" `Quick test_all_strategies_survive_injected_faults;
          Alcotest.test_case "strict fallback branch" `Quick test_strict_fallback_branch_under_faults;
          Alcotest.test_case "flexible to strict" `Quick test_compile_chain_flexible_to_strict;
          Alcotest.test_case "chain to gate-based" `Quick test_compile_chain_to_gate_based;
          Alcotest.test_case "clean run undegraded" `Quick test_compile_clean_run_reports_no_degradation;
          Alcotest.test_case "chain shape" `Quick test_degrade_chain_shape ] ) ]
