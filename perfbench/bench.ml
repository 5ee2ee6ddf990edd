(* End-to-end and per-layer benchmark of partial compilation.

   Three closed-loop workloads with one client each drive the compiler
   only through its public API, timed from outside on CLOCK_MONOTONIC.
   An untraced run reports the end-to-end metrics; [--trace 1] runs the
   same passes with the library's existing spans and counters switched
   on and reports the per-layer breakdown.  README.md defines every
   workload and metric. *)

module Circuit = Pqc_quantum.Circuit
module Statevec = Pqc_quantum.Statevec
module Pauli = Pqc_quantum.Pauli
module Cmat = Pqc_linalg.Cmat
module Cvec = Pqc_linalg.Cvec
module Expm = Pqc_linalg.Expm
module Pulse = Pqc_pulse.Pulse
module Rng = Pqc_util.Rng
module Nelder_mead = Pqc_util.Nelder_mead
module Jsonx = Pqc_util.Jsonx
module Chemistry = Pqc_vqe.Chemistry
module Maxcut = Pqc_qaoa.Maxcut
module Compiler = Pqc_core.Compiler
module Engine = Pqc_core.Engine
module Strategy = Pqc_core.Strategy
module Bench_matrix = Pqc_core.Bench_matrix
module Obs = Pqc_obs.Obs

(* ---- clock and order statistics ------------------------------------- *)

(* CLOCK_MONOTONIC: unlike the wall clock it never steps under NTP. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between order statistics. *)
let quantile q xs =
  match Array.of_list (List.sort Float.compare xs) with
  | [||] -> Float.nan
  | a ->
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0

(* ---- machine speed ----------------------------------------------------- *)

(* Shared machines drift in speed by 2x within minutes.  A fixed loop
   that shares no code with the compiler is timed on both processors
   around set-up and after every pass, and every reported time is
   multiplied by [reference_cal_s] over the run's median loop time:
   seconds on a machine running the loop at the reference speed (a quiet
   2-vCPU Xeon VM at 2.0 GHz).  The loop mixes what the compiler does:
   complex 8x8 matrix products on flat float arrays (GRAPE's propagators)
   and short-lived allocation with hashing (passes, memo table,
   bookkeeping). *)
let reference_cal_s = 4.0e-3

let calibration_once () =
  let n = 8 in
  let init f = Array.init (2 * n * n) (fun i -> f (float_of_int i)) in
  let a = init (fun x -> 0.1 *. sin x) and b = init (fun x -> 0.1 *. cos x) in
  let c = Array.make (2 * n * n) 0.0 in
  let tbl = Hashtbl.create 64 in
  let t0 = now () in
  for r = 1 to 300 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let re = ref 0.0 and im = ref 0.0 in
        for k = 0 to n - 1 do
          let ar = a.(2 * ((i * n) + k)) and ai = a.((2 * ((i * n) + k)) + 1) in
          let br = b.(2 * ((k * n) + j)) and bi = b.((2 * ((k * n) + j)) + 1) in
          re := !re +. ((ar *. br) -. (ai *. bi));
          im := !im +. ((ar *. bi) +. (ai *. br))
        done;
        c.(2 * ((i * n) + j)) <- !re;
        c.((2 * ((i * n) + j)) + 1) <- !im
      done
    done;
    let xs =
      List.init 64 (fun i -> (string_of_int (i + r), float_of_int i *. c.(i)))
    in
    List.iter (fun (k, v) -> Hashtbl.replace tbl (k, r mod 7) v) (List.rev xs)
  done;
  let dt = now () -. t0 in
  if Hashtbl.length tbl = 0 || Float.is_nan c.(0) then Float.infinity else dt

let calibration_round () = median (List.init 5 (fun _ -> calibration_once ()))

(* A peer process (this executable with --calibrate) samples the loop on
   the other processor at the same time. *)
let calibration_pair () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--calibrate" |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  (* Start together: the peer reports ready once its runtime is up. *)
  ignore (In_channel.input_line ic);
  let mine = calibration_round () in
  let theirs = Option.bind (In_channel.input_line ic) float_of_string_opt in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  (mine, Option.value theirs ~default:mine)

let calibration_peer () =
  print_endline "ready";
  Printf.printf "%h\n%!" (calibration_round ())

(* One sample per calibration round of this run.  A forked batch waits for
   the slower processor; a single process runs on either, so it gets the
   mean. *)
let calibrations = ref []

let calibrate ~forks =
  let a, b = calibration_pair () in
  let t = if forks then Float.max a b else (a +. b) /. 2.0 in
  calibrations := t :: !calibrations

(* Converts this run's seconds to reference seconds. *)
let speed_factor () = reference_cal_s /. median !calibrations

(* ---- workloads ------------------------------------------------------- *)

type loop = {
  spec : string;  (** {!Bench_matrix.circuit_of_spec} workload spec. *)
  strategy : Compiler.strategy;
  max_width : int;
  evals : int;  (** Nelder-Mead objective evaluations per pass. *)
  initial_step : float;
  canary_passes : int;
  canary_evals : int;  (** Evaluations per canary pass. *)
  forks : bool;  (** Whether its block batches fork. *)
}

type kind = Loop of loop | Sweep

(* Every paper circuit: the five molecules and the QAOA MAXCUT graphs. *)
let paper_circuits =
  [ "h2"; "lih"; "beh2"; "nah"; "h2o"; "3reg6p1"; "3reg6p5"; "3reg8p1";
    "3reg8p5"; "er6p1"; "er6p5"; "er8p1"; "er8p5" ]

let workloads =
  [ ( "vqe-flex-loop",
      Loop
        { spec = "h2"; strategy = Compiler.Flexible_partial; max_width = 4;
          evals = 6; initial_step = 0.15; canary_passes = 4; canary_evals = 4;
          forks = false } );
    ( "qaoa-full-loop",
      Loop
        { spec = "3reg6p1"; strategy = Compiler.Full_grape; max_width = 2;
          evals = 20; initial_step = 0.4; canary_passes = 3; canary_evals = 6;
          forks = true } );
    ("model-sweep", Sweep) ]

let workers = 2

(* Set-up repeats until both floors are met; its median is reported. *)
let setup_min_reps = 5
let setup_min_s = 0.5
let setup_max_reps = 100_000

(* Inputs of the canary passes, whose pulses are pinned in pins.txt. *)
let pin_seed = 2019

(* The numeric engine at the settings [Bench_matrix] uses: no deadline,
   so pulses are a pure function of the inputs. *)
let settings =
  { Engine.Grape.fast_settings with
    Engine.Grape.dt = 1.0;
    max_iters = 60;
    target_fidelity = 0.98 }

(* ---- set-up ------------------------------------------------------------ *)

type circuit = {
  name : string;
  raw : Circuit.t;  (** The ansatz the simulator runs. *)
  prepared : Circuit.t;  (** Optimized and routed: what the compiler gets. *)
  n_params : int;
  gate_ns : float;  (** Gate-based pulse duration: the speed-up baseline. *)
}

let prepare name raw =
  let prepared =
    Obs.Span.with_ ~name:"bench.prepare" (fun () -> Compiler.prepare raw)
  in
  let n_params = max (Circuit.n_params raw) (Circuit.n_params prepared) in
  (* Lookup-table durations ignore angles, so any binding gives the
     baseline. *)
  let gate =
    Compiler.gate_based prepared ~theta:(Array.make n_params 0.0)
  in
  { name; raw; prepared; n_params; gate_ns = gate.Strategy.duration_ns }

let load spec =
  match Bench_matrix.circuit_of_spec spec with
  | Ok c -> c
  | Error e -> failwith e

(* The objective the optimizer minimizes, checked against an oracle that
   does not involve the compiler: a VQE energy never falls below the
   ground energy (exact diagonalization), and an expected cut lies in
   [0, optimum] (brute force over all assignments). *)
let objective spec : Cvec.t -> (float, string) result =
  match Bench_matrix.workload_of_spec spec with
  | Error e -> failwith e
  | Ok (Bench_matrix.Mol m) ->
    let h =
      Chemistry.synthetic ~seed:7 ~n_qubits:m.Pqc_vqe.Molecule.n_qubits
    in
    let e0 = Chemistry.ground_energy h in
    let tol = 1e-9 *. Float.max 1.0 (Float.abs e0) in
    fun psi ->
      let e = Pauli.expectation h psi in
      if Float.is_finite e && e >= e0 -. tol then Ok e
      else Error (Printf.sprintf "energy %.17g below ground energy %.17g" e e0)
  | Ok (Bench_matrix.Qaoa { graph; _ }) ->
    let best = float_of_int (Maxcut.optimum graph) in
    fun psi ->
      let cut = Maxcut.expected_cut graph psi in
      if Float.is_finite cut && cut >= -1e-9 && cut <= best +. 1e-9 then
        Ok (-.cut)
      else Error (Printf.sprintf "expected cut %.17g outside [0, %g]" cut best)

type setup =
  | Loop_setup of loop * circuit * (Cvec.t -> (float, string) result)
  | Sweep_setup of circuit list

let setup = function
  | Loop l ->
    Obs.Span.with_ ~name:"bench.setup" @@ fun () ->
    let c = prepare l.spec (load l.spec) in
    Loop_setup (l, c, objective l.spec)
  | Sweep ->
    Obs.Span.with_ ~name:"bench.setup" @@ fun () ->
    Sweep_setup (List.map (fun s -> prepare s (load s)) paper_circuits)

(* ---- passes ------------------------------------------------------------ *)

(* FNV-1a over the IEEE-754 bits of every pulse duration a pass compiled. *)
let fnv_basis = 0xcbf29ce484222325L

let fnv_bits h bits =
  let h = ref h in
  for i = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xffL in
    h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
  done;
  !h

let fnv_float h x = fnv_bits h (Int64.bits_of_float x)
let hex h = Printf.sprintf "%016Lx" h

type pass = {
  mutable wall : float;
  mutable precompute : float;
      (** Loops: the first evaluation, on a fresh engine (cold memo).
          Sweep: preparing every circuit. *)
  mutable iters : float list;  (** Later iterations' wall times. *)
  mutable compiles : int;
  mutable failed : int;
  mutable errors : string list;
  mutable log_speedup : float;  (** Sum of log(gate / compiled duration). *)
  mutable compile_s : float;  (** Measured wall of every compile. *)
  mutable reported_s : float;  (** Their reported per-iteration seconds. *)
  mutable grape_iterations : int;
  mutable blocks : int;  (** GRAPE-compiled segments in the pulses. *)
  mutable hash : int64;
}

let new_pass () =
  { wall = 0.0; precompute = 0.0; iters = []; compiles = 0; failed = 0;
    errors = []; log_speedup = 0.0; compile_s = 0.0; reported_s = 0.0;
    grape_iterations = 0; blocks = 0; hash = fnv_basis }

let fail p msg =
  p.failed <- p.failed + 1;
  if List.length p.errors < 5 then p.errors <- msg :: p.errors

(* Compile, timing the call, and check the result: a finite positive
   duration and no degradation of any kind.  [false] on failure. *)
let compile_checked p ?(workers = workers) ~max_width ~engine strategy
    (c : circuit) ~theta =
  p.compiles <- p.compiles + 1;
  let t0 = now () in
  match
    Obs.Span.with_ ~name:"bench.compile" (fun () ->
        Compiler.compile ~workers ~max_width ~engine strategy c.prepared
          ~theta)
  with
  | exception e ->
    fail p (c.name ^ ": compile raised " ^ Printexc.to_string e);
    false
  | r ->
    p.compile_s <- p.compile_s +. (now () -. t0);
    p.reported_s <- p.reported_s +. r.Strategy.per_iteration.Engine.seconds;
    p.grape_iterations <-
      p.grape_iterations + r.Strategy.precompute.Engine.grape_iterations
      + r.Strategy.per_iteration.Engine.grape_iterations;
    let d = r.Strategy.duration_ns in
    let segments = Pulse.segments r.Strategy.pulse in
    p.hash <-
      List.fold_left
        (fun h s -> fnv_float h (Pulse.segment_duration s))
        (fnv_float p.hash d) segments;
    List.iter
      (function Pulse.Optimized _ -> p.blocks <- p.blocks + 1 | _ -> ())
      segments;
    if not (Float.is_finite d && d > 0.0) then begin
      fail p (Printf.sprintf "%s: pulse duration %g" c.name d);
      false
    end
    else if Strategy.degraded r then begin
      fail p (c.name ^ ": degraded: " ^ Strategy.degradation_report r);
      false
    end
    else begin
      p.log_speedup <- p.log_speedup +. log (c.gate_ns /. d);
      true
    end

(* One closed-loop pass: Nelder-Mead from a fresh start point, a fresh
   engine, [evals] evaluations; each evaluation recompiles at the new
   angles, then simulates and checks the objective. *)
let loop_pass l c evaluate ~x0 ~evals =
  let p = new_pass () in
  let engine = Engine.numeric ~settings () in
  let last = ref 0.0 in
  let f theta =
    let value =
      Obs.Span.with_ ~name:"bench.objective" @@ fun () ->
      let compiled =
        compile_checked p ~max_width:l.max_width ~engine l.strategy c ~theta
      in
      let checked =
        Obs.Span.with_ ~name:"bench.simulate" (fun () ->
            evaluate (Statevec.run ~theta c.raw))
      in
      match checked with
      | Ok v when compiled -> v
      | Ok _ -> Float.infinity
      | Error m ->
        fail p (c.name ^ ": " ^ m);
        Float.infinity
    in
    let t = now () in
    if p.compiles = 1 then p.precompute <- t -. !last
    else p.iters <- (t -. !last) :: p.iters;
    last := t;
    value
  in
  let options =
    { Nelder_mead.max_evals = evals; xtol = 0.0; ftol = 0.0;
      initial_step = l.initial_step }
  in
  let t0 = now () in
  last := t0;
  Obs.Span.with_ ~name:"bench.pass" (fun () ->
      Obs.Span.with_ ~name:"bench.optimizer" (fun () ->
          ignore (Nelder_mead.minimize ~options ~f ~x0 ())));
  p.wall <- now () -. t0;
  p

(* One sweep: prepare every paper circuit, then compile it under all four
   strategies with the model engine at fresh angles. *)
let sweep_pass circuits ~start =
  let p = new_pass () in
  let t0 = now () in
  Obs.Span.with_ ~name:"bench.pass" (fun () ->
      let prepared = List.map (fun c -> prepare c.name c.raw) circuits in
      p.precompute <- now () -. t0;
      List.iter
        (fun c ->
          let theta = start c.n_params in
          List.iter
            (fun s ->
              let t = now () in
              (* One worker: at two, every batch of 4+ blocks forks just to
                 price blocks analytically, which swamps the layers this
                 workload is for; qaoa-full-loop measures the pool. *)
              ignore
                (compile_checked p ~workers:1 ~max_width:4 ~engine:Engine.model
                   s c ~theta);
              p.iters <- (now () -. t) :: p.iters)
            Compiler.all_strategies)
        prepared);
  p.wall <- now () -. t0;
  p

(* Start points of successive passes: the Halton sequence over the angle
   box, each point jittered by the seed within 1/64 of the box.  GRAPE
   cost and pulse length depend strongly on the angles, so every seed
   visits the same strata in the same order and seeds differ only within
   a stratum; run-to-run medians then compare like with like. *)
let halton_primes = [| 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 |]
let jitter = 1.0 /. 64.0

let radical_inverse base k =
  let rec go k f acc =
    if k = 0 then acc
    else go (k / base) (f /. float_of_int base)
        (acc +. (f *. float_of_int (k mod base)))
  in
  go k (1.0 /. float_of_int base) 0.0

let start_point ~seed k n =
  let rng = Rng.create ((seed * 1_000_003) + k) in
  Array.init n (fun i ->
      let base = halton_primes.(i mod Array.length halton_primes) in
      let u = radical_inverse base (k + 1) +. (jitter *. Rng.float rng 1.0) in
      2.0 *. Float.pi *. Float.rem u 1.0)

(* Pass [k] of a run with [seed]. *)
let run_pass ?evals st ~seed k =
  let start = start_point ~seed k in
  match st with
  | Loop_setup (l, c, evaluate) ->
    loop_pass l c evaluate ~x0:(start c.n_params)
      ~evals:(Option.value evals ~default:l.evals)
  | Sweep_setup cs -> sweep_pass cs ~start

let forks = function Loop l -> l.forks | Sweep -> false
(* The canary: passes on fixed inputs.  Its pulses are pinned, and pulse
   quality is measured on it, so both are pure functions of the
   compiler. *)
let canary kind st =
  let evals, n =
    match kind with
    | Loop l -> (Some l.canary_evals, l.canary_passes)
    | Sweep -> (None, 1)
  in
  List.init n (fun k -> run_pass ?evals st ~seed:pin_seed k)

let canary_hash passes =
  hex (List.fold_left (fun h p -> fnv_bits h p.hash) fnv_basis passes)

(* Geometric mean of gate-based over compiled pulse duration. *)
let pulse_speedup passes =
  exp
    (sum (List.map (fun p -> p.log_speedup) passes)
    /. sum (List.map (fun p -> float_of_int p.compiles) passes))

(* ---- per-layer metrics from the library's own spans ------------------- *)

type span = {
  id : int;
  parent : int;
  name : string;
  ts : float;
  dur : float;
  tid : int;
}

let spans () =
  List.filter_map
    (function
      | Obs.Span { id; parent; name; ts; dur; tid; _ } ->
        Some { id; parent; name; ts; dur; tid }
      | _ -> None)
    (Obs.events ())

(* Length of [s]'s interval that its children cover (their union, so
   children running in parallel workers are not counted twice). *)
let covered children s =
  let lo = s.ts and hi = s.ts +. s.dur in
  let ivs =
    List.filter_map
      (fun k ->
        let a = Float.max lo k.ts and b = Float.min hi (k.ts +. k.dur) in
        if b > a then Some (a, b) else None)
      (children s)
    |> List.sort compare
  in
  let total, open_ =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) ivs
  in
  match open_ with Some (a, b) -> total +. (b -. a) | None -> total

type tree = {
  all : span list;
  children : span -> span list;
}

(* Worker span ids are the parent's counter plus a per-worker offset, so
   workers of two different pool maps can reuse an id.  A child therefore
   also has to start inside its parent and run in its process or be a
   worker under a parent-process span. *)
let tree () =
  let all = spans () in
  let by_parent = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add by_parent s.parent s) all;
  let children s =
    List.filter
      (fun k ->
        (k.tid = s.tid || s.tid = 0) && k.ts >= s.ts && k.ts <= s.ts +. s.dur)
      (Hashtbl.find_all by_parent s.id)
  in
  { all; children }

let named t name = List.filter (fun s -> String.equal s.name name) t.all
let total t name = sum (List.map (fun s -> s.dur) (named t name))
let self t name =
  sum (List.map (fun s -> s.dur -. covered t.children s) (named t name))

(* Flexible compilation runs search, hyperparameter grid and one tuned
   GRAPE run inside each pool item; the grid is the item's time outside
   the search and the last (tuned) run. *)
let hyperopt_s t =
  sum
    (List.filter_map
       (fun item ->
         let kids = t.children item in
         let runs =
           List.filter (fun k -> String.equal k.name "grape.optimize") kids
           |> List.sort (fun a b -> Float.compare a.ts b.ts)
         in
         match List.rev runs with
         | [] -> None
         | tuned :: _ ->
           let search =
             sum
               (List.filter_map
                  (fun k ->
                    if String.equal k.name "engine.search" then Some k.dur
                    else None)
                  kids)
           in
           Some (item.dur -. search -. tuned.dur))
       (named t "pool.item"))

(* The busiest worker bounds a forked map; the rest is dispatch. *)
let pool_overhead_s t =
  sum
    (List.map
       (fun m ->
         let busiest =
           List.fold_left
             (fun acc k ->
               if String.equal k.name "pool.worker" then Float.max acc k.dur
               else acc)
             0.0 (t.children m)
         in
         m.dur -. busiest)
       (named t "pool.map"))

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

type layer = { metric : string; unit_ : string; value : float }

let layers_of_pass p ~cpu ~wall =
  let t = tree () in
  let c = Obs.counter_value in
  let hits = c "engine.cache.hit" +. c "engine.batch.cache_hits" in
  let misses = c "engine.cache.miss" in
  let s = "s" and n = "count" in
  [ ("optimizer.step_s", s, self t "bench.optimizer");
    ("statevec.simulate_s", s, total t "bench.simulate");
    ("analysis.gate_s", s, total t "compiler.analysis");
    ( "slice.s", s,
      total t "slice.strict" +. total t "slice.strict_linear"
      +. total t "slice.flexible" );
    ("block.partition_s", s, total t "block.partition");
    ("block.count", n, float_of_int p.blocks);
    ("compiler.compile_s", s, total t "compiler.compile");
    ("compiler.unattributed_s", s, self t "compiler.compile");
    ("strategy.reported_per_iter_s", s, p.reported_s);
    ("strategy.unreported_s", s, p.compile_s -. p.reported_s);
    ("engine.batch_s", s, total t "engine.batch");
    ("engine.search_s", s, total t "engine.search");
    ("engine.hyperopt_s", s, hyperopt_s t);
    ("engine.cache.hit", n, hits);
    ("engine.cache.miss", n, misses);
    ( "engine.hit_ratio", "ratio",
      if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0 );
    ("engine.dispatched", n, c "engine.batch.dispatched");
    ("pool.map_s", s, total t "pool.map");
    ("pool.forked_maps", n, float_of_int (List.length (named t "pool.map")));
    ("pool.item_s", s, total t "pool.item");
    ("pool.overhead_s", s, pool_overhead_s t);
    ("pool.recovered", n, c "pool.recovered");
    ("cpu_per_wall", "ratio", cpu /. wall);
    ("grape.minimal_time_s", s, total t "grape.minimal_time");
    ("grape.optimize_s", s, total t "grape.optimize");
    ( "grape.optimize.count", n,
      float_of_int (List.length (named t "grape.optimize")) );
    ("grape.iterations", n, float_of_int p.grape_iterations);
    ("obs.overhead_s", s, Obs.overhead_seconds ()) ]
  |> List.map (fun (metric, unit_, value) -> { metric; unit_; value })

(* Per span name: calls, total, time its children cover, self time. *)
let span_table () =
  let t = tree () in
  let names =
    List.sort_uniq String.compare (List.map (fun s -> s.name) t.all)
  in
  List.map
    (fun name ->
      let ss = named t name in
      let tot = sum (List.map (fun s -> s.dur) ss) in
      let kids = sum (List.map (covered t.children) ss) in
      (name, List.length ss, tot, kids, tot -. kids))
    names
  |> List.sort (fun (_, _, a, _, _) (_, _, b, _, _) -> Float.compare b a)

(* ---- kernels, timed from outside --------------------------------------- *)

(* Median per-call time over batches long enough for the clock. *)
let kernel_ns f =
  let batch n =
    let t0 = now () in
    for _ = 1 to n do f () done;
    now () -. t0
  in
  let rec grow n = if batch n < 2e-3 then grow (2 * n) else n in
  let n = grow 8 in
  median (List.init 15 (fun _ -> batch n /. float_of_int n)) *. 1e9

(* A GRAPE-like slice generator -i H dt with |H dt|_1 = 0.5. *)
let generator rng dim =
  let h = Cmat.random_hermitian rng dim in
  Cmat.scale { Complex.re = 0.0; im = -0.5 /. Cmat.one_norm h } h

let kernel_layers () =
  let rng = Rng.create pin_seed in
  let expm dim =
    let a = generator rng dim and dst = Cmat.create dim dim in
    let ws = Expm.make_ws dim in
    kernel_ns (fun () -> Expm.expm_into ws ~dst a)
  in
  let mul8 =
    let a = generator rng 8 and b = generator rng 8 in
    let dst = Cmat.create 8 8 in
    kernel_ns (fun () -> Cmat.mul_into ~dst a b)
  in
  List.map
    (fun (metric, value) -> { metric; unit_ = "ns"; value })
    [ ("expm.dim4_ns", expm 4); ("expm.dim8_ns", expm 8);
      ("expm.dim16_ns", expm 16); ("cmat.mul.dim8_ns", mul8) ]

(* ---- reporting --------------------------------------------------------- *)

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit_) ->
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}"
          (Jsonx.escape_string name) value (Jsonx.escape_string unit_))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let loadavg () =
  match read_file "/proc/loadavg" with
  | Some s -> (
    match String.split_on_char ' ' s with
    | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
    | _ -> "unknown")
  | None -> "unknown"

(* VmHWM: peak resident set of this process, in MiB. *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> Float.nan
  | Some s ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.0
        | exception _ -> acc)
      Float.nan (String.split_on_char '\n' s)

let pins_of path =
  match read_file path with
  | None -> []
  | Some s ->
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ name; hash ] when line <> "" && line.[0] <> '#' -> Some (name, hash)
        | _ -> None)
      (String.split_on_char '\n' s)


(* ---- main -------------------------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
  source_digest : string;
  mode : [ `Run | `Write_pins | `Calibrate ];
}

let parse_args () =
  let a =
    ref
      { workload = ""; seed = 0; seconds = 10.0; trace = false;
        commit = "unknown";
        source_digest = "unknown"; mode = `Run }
  in
  let rec go = function
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> a := { !a with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest ->
      a := { !a with seconds = float_of_string v }; go rest
    | "--trace" :: v :: rest -> a := { !a with trace = v <> "0" }; go rest
    | "--commit" :: v :: rest -> a := { !a with commit = v }; go rest
    | "--source-digest" :: v :: rest ->
      a := { !a with source_digest = v }; go rest
    | "--write-pins" :: rest -> a := { !a with mode = `Write_pins }; go rest
    | "--calibrate" :: rest -> a := { !a with mode = `Calibrate }; go rest
    | [] -> ()
    | x :: _ -> failwith ("unknown argument " ^ x)
  in
  go (List.tl (Array.to_list Sys.argv));
  !a

let write_pins () =
  List.iter
    (fun (name, kind) ->
      let c = canary kind (setup kind) in
      if List.exists (fun p -> p.failed > 0) c then
        failwith (name ^ ": canary failed");
      Printf.printf "%s %s\n%!" name (canary_hash c))
    workloads

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Set-up, repeated until both floors are met; returns the last set-up,
   the median set-up time and, when tracing, each set-up's prepare time. *)
let measure_setup ~trace kind =
  let rec go st times prepares spent reps =
    if reps >= setup_max_reps
       || (reps >= setup_min_reps && spent >= setup_min_s)
    then (Option.get st, median times, prepares)
    else begin
      if trace then begin
        Obs.reset ();
        Obs.enable ()
      end;
      let s, dt = timed (fun () -> setup kind) in
      let prepares =
        if trace then begin
          Obs.disable ();
          total (tree ()) "bench.prepare" :: prepares
        end
        else prepares
      in
      go (Some s) (dt :: times) prepares (spent +. dt) (reps + 1)
    end
  in
  go None [] [] 0.0 0

type traced = {
  untraced_wall : float;
  layers : layer list;
  rows : (string * int * float * float * float) list;
}

(* The same pass again with tracing on, on the same inputs. *)
let traced_pass st ~seed k ~untraced_wall =
  Obs.reset ();
  Obs.enable ();
  let cpu0 = cpu_seconds () in
  let q = run_pass st ~seed k in
  let cpu = cpu_seconds () -. cpu0 in
  Obs.disable ();
  ( q,
    { untraced_wall;
      layers = layers_of_pass q ~cpu ~wall:q.wall;
      rows = span_table () } )

let mean xs = sum xs /. float_of_int (max 1 (List.length xs))

(* End-to-end metrics, times multiplied by [factor]. *)
let end_to_end ~factor ~setup_s ~canary passes =
  let iters = List.concat_map (fun p -> p.iters) passes in
  let total f ps = sum (List.map f ps) in
  [ ("iter_p50_s", factor *. median iters, "s");
    ("iter_p90_s", factor *. quantile 0.9 iters, "s");
    ( "iters_per_s",
      total (fun p -> float_of_int p.compiles) passes
      /. (factor *. total (fun p -> p.wall) passes),
      "1/s" );
    ( "precompute_s",
      factor *. median (List.map (fun p -> p.precompute) passes),
      "s" );
    ("sweep_s", factor *. mean (List.map (fun p -> p.wall) passes), "s");
    ("setup_s", factor *. setup_s, "s");
    ("pulse_speedup", pulse_speedup canary, "x");
    ("peak_rss_mb", peak_rss_mb (), "MiB") ]

(* Per-layer metrics: means per traced pass, plus the span table. *)
let per_layer ~factor ~prepares (traced : (pass * traced) list) =
  let ts = List.map snd traced in
  let mean_of metric =
    mean
      (List.map
         (fun t ->
           (List.find (fun l -> String.equal l.metric metric) t.layers).value)
         ts)
  in
  let overhead =
    median (List.map (fun (q, t) -> (q.wall /. t.untraced_wall) -. 1.0) traced)
  in
  let table = Hashtbl.create 64 in
  List.iter
    (fun t ->
      List.iter
        (fun (name, c, tot, kids, self) ->
          let c0, t0, k0, s0 =
            Option.value (Hashtbl.find_opt table name)
              ~default:(0, 0.0, 0.0, 0.0)
          in
          Hashtbl.replace table name
            (c0 + c, t0 +. tot, k0 +. kids, s0 +. self))
        t.rows)
    ts;
  let n = float_of_int (List.length ts) in
  say "per-layer spans, unscaled seconds per traced pass (%d passes):"
    (List.length ts);
  say "  %-28s %9s %12s %12s %12s" "span" "calls" "total_s" "children_s"
    "self_s";
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) table []
  |> List.sort (fun (_, (_, a, _, _)) (_, (_, b, _, _)) -> Float.compare b a)
  |> List.iter (fun (name, (c, tot, kids, self)) ->
         say "  %-28s %9.1f %12.6f %12.6f %12.6f" name (float_of_int c /. n)
           (tot /. n) (kids /. n) (self /. n));
  (match Hashtbl.find_opt table "bench.pass" with
   | Some (_, tot, _, self) ->
     say "  unattributed: %.6f s of %.6f s per pass lie in no span" (self /. n)
       (tot /. n)
   | None -> ());
  say "  tracing overhead: %+.4f of the untraced pass wall" overhead;
  let template = (List.hd ts).layers in
  List.map (fun l -> { l with value = mean_of l.metric }) template
  @ [ { metric = "transpile.prepare_s"; unit_ = "s"; value = median prepares };
      { metric = "trace.overhead_frac"; unit_ = "ratio"; value = overhead } ]
  @ kernel_layers ()
  |> List.map (fun l ->
         let scaled = String.equal l.unit_ "s" || String.equal l.unit_ "ns" in
         (l.metric, (if scaled then factor *. l.value else l.value), l.unit_))

let run a kind =
  say
    "{\"provenance\": {\"workload\": %s, \"seed\": %d, \"trace\": %b, \
     \"commit\": %s, \"source_digest\": %s, \"nproc\": %d, \"ocaml\": %s, \
     \"loadavg\": %s}}"
    (Jsonx.escape_string a.workload) a.seed a.trace
    (Jsonx.escape_string a.commit) (Jsonx.escape_string a.source_digest)
    (Domain.recommended_domain_count ())
    (Jsonx.escape_string Sys.ocaml_version) (Jsonx.escape_string (loadavg ()));
  calibrate ~forks:(forks kind);
  let st, setup_s, prepares = measure_setup ~trace:a.trace kind in
  calibrate ~forks:(forks kind);
  (* The canary compiles fixed inputs, so its pulses must hash to the
     value pinned for this compiler. *)
  let canary = canary kind st in
  let pin = List.assoc_opt a.workload (pins_of "perfbench/pins.txt") in
  let pin_ok = pin = Some (canary_hash canary) in
  say "pulse pin: %s (pinned %s)%s" (canary_hash canary)
    (Option.value pin ~default:"none")
    (if pin_ok then "" else "  MISMATCH");
  (* Passes until the time budget is spent, the machine's speed sampled
     after each.  A traced run follows each pass with its traced twin, so
     the pair also gives the tracing overhead. *)
  let passes = ref [] and traced = ref [] in
  let t_start = now () in
  let k = ref 0 in
  while !k = 0 || now () -. t_start < a.seconds do
    let p = run_pass st ~seed:a.seed !k in
    passes := p :: !passes;
    calibrate ~forks:(forks kind);
    if a.trace then begin
      traced := traced_pass st ~seed:a.seed !k ~untraced_wall:p.wall :: !traced;
      calibrate ~forks:(forks kind)
    end;
    incr k
  done;
  let passes = List.rev !passes and traced = List.rev !traced in
  let all = canary @ passes @ List.map fst traced in
  let attempted = List.fold_left (fun n p -> n + p.compiles) 0 all in
  let failed = List.fold_left (fun n p -> n + p.failed) 0 all in
  List.iter (fun p -> List.iter (say "FAILED %s") (List.rev p.errors)) all;
  let factor = speed_factor () in
  let metrics =
    if a.trace then per_layer ~factor ~prepares traced
    else end_to_end ~factor ~setup_s ~canary passes
  in
  List.iter (fun (name, v, u) -> say "%s = %.6g %s" name v u) metrics;
  say "machine speed: times above are multiplied by %.4f, the reference \
       calibration time over the median of %d samples this run"
    factor (List.length !calibrations);
  if not a.trace then
    List.iter
      (fun (name, v, u) -> say "  unscaled %s = %.6g %s" name v u)
      (end_to_end ~factor:1.0 ~setup_s ~canary passes);
  say "samples: %d iterations over %d passes; compiles attempted %d, failed %d \
       (failed_frac %.4f)"
    (List.length (List.concat_map (fun p -> p.iters) passes))
    (List.length passes) attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted));
  let correct = pin_ok && failed = 0 in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1

let () =
  let a = parse_args () in
  match a.mode, List.assoc_opt a.workload workloads with
  | `Calibrate, _ -> calibration_peer ()
  | `Write_pins, _ -> write_pins ()
  | `Run, Some kind -> run a kind
  | `Run, None ->
    prerr_endline
      ("unknown workload " ^ a.workload ^ "; one of: "
      ^ String.concat ", " (List.map fst workloads));
    exit 2
