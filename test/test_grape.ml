module Cmat = Pqc_linalg.Cmat
module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Topology = Pqc_transpile.Topology
module Hamiltonian = Pqc_grape.Hamiltonian
module Adam = Pqc_grape.Adam
module Grape = Pqc_grape.Grape

(* Coarse settings keep the suite fast; gates still converge at 0.99+. *)
let quick = { Grape.fast_settings with Grape.dt = 0.2; max_iters = 300 }

let gate_target n gate qs = Circuit.unitary (Circuit.of_gates n [ (gate, qs) ])

(* --- Hamiltonian --- *)

let test_gmon_structure () =
  let sys = Hamiltonian.gmon 3 in
  Alcotest.(check int) "dim" 8 sys.Hamiltonian.dim;
  (* 2 drives per qubit + line couplers. *)
  Alcotest.(check int) "controls" ((2 * 3) + 2) (Array.length sys.Hamiltonian.controls);
  Alcotest.(check (float 1e-12)) "qubit drift is zero" 0.0
    (Cmat.frobenius_norm sys.Hamiltonian.drift)

let test_gmon_qutrit () =
  let sys = Hamiltonian.gmon ~level:Hamiltonian.Qutrit 2 in
  Alcotest.(check int) "dim 3^2" 9 sys.Hamiltonian.dim;
  Alcotest.(check bool) "anharmonic drift" true
    (Cmat.frobenius_norm sys.Hamiltonian.drift > 0.0)

let test_gmon_controls_hermitian () =
  let sys = Hamiltonian.gmon 2 in
  Array.iter
    (fun (c : Hamiltonian.control) ->
      Alcotest.(check bool) (c.label ^ " hermitian") true
        (Cmat.max_abs_diff c.matrix (Cmat.dagger c.matrix) < 1e-12);
      Alcotest.(check bool) (c.label ^ " bounded") true (c.max_amp > 0.0))
    sys.Hamiltonian.controls

let test_gmon_asymmetry () =
  Alcotest.(check bool) "flux 15x faster than charge" true
    (Hamiltonian.flux_amp_max /. Hamiltonian.charge_amp_max > 14.9)

let test_gmon_custom_topology () =
  let sys = Hamiltonian.gmon ~topology:(Topology.clique 3) 3 in
  Alcotest.(check int) "clique couplers" ((2 * 3) + 3) (Array.length sys.Hamiltonian.controls)

let test_embed_target_qubit_identity () =
  let sys = Hamiltonian.gmon 2 in
  let t = gate_target 2 Gate.CX [ 0; 1 ] in
  Alcotest.(check (float 1e-12)) "identity lift" 0.0
    (Cmat.max_abs_diff (Hamiltonian.embed_target sys t) t)

let test_embed_target_qutrit () =
  let sys = Hamiltonian.gmon ~level:Hamiltonian.Qutrit 1 in
  let x = Gate.matrix Gate.X ~theta:[||] in
  let e = Hamiltonian.embed_target sys x in
  Alcotest.(check int) "dim" 3 (Cmat.rows e);
  (* |0><1| lands at (0,1); leakage row/col zero. *)
  Alcotest.(check bool) "subspace block" true (Complex.norm (Cmat.get e 0 1) > 0.99);
  Alcotest.(check (float 1e-12)) "leakage column zero" 0.0 (Complex.norm (Cmat.get e 2 2))

(* --- Adam --- *)

let test_adam_minimizes_quadratic () =
  let adam = Adam.create 2 in
  let params = [| 5.0; -3.0 |] in
  for _ = 1 to 500 do
    let grad = Array.map (fun x -> 2.0 *. x) params in
    Adam.step adam ~learning_rate:0.1 ~params ~grad
  done;
  Alcotest.(check bool) "converged" true
    (Float.abs params.(0) < 0.01 && Float.abs params.(1) < 0.01)

let test_adam_reset () =
  let adam = Adam.create 1 in
  let params = [| 1.0 |] in
  Adam.step adam ~learning_rate:0.1 ~params ~grad:[| 1.0 |];
  Adam.reset adam;
  let p2 = [| 1.0 |] in
  Adam.step adam ~learning_rate:0.1 ~params:p2 ~grad:[| 1.0 |];
  (* After reset, first-step behaviour is reproduced exactly. *)
  Alcotest.(check (float 1e-12)) "reset replays" params.(0) p2.(0)

(* --- Grape optimize --- *)

let test_grape_x_gate () =
  let sys = Hamiltonian.gmon 1 in
  let r = Grape.optimize ~settings:quick sys ~target:(gate_target 1 Gate.X [ 0 ]) ~total_time:3.0 in
  Alcotest.(check bool) "converged" true r.converged;
  Alcotest.(check bool) "fidelity" true (r.fidelity >= 0.99)

let test_grape_h_gate () =
  let sys = Hamiltonian.gmon 1 in
  let r = Grape.optimize ~settings:quick sys ~target:(gate_target 1 Gate.H [ 0 ]) ~total_time:2.0 in
  Alcotest.(check bool) "converged" true r.converged

let test_grape_propagate_consistent () =
  let sys = Hamiltonian.gmon 1 in
  let target = gate_target 1 Gate.H [ 0 ] in
  let r = Grape.optimize ~settings:quick sys ~target ~total_time:2.0 in
  let f = Grape.fidelity_of_controls sys ~target ~dt:quick.Grape.dt r.controls in
  Alcotest.(check bool) "controls reproduce fidelity" true
    (Float.abs (f -. r.fidelity) < 1e-6)

let test_propagate_matches_allocating_reference () =
  (* [Grape.propagate] accumulates in place with ping-pong buffers and a
     reused expm workspace; this reference is the old allocating
     implementation (fresh Hamiltonian, generator, exponential and product
     per time step).  Under the summation-order contract the two must agree
     to the last bit, not just to a tolerance. *)
  let old_propagate (sys : Hamiltonian.t) ~dt u =
    let dim = sys.Hamiltonian.dim in
    let n_steps = if Array.length u = 0 then 0 else Array.length u.(0) in
    let acc = ref (Cmat.identity dim) in
    for k = 0 to n_steps - 1 do
      let h = Cmat.copy sys.Hamiltonian.drift in
      Array.iteri
        (fun j row ->
          Cmat.axpy
            ~alpha:{ Complex.re = row.(k); im = 0.0 }
            ~x:sys.Hamiltonian.controls.(j).Hamiltonian.matrix ~y:h)
        u;
      let gen = Cmat.scale { Complex.re = 0.0; im = -.dt } h in
      let uk = Pqc_linalg.Expm.expm gen in
      acc := Cmat.mul uk !acc
    done;
    !acc
  in
  let rng = Pqc_util.Rng.create 42 in
  List.iter
    (fun n ->
      let sys = Hamiltonian.gmon n in
      let nc = Array.length sys.Hamiltonian.controls in
      let n_steps = 7 in
      let u =
        Array.init nc (fun _ ->
            Array.init n_steps (fun _ ->
                Pqc_util.Rng.uniform rng ~lo:(-0.5) ~hi:0.5))
      in
      let fast = Grape.propagate sys ~dt:0.3 u in
      let slow = old_propagate sys ~dt:0.3 u in
      for i = 0 to Cmat.rows fast - 1 do
        for j = 0 to Cmat.cols fast - 1 do
          let x = Cmat.get fast i j and y = Cmat.get slow i j in
          if
            Int64.bits_of_float x.Complex.re <> Int64.bits_of_float y.Complex.re
            || Int64.bits_of_float x.im <> Int64.bits_of_float y.im
          then
            Alcotest.failf "gmon %d: entry (%d,%d) differs: (%h,%h) vs (%h,%h)"
              n i j x.Complex.re x.im y.Complex.re y.im
        done
      done)
    [ 1; 2 ]

(* [Grape.optimize] rebuilt from allocating library calls: every iteration
   builds each slice with [Cmat.axpy], [Cmat.scale] and [Expm.expm], chains
   them with [Cmat.mul], takes each gradient trace with
   [Cmat.trace_of_product], steps with the OCaml [Adam.step] (not the C
   step [Grape.optimize] calls) and clips with [Float.max]/[Float.min]. *)
let ref_optimize (settings : Grape.settings) (sys : Hamiltonian.t) ~target
    ~n_steps =
  let nc = Array.length sys.controls and dt = settings.dt in
  let dsub2 =
    let d = float_of_int (Hamiltonian.subspace_dim sys) in
    d *. d
  in
  let embedded = Hamiltonian.embed_target sys target in
  let rng = Pqc_util.Rng.create settings.seed in
  let u =
    Array.map
      (fun (c : Hamiltonian.control) ->
        let amp = 0.1 *. c.max_amp in
        Array.init n_steps (fun _ -> Pqc_util.Rng.uniform rng ~lo:(-.amp) ~hi:amp))
      sys.controls
  in
  let adam = Adam.create (nc * n_steps) in
  let best_fid = ref 0.0 and best_u = ref (Array.map Array.copy u) in
  let iterations = ref 0 and converged = ref false and diverged = ref false in
  (try
     for iter = 1 to settings.max_iters do
       iterations := iter;
       let slice k =
         let h = Cmat.copy sys.drift in
         Array.iteri
           (fun j (c : Hamiltonian.control) ->
             Cmat.axpy ~alpha:{ Complex.re = u.(j).(k); im = 0.0 } ~x:c.matrix
               ~y:h)
           sys.controls;
         Pqc_linalg.Expm.expm (Cmat.scale { Complex.re = 0.0; im = -.dt } h)
       in
       let slices = Array.init n_steps slice in
       let prefix = Array.copy slices in
       for k = 1 to n_steps - 1 do
         prefix.(k) <- Cmat.mul slices.(k) prefix.(k - 1)
       done;
       let o = Cmat.inner embedded prefix.(n_steps - 1) in
       let fid = Complex.norm2 o /. dsub2 in
       if not (Float.is_finite fid) then begin
         diverged := true;
         raise Exit
       end;
       if fid > !best_fid then begin
         best_fid := fid;
         best_u := Array.map Array.copy u
       end;
       if fid >= settings.target_fidelity then begin
         converged := true;
         raise Exit
       end;
       let grad = Array.make_matrix nc n_steps 0.0 in
       let m = ref (Cmat.dagger embedded) in
       for k = n_steps - 1 downto 0 do
         let w = Cmat.mul prefix.(k) !m in
         Array.iteri
           (fun j (c : Hamiltonian.control) ->
             let d_o =
               Complex.mul { Complex.re = 0.0; im = -.dt }
                 (Cmat.trace_of_product w c.matrix)
             in
             let d_fid = 2.0 /. dsub2 *. (Complex.mul (Complex.conj o) d_o).re in
             grad.(j).(k) <-
               -.d_fid
               +. (2.0 *. settings.amp_penalty *. u.(j).(k)
                  /. (c.max_amp *. c.max_amp)))
           sys.controls;
         if k > 0 then m := Cmat.mul !m slices.(k)
       done;
       let lambda = settings.smoothness_penalty in
       if lambda > 0.0 then
         Array.iteri
           (fun j g ->
             let row = u.(j) in
             for k = 0 to n_steps - 2 do
               let diff = row.(k + 1) -. row.(k) in
               g.(k) <- g.(k) -. (2.0 *. lambda *. diff);
               g.(k + 1) <- g.(k + 1) +. (2.0 *. lambda *. diff)
             done;
             if settings.envelope then begin
               g.(0) <- g.(0) +. (2.0 *. lambda *. row.(0));
               g.(n_steps - 1) <-
                 g.(n_steps - 1) +. (2.0 *. lambda *. row.(n_steps - 1))
             end)
           grad;
       let params = Array.concat (Array.to_list u)
       and flat_grad = Array.concat (Array.to_list grad) in
       if not (Array.for_all Float.is_finite flat_grad) then begin
         diverged := true;
         raise Exit
       end;
       let lr =
         settings.hyperparams.learning_rate
         *. (settings.hyperparams.decay ** float_of_int (iter - 1))
       in
       Adam.step adam ~learning_rate:lr ~params ~grad:flat_grad;
       Array.iteri
         (fun j (c : Hamiltonian.control) ->
           for k = 0 to n_steps - 1 do
             u.(j).(k) <-
               Float.max (-.c.max_amp)
                 (Float.min c.max_amp params.((j * n_steps) + k))
           done)
         sys.controls
     done
   with Exit -> ());
  (!best_fid, !iterations, !converged, !diverged, !best_u)

(* A dim-2 or dim-4 qubit system with [nc] random Hermitian controls and a
   nonzero drift.  With [~real], every imaginary part of the drift and the
   controls is set to +0.0 or -0.0 at random: a real system, whose dim-4
   passes take the step lanes and the sparse traces of kernels4.c. *)
let custom_system ?(real = false) rng ~n_qubits ~nc =
  let dim = 1 lsl n_qubits in
  let realify m =
    if real then
      for i = 0 to dim - 1 do
        for j = 0 to dim - 1 do
          Cmat.set m i j
            { (Cmat.get m i j) with
              Complex.im = (if Pqc_util.Rng.int rng 2 = 0 then 0.0 else -0.0) }
        done
      done;
    m
  in
  { Hamiltonian.n_qubits; level = Hamiltonian.Qubit; dim;
    drift =
      realify
        (Cmat.scale { Complex.re = 0.3; im = 0.0 } (Cmat.random_hermitian rng dim));
    controls =
      Array.init nc (fun j ->
          { Hamiltonian.label = Printf.sprintf "h%d" j;
            matrix = realify (Cmat.random_hermitian rng dim);
            max_amp = Pqc_util.Rng.uniform rng ~lo:0.2 ~hi:3.0 }) }

let prop_optimize_matches_reference =
  QCheck.Test.make ~name:"optimize = allocating reference (bits)" ~count:240
    ~long_factor:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let module Rng = Pqc_util.Rng in
      let rng = Rng.create seed in
      (* Dims 2 and 4: the gmon systems and custom ones, the dim-4 ones
         with 0 to 8 controls, complex or real; dims 8 and 9 (three gmon
         qubits, two gmon qutrits), which only the generic passes serve. *)
      let sys =
        match seed mod 8 with
        | 0 -> Hamiltonian.gmon 1
        | 1 -> Hamiltonian.gmon 2
        | 2 -> custom_system rng ~n_qubits:1 ~nc:(Rng.int rng 4)
        | 3 | 4 -> custom_system rng ~n_qubits:2 ~nc:(Rng.int rng 9)
        | 5 -> Hamiltonian.gmon 3
        | 6 -> Hamiltonian.gmon ~level:Hamiltonian.Qutrit 2
        | _ -> custom_system ~real:true rng ~n_qubits:2 ~nc:(Rng.int rng 9)
      in
      if Rng.int rng 10 = 0 then
        Cmat.set sys.drift 0 0 { Complex.re = Float.nan; im = 0.0 };
      let target =
        Pqc_linalg.Expm.expm
          (Cmat.scale { Complex.re = 0.0; im = -1.0 }
             (Cmat.random_hermitian rng (Hamiltonian.subspace_dim sys)))
      in
      let coin () = Rng.int rng 2 = 0 in
      let dt = Rng.uniform rng ~lo:0.05 ~hi:2.0 in
      (* At dim 4, 1 to 5 lane batches of the forward pass and every
         remainder. *)
      let n_steps = 2 + Rng.int rng (if sys.dim = 4 then 39 else 10) in
      (* A third of the cases take learning rates far above the drive
         bounds, so the clip saturates controls. *)
      let learning_rate =
        if Rng.int rng 3 = 0 then Rng.uniform rng ~lo:5.0 ~hi:50.0
        else Rng.uniform rng ~lo:0.01 ~hi:0.5
      in
      let settings =
        { Grape.dt; max_iters = 1 + Rng.int rng 30;
          target_fidelity = Rng.uniform rng ~lo:0.5 ~hi:0.999;
          hyperparams =
            { Grape.learning_rate; decay = Rng.uniform rng ~lo:0.9 ~hi:1.0 };
          amp_penalty = (if coin () then 0.0 else Rng.uniform rng ~lo:0.0 ~hi:0.1);
          smoothness_penalty =
            (if coin () then 0.0 else Rng.uniform rng ~lo:0.0 ~hi:0.05);
          envelope = coin (); seed }
      in
      let r =
        Grape.optimize ~settings sys ~target
          ~total_time:(float_of_int n_steps *. dt)
      in
      let fid, iterations, converged, diverged, controls =
        ref_optimize settings sys ~target ~n_steps
      in
      let bits = Int64.bits_of_float in
      if bits r.fidelity <> bits fid then
        QCheck.Test.fail_reportf "fidelity %h vs reference %h" r.fidelity fid;
      if (r.iterations, r.converged, r.diverged) <> (iterations, converged, diverged)
      then
        QCheck.Test.fail_reportf
          "iterations/converged/diverged %d/%b/%b vs reference %d/%b/%b"
          r.iterations r.converged r.diverged iterations converged diverged;
      Array.iteri
        (fun j row ->
          Array.iteri
            (fun k x ->
              if bits x <> bits controls.(j).(k) then
                QCheck.Test.fail_reportf "control (%d,%d): %h vs reference %h"
                  j k x controls.(j).(k))
            row)
        r.controls;
      true)

let test_grape_respects_amp_bounds () =
  let sys = Hamiltonian.gmon 1 in
  let r = Grape.optimize ~settings:quick sys ~target:(gate_target 1 Gate.X [ 0 ]) ~total_time:3.0 in
  Array.iteri
    (fun j row ->
      let cap = sys.Hamiltonian.controls.(j).max_amp in
      Array.iter
        (fun u -> Alcotest.(check bool) "bounded" true (Float.abs u <= cap +. 1e-12))
        row)
    r.controls

let test_grape_cx () =
  let sys = Hamiltonian.gmon 2 in
  let r =
    Grape.optimize ~settings:quick sys ~target:(gate_target 2 Gate.CX [ 0; 1 ])
      ~total_time:5.0
  in
  Alcotest.(check bool) "cx reachable" true r.converged

let test_grape_deterministic () =
  let sys = Hamiltonian.gmon 1 in
  let target = gate_target 1 Gate.H [ 0 ] in
  let a = Grape.optimize ~settings:quick sys ~target ~total_time:2.0 in
  let b = Grape.optimize ~settings:quick sys ~target ~total_time:2.0 in
  Alcotest.(check int) "same iterations" a.iterations b.iterations;
  Alcotest.(check (float 1e-12)) "same fidelity" a.fidelity b.fidelity

(* --- minimal time --- *)

let test_minimal_time_z_faster_than_x () =
  let sys = Hamiltonian.gmon 1 in
  let z = gate_target 1 (Gate.Rz (Param.const Float.pi)) [ 0 ] in
  let x = gate_target 1 (Gate.Rx (Param.const Float.pi)) [ 0 ] in
  let settings = { quick with Grape.dt = 0.1 } in
  match
    ( Grape.minimal_time ~settings ~upper_bound:4.0 sys ~target:z,
      Grape.minimal_time ~settings ~upper_bound:4.0 sys ~target:x )
  with
  | Some sz, Some sx ->
    (* The control-field asymmetry: Z rotations are much faster (Section
       5.1, Appendix A). *)
    Alcotest.(check bool) "z much faster" true
      (sz.minimal.total_time *. 2.0 < sx.minimal.total_time)
  | _ -> Alcotest.fail "searches must converge"

let test_minimal_time_cx_near_table () =
  let sys = Hamiltonian.gmon 2 in
  let settings = { quick with Grape.dt = 0.2; Grape.target_fidelity = 0.99 } in
  match
    Grape.minimal_time ~settings ~upper_bound:8.0 sys ~target:(gate_target 2 Gate.CX [ 0; 1 ])
  with
  | Some s ->
    Alcotest.(check bool) "within 1 ns of Table 1" true
      (Float.abs (s.minimal.total_time -. 3.8) <= 1.0)
  | None -> Alcotest.fail "cx search must converge"

let test_minimal_time_probes_recorded () =
  let sys = Hamiltonian.gmon 1 in
  match
    Grape.minimal_time ~settings:quick ~upper_bound:4.0 sys
      ~target:(gate_target 1 Gate.H [ 0 ])
  with
  | Some s ->
    Alcotest.(check bool) "several probes" true (List.length s.probes >= 3);
    Alcotest.(check bool) "iterations counted" true (s.grape_iterations_total > 0)
  | None -> Alcotest.fail "H search must converge"

let test_minimal_time_unreachable () =
  (* No coupler: an entangling target is unreachable. *)
  let sys = Hamiltonian.gmon ~topology:(Topology.of_edges 2 []) 2 in
  let settings = { quick with Grape.max_iters = 60 } in
  Alcotest.(check bool) "unreachable is None" true
    (Grape.minimal_time ~settings ~upper_bound:6.0 sys
       ~target:(gate_target 2 Gate.CX [ 0; 1 ])
    = None)

(* The search of [Grape.minimal_time] with every probe a fresh
   [Grape.optimize] run: the bound (doubled once on failure), then
   bisection of [0, hi] to the default 0.3 ns precision.  Returns the
   minimal result and every probe's duration and result, in order. *)
let reference_minimal_time ~settings ~upper_bound sys ~target =
  let probes = ref [] in
  let attempt time =
    let r = Grape.optimize ~settings sys ~target ~total_time:time in
    probes := (time, r) :: !probes;
    r
  in
  let r0 = attempt upper_bound in
  let hi_r = if r0.Grape.converged then r0 else attempt (2.0 *. upper_bound) in
  if not hi_r.Grape.converged then Alcotest.fail "reference search must converge";
  let rec bisect lo hi best =
    if hi -. lo <= 0.3 then best
    else begin
      let mid = (lo +. hi) /. 2.0 in
      let r = attempt mid in
      if r.Grape.converged then bisect lo mid r else bisect mid hi best
    end
  in
  let best = bisect 0.0 hi_r.Grape.total_time hi_r in
  (best, List.rev !probes)

let check_same_result what (a : Grape.result) (b : Grape.result) =
  let bits = Int64.bits_of_float in
  Alcotest.(check (float 0.0)) (what ^ " total_time") a.total_time b.total_time;
  Alcotest.(check int) (what ^ " iterations") a.iterations b.iterations;
  Alcotest.(check int64) (what ^ " fidelity bits") (bits a.fidelity) (bits b.fidelity);
  Alcotest.(check int) (what ^ " control rows") (Array.length a.controls)
    (Array.length b.controls);
  Array.iteri
    (fun j row ->
      Alcotest.(check (array int64)) (Printf.sprintf "%s control %d bits" what j)
        (Array.map bits row) (Array.map bits b.controls.(j)))
    a.controls

let test_minimal_time_reuses_runs_invisibly () =
  (* At dt 1.0 the late bisection probes round to step counts the search
     already ran: the reference's first midpoint is the failed 8 ns bound
     itself.  Reusing those runs must return exactly the reference's
     pulse while executing one run per distinct step count. *)
  let sys = Hamiltonian.gmon 2 in
  let settings = { quick with Grape.dt = 1.0; max_iters = 300 } in
  let target = gate_target 2 Gate.CX [ 0; 1 ] in
  let ref_best, ref_probes =
    reference_minimal_time ~settings ~upper_bound:8.0 sys ~target
  in
  (* The first probe at each step count, in probe order. *)
  let first_runs =
    List.rev
      (List.fold_left
         (fun acc ((_, (r : Grape.result)) as probe) ->
           if List.exists (fun (_, (q : Grape.result)) -> q.n_steps = r.n_steps) acc
           then acc
           else probe :: acc)
         [] ref_probes)
  in
  Alcotest.(check int) "reference probes" 8 (List.length ref_probes);
  Alcotest.(check int) "distinct step counts" 5 (List.length first_runs);
  match Grape.minimal_time ~settings ~upper_bound:8.0 sys ~target with
  | None -> Alcotest.fail "cx search must converge"
  | Some s ->
    check_same_result "minimal" ref_best s.minimal;
    Alcotest.(check (list (pair (float 0.0) bool))) "one probe per run executed"
      (List.map (fun (time, (r : Grape.result)) -> (time, r.converged)) first_runs)
      s.probes;
    Alcotest.(check int) "iterations of the runs executed"
      (List.fold_left (fun acc (_, (r : Grape.result)) -> acc + r.iterations) 0
         first_runs)
      s.grape_iterations_total

let test_minimal_time_degenerate_precision () =
  (* A precision at or below the float spacing of the bracket used to
     bisect the same interval forever.  Below dt every midpoint rounds
     to a step count already run, so precision 0, negative or NaN runs
     the same probes as dt / 2. *)
  let sys = Hamiltonian.gmon 1 in
  let target = gate_target 1 Gate.H [ 0 ] in
  let search precision =
    match
      Grape.minimal_time ~settings:quick ~precision ~upper_bound:4.0 sys ~target
    with
    | Some s -> s
    | None -> Alcotest.fail "H search must converge"
  in
  let base = search (quick.Grape.dt /. 2.0) in
  List.iter
    (fun precision ->
      let what = Printf.sprintf "precision %g" precision in
      let s = search precision in
      check_same_result what base.minimal s.minimal;
      Alcotest.(check (list (pair (float 0.0) bool))) (what ^ " probes")
        base.probes s.probes;
      Alcotest.(check int) (what ^ " iterations") base.grape_iterations_total
        s.grape_iterations_total)
    [ 0.0; -1.0; Float.nan ]

let test_realistic_settings_run () =
  let sys = Hamiltonian.gmon ~level:Hamiltonian.Qutrit 1 in
  let settings = { Grape.realistic_settings with Grape.max_iters = 200 } in
  let r =
    Grape.optimize ~settings sys ~target:(gate_target 1 Gate.X [ 0 ]) ~total_time:6.0
  in
  (* Leakage + coarse sampling make this harder; it must still make clear
     progress over a random pulse. *)
  Alcotest.(check bool) "progress under realistic settings" true (r.fidelity > 0.9)

(* --- allocation --- *)

let test_optimize_iteration_words () =
  (* Without a coupler, CX is out of reach of two gmon qubits, so a dim-4
     run takes all of its max_iters.  The words two runs differ by are
     their extra iterations' own: a boxed float per iteration would show
     as 2 words each.  An iteration allocated about 3 words when ADAM ran
     in OCaml (2 steady, for the boxed learning rate, and a closure
     whenever the best fidelity rose); now it allocates none. *)
  let sys = Hamiltonian.gmon ~topology:(Topology.of_edges 2 []) 2 in
  let target = gate_target 2 Gate.CX [ 0; 1 ] in
  let words max_iters =
    let settings = { quick with Grape.max_iters } in
    let w0 = Gc.minor_words () in
    let r = Grape.optimize ~settings sys ~target ~total_time:4.0 in
    let dw = Gc.minor_words () -. w0 in
    Alcotest.(check (pair int bool)) "every iteration runs" (max_iters, false)
      (r.iterations, r.converged || r.diverged);
    dw
  in
  let short = words 10 in
  let per_iter = (words 210 -. short) /. 200.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per iteration, budget 0.5" per_iter)
    true (per_iter <= 0.5)

let () =
  Alcotest.run "grape"
    [ ( "hamiltonian",
        [ Alcotest.test_case "gmon structure" `Quick test_gmon_structure;
          Alcotest.test_case "qutrit" `Quick test_gmon_qutrit;
          Alcotest.test_case "controls hermitian" `Quick test_gmon_controls_hermitian;
          Alcotest.test_case "drive asymmetry" `Quick test_gmon_asymmetry;
          Alcotest.test_case "custom topology" `Quick test_gmon_custom_topology;
          Alcotest.test_case "embed qubit" `Quick test_embed_target_qubit_identity;
          Alcotest.test_case "embed qutrit" `Quick test_embed_target_qutrit ] );
      ( "adam",
        [ Alcotest.test_case "minimizes quadratic" `Quick test_adam_minimizes_quadratic;
          Alcotest.test_case "reset" `Quick test_adam_reset ] );
      ( "optimize",
        [ Alcotest.test_case "X gate" `Quick test_grape_x_gate;
          Alcotest.test_case "H gate" `Quick test_grape_h_gate;
          Alcotest.test_case "propagate consistency" `Quick test_grape_propagate_consistent;
          Alcotest.test_case "propagate = allocating reference" `Quick
            test_propagate_matches_allocating_reference;
          QCheck_alcotest.to_alcotest prop_optimize_matches_reference;
          Alcotest.test_case "amplitude bounds" `Quick test_grape_respects_amp_bounds;
          Alcotest.test_case "CX" `Slow test_grape_cx;
          Alcotest.test_case "deterministic" `Quick test_grape_deterministic ] );
      ( "minimal-time",
        [ Alcotest.test_case "Z faster than X" `Quick test_minimal_time_z_faster_than_x;
          Alcotest.test_case "CX near Table 1" `Slow test_minimal_time_cx_near_table;
          Alcotest.test_case "probes recorded" `Quick test_minimal_time_probes_recorded;
          Alcotest.test_case "unreachable target" `Quick test_minimal_time_unreachable;
          Alcotest.test_case "reused runs invisible" `Quick
            test_minimal_time_reuses_runs_invisibly;
          Alcotest.test_case "precision 0 or NaN returns" `Quick
            test_minimal_time_degenerate_precision;
          Alcotest.test_case "realistic settings" `Slow test_realistic_settings_run ] );
      ( "allocation",
        [ Alcotest.test_case "optimize words per iteration" `Quick
            test_optimize_iteration_words ] ) ]
