module Rng = Pqc_util.Rng
module Cmat = Pqc_linalg.Cmat
module Expm = Pqc_linalg.Expm
module Unitary = Pqc_linalg.Unitary
module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Pauli = Pqc_quantum.Pauli
module Slice = Pqc_transpile.Slice
module Molecule = Pqc_vqe.Molecule
module Uccsd = Pqc_vqe.Uccsd
module Chemistry = Pqc_vqe.Chemistry
module Vqe = Pqc_vqe.Vqe

(* --- Molecule registry (Table 2) --- *)

let test_table2_widths () =
  let widths = List.map (fun m -> (m.Molecule.name, m.Molecule.n_qubits)) Molecule.all in
  Alcotest.(check (list (pair string int))) "widths"
    [ ("H2", 2); ("LiH", 4); ("BeH2", 6); ("NaH", 8); ("H2O", 10) ]
    widths

let test_table2_params () =
  let params = List.map (fun m -> (m.Molecule.name, Molecule.n_params m)) Molecule.all in
  Alcotest.(check (list (pair string int))) "parameter counts"
    [ ("H2", 3); ("LiH", 8); ("BeH2", 26); ("NaH", 24); ("H2O", 92) ]
    params

let test_molecule_find () =
  Alcotest.(check bool) "case-insensitive" true (Molecule.find "beh2" = Some Molecule.beh2);
  Alcotest.(check bool) "unknown" true (Molecule.find "XeF4" = None)

(* --- Pauli exponential construction --- *)

(* Reference: exp(-i theta/2 P) computed densely from the Pauli matrix.
   The CX parity ladder spans the support's whole qubit range, so
   intermediate qubits carry Jordan-Wigner Z factors. *)
let reference_exponential n theta support =
  let qs = List.map fst support in
  let lo = List.fold_left min (List.hd qs) qs in
  let hi = List.fold_left max (List.hd qs) qs in
  let ops = Array.make n Pauli.I in
  for q = lo to hi do
    ops.(q) <- Pauli.Z
  done;
  List.iter
    (fun (q, ax) -> ops.(q) <- (match ax with Uccsd.AX -> Pauli.X | Uccsd.AY -> Pauli.Y))
    support;
  let p = Pauli.matrix (Pauli.make n [ (1.0, ops) ]) in
  Expm.expm_i_hermitian ~t:(theta /. 2.0) p

let check_exponential n theta support =
  let c = Uccsd.pauli_exponential ~n ~param:(Param.const theta) support in
  Unitary.equal_up_to_phase ~tol:1e-7 (Circuit.unitary c)
    (reference_exponential n theta support)

let test_pauli_exponential_xy () =
  Alcotest.(check bool) "exp XY" true (check_exponential 2 0.9 [ (0, Uccsd.AX); (1, Uccsd.AY) ])

let test_pauli_exponential_yx () =
  Alcotest.(check bool) "exp YX" true (check_exponential 2 (-1.3) [ (0, Uccsd.AY); (1, Uccsd.AX) ])

let test_pauli_exponential_4q () =
  Alcotest.(check bool) "exp XXXY" true
    (check_exponential 4 0.7
       [ (0, Uccsd.AX); (1, Uccsd.AX); (2, Uccsd.AX); (3, Uccsd.AY) ])

let prop_pauli_exponential =
  QCheck.Test.make ~name:"pauli exponentials match dense reference" ~count:25
    QCheck.(pair (int_range 0 10_000) (float_range (-3.0) 3.0))
    (fun (seed, theta) ->
      let rng = Rng.create seed in
      let n = 3 in
      let count = 1 + Rng.int rng n in
      let qubits = Array.init n Fun.id in
      Rng.shuffle rng qubits;
      let support =
        List.init count (fun i ->
            (qubits.(i), if Rng.bool rng then Uccsd.AX else Uccsd.AY))
      in
      check_exponential n theta support)

let test_pauli_exponential_rejects_dup () =
  Alcotest.(check bool) "duplicate support" true
    (try
       ignore (Uccsd.pauli_exponential ~n:2 ~param:Param.zero
                 [ (0, Uccsd.AX); (0, Uccsd.AY) ]);
       false
     with Invalid_argument _ -> true)

let test_pauli_exponential_rejects_empty () =
  Alcotest.(check bool) "empty support" true
    (try ignore (Uccsd.pauli_exponential ~n:2 ~param:Param.zero []); false
     with Invalid_argument _ -> true)

(* --- excitations and ansatz --- *)

let test_single_excitation_dependency () =
  let c = Uccsd.single_excitation ~n:3 ~param_index:5 (0, 1) in
  Alcotest.(check (list int)) "depends only on t5" [ 5 ] (Circuit.depends c)

let test_double_excitation_dependency () =
  let c = Uccsd.double_excitation ~n:4 ~param_index:2 (0, 1, 2, 3) in
  Alcotest.(check (list int)) "depends only on t2" [ 2 ] (Circuit.depends c);
  (* Eight strings, each with one Rz. *)
  Alcotest.(check int) "eight theta gates" 8 (Circuit.parametrized_gate_count c)

let test_ansatz_dimensions () =
  List.iter
    (fun m ->
      let c = Uccsd.ansatz m in
      Alcotest.(check int) (m.Molecule.name ^ " width") m.Molecule.n_qubits
        (Circuit.n_qubits c);
      Alcotest.(check int)
        (m.Molecule.name ^ " params")
        (Molecule.n_params m)
        (List.length (Circuit.depends c)))
    Molecule.all

let test_ansatz_monotone () =
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Molecule.name ^ " monotone") true
        (Slice.is_monotone (Uccsd.ansatz m)))
    Molecule.all

let test_ansatz_theta_sparsity () =
  (* Section 6: Rz(theta) gates are a small minority for UCCSD, leaving
     deep Fixed blocks for strict partial compilation. *)
  List.iter
    (fun m ->
      let c = Uccsd.ansatz m in
      let frac = 1.0 -. Slice.fixed_gate_fraction c in
      Alcotest.(check bool)
        (Printf.sprintf "%s theta fraction %.2f small" m.Molecule.name frac)
        true (frac < 0.16))
    Molecule.all

let test_ansatz_deterministic () =
  let a = Uccsd.ansatz Molecule.lih and b = Uccsd.ansatz Molecule.lih in
  Alcotest.(check int) "same length" (Circuit.length a) (Circuit.length b)

(* --- chemistry --- *)

let test_h2_ground_energy () =
  Alcotest.(check bool) "near -1.851 Ha" true
    (Float.abs (Chemistry.h2_exact_energy -. -1.851) < 5e-3)

let test_h2_terms () =
  Alcotest.(check int) "six Pauli terms" 6 (List.length Chemistry.h2.Pauli.terms)

let test_synthetic_shape () =
  let h = Chemistry.synthetic ~seed:5 ~n_qubits:4 in
  Alcotest.(check int) "width" 4 h.Pauli.n_qubits;
  (* n Z + (n-1) ZZ + n X terms. *)
  Alcotest.(check int) "terms" 11 (List.length h.Pauli.terms)

let test_synthetic_deterministic () =
  let a = Chemistry.synthetic ~seed:5 ~n_qubits:3 in
  let b = Chemistry.synthetic ~seed:5 ~n_qubits:3 in
  Alcotest.(check (float 1e-12)) "same coefficients"
    (List.hd a.Pauli.terms).Pauli.coeff (List.hd b.Pauli.terms).Pauli.coeff

let test_ground_energy_is_lower_bound () =
  let h = Chemistry.synthetic ~seed:9 ~n_qubits:3 in
  let e0 = Chemistry.ground_energy h in
  (* Every basis state's energy is an upper bound on the ground energy. *)
  for k = 0 to 7 do
    let v = Pqc_linalg.Cvec.basis 8 k in
    Alcotest.(check bool) "e0 <= <k|H|k>" true (e0 <= Pauli.expectation h v +. 1e-6)
  done

(* --- end-to-end VQE --- *)

let test_vqe_h2_end_to_end () =
  (* Hartree-Fock prep |10> then the UCCSD-structured ansatz: must land on
     the exact ground energy of the real H2 Hamiltonian. *)
  let prep = Circuit.of_gates 2 [ (Gate.X, [ 0 ]) ] in
  let ansatz = Circuit.concat prep (Uccsd.ansatz Molecule.h2) in
  let r = Vqe.run ~hamiltonian:Chemistry.h2 ~ansatz () in
  Alcotest.(check bool)
    (Printf.sprintf "energy %.4f within 1 mHa of exact" r.energy)
    true
    (Float.abs (r.energy -. Chemistry.h2_exact_energy) < 1e-3)

let test_vqe_improves_over_hf () =
  let prep = Circuit.of_gates 2 [ (Gate.X, [ 0 ]) ] in
  let hf_energy = Pauli.expectation Chemistry.h2 (Pqc_quantum.Statevec.run prep) in
  let ansatz = Circuit.concat prep (Uccsd.ansatz Molecule.h2) in
  let r = Vqe.run ~hamiltonian:Chemistry.h2 ~ansatz () in
  Alcotest.(check bool) "beats Hartree-Fock" true (r.energy < hf_energy)

let test_vqe_width_mismatch () =
  Alcotest.(check bool) "width mismatch raises" true
    (try
       ignore (Vqe.run ~hamiltonian:Chemistry.h2 ~ansatz:(Circuit.empty 3) ());
       false
     with Invalid_argument _ -> true)

let test_vqe_iterations_counted () =
  let prep = Circuit.of_gates 2 [ (Gate.X, [ 0 ]) ] in
  let ansatz = Circuit.concat prep (Uccsd.ansatz Molecule.h2) in
  let r = Vqe.run ~max_evals:50 ~hamiltonian:Chemistry.h2 ~ansatz () in
  Alcotest.(check bool) "evaluations tracked" true (r.evaluations > 0 && r.evaluations <= 55)

let () =
  Alcotest.run "vqe"
    [ ( "molecule",
        [ Alcotest.test_case "table 2 widths" `Quick test_table2_widths;
          Alcotest.test_case "table 2 params" `Quick test_table2_params;
          Alcotest.test_case "find" `Quick test_molecule_find ] );
      ( "uccsd",
        [ Alcotest.test_case "exp XY" `Quick test_pauli_exponential_xy;
          Alcotest.test_case "exp YX" `Quick test_pauli_exponential_yx;
          Alcotest.test_case "exp 4q" `Quick test_pauli_exponential_4q;
          Alcotest.test_case "rejects duplicates" `Quick test_pauli_exponential_rejects_dup;
          Alcotest.test_case "rejects empty" `Quick test_pauli_exponential_rejects_empty;
          Alcotest.test_case "single dependency" `Quick test_single_excitation_dependency;
          Alcotest.test_case "double dependency" `Quick test_double_excitation_dependency;
          Alcotest.test_case "ansatz dimensions" `Quick test_ansatz_dimensions;
          Alcotest.test_case "ansatz monotone" `Quick test_ansatz_monotone;
          Alcotest.test_case "theta sparsity" `Quick test_ansatz_theta_sparsity;
          Alcotest.test_case "deterministic" `Quick test_ansatz_deterministic;
          QCheck_alcotest.to_alcotest prop_pauli_exponential ] );
      ( "chemistry",
        [ Alcotest.test_case "H2 ground energy" `Quick test_h2_ground_energy;
          Alcotest.test_case "H2 terms" `Quick test_h2_terms;
          Alcotest.test_case "synthetic shape" `Quick test_synthetic_shape;
          Alcotest.test_case "synthetic deterministic" `Quick test_synthetic_deterministic;
          Alcotest.test_case "ground energy bound" `Quick test_ground_energy_is_lower_bound ] );
      ( "end-to-end",
        [ Alcotest.test_case "H2 reaches exact energy" `Quick test_vqe_h2_end_to_end;
          Alcotest.test_case "improves over HF" `Quick test_vqe_improves_over_hf;
          Alcotest.test_case "width mismatch" `Quick test_vqe_width_mismatch;
          Alcotest.test_case "iterations counted" `Quick test_vqe_iterations_counted ] ) ]
