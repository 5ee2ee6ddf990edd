module Rng = Pqc_util.Rng
module Cmat = Pqc_linalg.Cmat
module Cvec = Pqc_linalg.Cvec
module Expm = Pqc_linalg.Expm
module Unitary = Pqc_linalg.Unitary

let c re im = { Complex.re; im }
let c1 = c 1.0 0.0
let c0 = c 0.0 0.0

let random_cmat rng n =
  let m = Cmat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Cmat.set m i j (c (Rng.gaussian rng) (Rng.gaussian rng))
    done
  done;
  m

let close ?(tol = 1e-9) a b = Cmat.max_abs_diff a b <= tol

(* --- basic algebra --- *)

let test_identity_mul () =
  let rng = Rng.create 1 in
  let a = random_cmat rng 5 in
  let i5 = Cmat.identity 5 in
  Alcotest.(check bool) "I*A = A" true (close (Cmat.mul i5 a) a);
  Alcotest.(check bool) "A*I = A" true (close (Cmat.mul a i5) a)

let test_get_set () =
  let m = Cmat.create 3 4 in
  Cmat.set m 2 3 (c 1.5 (-0.5));
  Alcotest.(check bool) "roundtrip" true (Cmat.get m 2 3 = c 1.5 (-0.5));
  Alcotest.(check int) "rows" 3 (Cmat.rows m);
  Alcotest.(check int) "cols" 4 (Cmat.cols m)

let test_dagger_involution () =
  let rng = Rng.create 2 in
  let a = random_cmat rng 4 in
  Alcotest.(check bool) "dagger twice" true (close (Cmat.dagger (Cmat.dagger a)) a)

let test_add_sub () =
  let rng = Rng.create 3 in
  let a = random_cmat rng 4 and b = random_cmat rng 4 in
  Alcotest.(check bool) "a+b-b = a" true (close (Cmat.sub (Cmat.add a b) b) a)

let test_scale () =
  let rng = Rng.create 4 in
  let a = random_cmat rng 3 in
  let two = c 2.0 0.0 in
  Alcotest.(check bool) "2a = a+a" true (close (Cmat.scale two a) (Cmat.add a a))

let test_axpy () =
  let rng = Rng.create 5 in
  let x = random_cmat rng 3 and y = random_cmat rng 3 in
  let expected = Cmat.add y (Cmat.scale (c 0.5 1.0) x) in
  Cmat.axpy ~alpha:(c 0.5 1.0) ~x ~y;
  Alcotest.(check bool) "axpy" true (close y expected)

let test_kron_known () =
  let x = Cmat.of_array [| [| c0; c1 |]; [| c1; c0 |] |] in
  let i2 = Cmat.identity 2 in
  let xi = Cmat.kron x i2 in
  (* X (x) I maps |00> -> |10>: column 0 has a 1 in row 2. *)
  Alcotest.(check bool) "entry" true (Cmat.get xi 2 0 = c1);
  Alcotest.(check int) "dims" 4 (Cmat.rows xi)

let test_trace () =
  let m = Cmat.of_array [| [| c 1.0 2.0; c0 |]; [| c0; c 3.0 (-1.0) |] |] in
  Alcotest.(check bool) "trace" true (Cmat.trace m = c 4.0 1.0)

let test_inner_vs_trace () =
  let rng = Rng.create 6 in
  let a = random_cmat rng 4 and b = random_cmat rng 4 in
  let via_trace = Cmat.trace (Cmat.mul (Cmat.dagger a) b) in
  let via_inner = Cmat.inner a b in
  Alcotest.(check bool) "inner = tr(a† b)" true
    (Complex.norm (Complex.sub via_trace via_inner) < 1e-9)

let test_trace_of_product () =
  let rng = Rng.create 7 in
  let a = random_cmat rng 5 and b = random_cmat rng 5 in
  let direct = Cmat.trace (Cmat.mul a b) in
  let fast = Cmat.trace_of_product a b in
  Alcotest.(check bool) "tr(ab)" true (Complex.norm (Complex.sub direct fast) < 1e-9)

let test_one_norm () =
  let m = Cmat.of_array [| [| c 3.0 0.0; c0 |]; [| c 0.0 4.0; c1 |] |] in
  (* Column 0 sum = 3 + 4 = 7, column 1 sum = 1. *)
  Alcotest.(check (float 1e-12)) "one norm" 7.0 (Cmat.one_norm m)

let test_transpose_conj_dagger () =
  let rng = Rng.create 8 in
  let a = random_cmat rng 4 in
  Alcotest.(check bool) "dagger = conj . transpose" true
    (close (Cmat.dagger a) (Cmat.conj (Cmat.transpose a)))

let prop_mul_assoc =
  QCheck.Test.make ~name:"matrix multiplication associative" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let a = random_cmat rng 3 and b = random_cmat rng 3 and cm = random_cmat rng 3 in
      close ~tol:1e-8 (Cmat.mul (Cmat.mul a b) cm) (Cmat.mul a (Cmat.mul b cm)))

let prop_dagger_antihom =
  QCheck.Test.make ~name:"(ab)† = b† a†" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let a = random_cmat rng 3 and b = random_cmat rng 3 in
      close ~tol:1e-9 (Cmat.dagger (Cmat.mul a b))
        (Cmat.mul (Cmat.dagger b) (Cmat.dagger a)))

let prop_kron_mixed_product =
  QCheck.Test.make ~name:"kron mixed product (A⊗B)(C⊗D) = AC⊗BD" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let a = random_cmat rng 2 and b = random_cmat rng 2 in
      let cm = random_cmat rng 2 and d = random_cmat rng 2 in
      close ~tol:1e-8
        (Cmat.mul (Cmat.kron a b) (Cmat.kron cm d))
        (Cmat.kron (Cmat.mul a cm) (Cmat.mul b d)))

let prop_hermitian_random =
  QCheck.Test.make ~name:"random_hermitian is hermitian" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let h = Cmat.random_hermitian rng 5 in
      close (Cmat.dagger h) h)

(* --- expm --- *)

let test_expm_zero () =
  let z = Cmat.create 4 4 in
  Alcotest.(check bool) "exp(0) = I" true (close (Expm.expm z) (Cmat.identity 4))

let test_expm_diagonal () =
  let m = Cmat.create 2 2 in
  Cmat.set m 0 0 (c 1.0 0.0);
  Cmat.set m 1 1 (c 0.0 Float.pi);
  let e = Expm.expm m in
  Alcotest.(check bool) "e^1" true (Complex.norm (Complex.sub (Cmat.get e 0 0) (c (exp 1.0) 0.0)) < 1e-9);
  Alcotest.(check bool) "e^{i pi} = -1" true
    (Complex.norm (Complex.sub (Cmat.get e 1 1) (c (-1.0) 0.0)) < 1e-9)

let prop_expm_unitary =
  QCheck.Test.make ~name:"exp(-iHt) unitary for Hermitian H" ~count:30
    QCheck.(pair (int_range 0 10_000) (float_range 0.01 5.0))
    (fun (seed, t) ->
      let rng = Rng.create seed in
      let h = Cmat.random_hermitian rng 6 in
      Cmat.is_unitary ~tol:1e-8 (Expm.expm_i_hermitian ~t h))

let prop_expm_group_law =
  QCheck.Test.make ~name:"exp(-iHa) exp(-iHb) = exp(-iH(a+b))" ~count:30
    QCheck.(triple (int_range 0 10_000) (float_range 0.01 2.0) (float_range 0.01 2.0))
    (fun (seed, a, b) ->
      let rng = Rng.create seed in
      let h = Cmat.random_hermitian rng 4 in
      close ~tol:1e-7
        (Cmat.mul (Expm.expm_i_hermitian ~t:a h) (Expm.expm_i_hermitian ~t:b h))
        (Expm.expm_i_hermitian ~t:(a +. b) h))

let test_expm_large_norm () =
  (* Forces several scaling-and-squaring rounds. *)
  let rng = Rng.create 99 in
  let h = Cmat.scale (c 50.0 0.0) (Cmat.random_hermitian rng 4) in
  Alcotest.(check bool) "still unitary" true
    (Cmat.is_unitary ~tol:1e-6 (Expm.expm_i_hermitian h))

(* --- unitary fidelities --- *)

let test_fidelity_self () =
  let rng = Rng.create 20 in
  let u = Expm.expm_i_hermitian (Cmat.random_hermitian rng 4) in
  Alcotest.(check (float 1e-9)) "F(U,U) = 1" 1.0 (Unitary.trace_fidelity ~target:u u)

let test_fidelity_phase_invariance () =
  let rng = Rng.create 21 in
  let u = Expm.expm_i_hermitian (Cmat.random_hermitian rng 4) in
  let phased = Cmat.scale (Complex.exp (c 0.0 1.234)) u in
  Alcotest.(check bool) "phase invariant" true
    (Unitary.equal_up_to_phase u phased)

let test_fidelity_orthogonal () =
  let x = Cmat.of_array [| [| c0; c1 |]; [| c1; c0 |] |] in
  let z = Cmat.of_array [| [| c1; c0 |]; [| c0; c (-1.0) 0.0 |] |] in
  (* Tr(X† Z) = 0: completely distinguishable. *)
  Alcotest.(check (float 1e-12)) "F(X,Z) = 0" 0.0 (Unitary.trace_fidelity ~target:x z)

let test_infidelity_complement () =
  let rng = Rng.create 22 in
  let u = Expm.expm_i_hermitian (Cmat.random_hermitian rng 4) in
  let v = Expm.expm_i_hermitian (Cmat.random_hermitian rng 4) in
  Alcotest.(check (float 1e-12)) "1 - F"
    (1.0 -. Unitary.trace_fidelity ~target:u v)
    (Unitary.infidelity ~target:u v)

(* --- Eigen --- *)

module Eigen = Pqc_linalg.Eigen

let test_eigen_diagonal () =
  let m = Cmat.create 3 3 in
  Cmat.set m 0 0 (c 5.0 0.0);
  Cmat.set m 1 1 (c (-2.0) 0.0);
  Cmat.set m 2 2 (c 1.0 0.0);
  let values, v = Eigen.hermitian m in
  Alcotest.(check (array (float 1e-12))) "sorted eigenvalues"
    [| -2.0; 1.0; 5.0 |] values;
  Alcotest.(check bool) "eigenvectors unitary" true (Cmat.is_unitary ~tol:1e-10 v)

let test_eigen_pauli_x () =
  let x = Cmat.of_array [| [| c0; c1 |]; [| c1; c0 |] |] in
  let values, _ = Eigen.hermitian x in
  Alcotest.(check (array (float 1e-12))) "X spectrum" [| -1.0; 1.0 |] values

let test_eigen_complex_offdiagonal () =
  (* Pauli Y: complex entries, spectrum {-1, +1}. *)
  let y = Cmat.of_array [| [| c0; c 0.0 (-1.0) |]; [| c 0.0 1.0; c0 |] |] in
  let values, _ = Eigen.hermitian y in
  Alcotest.(check (array (float 1e-12))) "Y spectrum" [| -1.0; 1.0 |] values

let prop_eigen_residuals =
  QCheck.Test.make ~name:"H v = lambda v to machine precision" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 6 in
      let h = Cmat.random_hermitian rng n in
      let values, v = Eigen.hermitian h in
      let ok = ref true in
      for k = 0 to n - 1 do
        let col = Cvec.of_array (Array.init n (fun i -> Cmat.get v i k)) in
        let hv = Cmat.apply h col in
        let lv = Cvec.scale (c values.(k) 0.0) col in
        if Cvec.max_abs_diff hv lv > 1e-9 then ok := false
      done;
      !ok)

let prop_eigen_trace_preserved =
  QCheck.Test.make ~name:"eigenvalues sum to trace" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let h = Cmat.random_hermitian rng 5 in
      let values, _ = Eigen.hermitian h in
      Float.abs (Array.fold_left ( +. ) 0.0 values -. (Cmat.trace h).re) < 1e-9)

let prop_eigen_ascending =
  QCheck.Test.make ~name:"eigenvalues ascending" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let values, _ = Eigen.hermitian (Cmat.random_hermitian rng 5) in
      let ok = ref true in
      for k = 0 to 3 do
        if values.(k) > values.(k + 1) then ok := false
      done;
      !ok)

(* An oracle for the exponential that shares no code with its Taylor
   kernel: exp(-iHt) = V·diag(e^{-iλt})·V† from the Jacobi
   eigendecomposition.  Dims 2, 4 (the C kernel), 8 and 16, and one-norms
   ‖tH‖₁ log-uniform over 0.1–16, so scaling exponents 0–5.  The worst
   entry difference seen over 2,000 draws was 5.3e-13; the bound is
   1e-11. *)
let prop_expm_matches_eigen =
  QCheck.Test.make ~name:"exp(-iHt) = V e^(-iΛt) V† (Jacobi)" ~count:200
    QCheck.(triple (int_range 0 10_000) (int_range 0 3) (float_range 0.0 1.0))
    (fun (seed, k, u) ->
      let n = 2 lsl k in
      let h = Cmat.random_hermitian (Rng.create seed) n in
      let t = 0.1 *. Float.pow 160.0 u /. Cmat.one_norm h in
      let values, v = Eigen.hermitian h in
      let phases = Cmat.create n n in
      Array.iteri
        (fun j l -> Cmat.set phases j j (Complex.exp (c 0.0 (-.l *. t))))
        values;
      let oracle = Cmat.mul v (Cmat.mul phases (Cmat.dagger v)) in
      Cmat.max_abs_diff (Expm.expm_i_hermitian ~t h) oracle <= 1e-11)

let test_eigen_rejects_rectangular () =
  Alcotest.(check bool) "non-square" true
    (try ignore (Eigen.hermitian (Cmat.create 2 3)); false
     with Invalid_argument _ -> true)

(* --- Cvec --- *)

let test_cvec_basis () =
  let v = Cvec.basis 4 2 in
  Alcotest.(check (float 1e-12)) "norm 1" 1.0 (Cvec.norm v);
  Alcotest.(check (float 1e-12)) "prob at 2" 1.0 (Cvec.probability v 2);
  Alcotest.(check (float 1e-12)) "prob at 0" 0.0 (Cvec.probability v 0)

let test_cvec_dot_conjugate_linear () =
  let a = Cvec.of_array [| c 0.0 1.0; c0 |] in
  let b = Cvec.of_array [| c1; c0 |] in
  (* <ia|b> = -i <a|b> = -i. *)
  Alcotest.(check bool) "conjugate linear" true
    (Complex.norm (Complex.sub (Cvec.dot a b) (c 0.0 (-1.0))) < 1e-12)

let test_cvec_normalize () =
  let v = Cvec.of_array [| c 3.0 0.0; c 4.0 0.0 |] in
  Alcotest.(check (float 1e-12)) "normalized" 1.0 (Cvec.norm (Cvec.normalize v))

let test_cvec_normalize_zero () =
  Alcotest.check_raises "zero vector"
    (Invalid_argument "Cvec.normalize: zero vector") (fun () ->
      ignore (Cvec.normalize (Cvec.create 3)))

let prop_probabilities_sum =
  QCheck.Test.make ~name:"normalized probabilities sum to 1" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let v =
        Cvec.of_array (Array.init 8 (fun _ -> c (Rng.gaussian rng) (Rng.gaussian rng)))
      in
      let v = Cvec.normalize v in
      let total = ref 0.0 in
      for k = 0 to 7 do
        total := !total +. Cvec.probability v k
      done;
      Float.abs (!total -. 1.0) < 1e-9)

let test_apply_identity () =
  let rng = Rng.create 30 in
  let v = Cvec.normalize (Cvec.of_array (Array.init 4 (fun _ -> c (Rng.gaussian rng) 0.0))) in
  Alcotest.(check (float 1e-12)) "I v = v" 0.0
    (Cvec.max_abs_diff (Cmat.apply (Cmat.identity 4) v) v)

let () =
  Alcotest.run "linalg"
    [ ( "cmat",
        [ Alcotest.test_case "identity mul" `Quick test_identity_mul;
          Alcotest.test_case "get/set" `Quick test_get_set;
          Alcotest.test_case "dagger involution" `Quick test_dagger_involution;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "scale" `Quick test_scale;
          Alcotest.test_case "axpy" `Quick test_axpy;
          Alcotest.test_case "kron known" `Quick test_kron_known;
          Alcotest.test_case "trace" `Quick test_trace;
          Alcotest.test_case "inner vs trace" `Quick test_inner_vs_trace;
          Alcotest.test_case "trace of product" `Quick test_trace_of_product;
          Alcotest.test_case "one norm" `Quick test_one_norm;
          Alcotest.test_case "dagger = conj transpose" `Quick test_transpose_conj_dagger;
          QCheck_alcotest.to_alcotest prop_mul_assoc;
          QCheck_alcotest.to_alcotest prop_dagger_antihom;
          QCheck_alcotest.to_alcotest prop_kron_mixed_product;
          QCheck_alcotest.to_alcotest prop_hermitian_random ] );
      ( "expm",
        [ Alcotest.test_case "exp(0) = I" `Quick test_expm_zero;
          Alcotest.test_case "diagonal" `Quick test_expm_diagonal;
          Alcotest.test_case "large norm" `Quick test_expm_large_norm;
          QCheck_alcotest.to_alcotest prop_expm_unitary;
          QCheck_alcotest.to_alcotest prop_expm_group_law;
          QCheck_alcotest.to_alcotest prop_expm_matches_eigen ] );
      ( "unitary",
        [ Alcotest.test_case "self fidelity" `Quick test_fidelity_self;
          Alcotest.test_case "phase invariance" `Quick test_fidelity_phase_invariance;
          Alcotest.test_case "orthogonal" `Quick test_fidelity_orthogonal;
          Alcotest.test_case "infidelity" `Quick test_infidelity_complement ] );
      ( "eigen",
        [ Alcotest.test_case "diagonal" `Quick test_eigen_diagonal;
          Alcotest.test_case "pauli X" `Quick test_eigen_pauli_x;
          Alcotest.test_case "pauli Y" `Quick test_eigen_complex_offdiagonal;
          Alcotest.test_case "rejects rectangular" `Quick test_eigen_rejects_rectangular;
          QCheck_alcotest.to_alcotest prop_eigen_residuals;
          QCheck_alcotest.to_alcotest prop_eigen_trace_preserved;
          QCheck_alcotest.to_alcotest prop_eigen_ascending ] );
      ( "cvec",
        [ Alcotest.test_case "basis" `Quick test_cvec_basis;
          Alcotest.test_case "dot conjugate linear" `Quick test_cvec_dot_conjugate_linear;
          Alcotest.test_case "normalize" `Quick test_cvec_normalize;
          Alcotest.test_case "normalize zero" `Quick test_cvec_normalize_zero;
          Alcotest.test_case "apply identity" `Quick test_apply_identity;
          QCheck_alcotest.to_alcotest prop_probabilities_sum ] ) ]
