module Cmat = Pqc_linalg.Cmat
module Cvec = Pqc_linalg.Cvec

type t = { n : int; mutable rho : Cmat.t }

let init n =
  let dim = 1 lsl n in
  let rho = Cmat.create dim dim in
  Cmat.set rho 0 0 Complex.one;
  { n; rho }

let of_statevec psi =
  let dim = Cvec.dim psi in
  let n =
    let k = ref 0 in
    while 1 lsl !k < dim do
      incr k
    done;
    assert (1 lsl !k = dim);
    !k
  in
  let rho = Cmat.create dim dim in
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      Cmat.set rho i j (Complex.mul (Cvec.get psi i) (Complex.conj (Cvec.get psi j)))
    done
  done;
  { n; rho }

let matrix t = Cmat.copy t.rho

let trace t = (Cmat.trace t.rho).re

let purity t = (Cmat.trace_of_product t.rho t.rho).re

let fidelity_to t psi =
  (Cvec.dot psi (Cmat.apply t.rho psi)).re

let apply_unitary t g qubits =
  let u = Circuit.embed ~n:t.n g qubits in
  t.rho <- Cmat.mul u (Cmat.mul t.rho (Cmat.dagger u))

let apply_kraus t ks qubits =
  let dim = 1 lsl t.n in
  let acc = Cmat.create dim dim in
  List.iter
    (fun k ->
      let ke = Circuit.embed ~n:t.n k qubits in
      let term = Cmat.mul ke (Cmat.mul t.rho (Cmat.dagger ke)) in
      Cmat.axpy ~alpha:Complex.one ~x:term ~y:acc)
    ks;
  t.rho <- acc

let c re = { Complex.re; im = 0.0 }

let amplitude_damping ~gamma =
  if gamma < 0.0 || gamma > 1.0 then invalid_arg "Density.amplitude_damping";
  [ Cmat.of_array [| [| c 1.0; c 0.0 |]; [| c 0.0; c (sqrt (1.0 -. gamma)) |] |];
    Cmat.of_array [| [| c 0.0; c (sqrt gamma) |]; [| c 0.0; c 0.0 |] |] ]

let dephasing ~lambda =
  if lambda < 0.0 || lambda > 1.0 then invalid_arg "Density.dephasing";
  [ Cmat.of_array [| [| c (sqrt (1.0 -. lambda)); c 0.0 |]; [| c 0.0; c (sqrt (1.0 -. lambda)) |] |];
    Cmat.of_array [| [| c (sqrt lambda); c 0.0 |]; [| c 0.0; c 0.0 |] |];
    Cmat.of_array [| [| c 0.0; c 0.0 |]; [| c 0.0; c (sqrt lambda) |] |] ]

let default_t1 = 30_000.0
let default_t2 = 20_000.0

let idle t ?(t1_ns = default_t1) ?(t2_ns = default_t2) ~qubit dt =
  if dt < 0.0 then invalid_arg "Density.idle: negative duration";
  if t2_ns > 2.0 *. t1_ns +. 1e-9 then
    invalid_arg "Density.idle: T2 must not exceed 2 T1";
  if dt > 0.0 then begin
    let gamma = 1.0 -. exp (-.dt /. t1_ns) in
    (* Amplitude damping already shrinks off-diagonals by exp(-dt/(2 T1));
       pure dephasing at rate 1/Tphi = 1/T2 - 1/(2 T1) supplies the rest,
       so the total coherence decay is exp(-dt/T2).  The dephasing channel
       scales off-diagonals by (1 - lambda). *)
    let phi_rate = (1.0 /. t2_ns) -. (1.0 /. (2.0 *. t1_ns)) in
    let lambda = 1.0 -. exp (-.dt *. phi_rate) in
    apply_kraus t (amplitude_damping ~gamma) [| qubit |];
    apply_kraus t (dephasing ~lambda) [| qubit |]
  end

let expectation h t =
  assert (h.Pauli.n_qubits = t.n);
  (Cmat.trace_of_product t.rho (Pauli.matrix h)).re

type timing = { instr : Circuit.instr; start_time : float; duration : float }

let run_noisy ?(t1_ns = default_t1) ?(t2_ns = default_t2) ?(theta = [||]) ~n
    timings =
  let t = init n in
  let clock = Array.make n 0.0 in
  let catch_up q now =
    if now > clock.(q) then begin
      idle t ~t1_ns ~t2_ns ~qubit:q (now -. clock.(q));
      clock.(q) <- now
    end
  in
  let makespan = ref 0.0 in
  List.iter
    (fun { instr; start_time; duration } ->
      let finish = start_time +. duration in
      if finish > !makespan then makespan := finish;
      Array.iter (fun q -> catch_up q start_time) instr.Circuit.qubits;
      apply_unitary t (Gate.matrix instr.Circuit.gate ~theta) instr.Circuit.qubits;
      (* The qubits decohere during the gate as well. *)
      Array.iter
        (fun q ->
          idle t ~t1_ns ~t2_ns ~qubit:q duration;
          clock.(q) <- finish)
        instr.Circuit.qubits)
    timings;
  (* Spectators decohere until the circuit's end. *)
  for q = 0 to n - 1 do
    catch_up q !makespan
  done;
  t
