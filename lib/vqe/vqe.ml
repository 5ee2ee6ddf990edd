module Rng = Pqc_util.Rng
module Nelder_mead = Pqc_util.Nelder_mead
module Pauli = Pqc_quantum.Pauli
module Circuit = Pqc_quantum.Circuit
module Statevec = Pqc_quantum.Statevec
module Run_log = Pqc_obs.Run_log

type result = {
  energy : float;
  theta : float array;
  evaluations : int;
  history : float list;
}

let run ?(max_evals = 1500) ?(seed = 11) ?recorder
    ~hamiltonian ~ansatz () =
  if Pauli.(hamiltonian.n_qubits) <> Circuit.n_qubits ansatz then
    invalid_arg "Vqe.run: Hamiltonian/ansatz width mismatch";
  let n_params = Circuit.n_params ansatz in
  let rng = Rng.create seed in
  let x0 =
    Array.init n_params (fun _ -> Rng.uniform rng ~lo:(-0.1) ~hi:0.1)
  in
  let energy theta =
    Pauli.expectation hamiltonian (Statevec.run ~theta ansatz)
  in
  (* Each objective evaluation is one variational iteration — exactly
     the event that would trigger a recompilation on real hardware, so
     exactly the event the run recorder logs.  The wrapper only observes
     the value on its way through; the optimizer sees it unchanged. *)
  let energy =
    match recorder with
    | None -> energy
    | Some r ->
      let evals = ref 0 in
      fun theta ->
        let e = energy theta in
        incr evals;
        Run_log.record r ~iteration:!evals ~energy:e;
        e
  in
  if n_params = 0 then
    { energy = energy [||]; theta = [||]; evaluations = 1; history = [] }
  else
    let options =
      { Nelder_mead.default_options with max_evals; initial_step = 0.15 }
    in
    let r = Nelder_mead.minimize ~options ~f:energy ~x0 () in
    { energy = r.f; theta = r.x; evaluations = r.evals; history = r.history }
