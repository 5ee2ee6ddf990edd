module Circuit = Pqc_quantum.Circuit

let asap ~n ~qubits ~duration ?(emit = fun _ _ _ -> ()) iter =
  let free = Array.make n 0.0 in
  (* One unboxed cell: the running makespan is updated once per job. *)
  let makespan = Array.make 1 0.0 in
  iter (fun job ->
      let qs = qubits job in
      let start = ref 0.0 in
      for j = 0 to Array.length qs - 1 do
        start := Float.max !start free.(qs.(j))
      done;
      let finish = !start +. duration job in
      for j = 0 to Array.length qs - 1 do
        free.(qs.(j)) <- finish
      done;
      makespan.(0) <- Float.max makespan.(0) finish;
      emit job !start finish);
  makespan.(0)

type entry = { instr : Circuit.instr; start_time : float; finish_time : float }

type t = { entries : entry array; makespan : float }

let instr_qubits (i : Circuit.instr) = i.qubits

let schedule ~duration c =
  let entries = ref [] in
  let makespan =
    asap ~n:(Circuit.n_qubits c) ~qubits:instr_qubits ~duration
      ~emit:(fun instr start_time finish_time ->
        entries := { instr; start_time; finish_time } :: !entries)
      (fun f -> Circuit.iter f c)
  in
  { entries = Array.of_list (List.rev !entries); makespan }

let critical_path ~duration c =
  asap ~n:(Circuit.n_qubits c) ~qubits:instr_qubits ~duration (fun f ->
      Circuit.iter f c)

let depth c =
  int_of_float (critical_path ~duration:(fun _ -> 1.0) c)
