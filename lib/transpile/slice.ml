module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit

type slice = { var : int option; circuit : Circuit.t }

let close n rev_instrs var acc =
  match rev_instrs with
  | [] -> acc
  | _ :: _ -> { var; circuit = Circuit.of_instrs n (List.rev rev_instrs) } :: acc

let strict_linear c =
  let n = Circuit.n_qubits c in
  let acc = ref [] and fixed_run = ref [] in
  Circuit.iter
    (fun (i : Circuit.instr) ->
      match Gate.depends_on i.gate with
      | None -> fixed_run := i :: !fixed_run
      | Some v ->
        acc := close n !fixed_run None !acc;
        fixed_run := [];
        acc := { var = Some v; circuit = Circuit.of_instrs n [ i ] } :: !acc)
    c;
  acc := close n !fixed_run None !acc;
  List.rev !acc

let strict_linear c =
  Pqc_obs.Obs.Span.with_ ~name:"slice.strict_linear"
    ~attrs:(fun () -> [ ("gates", string_of_int (Circuit.length c)) ])
    (fun () -> strict_linear c)

(* The paper's Figure 3b semantics: a parametrized gate seals only its own
   qubit's timeline, so Fixed subcircuits are two-dimensional regions of the
   circuit DAG, maximal under the rule that a fixed gate extends the open
   region owning its qubits.  Regions are emitted in creation order, which
   is a valid linearization by the same monotone-ownership argument as
   {!Block.partition} (per-qubit gate order is preserved, so the
   concatenation is circuit-equivalent — property-tested).
   Each qubit's owner is [unowned], [sealed] (by a parametrized gate) or
   the id of the open region holding it; regions are numbered in creation
   order. *)
let unowned = -1
let sealed = -2

let strict c =
  let n = Circuit.n_qubits c and len = Circuit.length c in
  let owner = Array.make n unowned in
  (* Region of each fixed instruction; -1 for a parametrized one. *)
  let region_of = Array.make len (-1) in
  (* Output slots in order: a region id where the region opened, or
     -(k + 1) for the parametrized instruction k. *)
  let slots = Array.make len 0 in
  let n_slots = ref 0 and n_regions = ref 0 in
  for k = 0 to len - 1 do
    let i = Circuit.instr c k in
    let qs = i.qubits in
    match Gate.depends_on i.gate with
    | Some _ ->
      slots.(!n_slots) <- -(k + 1);
      incr n_slots;
      for j = 0 to Array.length qs - 1 do
        owner.(qs.(j)) <- sealed
      done
    | None ->
      (* A fixed gate extends the one open region owning its qubits when
         every other operand is unowned; otherwise it opens a region. *)
      let target = ref unowned and fresh = ref false in
      for j = 0 to Array.length qs - 1 do
        let o = owner.(qs.(j)) in
        if o = sealed then fresh := true
        else if o >= 0 then
          if !target = unowned then target := o
          else if !target <> o then fresh := true
      done;
      let id =
        if !fresh || !target = unowned then begin
          let id = !n_regions in
          incr n_regions;
          slots.(!n_slots) <- id;
          incr n_slots;
          id
        end
        else !target
      in
      region_of.(k) <- id;
      for j = 0 to Array.length qs - 1 do
        owner.(qs.(j)) <- id
      done
  done;
  let regions = Array.make !n_regions [] in
  for k = len - 1 downto 0 do
    let r = region_of.(k) in
    if r >= 0 then regions.(r) <- Circuit.instr c k :: regions.(r)
  done;
  let out = ref [] in
  for s = !n_slots - 1 downto 0 do
    let slot = slots.(s) in
    let slice =
      if slot >= 0 then
        { var = None; circuit = Circuit.of_instrs n regions.(slot) }
      else
        let i = Circuit.instr c (-slot - 1) in
        { var = Gate.depends_on i.gate; circuit = Circuit.of_instrs n [ i ] }
    in
    out := slice :: !out
  done;
  !out

let strict c =
  Pqc_obs.Obs.Span.with_ ~name:"slice.strict"
    ~attrs:(fun () -> [ ("gates", string_of_int (Circuit.length c)) ])
    (fun () -> strict c)

let is_monotone c =
  let seen = Hashtbl.create 8 in
  let current = ref None in
  let ok = ref true in
  Circuit.iter
    (fun (i : Circuit.instr) ->
      match Gate.depends_on i.gate with
      | None -> ()
      | Some v ->
        if !current <> Some v then begin
          if Hashtbl.mem seen v then ok := false;
          Hashtbl.replace seen v ();
          current := Some v
        end)
    c;
  !ok

let flexible c =
  if not (is_monotone c) then
    invalid_arg "Slice.flexible: circuit is not parameter-monotone";
  let n = Circuit.n_qubits c in
  let acc = ref [] and run = ref [] and cur = ref None in
  Circuit.iter
    (fun (i : Circuit.instr) ->
      match Gate.depends_on i.gate with
      | None -> run := i :: !run
      | Some v ->
        (match !cur with
        | None -> cur := Some v
        | Some w when w = v -> ()
        | Some _ ->
          acc := close n !run !cur !acc;
          run := [];
          cur := Some v);
        run := i :: !run)
    c;
  acc := close n !run !cur !acc;
  List.rev !acc

let flexible c =
  Pqc_obs.Obs.Span.with_ ~name:"slice.flexible"
    ~attrs:(fun () -> [ ("gates", string_of_int (Circuit.length c)) ])
    (fun () -> flexible c)

let concat_all ~n slices =
  let b = Circuit.Builder.create n in
  List.iter (fun s -> Circuit.Builder.add_circuit b s.circuit) slices;
  Circuit.Builder.to_circuit b

let fixed_gate_fraction c =
  let total = Circuit.length c in
  if total = 0 then 1.0
  else
    float_of_int (total - Circuit.parametrized_gate_count c) /. float_of_int total
