module Circuit = Pqc_quantum.Circuit
module Block = Pqc_transpile.Block
module Slice = Pqc_transpile.Slice
module Gate_times = Pqc_pulse.Gate_times

type estimate = {
  target : Rule.target;
  infeasible : string option;
  pulse_ns : float;
  precompute_s : float;
  per_iteration_s : float;
  blocks : int;
}

type block_advice = {
  qubits : int list;
  first : int;
  last : int;
  gate_ns : float;
  grape_ns : float;
  use_pulse : bool;
}

type advice = {
  recommended : Rule.target;
  estimates : estimate list;
  blocks : block_advice list;
  monotone : bool;
  resliceable : bool;
}

(* A representative binding for purely static analysis: pi/2 everywhere
   avoids the zero-angle degeneracies (an Rz(0) prices as free) without
   favouring any particular gate. *)
let canonical_theta c =
  Array.make (Circuit.n_params c) (Float.pi /. 2.0)

let infeasible target reason =
  { target; infeasible = Some reason; pulse_ns = Float.infinity;
    precompute_s = 0.0; per_iteration_s = 0.0; blocks = 0 }

let block_advices ?(max_width = Rule.grape_width_cap) ?theta c =
  let theta =
    match theta with Some t -> t | None -> canonical_theta c
  in
  let bound = Circuit.bind c theta in
  Block.partition_with_indices ~max_width bound
  |> List.map (fun ((b : Block.block), indices) ->
         let extracted = Block.extract b in
         let gate_ns = Gate_times.circuit_duration extracted in
         let grape_ns =
           if Circuit.n_qubits extracted > Rule.grape_width_cap then
             Float.infinity
           else Pulse_model.block_duration extracted
         in
         { qubits = b.qubits;
           first = List.fold_left min max_int indices;
           last = List.fold_left max 0 indices;
           gate_ns;
           grape_ns;
           (* Strictly better beyond float noise: a tie (the model caps
              GRAPE at the lookup-table time) means pulses buy nothing. *)
           use_pulse = grape_ns < gate_ns *. (1.0 -. 1e-9) })

let all_targets =
  [ Rule.Gate_based; Rule.Strict_partial; Rule.Flexible_partial;
    Rule.Full_grape ]

(* Recommendation: among strategies that are feasible and fit the
   per-iteration latency budget, the shortest predicted pulse wins; ties
   break toward lower latency, then lower precompute, then the paper's
   presentation order.  Gate-based is always admissible (zero latency),
   so a recommendation always exists. *)
let advise ?(max_width = Rule.grape_width_cap) ?(latency_budget_s = 1.0)
    ?theta ~price c =
  let theta =
    match theta with Some t -> t | None -> canonical_theta c
  in
  let monotone = Slice.is_monotone c in
  let estimates =
    List.map
      (fun target ->
        (* The slicer refuses a non-monotone circuit outright. *)
        if target = Rule.Flexible_partial && not monotone then
          infeasible target "non-monotone circuit"
        else price ~max_width ~theta c target)
      all_targets
  in
  let resliceable = (not monotone) && Dataflow.reslice c <> None in
  let admissible e =
    e.infeasible = None && e.per_iteration_s <= latency_budget_s
  in
  let better a b =
    (* true when [a] beats [b] *)
    if a.pulse_ns <> b.pulse_ns then a.pulse_ns < b.pulse_ns
    else if a.per_iteration_s <> b.per_iteration_s then
      a.per_iteration_s < b.per_iteration_s
    else a.precompute_s < b.precompute_s
  in
  let recommended =
    List.fold_left
      (fun best e ->
        if not (admissible e) then best
        else
          match best with
          | None -> Some e
          | Some b -> if better e b then Some e else best)
      None estimates
  in
  let recommended =
    match recommended with
    | Some e -> e.target
    | None -> Rule.Gate_based (* unreachable: gate-based is admissible *)
  in
  { recommended;
    estimates;
    blocks = block_advices ~max_width ~theta c;
    monotone;
    resliceable }

(* --- rendering --- *)

let estimate_to_string e =
  match e.infeasible with
  | Some reason ->
    Printf.sprintf "%-16s infeasible (%s)" (Rule.target_to_string e.target)
      reason
  | None ->
    Printf.sprintf
      "%-16s pulse %8.1f ns   precompute %10.3f s   per-iter %10.3f s   \
       blocks %d"
      (Rule.target_to_string e.target)
      e.pulse_ns e.precompute_s e.per_iteration_s e.blocks

let advice_to_string a =
  let lines =
    [ Printf.sprintf "recommended: %s" (Rule.target_to_string a.recommended);
      Printf.sprintf "monotone: %b%s" a.monotone
        (if a.resliceable then " (reslicable by commutation)" else "") ]
    @ List.map estimate_to_string a.estimates
    @ List.map
        (fun b ->
          Printf.sprintf
            "block {%s} @%d-%d: gate %.2f ns, grape %.2f ns -> %s"
            (String.concat "," (List.map string_of_int b.qubits))
            b.first b.last b.gate_ns b.grape_ns
            (if b.use_pulse then "pulse" else "gate lookup"))
        a.blocks
  in
  String.concat "\n" lines

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let estimate_to_json e =
  Printf.sprintf
    "{\"strategy\":\"%s\",\"feasible\":%b,\"pulse_ns\":%s,\
     \"precompute_s\":%s,\"per_iteration_s\":%s,\"blocks\":%d}"
    (Rule.target_to_string e.target)
    (e.infeasible = None) (json_float e.pulse_ns) (json_float e.precompute_s)
    (json_float e.per_iteration_s)
    e.blocks

let block_to_json b =
  Printf.sprintf
    "{\"qubits\":[%s],\"first\":%d,\"last\":%d,\"gate_ns\":%s,\
     \"grape_ns\":%s,\"use_pulse\":%b}"
    (String.concat "," (List.map string_of_int b.qubits))
    b.first b.last (json_float b.gate_ns) (json_float b.grape_ns) b.use_pulse

let advice_to_json a =
  Printf.sprintf
    "{\"recommended\":\"%s\",\"monotone\":%b,\"resliceable\":%b,\
     \"estimates\":[%s],\"blocks\":[%s]}"
    (Rule.target_to_string a.recommended)
    a.monotone a.resliceable
    (String.concat "," (List.map estimate_to_json a.estimates))
    (String.concat "," (List.map block_to_json a.blocks))
