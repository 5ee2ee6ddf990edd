module Pulse = Pqc_pulse.Pulse

type compiled = {
  strategy : string;
  duration_ns : float;
  precompute : Engine.cost;
  per_iteration : Engine.cost;
  pulse : Pulse.t;
  degradations : Resilience.degradation list;
  pool : Engine.pool_stats;
}

(* Two zero-length pulses (a circuit with no gates) are equally long. *)
let speedup ~baseline c =
  if baseline.duration_ns = 0.0 && c.duration_ns = 0.0 then 1.0
  else baseline.duration_ns /. c.duration_ns

let degraded c = c.degradations <> []

(* Repeated identical fallbacks (the same block degrading in both strict
   slicings, say) collapse to one line with a count. *)
let degradation_report c =
  let lines = List.map Resilience.degradation_to_string c.degradations in
  let counted =
    List.fold_left
      (fun acc line ->
        match acc with
        | (l, n) :: rest when l = line -> (l, n + 1) :: rest
        | _ -> (line, 1) :: acc)
      []
      (List.sort compare lines)
  in
  String.concat "; "
    (List.rev_map
       (fun (l, n) -> if n = 1 then l else Printf.sprintf "%s (x%d)" l n)
       counted)
