module Cmat = Pqc_linalg.Cmat
module Stats = Pqc_util.Stats
module Grape = Pqc_grape.Grape
module Hamiltonian = Pqc_grape.Hamiltonian

type objective = {
  system : Hamiltonian.t;
  target_of : float -> Cmat.t;
  total_time : float;
  settings : Grape.settings;
}

type score = {
  hyperparams : Grape.hyperparams;
  iterations : float;
  converged_all : bool;
  mean_fidelity : float;
  total_iterations : int;
}

let evaluate ?deadline obj ~angles hyperparams =
  let settings = { obj.settings with Grape.hyperparams } in
  let runs =
    Array.map
      (fun angle ->
        Grape.optimize ~settings ?deadline obj.system
          ~target:(obj.target_of angle) ~total_time:obj.total_time)
      angles
  in
  let iters =
    Array.map (fun (r : Grape.result) -> float_of_int r.iterations) runs
  in
  let fids = Array.map (fun (r : Grape.result) -> r.fidelity) runs in
  { hyperparams;
    iterations = Stats.mean iters;
    converged_all = Array.for_all (fun (r : Grape.result) -> r.converged) runs;
    mean_fidelity = Stats.mean fids;
    total_iterations =
      Array.fold_left (fun acc (r : Grape.result) -> acc + r.iterations) 0 runs }

let default_lr_grid = Stats.logspace (-1.5) 0.5 6
let default_decay_grid = [| 0.995; 0.999; 1.0 |]
let default_angles = [| 0.5; 2.0 |]

(* Fewest iterations among fully converged candidates; otherwise the highest
   mean fidelity (every candidate timed out, pick the least-bad). *)
let better a b =
  match a.converged_all, b.converged_all with
  | true, false -> a
  | false, true -> b
  | true, true -> if a.iterations <= b.iterations then a else b
  | false, false -> if a.mean_fidelity >= b.mean_fidelity then a else b

(* Grid cells ship back from workers as one checksum-free but strictly
   parsed line; a cell that fails to round-trip is simply re-evaluated
   in the parent by the pool's recovery path. *)
let encode_score s =
  Printf.sprintf "%h\t%h\t%h\t%B\t%h\t%d" s.hyperparams.Grape.learning_rate
    s.hyperparams.Grape.decay s.iterations s.converged_all s.mean_fidelity
    s.total_iterations

let decode_score line =
  match
    Scanf.sscanf line "%h\t%h\t%h\t%B\t%h\t%d%!"
      (fun learning_rate decay iterations converged_all mean_fidelity
           total_iterations ->
        { hyperparams = { Grape.learning_rate; decay }; iterations;
          converged_all; mean_fidelity; total_iterations })
  with
  | s -> Some s
  | exception _ -> None

type search = {
  best : score;
  grape_runs : int;
  grape_iterations : int;
  complete : bool;
}

let grid_search ?(workers = 1) ?(lr_grid = default_lr_grid)
    ?(decay_grid = default_decay_grid) ?(angles = default_angles) ?deadline
    obj =
  let expired () =
    match deadline with Some d -> Pqc_obs.Obs.Clock.now () > d | None -> false
  in
  let cells =
    Array.to_list lr_grid
    |> List.concat_map (fun learning_rate ->
           Array.to_list decay_grid
           |> List.map (fun decay -> { Grape.learning_rate; decay }))
  in
  let scored =
    if workers <= 1 then
      (* Always score at least one candidate so callers get a usable
         hyperparameter set even with an already-expired deadline; the
         remaining grid is skipped once the budget runs out. *)
      List.fold_left
        (fun acc hp ->
          if acc = [] || not (expired ()) then
            evaluate ?deadline obj ~angles hp :: acc
          else acc)
        [] cells
      |> List.rev
    else
      (* Parallel mode scores the whole grid (each GRAPE run still honours
         [deadline] individually). *)
      List.map fst
        (fst
           (Pqc_parallel.Pool.map ~workers ~encode:encode_score
              ~decode:decode_score
              (fun hp -> evaluate ?deadline obj ~angles hp)
              cells))
  in
  match scored with
  | [] -> invalid_arg "Hyperopt.grid_search: empty hyperparameter grid"
  | s :: rest ->
    (* Fold in grid order as [better candidate incumbent], letting a later
       cell win exact ties, so both modes crown the same winner. *)
    { best = List.fold_left (fun acc s -> better s acc) s rest;
      grape_runs = List.length scored * Array.length angles;
      grape_iterations =
        List.fold_left (fun acc s -> acc + s.total_iterations) 0 scored;
      (* Unexpired at the end means no cell was skipped and no run was
         cut short by the deadline. *)
      complete = List.length scored = List.length cells && not (expired ()) }

type robustness_point = {
  angle : float;
  error_by_lr : (float * float) list;
}

let robustness ?(lr_grid = default_lr_grid) obj ~angles =
  Array.to_list angles
  |> List.map (fun angle ->
         let error_by_lr =
           Array.to_list lr_grid
           |> List.map (fun lr ->
                  let settings =
                    { obj.settings with
                      Grape.hyperparams =
                        { Grape.learning_rate = lr;
                          decay = obj.settings.Grape.hyperparams.Grape.decay } }
                  in
                  let r =
                    Grape.optimize ~settings obj.system
                      ~target:(obj.target_of angle) ~total_time:obj.total_time
                  in
                  (lr, 1.0 -. r.fidelity))
           |> List.sort compare
         in
         { angle; error_by_lr })

let best_lr_stability points =
  match points with
  | [] -> 1.0
  | _ :: _ ->
    let best_lr p =
      let errors = Array.of_list (List.map snd p.error_by_lr) in
      fst (List.nth p.error_by_lr (Stats.argmin errors))
    in
    let lrs = List.map best_lr points in
    (* Overall winner: the learning rate minimizing total error. *)
    let overall =
      let totals = Hashtbl.create 8 in
      List.iter
        (fun p ->
          List.iter
            (fun (lr, e) ->
              (* A diverged run reports a NaN error; NaN totals sort first
                 under polymorphic compare and would crown the diverged
                 learning rate.  Treat divergence as infinitely bad. *)
              let e = if Float.is_nan e then Float.infinity else e in
              Hashtbl.replace totals lr
                (e +. Option.value ~default:0.0 (Hashtbl.find_opt totals lr)))
            p.error_by_lr)
        points;
      let pairs = Hashtbl.fold (fun lr e acc -> (lr, e) :: acc) totals [] in
      fst (List.hd (List.sort (fun (_, a) (_, b) -> compare a b) pairs))
    in
    (* "Within one grid step" on a log grid: ratio at most one grid spacing. *)
    let sorted_grid =
      List.sort_uniq compare
        (List.concat_map (fun p -> List.map fst p.error_by_lr) points)
    in
    let step_ratio =
      match sorted_grid with
      | a :: b :: _ -> (b /. a) *. 1.01
      | [ _ ] | [] -> 1.01
    in
    let close lr =
      let r = if lr > overall then lr /. overall else overall /. lr in
      r <= step_ratio
    in
    let good = List.length (List.filter close lrs) in
    float_of_int good /. float_of_int (List.length lrs)
