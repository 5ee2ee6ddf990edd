module Circuit = Pqc_quantum.Circuit
module Topology = Pqc_transpile.Topology
module Obs = Pqc_obs.Obs
module Run_log = Pqc_obs.Run_log
module Pool = Pqc_parallel.Pool
module Rng = Pqc_util.Rng
module J = Pqc_util.Jsonx

let ( let* ) = Result.bind

(* ---- workload specs -------------------------------------------------- *)

type workload =
  | Mol of Pqc_vqe.Molecule.t
  | Qaoa of { graph : Pqc_qaoa.Graph.t; p : int }

(* Graph workloads are drawn from the fixed bench seed so a spec string
   denotes one concrete graph everywhere: here, in partialc --benchmark,
   and across machines. *)
let bench_graph_seed = 2019

let workload_of_spec spec =
  match Pqc_vqe.Molecule.find spec with
  | Some m -> Ok (Mol m)
  | None ->
    let parse () =
      match String.split_on_char 'p' (String.lowercase_ascii spec) with
      | [ head; p ] ->
        let p = int_of_string p in
        let rng = Rng.create bench_graph_seed in
        let graph =
          if String.length head > 4 && String.sub head 0 4 = "3reg" then
            Pqc_qaoa.Graph.random_regular rng ~degree:3
              (int_of_string (String.sub head 4 (String.length head - 4)))
          else if String.length head > 2 && String.sub head 0 2 = "er" then
            Pqc_qaoa.Graph.erdos_renyi rng ~p:0.5
              (int_of_string (String.sub head 2 (String.length head - 2)))
          else if String.length head > 1 && head.[0] = 'k' then
            Pqc_qaoa.Graph.clique
              (int_of_string (String.sub head 1 (String.length head - 1)))
          else failwith "unknown workload"
        in
        if p < 1 then failwith "p < 1";
        Ok (Qaoa { graph; p })
      | _ -> failwith "unknown workload"
    in
    (try parse ()
     with _ ->
       Error
         (Printf.sprintf
            "unknown workload %S (molecules: h2 lih beh2 nah h2o; QAOA: \
             3reg6p2, er8p1, k4p3, ...)"
            spec))

let workload_circuit = function
  | Mol m -> Pqc_vqe.Uccsd.ansatz m
  | Qaoa { graph; p } -> Pqc_qaoa.Qaoa.circuit graph ~p

let circuit_of_spec spec =
  let* w = workload_of_spec spec in
  Ok (workload_circuit w)

let workload_width = function
  | Mol m -> m.Pqc_vqe.Molecule.n_qubits
  | Qaoa { graph; _ } -> graph.Pqc_qaoa.Graph.n

(* ---- manifest -------------------------------------------------------- *)

type manifest = {
  name : string;
  engine : string;
  seed : int;
  iterations : int;
  max_width : int;
  item_deadline_s : float option;
  workloads : string list;
  topologies : string list;
  strategies : Compiler.strategy list;
  workers : int list;
  fault_plans : Fault.plan option list;
}

let manifest_schema_version = 1

let topology_for name n =
  match name with
  | "line" -> Ok (Topology.line n)
  | "clique" -> Ok (Topology.clique n)
  | "grid" ->
    if n >= 4 && n mod 2 = 0 then Ok (Topology.grid ~rows:2 ~cols:(n / 2))
    else
      Error
        (Printf.sprintf
           "topology grid needs an even workload width >= 4, got %d" n)
  | other ->
    Error (Printf.sprintf "unknown topology %S (line, grid, clique)" other)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let axis ~kind key of_item ~default doc =
  match J.member key doc with
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "manifest: %s is required" key))
  | Some arr -> (
    match J.to_list arr with
    | None -> Error (Printf.sprintf "manifest: %s must be an array" key)
    | Some [] -> Error (Printf.sprintf "manifest: %s must be non-empty" key)
    | Some items ->
      map_result
        (fun j ->
          match of_item j with
          | Some v -> Ok v
          | None ->
            Error
              (Printf.sprintf "manifest: %s must be an array of %s" key kind))
        items)

let opt_int key ~default doc =
  match J.member key doc with
  | None -> Ok default
  | Some j -> (
    match J.to_int j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "manifest: %s must be an integer" key))

let manifest_of_json s =
  match J.parse s with
  | Error e -> Error ("manifest: " ^ e)
  | Ok doc ->
    let* version = opt_int "schema_version" ~default:1 doc in
    let* () =
      if version = manifest_schema_version then Ok ()
      else
        Error
          (Printf.sprintf "manifest: unsupported schema_version %d" version)
    in
    let name =
      Option.value
        (Option.bind (J.member "name" doc) J.to_string)
        ~default:"matrix"
    in
    let engine =
      Option.value
        (Option.bind (J.member "engine" doc) J.to_string)
        ~default:"model"
    in
    let* () =
      if engine = "model" || engine = "numeric" then Ok ()
      else Error (Printf.sprintf "manifest: unknown engine %S" engine)
    in
    let* seed = opt_int "seed" ~default:7 doc in
    let* iterations = opt_int "iterations" ~default:0 doc in
    let* () =
      if iterations >= 0 then Ok ()
      else Error "manifest: iterations must be >= 0"
    in
    let* max_width = opt_int "max_width" ~default:4 doc in
    let* () =
      if max_width >= 1 then Ok () else Error "manifest: max_width must be >= 1"
    in
    let* item_deadline_s =
      match J.member "item_deadline_s" doc with
      | None -> Ok None
      | Some j -> (
        match J.to_float j with
        | Some d when Float.is_finite d && d > 0.0 -> Ok (Some d)
        | Some _ | None ->
          Error "manifest: item_deadline_s must be a finite number > 0")
    in
    let* workloads =
      axis ~kind:"strings" "workloads" J.to_string ~default:None doc
    in
    let* parsed_workloads = map_result workload_of_spec workloads in
    let* topologies =
      axis ~kind:"strings" "topologies" J.to_string ~default:(Some [ "line" ])
        doc
    in
    let* strategy_names =
      axis ~kind:"strings" "strategies" J.to_string ~default:None doc
    in
    let* strategies = map_result Compiler.strategy_of_string strategy_names in
    let* workers =
      axis ~kind:"integers" "workers" J.to_int ~default:(Some [ 1 ]) doc
    in
    let* () =
      if List.for_all (fun w -> w >= 1) workers then Ok ()
      else Error "manifest: workers must all be >= 1"
    in
    let* plan_specs =
      axis ~kind:"strings" "fault_plans" J.to_string ~default:(Some [ "none" ])
        doc
    in
    let* fault_plans =
      map_result
        (fun spec ->
          match String.trim spec with
          | "" | "none" -> Ok None
          | spec -> (
            match Fault.parse spec with
            | Ok p -> Ok (Some p)
            | Error e ->
              Error (Printf.sprintf "manifest: fault plan %S: %s" spec e)))
        plan_specs
    in
    let fires site =
      List.exists
        (function Some p -> Fault.rate p site > 0.0 | None -> false)
        fault_plans
    in
    (* A cell compares a fault-free sequential compile with the faulted
       parallel one, so a plan that changes pulses fails every cell. *)
    let* () =
      match List.find_opt fires Fault.[ Nan_fidelity; No_converge; Stall ] with
      | Some site ->
        Error
          (Printf.sprintf
             "manifest: fault plan site %s injects optimizer faults, which \
              change pulses"
             (Fault.site_to_string site))
      | None -> Ok ()
    in
    (* A hanging worker is only recoverable when the pool has an item
       deadline to kill it against; without one the matrix would block
       forever, so reject the combination up front. *)
    let* () =
      if fires Fault.Worker_hang && item_deadline_s = None then
        Error "manifest: fault plan hangs workers but no item_deadline_s set"
      else Ok ()
    in
    (* Every (workload, topology) pair must be constructible. *)
    let* () =
      List.fold_left
        (fun acc (_spec, w) ->
          let* () = acc in
          List.fold_left
            (fun acc t ->
              let* () = acc in
              let* _ = topology_for t (workload_width w) in
              Ok ())
            (Ok ()) topologies)
        (Ok ())
        (List.combine workloads parsed_workloads)
    in
    Ok
      { name; engine; seed; iterations; max_width; item_deadline_s; workloads;
        topologies; strategies; workers; fault_plans }

let load_manifest ~path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> (
    match manifest_of_json s with
    | Ok m -> Ok m
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e

(* ---- expansion ------------------------------------------------------- *)

type cell = {
  index : int;
  id : string;
  cell_name : string;
  workload : string;
  topology : string;
  strategy : Compiler.strategy;
  cell_workers : int;
  fault_plan : Fault.plan option;
}

let expand m =
  let cells = ref [] in
  let index = ref 0 in
  List.iter
    (fun workload ->
      List.iter
        (fun topology ->
          List.iter
            (fun strategy ->
              List.iter
                (fun cell_workers ->
                  List.iteri
                    (fun fp fault_plan ->
                      let cell_name =
                        Printf.sprintf "%s+%s+w%d+fp%d" workload topology
                          cell_workers fp
                      in
                      let id =
                        cell_name ^ "+" ^ Compiler.strategy_name strategy
                      in
                      cells :=
                        { index = !index; id; cell_name; workload; topology;
                          strategy; cell_workers; fault_plan }
                        :: !cells;
                      incr index)
                    m.fault_plans)
                m.workers)
            m.strategies)
        m.topologies)
    m.workloads;
  List.rev !cells

let cell_dir ~out_dir cell = Filename.concat out_dir cell.id
let index_path ~out_dir = Filename.concat out_dir "cells.json"

(* ---- filesystem helpers ---------------------------------------------- *)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let write_file ~path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents);
  Sys.rename tmp path

let write_index m ~out_dir cells =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"schema_version\": %d,\n" manifest_schema_version);
  Buffer.add_string buf
    (Printf.sprintf "  \"manifest\": %s,\n" (Bench_report.json_string m.name));
  Buffer.add_string buf
    (Printf.sprintf "  \"engine\": %s,\n" (Bench_report.json_string m.engine));
  Buffer.add_string buf "  \"cells\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun c -> "    " ^ Bench_report.json_string c.id)
          cells));
  Buffer.add_string buf "\n  ]\n}\n";
  write_file ~path:(index_path ~out_dir) (Buffer.contents buf)

(* ---- cell execution -------------------------------------------------- *)

let theta_for seed c =
  let rng = Rng.create seed in
  let n = Circuit.n_params c in
  Array.init n (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:(2.0 *. Float.pi))

(* The numeric engine's settings for every manifest: no wall-clock
   deadline (a deadline firing in one run but not another would break the
   byte-identical determinism contract); the iteration budget bounds the
   work instead. *)
let numeric_settings () =
  { Engine.Grape.fast_settings with
    Engine.Grape.dt = 1.0;
    max_iters = 60;
    target_fidelity = 0.98 }

let engine_for m =
  if m.engine = "numeric" then Engine.numeric ~settings:(numeric_settings ()) ()
  else Engine.model

let rollups_from_obs () =
  let trace =
    List.map
      (fun (span, count, total_s) -> { Bench_report.span; count; total_s })
      (Obs.rollup ())
  in
  let metrics =
    List.map
      (fun name ->
        let s = Option.get (Obs.Metrics.stats name) in
        let p50, p90, p99 = Obs.Metrics.percentiles name in
        let mean =
          if s.Obs.Metrics.count = 0 then Float.nan
          else s.Obs.Metrics.sum /. float_of_int s.Obs.Metrics.count
        in
        { Bench_report.metric = name; count = s.Obs.Metrics.count; mean;
          p50; p90; p99; max = s.Obs.Metrics.max })
      (Obs.Metrics.names ())
  in
  (trace, metrics)

let run_variational m cell ~workload ~compiled ~gate ~run_path =
  let info =
    { Run_log.strategy = compiled.Strategy.strategy;
      precompute_s = compiled.Strategy.precompute.Engine.seconds;
      compile_latency_s = compiled.Strategy.per_iteration.Engine.seconds;
      pulse_duration_ns = compiled.Strategy.duration_ns;
      gate_duration_ns = gate.Strategy.duration_ns;
      cache_hits = compiled.Strategy.pool.Engine.cache_hits;
      degradations = List.length compiled.Strategy.degradations }
  in
  match workload with
  | Mol mol ->
    let hamiltonian =
      Pqc_vqe.Chemistry.synthetic ~seed:7
        ~n_qubits:mol.Pqc_vqe.Molecule.n_qubits
    in
    let ansatz = Pqc_vqe.Uccsd.ansatz mol in
    Run_log.with_log ~info ~algo:"vqe" ~label:cell.cell_name
      ~path:(Some run_path) (fun recorder ->
        ignore
          (Pqc_vqe.Vqe.run ~max_evals:m.iterations ~seed:m.seed ?recorder
             ~hamiltonian ~ansatz ()))
  | Qaoa { graph; p } ->
    Run_log.with_log ~info ~algo:"qaoa" ~label:cell.cell_name
      ~path:(Some run_path) (fun recorder ->
        ignore
          (Pqc_qaoa.Qaoa.optimize ~max_evals:m.iterations ~seed:m.seed
             ?recorder graph ~p))

let run_cell m ~out_dir cell =
  try
    let dir = cell_dir ~out_dir cell in
    mkdir_p dir;
    (* The cell's correlation id is a pure function of the manifest name
       and the cell id — independent of which driver worker runs the
       cell and of the driver's worker count — so rollup byte-equality
       across driver parallelism levels is preserved.  Everything the
       cell produces (spans, run-log lines, cache entries, degradations,
       the report below) carries this id. *)
    let rid = m.name ^ "/" ^ cell.id in
    Pqc_obs.Obs.Ctx.with_ctx (Some rid) @@ fun () ->
    let workload =
      match workload_of_spec cell.workload with
      | Ok w -> w
      | Error e -> failwith e
    in
    let raw = workload_circuit workload in
    let topology =
      match topology_for cell.topology (Circuit.n_qubits raw) with
      | Ok t -> t
      | Error e -> failwith e
    in
    let c = Compiler.prepare ~topology raw in
    let theta = theta_for m.seed c in
    let compile ~workers =
      (* A fresh engine per compile: neither run may warm the other's
         cache. *)
      let engine = engine_for m in
      let t0 = Pqc_obs.Obs.Clock.now () in
      let r =
        Compiler.compile ~workers ~max_width:m.max_width ~engine cell.strategy
          c ~theta
      in
      (r, Pqc_obs.Obs.Clock.now () -. t0)
    in
    (* The sequential compile is the fault-free reference, even under an
       ambient plan whose optimizer sites would change its pulses. *)
    let ambient_plan = Fault.current () in
    Fault.set None;
    let seq, sequential_s =
      Fun.protect
        ~finally:(fun () -> Fault.set ambient_plan)
        (fun () -> compile ~workers:1)
    in
    (* Telemetry and the cell's fault plan are both scoped to the parallel
       compile + variational loop, and global state is restored before
       this function returns so the pool running the cells sees a quiet
       process. *)
    Obs.reset ();
    Obs.enable ();
    let finish () =
      Fault.set ambient_plan;
      Obs.disable ();
      Obs.reset ()
    in
    match
      Fault.set cell.fault_plan;
      let par, parallel_s = compile ~workers:cell.cell_workers in
      Fault.set ambient_plan;
      if m.iterations > 0 then begin
        let gate = Compiler.gate_based c ~theta in
        run_variational m cell ~workload ~compiled:par ~gate
          ~run_path:(Filename.concat dir "run.jsonl")
      end;
      (par, parallel_s)
    with
    | exception e ->
      finish ();
      raise e
    | par, parallel_s ->
      let trace, metrics = rollups_from_obs () in
      write_file
        ~path:(Filename.concat dir "metrics.reg")
        (Obs.Metrics.encode_all ());
      finish ();
      let equal_pulse =
        Float.equal seq.Strategy.duration_ns par.Strategy.duration_ns
      in
      let experiment =
        { Bench_report.name = cell.cell_name;
          strategy = Compiler.strategy_name cell.strategy;
          engine = m.engine;
          run_id = rid;
          pulse_duration_ns = par.Strategy.duration_ns;
          sequential_s;
          parallel_s;
          speedup = sequential_s /. parallel_s;
          cache_hits = par.Strategy.pool.Engine.cache_hits;
          blocks_compiled = par.Strategy.pool.Engine.dispatched;
          workers = cell.cell_workers;
          equal_pulse;
          trace;
          metrics }
      in
      let report =
        { Bench_report.mode = "matrix:" ^ m.name;
          workers = cell.cell_workers;
          experiments = [ experiment ] }
      in
      Bench_report.write ~path:(Filename.concat dir "report.json") report;
      if equal_pulse then Ok ()
      else Error "sequential and parallel pulse durations differ"
  with e -> Error (Printexc.to_string e)

(* ---- driver ---------------------------------------------------------- *)

type outcome = { cell : cell; status : (unit, string) result }

let run ?workers m ~out_dir =
  let workers =
    match workers with Some w -> w | None -> Pool.workers_from_env ()
  in
  mkdir_p out_dir;
  let cells = expand m in
  write_index m ~out_dir cells;
  (* The item deadline is read from the environment by the engine-level
     pools inside each cell, so it travels by env var; restore the
     ambient value afterwards ("" reads as unset). *)
  let saved_deadline = Sys.getenv_opt "PQC_ITEM_DEADLINE_S" in
  (match m.item_deadline_s with
  | Some d -> Unix.putenv "PQC_ITEM_DEADLINE_S" (Printf.sprintf "%g" d)
  | None -> ());
  Fun.protect
    ~finally:(fun () ->
      match (m.item_deadline_s, saved_deadline) with
      | None, _ -> ()
      | Some _, Some v -> Unix.putenv "PQC_ITEM_DEADLINE_S" v
      | Some _, None -> Unix.putenv "PQC_ITEM_DEADLINE_S" "")
    (fun () ->
      (* Cell results live on disk, so only a status travels back, and
         in-parent recovery just re-runs the cell, which is idempotent:
         every file write is atomic. *)
      let results, _stats =
        Pool.map ~workers (fun cell -> run_cell m ~out_dir cell) cells
      in
      List.map2
        (fun cell (status, _recovered) -> { cell; status })
        cells results)
