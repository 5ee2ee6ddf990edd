module Circuit = Pqc_quantum.Circuit
module Pass = Pqc_transpile.Pass
module Route = Pqc_transpile.Route
module Topology = Pqc_transpile.Topology
module Block = Pqc_transpile.Block
module Slice = Pqc_transpile.Slice
module Gate_times = Pqc_pulse.Gate_times
module Pulse = Pqc_pulse.Pulse

let prepare ?topology c =
  let topo =
    match topology with Some t -> t | None -> Topology.line (Circuit.n_qubits c)
  in
  let optimized = Pass.optimize c in
  let routed = (Route.route topo optimized).routed in
  Pass.optimize routed

(* A strategy's jobs are (segment, qubits) pairs in a dependency-respecting
   order; Pulse.schedule places them, and the strategy reports the end of
   that schedule as its duration. *)
let lookup_jobs bound =
  let jobs = ref [] in
  for k = Circuit.length bound - 1 downto 0 do
    let i = Circuit.instr bound k in
    jobs := (Pulse.lookup_gate i, i.qubits) :: !jobs
  done;
  !jobs

let gate_pulse bound =
  Pulse.schedule ~n:(Circuit.n_qubits bound) (lookup_jobs bound)

let compiled ~strategy ?(precompute = Engine.zero_cost)
    ?(per_iteration = Engine.zero_cost) ?(degradations = [])
    ?(pool = Engine.zero_pool_stats) pulse =
  { Strategy.strategy; duration_ns = Pulse.duration pulse; precompute;
    per_iteration; pulse; degradations; pool }

let gate_based c ~theta =
  compiled ~strategy:"gate-based" (gate_pulse (Circuit.bind c theta))

let block_label (b : Block.block) =
  let buf = Buffer.create 16 in
  Buffer.add_string buf "block[";
  List.iteri
    (fun k q ->
      if k > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int q))
    b.qubits;
  Buffer.add_char buf ']';
  Buffer.contents buf

(* A GRAPE-compiled block as a schedulable job. *)
let optimized_job ~label (b : Block.block) duration =
  ( Pulse.Optimized { label; duration; samples = None },
    Array.of_list b.qubits )

(* One block's schedulable job from its engine result, accumulating the
   search cost and any per-block fallback into the caller's refs. *)
let job_of_result ~cost ~degs (b : Block.block) (r : Engine.block_result) =
  let label = block_label b in
  cost := Engine.add_cost !cost r.Engine.search_cost;
  (match r.Engine.fallback with
  | Some reason ->
    degs :=
      { Resilience.stage = "engine:" ^ label; reason;
        detail = "block search fell back to lookup-table duration";
        run_id = Pqc_obs.Obs.Ctx.current () }
      :: !degs
  | None -> ());
  optimized_job ~label b r.Engine.duration_ns

(* Blocks of a (bound) circuit as schedulable jobs with engine durations —
   searched as one batch over the worker pool — plus the accumulated
   search cost, per-block fallbacks, and pool accounting. *)
let block_jobs ?workers ~max_width ~engine bound =
  let blocks = Block.partition ~max_width bound in
  let results, pstats, pool_degs =
    Engine.search_many ?workers engine (List.map Block.extract blocks)
  in
  let cost = ref Engine.zero_cost in
  let degs = ref [] in
  let jobs = List.map2 (job_of_result ~cost ~degs) blocks results in
  (jobs, !cost, List.rev !degs @ pool_degs, pstats)

let full_grape ?workers ?(max_width = 4) ~engine c ~theta =
  let bound = Circuit.bind c theta in
  let jobs, cost, degradations, pool =
    block_jobs ?workers ~max_width ~engine bound
  in
  (* The binding changes every iteration, so the whole search repeats
     every iteration: this is the latency that makes out-of-the-box
     GRAPE untenable (Section 1). *)
  compiled ~strategy:"full-grape" ~per_iteration:cost ~degradations ~pool
    (Pulse.schedule ~n:(Circuit.n_qubits c) jobs)

let strict_jobs ?workers ~max_width ~engine ~theta slices =
  (* Fixed blocks from every slice are gathered into one engine batch, so
     the worker pool sees the whole strict precompute at once instead of
     one slice's blocks at a time. *)
  let tagged =
    List.map
      (fun (s : Slice.slice) ->
        match s.var with
        | None ->
          (* Fixed slice: GRAPE-precompiled offline, blocked to width. *)
          Either.Left (Block.partition ~max_width s.circuit)
        | Some _ ->
          (* Parametrized gate: lookup-table pulse at runtime. *)
          Either.Right (lookup_jobs (Circuit.bind s.circuit theta)))
      slices
  in
  let fixed =
    List.concat_map
      (function Either.Left bs -> bs | Either.Right _ -> [])
      tagged
  in
  let results, pstats, pool_degs =
    Engine.search_many ?workers engine (List.map Block.extract fixed)
  in
  let precompute = ref Engine.zero_cost in
  let degs = ref [] in
  let remaining = ref results in
  let jobs =
    List.concat_map
      (function
        | Either.Right js -> js
        | Either.Left bs ->
          List.map
            (fun b ->
              match !remaining with
              | r :: rest ->
                remaining := rest;
                job_of_result ~cost:precompute ~degs b r
              | [] -> assert false (* one result per fixed block *))
            bs)
      tagged
  in
  (jobs, !precompute, List.rev !degs @ pool_degs, pstats)

let strict_slicing ?workers ?(max_width = 4) ~engine slicer c ~theta =
  let jobs, _, _, _ =
    strict_jobs ?workers ~max_width ~engine ~theta (slicer c)
  in
  Pulse.schedule ~n:(Circuit.n_qubits c) jobs

let strict_partial ?workers ?(max_width = 4) ~engine c ~theta =
  let n = Circuit.n_qubits c in
  (* Both slicings are zero-latency at runtime, so the compiler
     precompiles both offline and keeps whichever schedule is shorter
     (region slicing wins when parameters are dense, linear slicing when
     they are sparse enough that deep runs survive whole). *)
  let region_jobs, region_cost, region_degs, region_pool =
    strict_jobs ?workers ~max_width ~engine ~theta (Slice.strict c)
  in
  let linear_jobs, linear_cost, linear_degs, linear_pool =
    strict_jobs ?workers ~max_width ~engine ~theta (Slice.strict_linear c)
  in
  let region_span = Pulse.makespan ~n region_jobs in
  let linear_span = Pulse.makespan ~n linear_jobs in
  let jobs, precompute, span, degradations =
    if region_span <= linear_span then
      (region_jobs, region_cost, region_span, region_degs)
    else (linear_jobs, linear_cost, linear_span, linear_degs)
  in
  (* Strict partial compilation is never worse than gate-based: both have
     zero runtime latency, so the compiler keeps whichever schedule is
     shorter (relevant only when blocking serializes an unusually parallel
     circuit).  Only the schedule it keeps is built. *)
  let bound = Circuit.bind c theta in
  let pulse =
    if Gate_times.circuit_duration bound < span then gate_pulse bound
    else Pulse.schedule ~n jobs
  in
  (* Both slicings were compiled, so both batches' work is reported even
     though only one schedule survives. *)
  compiled ~strategy:"strict-partial" ~precompute ~degradations
    ~pool:(Engine.add_pool_stats region_pool linear_pool)
    pulse

let flexible_partial ?workers ?(max_width = 4) ~engine c ~theta =
  let slices = Slice.flexible c in
  let items =
    List.concat_map
      (fun (s : Slice.slice) ->
        Block.partition ~max_width s.circuit
        |> List.map (fun (b : Block.block) -> (s, b)))
      slices
  in
  (* Search + hyperparameter tuning + one tuned run per slice block, the
     whole per-block pipeline batched over the pool.  The blocks go in
     unbound: the engine binds them itself and keys its per-slice
     hyperparameter memo on the unbound form, so the grid runs once per
     slice block, not once per iteration. *)
  let results, pool, pool_degs =
    Engine.flex_many ?workers engine ~theta
      (List.map (fun (_, b) -> Block.extract b) items)
  in
  let precompute = ref Engine.zero_cost in
  let per_iteration = ref Engine.zero_cost in
  let degs = ref [] in
  let jobs =
    List.map2
      (fun ((s : Slice.slice), (b : Block.block)) (fr : Engine.flex_result) ->
        let r = fr.Engine.search in
        let label = Printf.sprintf "slice[t%s]"
            (match s.var with Some v -> string_of_int v | None -> "-")
        in
        (match r.Engine.fallback with
        | Some reason ->
          degs :=
            { Resilience.stage = "engine:" ^ label; reason;
              detail =
                "slice block search fell back to lookup-table duration";
              run_id = Pqc_obs.Obs.Ctx.current () }
            :: !degs
        | None -> ());
        (* Offline: the minimal-time search plus hyperparameter tuning,
           once per slice block. *)
        precompute :=
          Engine.add_cost !precompute
            (Engine.add_cost r.Engine.search_cost fr.Engine.hyperopt);
        (* Online: one tuned GRAPE run at the known duration. *)
        per_iteration := Engine.add_cost !per_iteration fr.Engine.tuned;
        optimized_job ~label b r.Engine.duration_ns)
      items results
  in
  compiled ~strategy:"flexible-partial" ~precompute:!precompute
    ~per_iteration:!per_iteration
    ~degradations:(List.rev !degs @ pool_degs)
    ~pool
    (Pulse.schedule ~n:(Circuit.n_qubits c) jobs)

type strategy = Pqc_analysis.Rule.target =
  | Gate_based
  | Strict_partial
  | Flexible_partial
  | Full_grape

let all_strategies = [ Gate_based; Strict_partial; Flexible_partial; Full_grape ]

let strategy_name = Pqc_analysis.Rule.target_to_string

let strategy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "gate" | "gate-based" -> Ok Gate_based
  | "strict" | "strict-partial" -> Ok Strict_partial
  | "flexible" | "flexible-partial" -> Ok Flexible_partial
  | "grape" | "full-grape" -> Ok Full_grape
  | other ->
    Error
      (Printf.sprintf
         "unknown strategy %S (gate, strict, flexible, grape)" other)

let run_strategy ?workers ~max_width ~engine strategy c ~theta =
  Pqc_obs.Obs.Span.with_ ~name:"compiler.strategy"
    ~attrs:(fun () -> [ ("strategy", strategy_name strategy) ])
  @@ fun () ->
  match strategy with
  | Gate_based -> gate_based c ~theta
  | Strict_partial -> strict_partial ?workers ~max_width ~engine c ~theta
  | Flexible_partial -> flexible_partial ?workers ~max_width ~engine c ~theta
  | Full_grape -> full_grape ?workers ~max_width ~engine c ~theta

(* Graceful degradation ladder.  Gate-based is the terminal rung: pure
   table lookups, no optimizer, cannot fail. *)
let degrade_chain = function
  | Gate_based -> [ Gate_based ]
  | Strict_partial -> [ Strict_partial; Gate_based ]
  | Flexible_partial -> [ Flexible_partial; Strict_partial; Gate_based ]
  | Full_grape -> [ Full_grape; Strict_partial; Gate_based ]

let usable (r : Strategy.compiled) =
  Float.is_finite r.Strategy.duration_ns && r.Strategy.duration_ns >= 0.0

(* Fail-fast gate: no GRAPE time is spent on a circuit that violates the
   invariants the strategies rely on.  Errors abort (Runner.Rejected);
   warnings become degradation records so the accounting that already
   tracks engine fallbacks also shows what the analyzer flagged.  Infos
   are dropped, so the Info-only advisories are not run at all
   (Rules.gate). *)
let analysis_gate ~max_width strategy c ~theta =
  Pqc_obs.Obs.Span.with_ ~name:"compiler.analysis" @@ fun () ->
  let report =
    Pqc_analysis.Runner.analyze ~rules:Pqc_analysis.Rules.gate
      ~theta_len:(Array.length theta) ~max_width
      ~target:strategy c
  in
  if Pqc_analysis.Runner.has_errors report then
    raise (Pqc_analysis.Runner.Rejected report);
  List.map
    (fun d ->
      { Resilience.stage = "analysis"; reason = Resilience.Lint;
        detail = Pqc_analysis.Diagnostic.to_string d;
        run_id = Pqc_obs.Obs.Ctx.current () })
    (Pqc_analysis.Runner.warnings report)

let compile ?workers ?(max_width = 4) ~engine strategy c ~theta =
  (* Every top-level compile gets a correlation id.  An ambient context
     (set by a batch driver like the bench matrix) wins; otherwise a
     fresh deterministic id is minted from the strategy name.  Direct
     strategy calls (strict_partial, ...) bypass this and run with
     whatever context the caller holds — None in tests, which keeps
     degradation strings and goldens byte-identical. *)
  let module Ctx = Pqc_obs.Obs.Ctx in
  let ctx =
    match Ctx.current () with
    | Some _ as c -> c
    | None -> Some (Ctx.mint ("compile:" ^ strategy_name strategy))
  in
  Ctx.with_ctx ctx @@ fun () ->
  Pqc_obs.Obs.Span.with_ ~name:"compiler.compile"
    ~attrs:(fun () ->
      [ ("strategy", strategy_name strategy);
        ("qubits", string_of_int (Circuit.n_qubits c));
        ("gates", string_of_int (Circuit.length c)) ])
  @@ fun () ->
  let lint_degs = analysis_gate ~max_width strategy c ~theta in
  let rec go degs = function
    | [] -> assert false (* chains always end in Gate_based *)
    | [ last ] ->
      let r = run_strategy ?workers ~max_width ~engine last c ~theta in
      { r with Strategy.degradations = degs @ r.Strategy.degradations }
    | s :: rest -> (
      match run_strategy ?workers ~max_width ~engine s c ~theta with
      | r when usable r ->
        { r with Strategy.degradations = degs @ r.Strategy.degradations }
      | _ ->
        Pqc_obs.Obs.count "compiler.degraded";
        go
          (degs
          @ [ { Resilience.stage = strategy_name s;
                reason = Resilience.Non_finite;
                detail = "strategy produced a non-finite pulse duration";
                run_id = Pqc_obs.Obs.Ctx.current () } ])
          rest
      | exception e ->
        Pqc_obs.Obs.count "compiler.degraded";
        go
          (degs
          @ [ { Resilience.stage = strategy_name s;
                reason = Resilience.Diverged;
                detail = "strategy raised: " ^ Printexc.to_string e;
                run_id = Pqc_obs.Obs.Ctx.current () } ])
          rest)
  in
  go lint_degs (degrade_chain strategy)

(* One strategy priced by compiling it on the model engine, in process.
   A strategy refuses a circuit it cannot compile (a block over the GRAPE
   cap) with Invalid_argument, which the advice reports as infeasible. *)
let model_estimate ~max_width ~theta c strategy =
  let module Cost = Pqc_analysis.Cost in
  match
    run_strategy ~workers:1 ~max_width ~engine:Engine.model strategy c ~theta
  with
  | exception Invalid_argument reason -> Cost.infeasible strategy reason
  | r ->
    { Cost.target = strategy;
      infeasible = None;
      pulse_ns = r.Strategy.duration_ns;
      precompute_s = r.Strategy.precompute.Engine.seconds;
      per_iteration_s = r.Strategy.per_iteration.Engine.seconds;
      blocks =
        List.length
          (List.filter
             (function Pulse.Optimized _ -> true | Pulse.Lookup _ -> false)
             (Pulse.segments r.Strategy.pulse)) }

(* The advice depends on the circuit alone: no worker pool, and the
   ambient fault plan is lifted for the pricing compiles, as the bench
   matrix does for its reference compile. *)
let advise ?max_width ?latency_budget_s ?theta c =
  let ambient_plan = Fault.current () in
  Fault.set None;
  Fun.protect ~finally:(fun () -> Fault.set ambient_plan) @@ fun () ->
  Pqc_analysis.Cost.advise ?max_width ?latency_budget_s ?theta
    ~price:model_estimate c
