module Gate = Pqc_quantum.Gate
module Param = Pqc_quantum.Param
module Circuit = Pqc_quantum.Circuit
module Gate_times = Pqc_pulse.Gate_times
module Grape = Pqc_grape.Grape
module Hamiltonian = Pqc_grape.Hamiltonian
module Hyperopt = Pqc_hyperopt.Hyperopt
module Pool = Pqc_parallel.Pool
module Obs = Pqc_obs.Obs
module Latency_model = Pqc_analysis.Latency_model
module Pulse_model = Pqc_analysis.Pulse_model

type cost = { grape_runs : int; grape_iterations : int; seconds : float }

let zero_cost = { grape_runs = 0; grape_iterations = 0; seconds = 0.0 }

let add_cost a b =
  { grape_runs = a.grape_runs + b.grape_runs;
    grape_iterations = a.grape_iterations + b.grape_iterations;
    seconds = a.seconds +. b.seconds }

type block_result = {
  duration_ns : float;
  search_cost : cost;
  fidelity : float option;
  fallback : Resilience.failure option;
  run_id : string option;
      (* correlation id ambient when the result was produced; cache hits
         keep the id of the request that originally paid for the pulse *)
}

(* The winner of one slice block's hyperparameter grid and what the grid
   cost, memoized under the block's θ-independent slice key. *)
type tuning = { winner : Grape.hyperparams; grid_cost : cost }

type numeric_config = {
  settings : Grape.settings;
  system_for : int -> Hamiltonian.t;
  cache : (string, block_result) Hashtbl.t;
  tunings : (string, tuning) Hashtbl.t;
      (* per-engine only: never persisted, written only by the parent's
         merge step in [flex_many] *)
  deadline_s : float option;
  cache_file : string option;
  mutable cache_dropped : int;
  mutable cache_salvaged : int;
}

type t = Model | Numeric of numeric_config

let model = Model

(* --- Persistent cache plumbing --- *)

let entry_of_result key (r : block_result) =
  { Pulse_cache.key;
    duration_ns = r.duration_ns;
    grape_runs = r.search_cost.grape_runs;
    grape_iterations = r.search_cost.grape_iterations;
    seconds = r.search_cost.seconds;
    fidelity = r.fidelity;
    fallback = Option.map Resilience.failure_to_string r.fallback;
    run_id = r.run_id }

(* [None] when the fallback tag is not a failure we know — treat the
   record as corrupt rather than resurrecting it with wrong semantics. *)
let result_of_entry (e : Pulse_cache.entry) =
  let fallback =
    match e.fallback with
    | None -> Some None
    | Some s ->
      (match Resilience.failure_of_string s with
       | Some f -> Some (Some f)
       | None -> None)
  in
  Option.map
    (fun fallback ->
      { duration_ns = e.duration_ns;
        search_cost =
          { grape_runs = e.grape_runs;
            grape_iterations = e.grape_iterations;
            seconds = e.seconds };
        fidelity = e.fidelity;
        fallback;
        run_id = e.run_id })
    fallback

let load_cache cfg path =
  let { Pulse_cache.entries; dropped; salvaged } = Pulse_cache.load ~path in
  let unknown = ref 0 in
  List.iter
    (fun (e : Pulse_cache.entry) ->
      match result_of_entry e with
      | Some r -> Hashtbl.replace cfg.cache e.key r
      | None -> incr unknown)
    entries;
  cfg.cache_dropped <- dropped + !unknown;
  cfg.cache_salvaged <- salvaged

let numeric ?(settings = Grape.fast_settings) ?system_for ?deadline_s
    ?cache_file () =
  let system_for =
    match system_for with Some f -> f | None -> fun n -> Hamiltonian.gmon n
  in
  let deadline_s =
    match deadline_s with
    | Some _ as s -> s
    | None -> Resilience.deadline_seconds_from_env ()
  in
  let cache_file =
    match cache_file with
    | Some _ as f -> f
    | None -> Sys.getenv_opt "PQC_PULSE_CACHE"
  in
  let cfg =
    { settings; system_for; cache = Hashtbl.create 64;
      tunings = Hashtbl.create 16; deadline_s; cache_file;
      cache_dropped = 0; cache_salvaged = 0 }
  in
  (match cache_file with Some path -> load_cache cfg path | None -> ());
  Numeric cfg

let persist_result = function
  | Model -> Ok ()
  | Numeric cfg ->
    (match cfg.cache_file with
     | None -> Ok ()
     | Some path ->
       let entries =
         Hashtbl.fold (fun key r acc -> entry_of_result key r :: acc)
           cfg.cache []
       in
       (* Merge, not overwrite: two engines (or two worker pools) that
          persist to the same cache path must both survive on disk. *)
       Obs.Span.with_ ~name:"engine.persist"
         ~attrs:(fun () ->
           [ ("entries", string_of_int (List.length entries)) ])
         (fun () ->
           (* An unwritable or full cache path must not fail the compile
              that produced the results: the memo table is intact, only
              its persistence degraded. *)
           match Pulse_cache.merge ~path entries with
           | () -> Ok ()
           | exception ((Sys_error _ | Unix.Unix_error _) as exn) ->
             let detail =
               match exn with
               | Sys_error m -> m
               | Unix.Unix_error (e, op, arg) ->
                 Printf.sprintf "%s: %s (%s)" op (Unix.error_message e) arg
               | _ -> Printexc.to_string exn
             in
             Obs.count "engine.persist.failed";
             Printf.eprintf
               "partialqc: pulse cache %s not persisted: %s\n%!" path detail;
             Error
               { Resilience.stage = "persist"; reason = Resilience.Io_error;
                 detail; run_id = Obs.Ctx.current () }))

let persist t =
  match persist_result t with Ok () -> () | Error _ -> ()

let cache_size = function
  | Model -> 0
  | Numeric cfg -> Hashtbl.length cfg.cache

let hyperopt_memo_size = function
  | Model -> 0
  | Numeric cfg -> Hashtbl.length cfg.tunings

let cache_dropped = function Model -> 0 | Numeric cfg -> cfg.cache_dropped

let cache_salvaged = function Model -> 0 | Numeric cfg -> cfg.cache_salvaged

(* Keys are rendered by hand into one reused buffer: they are built one
   at a time, and a [Printf] rendering per qubit and angle cost more than
   the rest of a model-engine batch. *)
let key_buf = Buffer.create 256

(* Decimal, as [string_of_int]. *)
let rec add_int buf k =
  if k < 0 then Buffer.add_string buf (string_of_int k)
  else begin
    if k >= 10 then add_int buf (k / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (k mod 10)))
  end

(* The IEEE-754 bits of [f] as [Printf "%Lx"] renders them: unsigned
   lowercase hex without leading zeros. *)
let add_bits buf f =
  let b = Int64.bits_of_float f in
  let hi = Int64.to_int (Int64.shift_right_logical b 32) in
  let lo = Int64.to_int b land 0xFFFF_FFFF in
  let started = ref false in
  for k = 15 downto 0 do
    let d =
      if k >= 8 then (hi lsr (4 * (k - 8))) land 0xf
      else (lo lsr (4 * k)) land 0xf
    in
    if d <> 0 || !started || k = 0 then begin
      started := true;
      Buffer.add_char buf "0123456789abcdef".[d]
    end
  done

(* Width, then per instruction its gate name, rendered parameter and
   operand qubits. *)
let circuit_key ~param c =
  let buf = key_buf in
  Buffer.clear buf;
  add_int buf (Circuit.n_qubits c);
  for k = 0 to Circuit.length c - 1 do
    let i = Circuit.instr c k in
    Buffer.add_char buf ';';
    Buffer.add_string buf (Gate.name i.gate);
    (match i.gate with
    | Gate.(Rx p | Ry p | Rz p) -> param buf p
    | Gate.(X | Y | Z | H | S | Sdg | T | Tdg | CX | CZ | Swap | ISwap) -> ());
    for j = 0 to Array.length i.qubits - 1 do
      Buffer.add_char buf ',';
      add_int buf i.qubits.(j)
    done
  done;
  Buffer.contents buf

(* Canonical key of a bound block, for memoization.  Angles are keyed on
   their exact IEEE-754 bits: a printf truncation here once made bindings
   closer than its precision collide and alias each other's pulses. *)
let block_key =
  circuit_key ~param:(fun buf p ->
      Buffer.add_char buf '(';
      add_bits buf (Param.bind p [||]);
      Buffer.add_char buf ')')

(* Key of an unbound slice block that every binding of θ shares: each
   parameter renders as its variable index and the exact bits of its
   scale and offset. *)
let slice_key =
  circuit_key ~param:(fun buf (p : Param.t) ->
      Buffer.add_char buf '(';
      (match p.var with
      | Some v ->
        Buffer.add_char buf 't';
        add_int buf v
      | None -> Buffer.add_char buf 'c');
      Buffer.add_char buf '*';
      add_bits buf p.scale;
      Buffer.add_char buf '+';
      add_bits buf p.offset;
      Buffer.add_char buf ')')

let require_bound c =
  if Circuit.depends c <> [] then
    invalid_arg "Engine: block still depends on parameters (bind theta first)"

let model_steps settings duration = max 2 (int_of_float (duration /. settings.Grape.dt))

let model_search c =
  let width = Circuit.n_qubits c in
  let duration = Pulse_model.block_duration c in
  let steps = model_steps Grape.fast_settings (Float.max duration 1.0) in
  let iters =
    Latency_model.probes_per_search * Latency_model.default_iterations width
  in
  { duration_ns = duration;
    search_cost =
      { grape_runs = Latency_model.probes_per_search;
        grape_iterations = iters;
        seconds =
          float_of_int iters
          *. Latency_model.seconds_per_iteration ~width ~steps };
    fidelity = None;
    fallback = None;
    run_id = Obs.Ctx.current () }

(* One numeric search attempt at the given (possibly retuned) settings. *)
let numeric_attempt cfg settings deadline c =
  let width = Circuit.n_qubits c in
  let sys = cfg.system_for width in
  let target = Circuit.unitary c in
  let upper = Float.max (Gate_times.circuit_duration c) (4.0 *. settings.Grape.dt) in
  match
    Grape.minimal_time ~settings ?deadline:(Resilience.absolute deadline)
      ~upper_bound:upper sys ~target
  with
  | Some s ->
    if not (Float.is_finite s.minimal.total_time) then
      Error Resilience.Non_finite
    else
      Ok { duration_ns = s.minimal.total_time;
           search_cost =
             { grape_runs = List.length s.probes;
               grape_iterations = s.grape_iterations_total;
               seconds = s.wall_time_total_s };
           fidelity = Some s.minimal.fidelity;
           fallback = None;
           run_id = Obs.Ctx.current () }
  | None ->
    (* Nothing converged within budget.  Distinguish running out of
       wall-clock from running out of probes so the degradation record
       says why. *)
    if Resilience.expired deadline then Error Resilience.Deadline_exceeded
    else Error Resilience.Diverged
  | exception Invalid_argument _ -> Error Resilience.Non_finite

(* The optimizer fault the active plan injects into this attempt, if
   any.  The key hashes the block and the attempt, so a block's outcome
   is the same through [search], [search_many] and [flex_many], at any
   batch position and worker count, and a retry draws afresh.
   [Hashtbl.hash] is deterministic: OCAMLRUNPARAM=R randomizes tables,
   not this hash. *)
let injected_failure c ~attempt =
  match Fault.current () with
  | None -> None
  | Some _ ->
    let key = Hashtbl.hash (block_key c, attempt) in
    if Fault.fire Fault.Nan_fidelity ~key then Some Resilience.Non_finite
    else if Fault.fire Fault.No_converge ~key then Some Resilience.Diverged
    else if Fault.fire Fault.Stall ~key then
      Some Resilience.Deadline_exceeded
    else None

(* Gate-based lookup duration: realizable by concatenation, always finite
   — the terminal rung of the degradation ladder. *)
let fallback_result c reason spent =
  { duration_ns = Gate_times.circuit_duration c;
    search_cost = spent;
    fidelity = None;
    fallback = Some reason;
    run_id = Obs.Ctx.current () }

(* [search] plus a flag telling whether the result was produced under an
   injected fault (and therefore must never be cached or persisted) —
   the batch drivers bring this flag back from the workers so the
   parent's merge step applies the same no-poison rule as the in-process
   path. *)
let search_flagged t c =
  require_bound c;
  if Circuit.length c = 0 then
    ({ duration_ns = 0.0; search_cost = zero_cost; fidelity = None;
       fallback = None; run_id = Obs.Ctx.current () },
     false)
  else
    let policy = Resilience.default_policy in
    let deadline =
      match t with
      | Numeric cfg -> Resilience.of_seconds cfg.deadline_s
      | Model -> Resilience.no_deadline
    in
    let cached_key =
      match t with
      | Numeric cfg ->
        let key = block_key c in
        (match Hashtbl.find_opt cfg.cache key with
         | Some r -> Either.Left r
         | None -> Either.Right (Some (cfg, key)))
      | Model -> Either.Right None
    in
    match cached_key with
    | Either.Left r ->
      Obs.count "engine.cache.hit";
      (r, false)
    | Either.Right store ->
      (match store with
      | Some _ -> Obs.count "engine.cache.miss"
      | None -> ());
      Obs.Span.with_ ~name:"engine.search"
        ~attrs:(fun () ->
          [ ("width", string_of_int (Circuit.n_qubits c));
            ("gates", string_of_int (Circuit.length c)) ])
      @@ fun () ->
      let injected = ref false in
      (* Real (non-injected) attempts that failed still burned optimizer
         time; surface at least the run count in the fallback's cost. *)
      let failed_runs = ref 0 in
      let attempt ~attempt =
        match injected_failure c ~attempt with
        | Some reason -> injected := true; Error reason
        | None ->
          (match t with
           | Model -> Ok (model_search c)
           | Numeric cfg ->
             let settings = Resilience.retune policy ~attempt cfg.settings in
             match numeric_attempt cfg settings deadline c with
             | Ok _ as ok -> ok
             | Error _ as e -> incr failed_runs; e)
      in
      let r =
        match Resilience.with_retries policy deadline attempt with
        | Ok r -> r
        | Error reason ->
          fallback_result c reason { zero_cost with grape_runs = !failed_runs }
      in
      (* Injected faults are synthetic: caching their fallback would leak
         test poison into later, healthy searches.  Genuine results —
         including genuine degradations — are memoized as before. *)
      (match store with
       | Some (cfg, key) when not !injected -> Hashtbl.replace cfg.cache key r
       | _ -> ());
      (r, !injected)

let search t c = fst (search_flagged t c)

let tuned_run_cost ?hyperparams t c ~duration =
  require_bound c;
  let width = Circuit.n_qubits c in
  match t with
  | Model ->
    let iters =
      float_of_int (Latency_model.default_iterations width)
      /. Latency_model.tuning_speedup width
    in
    let steps = model_steps Grape.fast_settings (Float.max duration 1.0) in
    { grape_runs = 1;
      grape_iterations = int_of_float iters;
      seconds = iters *. Latency_model.seconds_per_iteration ~width ~steps }
  | Numeric cfg ->
    let sys = cfg.system_for width in
    let target = Circuit.unitary c in
    let deadline = Resilience.of_seconds cfg.deadline_s in
    let settings =
      match hyperparams with
      | Some hyperparams -> { cfg.settings with Grape.hyperparams }
      | None -> cfg.settings
    in
    let r =
      Grape.optimize ~settings ?deadline:(Resilience.absolute deadline) sys
        ~target ~total_time:duration
    in
    { grape_runs = 1; grape_iterations = r.iterations; seconds = r.wall_time_s }

(* The hyperparameter grid of one bound block at a known duration, and
   its cost summed over the cells actually scored. *)
let run_grid cfg c ~duration =
  (* Wall clock, not [Sys.time] (process CPU time): hyperopt probes can
     block on deadlines or fault hooks, and CPU time would silently drop
     that.  Started before [system_for] so Hamiltonian construction is
     part of the reported cost, matching what a caller actually waits. *)
  let t0 = Obs.Clock.now () in
  let sys = cfg.system_for (Circuit.n_qubits c) in
  let obj =
    { Hyperopt.system = sys;
      (* The block is already bound; hyperopt probes perturb nothing, so
         reuse the same target for each probe angle. *)
      target_of = (fun _ -> Circuit.unitary c);
      total_time = duration;
      settings = cfg.settings }
  in
  let deadline = Resilience.of_seconds cfg.deadline_s in
  let lr_grid = Pqc_util.Stats.logspace (-1.0) 0.3 4 in
  let s =
    Hyperopt.grid_search ~lr_grid ~decay_grid:[| 0.998; 1.0 |]
      ~angles:[| 1.0 |] ?deadline:(Resilience.absolute deadline) obj
  in
  ( s,
    { grape_runs = s.Hyperopt.grape_runs;
      grape_iterations = s.Hyperopt.grape_iterations;
      seconds = Obs.Clock.now () -. t0 } )

let hyperopt_cost t c ~duration =
  require_bound c;
  let width = Circuit.n_qubits c in
  match t with
  | Model ->
    let iters =
      Latency_model.hyperopt_grid_evals * Latency_model.default_iterations width
    in
    let steps = model_steps Grape.fast_settings (Float.max duration 1.0) in
    { grape_runs = Latency_model.hyperopt_grid_evals;
      grape_iterations = iters;
      seconds =
        float_of_int iters *. Latency_model.seconds_per_iteration ~width ~steps }
  | Numeric cfg -> snd (run_grid cfg c ~duration)

(* --- Batch compilation over the worker pool --- *)

type pool_stats = {
  workers : int;
  dispatched : int;
  cache_hits : int;
  recovered : int;
}

let zero_pool_stats = { workers = 1; dispatched = 0; cache_hits = 0; recovered = 0 }

let add_pool_stats a b =
  { workers = max a.workers b.workers;
    dispatched = a.dispatched + b.dispatched;
    cache_hits = a.cache_hits + b.cache_hits;
    recovered = a.recovered + b.recovered }

(* Generic batch driver: dedup by block key, resolve memo hits in the
   parent, fan the rest out over the pool, verify each result came back
   with the key it was dispatched for, merge cacheable results back into
   the memo table, and reassemble per input order.  [compute] runs in forked
   children {e and} in the parent (sequential mode and recovery), so the
   two paths stay behaviorally identical by construction; it gets the
   item's input position. *)
let run_batch (type r) ?workers t circuits
    ~(compute : int -> Pqc_quantum.Circuit.t -> r)
    ~(cached : numeric_config -> string -> r option)
    ~(cacheable : r -> bool)
    ~(store : numeric_config -> string -> r -> unit) :
    r list * pool_stats * Resilience.degradation list =
  List.iter require_bound circuits;
  Obs.Span.with_ ~name:"engine.batch"
    ~attrs:(fun () -> [ ("items", string_of_int (List.length circuits)) ])
  @@ fun () ->
  let arr = Array.of_list circuits in
  let n = Array.length arr in
  let keys = Array.map block_key arr in
  (* first.(i): the first input with input i's key. *)
  let first = Array.make n 0 in
  let seen = Hashtbl.create (2 * n + 16) in
  Array.iteri
    (fun i k ->
      match Hashtbl.find seen k with
      | j -> first.(i) <- j
      | exception Not_found ->
        Hashtbl.add seen k i;
        first.(i) <- i)
    keys;
  let results : r option array = Array.make n None in
  let cache_hits = ref 0 in
  let todo = ref [] in
  Array.iteri
    (fun i k ->
      if first.(i) <> i then
        (* Duplicate block: assembled from its first occurrence below. *)
        incr cache_hits
      else if Circuit.length arr.(i) = 0 then
        (* Empty blocks are free; computing them in-process keeps them
           out of the cache, exactly as the single-item path does. *)
        results.(i) <- Some (compute i arr.(i))
      else
        let hit = match t with Numeric cfg -> cached cfg k | Model -> None in
        match hit with
        | Some r ->
          incr cache_hits;
          results.(i) <- Some r
        | None -> todo := (i, k, arr.(i)) :: !todo)
    keys;
  let todo = List.rev !todo in
  if !cache_hits > 0 then
    Obs.count ~by:(float_of_int !cache_hits) "engine.batch.cache_hits";
  if todo <> [] then
    Obs.count ~by:(float_of_int (List.length todo)) "engine.batch.dispatched";
  (* Per-item correlation: each batch item derives "<run_id>#<idx>" from
     the ambient request context (captured here, in the parent, before
     any fork).  The derivation runs inside [f], which is the single
     code path shared by sequential mode, forked children and in-parent
     recovery — so the ids an item's spans, cache entries and records
     carry are identical under any worker count. *)
  let ambient = Obs.Ctx.current () in
  let item_ctx idx = Option.map (fun a -> Obs.Ctx.derive a idx) ambient in
  let item_rid idx =
    match item_ctx idx with
    | Some rid -> rid
    | None -> Printf.sprintf "item#%d" idx
  in
  let f (idx, _k, c) =
    Obs.Ctx.with_ctx (item_ctx idx) (fun () -> compute idx c)
  in
  (* Force the chaos plan (PQC_FAULT_PLAN) to parse and install its pool
     hook before any fork, so seeded worker faults apply to this batch. *)
  ignore (Fault.current ());
  (* Forking pays only for GRAPE searches.  An item whose bound block is
     in the pulse memo runs at most a tuned run (about 1 ms), so a batch
     with fewer than two misses stays in-process.  The model engine has
     no memo: every one of its items counts. *)
  let misses =
    List.length
      (List.filter
         (fun (_, k, _) ->
           match t with
           | Numeric cfg -> not (Hashtbl.mem cfg.cache k)
           | Model -> true)
         todo)
  in
  let workers = if misses < 2 then Some 1 else workers in
  let todo_arr = Array.of_list todo in
  let pool_out, pstats =
    Pool.map ?workers
      ~item_label:(fun i ->
        if i < 0 || i >= Array.length todo_arr then ""
        else
          let idx, _, _ = todo_arr.(i) in
          item_rid idx)
      (fun ((_, k, _) as item) -> (k, f item))
      todo
  in
  let degs = ref [] in
  let mismatched = ref 0 in
  List.iter2
    (fun ((idx, k, _c) as item) ((rk, r), pool_recovered) ->
      let r, recovered =
        if String.equal rk k then (r, pool_recovered)
        else begin
          (* The frame passed its digest but answers a different key.
             Recompute rather than trust it. *)
          incr mismatched;
          (f item, true)
        end
      in
      if recovered then
        degs :=
          { Resilience.stage = "worker-pool"; reason = Resilience.Worker_lost;
            detail =
              Printf.sprintf
                "batch item %d recomputed in-process after its worker's \
                 record was lost or corrupt"
                idx;
            run_id = item_ctx idx }
          :: !degs;
      (match t with
      | Numeric cfg when cacheable r -> store cfg k r
      | _ -> ());
      results.(idx) <- Some r)
    todo pool_out;
  let out =
    List.init n (fun i ->
        match results.(first.(i)) with
        | Some r -> r
        | None -> assert false (* every first occurrence was resolved *))
  in
  let stats =
    { workers = pstats.Pool.workers;
      dispatched = List.length todo;
      cache_hits = !cache_hits;
      recovered = pstats.Pool.recovered + !mismatched }
  in
  (out, stats, List.rev !degs)

let search_many ?workers t circuits =
  let rs, stats, degs =
    run_batch ?workers t circuits
      ~compute:(fun _ c -> search_flagged t c)
      ~cached:(fun cfg k ->
        Option.map (fun r -> (r, false)) (Hashtbl.find_opt cfg.cache k))
      ~cacheable:(fun (_, injected) -> not injected)
      ~store:(fun cfg k (r, _) -> Hashtbl.replace cfg.cache k r)
  in
  (List.map fst rs, stats, degs)

type flex_result = {
  search : block_result;
  hyperopt : cost;
  hyperparams : Grape.hyperparams option;
  tuned : cost;
}

let flex_many ?workers t ~theta blocks =
  let bound = List.map (fun b -> Circuit.bind b theta) blocks in
  (* The numeric engine keys its hyperparameter memo on each unbound
     block; the model engine prices tuning analytically and has none. *)
  let memo =
    match t with
    | Numeric cfg -> Some (cfg, Array.of_list (List.map slice_key blocks))
    | Model -> None
  in
  (* Reads the memo only: in sequential mode every item runs before the
     merge below writes, exactly as forked children see the memo they
     inherited, so results do not depend on the worker count. *)
  let compute idx c =
    let r, injected = search_flagged t c in
    let duration = r.duration_ns in
    match memo with
    | None ->
      ( { search = r; hyperopt = hyperopt_cost t c ~duration;
          hyperparams = None; tuned = tuned_run_cost t c ~duration },
        injected, false )
    | Some (cfg, keys) ->
      let winner, grid_cost, fresh =
        match Hashtbl.find_opt cfg.tunings keys.(idx) with
        | Some tu ->
          Obs.count "engine.hyperopt.hit";
          (tu.winner, tu.grid_cost, false)
        | None ->
          Obs.count "engine.hyperopt.miss";
          let s, grid_cost = run_grid cfg c ~duration in
          (s.Hyperopt.best.Hyperopt.hyperparams, grid_cost, s.Hyperopt.complete)
      in
      ( { search = r; hyperopt = grid_cost; hyperparams = Some winner;
          tuned = tuned_run_cost ~hyperparams:winner t c ~duration },
        injected, fresh )
  in
  let rs, stats, degs =
    run_batch ?workers t bound ~compute
      (* Tuned runs are never memoized, so every unique block dispatches;
         the search inside still hits the memo table the child inherited
         at fork time. *)
      ~cached:(fun _ _ -> None)
      ~cacheable:(fun (_, injected, _) -> not injected)
      ~store:(fun cfg k ({ search = r; _ }, _, _) ->
        Hashtbl.replace cfg.cache k r)
  in
  (* The merge step: only the parent writes the hyperparameter memo, and
     only a grid that ran to the end on a search free of injected faults. *)
  (match memo with
   | Some (cfg, keys) ->
     List.iteri
       (fun i (fr, injected, fresh) ->
         match fr.hyperparams with
         | Some winner when fresh && not injected ->
           Hashtbl.replace cfg.tunings keys.(i)
             { winner; grid_cost = fr.hyperopt }
         | _ -> ())
       rs
   | None -> ());
  (List.map (fun (fr, _, _) -> fr) rs, stats, degs)
