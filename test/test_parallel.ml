module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Block = Pqc_transpile.Block
module Grape = Pqc_grape.Grape
module Rng = Pqc_util.Rng
module Pool = Pqc_parallel.Pool
module Obs = Pqc_obs.Obs
module Pulse_cache = Pqc_core.Pulse_cache
module Engine = Pqc_core.Engine
module Strategy = Pqc_core.Strategy
module Compiler = Pqc_core.Compiler
module Resilience = Pqc_core.Resilience
module Fault = Pqc_core.Fault
module Cache_audit = Pqc_analysis.Cache_audit
module Diagnostic = Pqc_analysis.Diagnostic
module Molecule = Pqc_vqe.Molecule
module Uccsd = Pqc_vqe.Uccsd
module Graph = Pqc_qaoa.Graph
module Qaoa = Pqc_qaoa.Qaoa

(* Cheap-but-real numeric settings: every equivalence test below runs
   GRAPE twice (sequentially and across forked workers), so the budget
   is kept small. *)
let quick = { Grape.fast_settings with Grape.dt = 1.0; max_iters = 40;
              target_fidelity = 0.95 }

(* Scoped environment override (restored even on failure). *)
let with_env key value f =
  let old = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv key (Option.value old ~default:""))
    f

(* Run [f] with the fault plan [spec] active, cleared even on failure. *)
let with_plan spec f =
  (match Fault.parse spec with
   | Ok p -> Fault.set (Some p)
   | Error e -> Alcotest.failf "plan %S rejected: %s" spec e);
  Fun.protect ~finally:Fault.clear f

(* Optimizer faults at rate 0.3 per site.  H2 at width 2 is a single
   block, so the vacuity guards below hold or not by the plan seed; seed
   6 degrades some searches and injects into others. *)
let optimizer_plan = "seed=6,nan=0.3,no-converge=0.3,stall=0.3"

(* --- Pool primitives --- *)

let test_pool_input_order () =
  let items = List.init 23 (fun i -> i) in
  let out, stats =
    Pool.map ~workers:4 (fun x -> x * x) items
  in
  Alcotest.(check (list int)) "results in input order"
    (List.map (fun x -> x * x) items)
    (List.map fst out);
  Alcotest.(check int) "forked requested workers" 4 stats.Pool.workers;
  Alcotest.(check int) "nothing recovered" 0 stats.Pool.recovered

let test_pool_sequential_mode () =
  let forked = ref false in
  let parent = Unix.getpid () in
  let out, stats =
    Pool.map ~workers:1
      (fun x ->
        if Unix.getpid () <> parent then forked := true;
        x + 1)
      (List.init 5 (fun i -> i))
  in
  Alcotest.(check bool) "no fork at workers:1" false !forked;
  Alcotest.(check int) "stats say sequential" 1 stats.Pool.workers;
  Alcotest.(check (list int)) "values" [ 1; 2; 3; 4; 5 ] (List.map fst out);
  Alcotest.(check bool) "no recovery flags" true
    (List.for_all (fun (_, r) -> not r) out)

let test_pool_lost_worker_recovered () =
  let parent = Unix.getpid () in
  let out, stats =
    Pool.map ~workers:3
      (fun x ->
        (* Kill the worker that computes item 0, the item its fork fixes
           for worker 1, mid-batch; the parent must recompute everything
           that worker never delivered. *)
        if x = 0 && Unix.getpid () <> parent then Unix._exit 9;
        x * 10)
      (List.init 9 (fun i -> i))
  in
  Alcotest.(check (list int)) "all values present despite the crash"
    (List.init 9 (fun i -> i * 10))
    (List.map fst out);
  Alcotest.(check bool) "at least item 0 recovered" true
    (stats.Pool.recovered >= 1);
  Alcotest.(check bool) "item 0 flagged" true (snd (List.nth out 0))

let test_pool_corrupt_payload_recovered () =
  (* Odd items write the first half of their result frame as a whole
     line: the digest rejects it, and those items must be recomputed in
     the parent and flagged, exactly like a lost worker's. *)
  Pool.set_fault_hook (fun i ->
      if i mod 2 = 1 then Some Pool.Partial_write else None);
  let out, stats =
    Fun.protect ~finally:Pool.clear_fault_hook (fun () ->
        Pool.map ~workers:2 (fun x -> x) (List.init 8 (fun i -> i)))
  in
  Alcotest.(check (list int)) "odd values recovered correctly"
    (List.init 8 (fun i -> i))
    (List.map fst out);
  Alcotest.(check int) "every odd item recovered" 4 stats.Pool.recovered;
  List.iteri
    (fun i (_, r) ->
      Alcotest.(check bool) (Printf.sprintf "flag %d" i) (i mod 2 = 1) r)
    out

(* The pool's frame carries any value bit for bit: strings holding the
   bytes a line or field codec trips on, and floats a decimal or hex
   round trip can lose (NaN payload bits, the sign of zero, the smallest
   subnormal, infinities).  The 1 MiB string's frame spans many pipe
   reads.  Every hostile value sits in item 0, which the fork fixes for
   worker 1, so it crosses the pipe whichever lane claims item 1. *)
let test_pool_hostile_values_roundtrip () =
  let strings =
    [ "line\nbreak"; "tab\there"; "nul\000byte"; "\x1c\x1d\x1e\x1f";
      "back\\slash\\"; String.init 256 Char.chr; "" ]
  in
  let floats =
    [ Int64.float_of_bits 0x7ff8_0000_dead_beefL; -0.0; 4.9e-324; infinity;
      neg_infinity ]
  in
  let hostile =
    (String.init (1 lsl 20) (fun i -> Char.chr (i land 255)), 0.5)
    :: List.concat_map (fun s -> List.map (fun f -> (s, f)) floats) strings
  in
  let parent = Unix.getpid () in
  let out, stats =
    Pool.map ~workers:2 (fun v -> (Unix.getpid (), v)) [ hostile; [] ]
  in
  Alcotest.(check int) "forked" 2 stats.Pool.workers;
  Alcotest.(check int) "nothing recovered" 0 stats.Pool.recovered;
  match out with
  | ((pid, back), recovered) :: _ ->
    Alcotest.(check bool) "computed in a worker" true (pid <> parent);
    Alcotest.(check bool) "not recomputed" false recovered;
    List.iter2
      (fun (s, f) (s', f') ->
        Alcotest.(check string) "string bytes" s s';
        Alcotest.(check int64) "float bits" (Int64.bits_of_float f)
          (Int64.bits_of_float f'))
      hostile back
  | [] -> Alcotest.fail "no results"

(* A closure cannot be marshalled: a worker ships no frame for it, so the
   parent recomputes and flags the item, and the map returns.  Each
   closure records the pid that made it, so none made in a worker may
   arrive; item 0, which the fork fixes for worker 1, is always one of
   the recomputed items. *)
let test_pool_unmarshallable_result_recovered () =
  let parent = Unix.getpid () in
  let out, stats =
    Pool.map ~workers:2
      (fun x ->
        let pid = Unix.getpid () in
        fun () -> (x * 3, pid))
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int)) "values" [ 3; 6; 9; 12 ]
    (List.map (fun (g, _) -> fst (g ())) out);
  Alcotest.(check bool) "every closure made in the parent" true
    (List.for_all (fun (g, _) -> snd (g ()) = parent) out);
  Alcotest.(check bool) "item 0 recomputed" true (snd (List.hd out));
  Alcotest.(check int) "every flagged item counted"
    (List.length (List.filter snd out))
    stats.Pool.recovered

(* Regression: a forked worker numbered its spans from the parent's
   counter plus a fixed per-worker offset, so worker [w] of a later map
   reused the ids worker [w] had handed out in an earlier one. *)
let test_traced_maps_unique_span_ids () =
  Obs.reset ();
  Obs.enable ();
  let spans =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        for _ = 1 to 2 do
          ignore
            (Pool.map ~workers:3
               (fun x -> Obs.Span.with_ ~name:"test.item" (fun () -> x + 1))
               (List.init 6 Fun.id))
        done;
        List.filter_map
          (function
            | Obs.Span s -> Some (s.id, s.parent, s.name) | _ -> None)
          (Obs.events ()))
  in
  let ids = List.map (fun (id, _, _) -> id) spans in
  Alcotest.(check int) "no duplicate span id" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  let maps =
    List.filter_map
      (fun (id, _, name) -> if name = "pool.map" then Some id else None)
      spans
  in
  Alcotest.(check int) "two forked maps" 2 (List.length maps);
  let workers = List.filter (fun (_, _, name) -> name = "pool.worker") spans in
  Alcotest.(check bool) "every worker span's parent is a pool map" true
    (List.for_all (fun (_, p, _) -> List.mem p maps) workers);
  List.iter
    (fun m ->
      Alcotest.(check int) "three worker spans under each map" 3
        (List.length (List.filter (fun (_, p, _) -> p = m) workers)))
    maps

(* The smallest batch that forks, under an item deadline: supervised
   dispatch forks one child per lane and the parent computes nothing. *)
let test_pool_two_items_fork () =
  let parent = Unix.getpid () in
  let out, stats =
    Pool.map ~workers:2 ~item_deadline_s:60.0 (fun _ -> Unix.getpid ())
      [ 1; 2 ]
  in
  let pids = List.map fst out in
  Alcotest.(check int) "two workers" 2 stats.Pool.workers;
  Alcotest.(check bool) "computed in children" true
    (List.for_all (fun pid -> pid <> parent) pids);
  Alcotest.(check int) "one item per child" 2
    (List.length (List.sort_uniq compare pids))

(* Supervised dispatch computes every item in a forked worker: a map
   with an item deadline, and one with a fault hook installed (here one
   that injects nothing). *)
let test_pool_supervised_forks_every_item () =
  let parent = Unix.getpid () in
  let pids map =
    let out, stats = map (fun _ -> Unix.getpid ()) (List.init 6 Fun.id) in
    Alcotest.(check int) "lanes" 2 stats.Pool.workers;
    Alcotest.(check int) "nothing recovered" 0 stats.Pool.recovered;
    List.map fst out
  in
  let forked name ps =
    Alcotest.(check bool) (name ^ ": every item in a child") true
      (List.for_all (fun pid -> pid <> parent) ps)
  in
  forked "deadline" (pids (Pool.map ~workers:2 ~item_deadline_s:60.0));
  Pool.set_fault_hook (fun _ -> None);
  Fun.protect ~finally:Pool.clear_fault_hook (fun () ->
      forked "hook" (pids (Pool.map ~workers:2)))

(* Shared dispatch: the fork fixes item [j-1] for worker [j], so each of
   the three forked workers computes its own item, whatever the parent's
   lane claims meanwhile. *)
let test_pool_worker_own_item () =
  let parent = Unix.getpid () in
  let out, stats =
    Pool.map ~workers:4 (fun _ -> Unix.getpid ()) (List.init 8 Fun.id)
  in
  Alcotest.(check int) "four lanes" 4 stats.Pool.workers;
  let own = List.filteri (fun i _ -> i < 3) (List.map fst out) in
  Alcotest.(check bool) "items 0-2 computed in children" true
    (List.for_all (fun pid -> pid <> parent) own);
  Alcotest.(check int) "one worker each" 3
    (List.length (List.sort_uniq compare own))

(* Pull dispatch: a worker busy with a slow item holds no backlog.  The
   other worker asks for the next item as soon as it finishes one, so it
   runs every quick item; a round-robin split would hand the slow worker
   items 0, 2 and 4. *)
let test_pool_pull_balance () =
  let out, stats =
    Pool.map ~workers:2
      (fun x ->
        if x = 0 then Unix.sleepf 0.3;
        (Unix.getpid (), x))
      (List.init 5 Fun.id)
  in
  Alcotest.(check (list int)) "results in input order" [ 0; 1; 2; 3; 4 ]
    (List.map (fun ((_, x), _) -> x) out);
  Alcotest.(check int) "nothing recovered" 0 stats.Pool.recovered;
  match List.map (fun ((pid, _), _) -> pid) out with
  | slow :: quick ->
    Alcotest.(check int) "one worker ran every quick item" 1
      (List.length (List.sort_uniq compare quick));
    Alcotest.(check bool) "the slow item's worker ran no quick item" false
      (List.mem slow quick)
  | [] -> Alcotest.fail "no results"

let test_workers_from_env () =
  Unix.putenv "PQC_WORKERS" "6";
  Alcotest.(check int) "parses" 6 (Pool.workers_from_env ());
  Unix.putenv "PQC_WORKERS" "0";
  Alcotest.(check int) "rejects < 1" 1 (Pool.workers_from_env ());
  Unix.putenv "PQC_WORKERS" "plenty";
  Alcotest.(check int) "rejects garbage" 1 (Pool.workers_from_env ());
  Alcotest.(check int) "custom default" 4
    (Pool.workers_from_env ~default:4 ());
  Unix.putenv "PQC_WORKERS" ""

let test_workers_from_env_invalid_counted () =
  (* Regression: an invalid PQC_WORKERS used to be swallowed silently.
     It now warns on stderr (once per distinct value) and bumps the
     pool.env.invalid counter when tracing is on. *)
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Unix.putenv "PQC_WORKERS" "")
    (fun () ->
      with_env "PQC_WORKERS" "a-few" (fun () ->
          Alcotest.(check int) "falls back to default" 3
            (Pool.workers_from_env ~default:3 ());
          Alcotest.(check (float 0.0)) "counter bumped" 1.0
            (Obs.counter_value "pool.env.invalid"));
      with_env "PQC_WORKERS" "" (fun () ->
          ignore (Pool.workers_from_env ());
          Alcotest.(check (float 0.0)) "unset/empty is not an error" 1.0
            (Obs.counter_value "pool.env.invalid")))

let test_item_deadline_invalid_warns () =
  (* Regression: an invalid PQC_ITEM_DEADLINE_S ("2s") used to be
     dropped silently, which leaves a map under a hang fault plan with no
     deadline.  It still reads as unset, so the map runs shared dispatch
     (the parent's own lane is worker 0), but now warns on stderr (once
     per distinct value) and bumps the pool.env.invalid counter when
     tracing is on.  An empty value, as Bench_matrix.run restores it, is
     not an error. *)
  let parent_lane () =
    List.exists
      (function
        | Obs.Span { name = "pool.worker"; attrs; _ } ->
          List.assoc_opt "worker" attrs = Some "0"
        | _ -> false)
      (Obs.events ())
  in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      with_env "PQC_ITEM_DEADLINE_S" "2s" (fun () ->
          let out, _ = Pool.map ~workers:2 Fun.id [ 1; 2; 3 ] in
          Alcotest.(check (list int)) "results" [ 1; 2; 3 ] (List.map fst out);
          Alcotest.(check bool) "read as unset: shared dispatch" true
            (parent_lane ());
          Alcotest.(check (float 0.0)) "counter bumped" 1.0
            (Obs.counter_value "pool.env.invalid"));
      with_env "PQC_ITEM_DEADLINE_S" "" (fun () ->
          ignore (Pool.map ~workers:2 Fun.id [ 1; 2; 3 ]);
          Alcotest.(check (float 0.0)) "empty is not an error" 1.0
            (Obs.counter_value "pool.env.invalid"));
      with_env "PQC_ITEM_DEADLINE_S" " 1.5 " (fun () ->
          Alcotest.(check (option (float 0.0))) "valid value read" (Some 1.5)
            (Pool.seconds_from_env ~counter:"pool.env.invalid"
               "PQC_ITEM_DEADLINE_S");
          Alcotest.(check (float 0.0)) "valid is not an error" 1.0
            (Obs.counter_value "pool.env.invalid")))

(* --- Engine batch equivalence --- *)

let bits = Int64.bits_of_float

let check_same_result msg (a : Engine.block_result) (b : Engine.block_result) =
  Alcotest.(check int64) (msg ^ ": duration bits") (bits a.Engine.duration_ns)
    (bits b.Engine.duration_ns);
  Alcotest.(check (option int64)) (msg ^ ": fidelity bits")
    (Option.map bits a.Engine.fidelity)
    (Option.map bits b.Engine.fidelity);
  Alcotest.(check bool) (msg ^ ": fallback") true
    (a.Engine.fallback = b.Engine.fallback);
  Alcotest.(check int) (msg ^ ": grape runs")
    a.Engine.search_cost.Engine.grape_runs
    b.Engine.search_cost.Engine.grape_runs;
  Alcotest.(check int) (msg ^ ": grape iterations")
    a.Engine.search_cost.Engine.grape_iterations
    b.Engine.search_cost.Engine.grape_iterations

let h2_blocks () =
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let rng = Rng.create 5 in
  let theta =
    Array.init (Circuit.n_params c) (fun _ ->
        Rng.uniform rng ~lo:0.0 ~hi:(2.0 *. Float.pi))
  in
  Block.partition ~max_width:2 (Circuit.bind c theta)
  |> List.map Block.extract

let test_search_many_matches_search () =
  let blocks = h2_blocks () in
  let batch, _, _ =
    Engine.search_many ~workers:1 (Engine.numeric ~settings:quick ()) blocks
  in
  let engine = Engine.numeric ~settings:quick () in
  let single = List.map (Engine.search engine) blocks in
  List.iteri
    (fun i (a, b) -> check_same_result (Printf.sprintf "block %d" i) a b)
    (List.combine single batch)

let test_search_many_worker_count_invariant () =
  let blocks = h2_blocks () in
  let run workers =
    let rs, stats, degs =
      Engine.search_many ~workers (Engine.numeric ~settings:quick ()) blocks
    in
    Alcotest.(check (list string)) "no degradations" []
      (List.map Resilience.degradation_to_string degs);
    (rs, stats)
  in
  let seq, seq_stats = run 1 in
  let par, par_stats = run 4 in
  List.iteri
    (fun i (a, b) -> check_same_result (Printf.sprintf "block %d" i) a b)
    (List.combine seq par);
  Alcotest.(check int) "same dispatch count" seq_stats.Engine.dispatched
    par_stats.Engine.dispatched;
  Alcotest.(check int) "same cache accounting" seq_stats.Engine.cache_hits
    par_stats.Engine.cache_hits

let test_cache_hot_batch_never_forks () =
  (* Regression: a batch whose every block is already memoized used to
     pay the full fork-and-pipe cost to compute nothing.  Hits are now
     resolved in the parent and only misses dispatch. *)
  let blocks = h2_blocks () in
  let engine = Engine.numeric ~settings:quick () in
  let warm, _, _ = Engine.search_many ~workers:1 engine blocks in
  let hot, stats, degs = Engine.search_many ~workers:4 engine blocks in
  Alcotest.(check int) "nothing dispatched" 0 stats.Engine.dispatched;
  Alcotest.(check int) "no fork on a fully-hot batch" 1 stats.Engine.workers;
  Alcotest.(check int) "every block a cache hit" (List.length blocks)
    stats.Engine.cache_hits;
  Alcotest.(check int) "no degradations" 0 (List.length degs);
  List.iteri
    (fun i (a, b) -> check_same_result (Printf.sprintf "hot block %d" i) a b)
    (List.combine warm hot)

let test_search_many_faulty_invariant () =
  (* Injection must be a function of the batch, not of worker scheduling:
     the same blocks under the same fault seed give the same pattern of
     fallbacks at any worker count. *)
  let blocks = h2_blocks () in
  with_plan optimizer_plan @@ fun () ->
  let run workers =
    let engine = Engine.numeric ~settings:quick () in
    let rs, _, _ = Engine.search_many ~workers engine blocks in
    rs
  in
  let seq = run 1 and par = run 4 in
  List.iteri
    (fun i (a, b) -> check_same_result (Printf.sprintf "block %d" i) a b)
    (List.combine seq par);
  (* The fault plan fires for this seed/rate: the test would be vacuous
     if no block ever degraded. *)
  Alcotest.(check bool) "some block degraded" true
    (List.exists (fun r -> r.Engine.fallback <> None) seq)

let test_faults_keyed_on_block () =
  (* Optimizer faults hash the block and the attempt, never the batch
     position: under one plan, each block gets bit-identical results
     from a single search, from batches at 1 and 4 workers, and from the
     reversed batch. *)
  let blocks =
    List.init 8 (fun i ->
        Circuit.of_gates 1
          [ (Gate.Rx (Param.const (0.15 +. (0.4 *. float_of_int i))), [ 0 ]) ])
  in
  with_plan optimizer_plan @@ fun () ->
  let single =
    let engine = Engine.numeric ~settings:quick () in
    List.map (Engine.search engine) blocks
  in
  let batch ~workers blocks =
    let rs, _, _ =
      Engine.search_many ~workers (Engine.numeric ~settings:quick ()) blocks
    in
    rs
  in
  List.iter
    (fun (name, rs) ->
      List.iteri
        (fun i (a, b) ->
          check_same_result (Printf.sprintf "%s block %d" name i) a b)
        (List.combine single rs))
    [ ("workers:1", batch ~workers:1 blocks);
      ("workers:4", batch ~workers:4 blocks);
      ("reversed", List.rev (batch ~workers:4 (List.rev blocks))) ];
  Alcotest.(check bool) "some block degraded" true
    (List.exists (fun r -> r.Engine.fallback <> None) single);
  Alcotest.(check bool) "some block did not" true
    (List.exists (fun r -> r.Engine.fallback = None) single)

let test_search_many_fault_plan_invariant () =
  (* The supervision contract under chaos: infrastructure faults (worker
     crashes, torn pipe frames) may cost retries and recoveries but must
     never change a value.  With a nonempty seeded plan installed,
     workers:1 (no forks, so no worker faults) and workers:4 (faulted)
     agree bit-for-bit.  Eight distinct blocks, not the single-block H2
     batch, so the plan demonstrably fires (the recovered guard below). *)
  let blocks =
    List.init 8 (fun i ->
        Circuit.of_gates 1
          [ (Gate.Rx (Param.const (0.15 +. (0.4 *. float_of_int i))), [ 0 ]) ])
  in
  let plan =
    match Fault.parse "seed=3,crash-mid=0.45" with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan rejected: %s" e
  in
  Fault.set (Some plan);
  Fun.protect ~finally:Fault.clear (fun () ->
      let run workers =
        Engine.search_many ~workers (Engine.numeric ~settings:quick ())
          blocks
      in
      let seq, _, _ = run 1 in
      let par, par_stats, _ = run 4 in
      Alcotest.(check bool) "plan fired (items were recovered)" true
        (par_stats.Engine.recovered > 0);
      List.iteri
        (fun i (a, b) -> check_same_result (Printf.sprintf "block %d" i) a b)
        (List.combine seq par))

(* Bench-matrix run ids are "<manifest name>/<cell id>", and a manifest
   name is free text.  Regression: a forked worker's result came back
   through a record reader that stopped the run id at its first space, so
   under this context the forked ids read "my" while the sequential ones
   kept "my bench/cell 1#<idx>". *)
let test_search_many_run_ids_survive_fork () =
  let blocks =
    List.init 4 (fun i ->
        Circuit.of_gates 1
          [ (Gate.Rx (Param.const (0.3 +. (0.5 *. float_of_int i))), [ 0 ]) ])
  in
  let run workers =
    Obs.Ctx.with_ctx (Some "my bench/cell 1") (fun () ->
        let rs, stats, _ =
          Engine.search_many ~workers (Engine.numeric ~settings:quick ())
            blocks
        in
        Alcotest.(check int) "worker count used" workers stats.Engine.workers;
        List.map (fun r -> r.Engine.run_id) rs)
  in
  let expected =
    List.init 4 (fun i -> Some (Printf.sprintf "my bench/cell 1#%d" i))
  in
  Alcotest.(check (list (option string))) "sequential run ids" expected
    (run 1);
  Alcotest.(check (list (option string))) "forked run ids" expected (run 2)

let test_faulty_results_never_cached () =
  let blocks = h2_blocks () in
  let engine = Engine.numeric ~settings:quick () in
  let rs, _, _ =
    with_plan "seed=3,nan=1" (fun () ->
        Engine.search_many ~workers:4 engine blocks)
  in
  Alcotest.(check bool) "all results injected fallbacks" true
    (List.for_all (fun r -> r.Engine.fallback <> None) rs);
  Alcotest.(check int) "nothing cached" 0 (Engine.cache_size engine)

let test_flex_many_worker_count_invariant () =
  let blocks = h2_blocks () in
  let run workers =
    with_plan "seed=17,nan=0.1,no-converge=0.1,stall=0.1" (fun () ->
        let rs, _, _ =
          Engine.flex_many ~workers Engine.model ~theta:[||] blocks
        in
        rs)
  in
  let seq = run 1 and par = run 4 in
  List.iteri
    (fun i ((a : Engine.flex_result), (b : Engine.flex_result)) ->
      check_same_result (Printf.sprintf "block %d" i) a.Engine.search
        b.Engine.search;
      Alcotest.(check int) "hyperopt runs" a.Engine.hyperopt.Engine.grape_runs
        b.Engine.hyperopt.Engine.grape_runs;
      Alcotest.(check int) "tuned iters"
        a.Engine.tuned.Engine.grape_iterations
        b.Engine.tuned.Engine.grape_iterations)
    (List.combine seq par)

(* Property: for seeded random blocks, the batch result is invariant in
   the worker count, fault injection included (model engine keeps the
   property cheap enough to sample widely). *)
let random_block rng n len =
  let b = Circuit.Builder.create n in
  for _ = 1 to len do
    let q = Rng.int rng n in
    match Rng.int rng 5 with
    | 0 -> Circuit.Builder.add b Gate.H [ q ]
    | 1 ->
      Circuit.Builder.add b
        (Gate.Rx (Param.const (Rng.uniform rng ~lo:(-3.0) ~hi:3.0)))
        [ q ]
    | 2 ->
      Circuit.Builder.add b
        (Gate.Rz (Param.const (Rng.uniform rng ~lo:(-3.0) ~hi:3.0)))
        [ q ]
    | _ when n >= 2 ->
      let q2 = (q + 1 + Rng.int rng (n - 1)) mod n in
      Circuit.Builder.add b Gate.CX [ q; q2 ]
    | _ -> Circuit.Builder.add b Gate.X [ q ]
  done;
  Circuit.Builder.to_circuit b

let same_result (a : Engine.block_result) (b : Engine.block_result) =
  bits a.Engine.duration_ns = bits b.Engine.duration_ns
  && Option.map bits a.Engine.fidelity = Option.map bits b.Engine.fidelity
  && a.Engine.fallback = b.Engine.fallback
  && a.Engine.search_cost.Engine.grape_runs
     = b.Engine.search_cost.Engine.grape_runs
  && a.Engine.search_cost.Engine.grape_iterations
     = b.Engine.search_cost.Engine.grape_iterations

let prop_worker_count_invariant =
  QCheck.Test.make ~count:25 ~name:"search_many invariant in worker count"
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, extra_workers) ->
      let rng = Rng.create (seed + 1) in
      let blocks =
        List.init
          (1 + Rng.int rng 7)
          (fun _ -> random_block rng (1 + Rng.int rng 2) (1 + Rng.int rng 6))
      in
      let run workers =
        with_plan
          (Printf.sprintf "seed=%d,nan=0.2,no-converge=0.2,stall=0.2" seed)
          (fun () ->
            let rs, _, _ = Engine.search_many ~workers Engine.model blocks in
            rs)
      in
      List.for_all2 same_result (run 1) (run (2 + extra_workers)))

(* --- Strategy-level equivalence (UCCSD and QAOA) --- *)

let filter_pool_degs degs =
  List.filter
    (fun (d : Resilience.degradation) ->
      d.Resilience.reason <> Resilience.Worker_lost)
    degs

let check_same_compiled name (a : Strategy.compiled) (b : Strategy.compiled) =
  Alcotest.(check int64) (name ^ ": duration bits") (bits a.Strategy.duration_ns)
    (bits b.Strategy.duration_ns);
  Alcotest.(check bool) (name ^ ": identical pulse schedule") true
    (a.Strategy.pulse = b.Strategy.pulse);
  Alcotest.(check int) (name ^ ": precompute runs")
    a.Strategy.precompute.Engine.grape_runs
    b.Strategy.precompute.Engine.grape_runs;
  Alcotest.(check int) (name ^ ": per-iteration iters")
    a.Strategy.per_iteration.Engine.grape_iterations
    b.Strategy.per_iteration.Engine.grape_iterations;
  Alcotest.(check (list string)) (name ^ ": same degradations")
    (List.map Resilience.degradation_to_string
       (filter_pool_degs a.Strategy.degradations))
    (List.map Resilience.degradation_to_string
       (filter_pool_degs b.Strategy.degradations))

let theta_of c =
  let rng = Rng.create 5 in
  Array.init (Circuit.n_params c) (fun _ ->
      Rng.uniform rng ~lo:0.0 ~hi:(2.0 *. Float.pi))

let test_strict_partial_worker_invariant () =
  List.iter
    (fun (name, circuit) ->
      let c = Compiler.prepare circuit in
      let theta = theta_of c in
      let compile workers =
        Compiler.strict_partial ~workers ~max_width:2
          ~engine:(Engine.numeric ~settings:quick ())
          c ~theta
      in
      check_same_compiled name (compile 1) (compile 4))
    [ ("uccsd-h2", Uccsd.ansatz Molecule.h2);
      ("qaoa-k4", Qaoa.circuit (Graph.clique 4) ~p:1) ]

let test_flexible_partial_worker_invariant () =
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let theta = theta_of c in
  let compile workers =
    Compiler.flexible_partial ~workers ~max_width:2
      ~engine:(Engine.numeric ~settings:quick ())
      c ~theta
  in
  check_same_compiled "uccsd-h2 flexible" (compile 1) (compile 4)

(* --- Per-slice hyperparameter memo --- *)

let h2_flex_thetas c =
  let rng = Rng.create 11 in
  List.init 3 (fun _ ->
      Array.init (Circuit.n_params c) (fun _ ->
          Rng.uniform rng ~lo:0.0 ~hi:(2.0 *. Float.pi)))

let flex_compile ~workers engine c theta =
  Compiler.flexible_partial ~workers ~max_width:2 ~engine c ~theta

let test_hyperopt_memo_second_compile_runs_no_grid () =
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let theta1, theta2 =
    match h2_flex_thetas c with a :: b :: _ -> (a, b) | _ -> assert false
  in
  List.iter
    (fun workers ->
      let engine = Engine.numeric ~settings:quick () in
      let counted theta =
        let hits = Obs.counter_value "engine.hyperopt.hit" in
        let misses = Obs.counter_value "engine.hyperopt.miss" in
        let r = flex_compile ~workers engine c theta in
        ( r,
          Obs.counter_value "engine.hyperopt.hit" -. hits,
          Obs.counter_value "engine.hyperopt.miss" -. misses )
      in
      Obs.reset ();
      Obs.enable ();
      let (_, hits1, misses1), (second, hits2, misses2) =
        Fun.protect
          ~finally:(fun () ->
            Obs.disable ();
            Obs.reset ())
          (fun () ->
            let first = counted theta1 in
            (first, counted theta2))
      in
      let name = Printf.sprintf "workers:%d" workers in
      Alcotest.(check bool) (name ^ ": first compile tunes every block") true
        (misses1 > 0.0 && hits1 = 0.0);
      Alcotest.(check (float 0.0)) (name ^ ": second compile runs no grid") 0.0
        misses2;
      Alcotest.(check (float 0.0)) (name ^ ": every block a memo hit") misses1
        hits2;
      Alcotest.(check int) (name ^ ": one memo entry per slice block")
        (int_of_float misses1) (Engine.hyperopt_memo_size engine);
      let fresh =
        flex_compile ~workers (Engine.numeric ~settings:quick ()) c theta2
      in
      Alcotest.(check int64) (name ^ ": duration bits as on a fresh engine")
        (bits fresh.Strategy.duration_ns) (bits second.Strategy.duration_ns);
      Alcotest.(check bool) (name ^ ": pulse as on a fresh engine") true
        (fresh.Strategy.pulse = second.Strategy.pulse))
    [ 1; 4 ]

(* Three compiles in a row on one engine, so later compiles read what
   earlier merges wrote; [(results, memo size)]. *)
let flex_sequence ~workers engine c thetas =
  let rs = List.map (flex_compile ~workers engine c) thetas in
  (rs, Engine.hyperopt_memo_size engine)

let check_same_sequence name (seq, seq_memo) (par, par_memo) =
  List.iteri
    (fun i ((a : Strategy.compiled), (b : Strategy.compiled)) ->
      let name = Printf.sprintf "%s compile %d" name i in
      check_same_compiled name a b;
      Alcotest.(check int) (name ^ ": precompute iters")
        a.Strategy.precompute.Engine.grape_iterations
        b.Strategy.precompute.Engine.grape_iterations)
    (List.combine seq par);
  Alcotest.(check int) (name ^ ": memo size") seq_memo par_memo

let test_hyperopt_memo_worker_invariant () =
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let thetas = h2_flex_thetas c in
  let run workers =
    flex_sequence ~workers (Engine.numeric ~settings:quick ()) c thetas
  in
  check_same_sequence "healthy" (run 1) (run 4)

let test_hyperopt_memo_faulty_invariant () =
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let thetas = h2_flex_thetas c in
  let run workers =
    with_plan optimizer_plan (fun () ->
        flex_sequence ~workers (Engine.numeric ~settings:quick ()) c thetas)
  in
  let ((seq, memo) as sequential) = run 1 in
  check_same_sequence "faulty" sequential (run 4);
  (* Vacuity guard: the plan fires, so some block's search fell back. *)
  Alcotest.(check bool) "some block degraded" true
    (List.exists
       (fun (r : Strategy.compiled) -> r.Strategy.degradations <> [])
       seq);
  let blocks = (List.hd seq).Strategy.pool.Engine.dispatched in
  Alcotest.(check bool) "injected blocks left no memo entry" true
    (memo < blocks);
  let all = Engine.numeric ~settings:quick () in
  with_plan "seed=1,nan=1" (fun () ->
      ignore (flex_compile ~workers:4 all c (List.hd thetas)));
  Alcotest.(check int) "every search injected: memo stays empty" 0
    (Engine.hyperopt_memo_size all)

(* The dispatch rule: a batch forks only when at least two of its items
   miss the pulse memo.  A variational step that moves one angle changes
   one slice block, so its recompile stays in-process. *)
let test_dispatch_rule () =
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let theta = theta_of c in
  let moved = Array.copy theta in
  moved.(0) <- moved.(0) +. 0.25;
  let compile_both workers =
    let engine = Engine.numeric ~settings:quick () in
    let first = flex_compile ~workers engine c theta in
    (first, flex_compile ~workers engine c moved)
  in
  let seq_first, seq_second = compile_both 1 in
  let first, second = compile_both 2 in
  Alcotest.(check int) "a cold compile forks" 2
    first.Strategy.pool.Engine.workers;
  Alcotest.(check int) "one moved angle recompiles in-process" 1
    second.Strategy.pool.Engine.workers;
  check_same_compiled "cold compile" seq_first first;
  check_same_compiled "one-angle recompile" seq_second second;
  let blocks =
    List.init 3 (fun i ->
        Circuit.of_gates 1
          [ (Gate.Rx (Param.const (0.3 +. (0.5 *. float_of_int i))), [ 0 ]) ])
  in
  let _, stats, _ =
    Engine.search_many ~workers:2 (Engine.numeric ~settings:quick ()) blocks
  in
  Alcotest.(check int) "a three-block search forks" 2 stats.Engine.workers

let test_pool_stats_reported () =
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let theta = theta_of c in
  let r =
    Compiler.strict_partial ~workers:2 ~max_width:2
      ~engine:(Engine.numeric ~settings:quick ())
      c ~theta
  in
  Alcotest.(check int) "workers recorded" 2 r.Strategy.pool.Engine.workers;
  Alcotest.(check bool) "blocks dispatched" true
    (r.Strategy.pool.Engine.dispatched > 0);
  Alcotest.(check bool) "gate-based reports zero pool" true
    ((Compiler.gate_based c ~theta).Strategy.pool = Engine.zero_pool_stats)

let test_tracing_preserves_determinism () =
  (* The determinism contract must survive observation: a traced
     4-worker compile produces the same pulse, bit for bit, as an
     untraced sequential one.  The traced run genuinely forks (asserted
     via the pool.worker span). *)
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let theta = theta_of c in
  let compile workers =
    Compiler.strict_partial ~workers ~max_width:2
      ~engine:(Engine.numeric ~settings:quick ())
      c ~theta
  in
  let untraced = compile 1 in
  Obs.reset ();
  Obs.enable ();
  let traced, rollup =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        let r = compile 4 in
        (r, Obs.rollup ()))
  in
  let span_count name =
    List.fold_left
      (fun acc (n, count, _) -> if n = name then acc + count else acc)
      0 rollup
  in
  Alcotest.(check bool) "traced run forked (pool.worker spans)" true
    (span_count "pool.worker" > 0);
  Alcotest.(check bool) "grape spans recorded" true
    (span_count "grape.optimize" > 0);
  check_same_compiled "traced parallel vs untraced sequential" untraced
    traced

let test_metrics_merge_matches_sequential () =
  (* Counters and spans recorded inside forked workers ship home in each
     worker's Trace frame and fold into the parent's trace; the totals
     and span counts must match a sequential run's.  Increments are
     dyadic (x * 0.125), so even the float total is exact regardless of
     the order the workers' frames arrive in. *)
  let items = List.init 41 (fun i -> i + 1) in
  let work x =
    Obs.Span.with_ ~name:"pool.test.work" (fun () ->
        Obs.count ~by:(float_of_int x *. 0.125) "pool.test.total";
        x)
  in
  let run workers =
    Obs.reset ();
    Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        let out, stats = Pool.map ~workers work items in
        Alcotest.(check (list int)) "results intact" items (List.map fst out);
        Alcotest.(check int) "lanes" workers stats.Pool.workers;
        let spans name =
          List.fold_left
            (fun acc (n, count, _) -> if n = name then acc + count else acc)
            0 (Obs.rollup ())
        in
        ( Obs.counter_value "pool.test.total",
          spans "pool.test.work",
          spans "pool.item" ))
  in
  let seq_total, seq_work, seq_items = run 1 in
  let par_total, par_work, par_items = run 4 in
  Alcotest.(check (float 0.0)) "counter total matches sequential" seq_total
    par_total;
  Alcotest.(check int) "work spans match sequential" seq_work par_work;
  Alcotest.(check int) "item spans match sequential" seq_items par_items;
  Alcotest.(check int) "one work span per item" (List.length items) par_work

let test_metrics_hostile_name_crosses_fork () =
  (* A counter or span name may hold any byte, the separator bytes a text
     codec would split on and a newline included.  Both are recorded in
     item 0, which the fork fixes for worker 1, so they cross the pipe
     in that worker's Trace frame whichever lane claims item 1. *)
  let name = "lat\x1c\x1d\x1e\x1f\nency" in
  let parent = Unix.getpid () in
  let work x =
    if x = 0 then
      Obs.Span.with_ ~name (fun () -> Obs.count ~by:2.5 name);
    Unix.getpid ()
  in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let out, stats = Pool.map ~workers:2 work [ 0; 1 ] in
      Alcotest.(check int) "genuinely forked" 2 stats.Pool.workers;
      (match out with
      | (pid, recovered) :: _ ->
        Alcotest.(check bool) "item 0 ran in a worker" true (pid <> parent);
        Alcotest.(check bool) "item 0 not recomputed" false recovered
      | [] -> Alcotest.fail "no results");
      Alcotest.(check (float 0.0)) "counter arrives intact" 2.5
        (Obs.counter_value name);
      Alcotest.(check (list int)) "span arrives intact, from worker 1" [ 1 ]
        (List.filter_map
           (function
             | Obs.Span s when s.name = name -> Some s.tid
             | _ -> None)
           (Obs.events ())))

(* --- Pulse cache: merge + concurrent persistence --- *)

let mk_entry ?(duration = 1.0) key =
  { Pulse_cache.key; duration_ns = duration; grape_runs = 1;
    grape_iterations = 10; seconds = 0.1; fidelity = Some 0.99;
    fallback = None; run_id = None }

let with_temp_cache f =
  let path = Filename.temp_file "pqc_parallel" ".cache" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".lock"; path ^ ".tmp"; path ^ ".journal" ])
    (fun () -> f path)

let test_merge_newest_wins () =
  with_temp_cache (fun path ->
      Pulse_cache.save ~path [ mk_entry "a"; mk_entry "b"; mk_entry "c" ];
      Pulse_cache.merge ~path
        [ mk_entry ~duration:7.0 "b"; mk_entry "d"; mk_entry ~duration:9.0 "d" ];
      let { Pulse_cache.entries; dropped; salvaged = _ } =
        Pulse_cache.load ~path
      in
      Alcotest.(check int) "no drops" 0 dropped;
      Alcotest.(check (list string)) "keys once each, order stable"
        [ "a"; "b"; "c"; "d" ]
        (List.map (fun (e : Pulse_cache.entry) -> e.Pulse_cache.key) entries);
      let find k =
        List.find (fun (e : Pulse_cache.entry) -> e.Pulse_cache.key = k)
          entries
      in
      Alcotest.(check (float 0.0)) "collision replaced by newest" 7.0
        (find "b").Pulse_cache.duration_ns;
      Alcotest.(check (float 0.0)) "duplicate new key keeps latest" 9.0
        (find "d").Pulse_cache.duration_ns)

let test_merge_concurrent_pools () =
  with_temp_cache (fun path ->
      (* Two processes hammer the same cache path with interleaved merges;
         the lock must serialize them so every record survives intact. *)
      let rounds = 12 in
      let child side =
        match Unix.fork () with
        | 0 ->
          for i = 0 to rounds - 1 do
            Pulse_cache.merge ~path
              [ mk_entry (Printf.sprintf "%s-%d" side i);
                mk_entry ~duration:2.0 (Printf.sprintf "%s-shared" side) ]
          done;
          Unix._exit 0
        | pid -> pid
      in
      let pa = child "a" in
      let pb = child "b" in
      ignore (Unix.waitpid [] pa);
      ignore (Unix.waitpid [] pb);
      let { Pulse_cache.entries; dropped; salvaged = _ } =
        Pulse_cache.load ~path
      in
      Alcotest.(check int) "no corrupt records" 0 dropped;
      Alcotest.(check int) "every record from both pools survives"
        ((rounds + 1) * 2)
        (List.length entries);
      Alcotest.(check (list string)) "audit finds nothing (PQC050)" []
        (List.map Diagnostic.to_string (Cache_audit.audit ~path)))

(* The run id is the record's last field and may hold spaces.  The
   reader used to stop it at the first one, so "my bench/cell 1#0" came
   back from disk as "my".  A 7-field record from before the field
   existed still reads with no run id. *)
let test_run_id_with_spaces_survives_disk () =
  let e = { (mk_entry "k") with Pulse_cache.run_id = Some "my bench/cell 1#0" } in
  Alcotest.(check (option (option string))) "decode (encode e)"
    (Some e.Pulse_cache.run_id)
    (Option.map
       (fun (d : Pulse_cache.entry) -> d.Pulse_cache.run_id)
       (Pulse_cache.decode_entry (Pulse_cache.encode_entry e)));
  let vintage =
    Printf.sprintf "%S\t%h\t%d\t%d\t%h\t-\t-" "k" 1.0 1 10 0.1
  in
  Alcotest.(check (option (option string))) "7-field record" (Some None)
    (Option.map
       (fun (d : Pulse_cache.entry) -> d.Pulse_cache.run_id)
       (Pulse_cache.decode_entry (Pulse_cache.checksum vintage ^ "\t" ^ vintage)));
  with_temp_cache (fun path ->
      let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
      let engine = Engine.numeric ~settings:quick ~cache_file:path () in
      let rs, _, _ =
        Obs.Ctx.with_ctx (Some "my bench/cell 1") (fun () ->
            Engine.search_many ~workers:1 engine [ c ])
      in
      Alcotest.(check (option string)) "computed under the context"
        (Some "my bench/cell 1#0") (List.hd rs).Engine.run_id;
      Engine.persist engine;
      let reloaded = Engine.numeric ~settings:quick ~cache_file:path () in
      Alcotest.(check (option string)) "reloaded from disk"
        (Some "my bench/cell 1#0")
        (Engine.search reloaded c).Engine.run_id)

let test_persist_merges_across_engines () =
  with_temp_cache (fun path ->
      let c1 = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
      let c2 = Circuit.of_gates 1 [ (Gate.X, [ 0 ]) ] in
      let e1 = Engine.numeric ~settings:quick ~cache_file:path () in
      ignore (Engine.search e1 c1);
      Engine.persist e1;
      (* A record the first engine never saw, merged directly (as a
         second pool's persist would): both must survive on disk. *)
      Pulse_cache.merge ~path
        [ { Pulse_cache.key = Engine.block_key c2; duration_ns = 3.0;
            grape_runs = 1; grape_iterations = 5; seconds = 0.0;
            fidelity = None; fallback = None; run_id = None } ];
      Engine.persist e1;
      let e3 = Engine.numeric ~settings:quick ~cache_file:path () in
      Alcotest.(check int) "both blocks on disk after re-persist" 2
        (Engine.cache_size e3))

let () =
  QCheck.Test.check_exn prop_worker_count_invariant;
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "input order" `Quick test_pool_input_order;
          Alcotest.test_case "sequential mode" `Quick test_pool_sequential_mode;
          Alcotest.test_case "lost worker" `Quick
            test_pool_lost_worker_recovered;
          Alcotest.test_case "corrupt payload" `Quick
            test_pool_corrupt_payload_recovered;
          Alcotest.test_case "hostile values round-trip bit for bit" `Quick
            test_pool_hostile_values_roundtrip;
          Alcotest.test_case "unmarshallable result recomputed" `Quick
            test_pool_unmarshallable_result_recovered;
          Alcotest.test_case "two-item batch uses two children" `Quick
            test_pool_two_items_fork;
          Alcotest.test_case "supervised maps fork every item" `Quick
            test_pool_supervised_forks_every_item;
          Alcotest.test_case "each worker computes its own item" `Quick
            test_pool_worker_own_item;
          Alcotest.test_case "pull dispatch balances a slow item" `Quick
            test_pool_pull_balance;
          Alcotest.test_case "traced maps keep span ids unique" `Quick
            test_traced_maps_unique_span_ids;
          Alcotest.test_case "PQC_WORKERS parsing" `Quick
            test_workers_from_env;
          Alcotest.test_case "PQC_WORKERS invalid warns" `Quick
            test_workers_from_env_invalid_counted;
          Alcotest.test_case "PQC_ITEM_DEADLINE_S invalid warns" `Quick
            test_item_deadline_invalid_warns ] );
      ( "engine-batch",
        [ Alcotest.test_case "matches single search" `Quick
            test_search_many_matches_search;
          Alcotest.test_case "worker-count invariant" `Quick
            test_search_many_worker_count_invariant;
          Alcotest.test_case "cache-hot batch stays in-process" `Quick
            test_cache_hot_batch_never_forks;
          Alcotest.test_case "faulty invariant" `Quick
            test_search_many_faulty_invariant;
          Alcotest.test_case "fault-plan invariant" `Quick
            test_search_many_fault_plan_invariant;
          Alcotest.test_case "faults keyed on block, not position" `Quick
            test_faults_keyed_on_block;
          Alcotest.test_case "injected never cached" `Quick
            test_faulty_results_never_cached;
          Alcotest.test_case "run ids with spaces survive the fork" `Quick
            test_search_many_run_ids_survive_fork;
          Alcotest.test_case "flex invariant" `Quick
            test_flex_many_worker_count_invariant;
          Alcotest.test_case "forks only on two misses" `Quick
            test_dispatch_rule ] );
      ( "strategies",
        [ Alcotest.test_case "strict invariant" `Quick
            test_strict_partial_worker_invariant;
          Alcotest.test_case "flexible invariant" `Quick
            test_flexible_partial_worker_invariant;
          Alcotest.test_case "pool stats" `Quick test_pool_stats_reported;
          Alcotest.test_case "worker metrics merge equals sequential" `Quick
            test_metrics_merge_matches_sequential;
          Alcotest.test_case "hostile counter and span names cross the fork"
            `Quick test_metrics_hostile_name_crosses_fork;
          Alcotest.test_case "tracing preserves determinism" `Quick
            test_tracing_preserves_determinism ] );
      ( "hyperopt",
        [ Alcotest.test_case "second compile runs no grid" `Quick
            test_hyperopt_memo_second_compile_runs_no_grid;
          Alcotest.test_case "worker-count invariant" `Quick
            test_hyperopt_memo_worker_invariant;
          Alcotest.test_case "faulty invariant" `Quick
            test_hyperopt_memo_faulty_invariant ] );
      ( "pulse-cache",
        [ Alcotest.test_case "merge newest wins" `Quick test_merge_newest_wins;
          Alcotest.test_case "concurrent merges" `Quick
            test_merge_concurrent_pools;
          Alcotest.test_case "persist merges" `Quick
            test_persist_merges_across_engines;
          Alcotest.test_case "run id with spaces survives disk" `Quick
            test_run_id_with_spaces_survives_disk ] ) ]
