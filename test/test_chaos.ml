(* Chaos suite: seeded infrastructure faults (hung/crashing workers,
   torn pipe frames, truncated cache files, a full disk) injected via
   Pqc_core.Fault must be completely masked — batch results bit-identical
   to the fault-free sequential run, no orphan processes or leaked fds,
   and the pulse cache always reloads cleanly. *)

module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Grape = Pqc_grape.Grape
module Pool = Pqc_parallel.Pool
module Pulse_cache = Pqc_core.Pulse_cache
module Engine = Pqc_core.Engine
module Resilience = Pqc_core.Resilience
module Fault = Pqc_core.Fault
module Obs = Pqc_obs.Obs

let quick = { Grape.fast_settings with Grape.dt = 1.0; max_iters = 40;
              target_fidelity = 0.95 }

let with_env key value f =
  let old = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv key (Option.value old ~default:""))
    f

let with_plan spec f =
  (match Fault.parse spec with
   | Ok p -> Fault.set (Some p)
   | Error e -> Alcotest.failf "plan %S rejected: %s" spec e);
  Fun.protect ~finally:Fault.clear f

(* --- Leak detectors --- *)

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* After a chaos run every worker — including SIGKILLed ones — must be
   reaped: ECHILD means no children at all, 0 means a live orphan, a pid
   means a zombie. *)
let assert_no_orphans () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | 0, _ -> Alcotest.fail "live child process leaked"
  | pid, _ -> Alcotest.failf "unreaped child %d (zombie) leaked" pid

let leak_checked f =
  let fds = count_fds () in
  let r = f () in
  assert_no_orphans ();
  Alcotest.(check int) "no leaked fds" fds (count_fds ());
  r

(* --- Fault plans: parse / canonical spec / pure decisions --- *)

let test_plan_parse_round_trip () =
  (* 0.5000004 needs more than %g's six significant digits: printed as
     0.5 it decides differently at some keys. *)
  let spec =
    "seed=42,hang=0.5,crash-pre=0.25,crash-mid=0.5000004,truncate=1,\
     nan=0.1,no-converge=0.3,stall=0.7"
  in
  match Fault.parse spec with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
    let canon = Fault.to_string p in
    (match Fault.parse canon with
     | Error e -> Alcotest.failf "canonical spec rejected: %s" e
     | Ok p' ->
       Alcotest.(check string) "to_string stable" canon (Fault.to_string p');
       List.iter
         (fun site ->
           Alcotest.(check int64)
             (Printf.sprintf "same rate bits at %s" (Fault.site_to_string site))
             (Int64.bits_of_float (Fault.rate p site))
             (Int64.bits_of_float (Fault.rate p' site));
           for key = 0 to 63 do
             Alcotest.(check bool)
               (Printf.sprintf "same decision at %s/%d"
                  (Fault.site_to_string site) key)
               (Fault.decide p site ~key)
               (Fault.decide p' site ~key)
           done)
         Fault.all_sites)

let test_plan_parse_rejects () =
  let rejected spec =
    match Fault.parse spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "spec %S should have been rejected" spec
  in
  rejected "";
  rejected "seed=42";                (* nothing would ever fire *)
  rejected "hang=0";                 (* every rate zero *)
  rejected "hang=1.5";               (* rate outside [0,1] *)
  rejected "hang=-0.1";
  rejected "hang=nan";
  rejected "explode=0.5";            (* unknown site *)
  rejected "seed=many,hang=0.5";     (* bad seed *)
  rejected "hang";                   (* no '=' *)
  match Fault.parse "seed=7,hang=0.5" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid spec rejected: %s" e

let test_plan_decisions_pure () =
  let p =
    match Fault.parse "seed=3,crash-mid=0.5" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  (* Pure hash of (seed, site, key): repeated queries agree, rate-0
     sites never fire, and a 0.5 rate actually fires somewhere (and
     spares somewhere) over a small key range — a vacuity guard for
     every chaos test below. *)
  let fire k = Fault.decide p Fault.Worker_crash_mid ~key:k in
  let first = List.init 64 fire in
  let second = List.init 64 fire in
  Alcotest.(check bool) "decisions are stable" true (first = second);
  Alcotest.(check bool) "rate 0.5 fires somewhere" true
    (List.mem true first);
  Alcotest.(check bool) "rate 0.5 spares somewhere" true
    (List.mem false first);
  Alcotest.(check bool) "rate-0 site never fires" false
    (List.exists (fun k -> Fault.decide p Fault.Worker_hang ~key:k)
       (List.init 64 (fun k -> k)))

let test_malformed_env_plan_injects_nothing () =
  Fault.clear ();
  with_env "PQC_FAULT_PLAN" "utter=garbage" (fun () ->
      (* Force re-read of the env var through the public API. *)
      Fault.set None;
      ignore (Fault.current ());
      Alcotest.(check bool) "malformed plan inactive" false (Fault.active ());
      Alcotest.(check bool) "no site fires" false
        (Fault.fire Fault.Enospc ~key:0))

(* --- Cache: salvage-exactly-the-valid-prefix property --- *)

let sample_entries =
  [ { Pulse_cache.key = "2;h,0;cx,0,1"; duration_ns = 3.75; grape_runs = 5;
      grape_iterations = 120; seconds = 0.5; fidelity = Some 0.991;
      fallback = None; run_id = None };
    { Pulse_cache.key = "1;rx(3ff0000000000000),0"; duration_ns = 1.25;
      grape_runs = 2; grape_iterations = 40; seconds = 0.04;
      fidelity = None; fallback = Some "diverged"; run_id = None };
    { Pulse_cache.key = "weird\tkey\nwith\\bytes"; duration_ns = 0.5;
      grape_runs = 1; grape_iterations = 7; seconds = 0.001;
      fidelity = Some 1.0; fallback = None; run_id = None } ]

let with_temp_cache f =
  let path = Filename.temp_file "pqc_chaos" ".cache" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".lock"; path ^ ".tmp"; path ^ ".journal" ])
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_truncation_at_every_byte () =
  with_temp_cache (fun path ->
      Pulse_cache.save ~path sample_entries;
      let full = read_file path in
      let len = String.length full in
      let header_len = String.length Pulse_cache.header in
      (* Record k's payload occupies [start, stop) with its newline at
         [stop]; a cut inside the span tears the record, a cut at or past
         [stop] keeps it whole (a missing final newline is harmless). *)
      let spans =
        let start = ref (header_len + 1) in
        List.map
          (fun e ->
            let line = Pulse_cache.encode_entry e in
            let s = !start in
            let stop = s + String.length line in
            start := stop + 1;
            (s, stop))
          sample_entries
      in
      for cut = 0 to len do
        write_raw path (String.sub full 0 cut);
        let { Pulse_cache.entries; dropped; salvaged } =
          Pulse_cache.load ~path
        in
        let expect_entries, expect_dropped, expect_salvaged =
          if cut = 0 then (0, 0, 0)
          else if cut < header_len then (0, 1, 0) (* torn header: untrusted *)
          else
            ( List.length (List.filter (fun (_, stop) -> cut >= stop) spans),
              0,
              if List.exists (fun (s, stop) -> s < cut && cut < stop) spans
              then 1
              else 0 )
        in
        let ctx = Printf.sprintf "cut at byte %d" cut in
        Alcotest.(check int) (ctx ^ ": entries") expect_entries
          (List.length entries);
        Alcotest.(check int) (ctx ^ ": dropped") expect_dropped dropped;
        Alcotest.(check int) (ctx ^ ": salvaged") expect_salvaged salvaged;
        (* The survivors are exactly the valid record prefix, in order. *)
        List.iteri
          (fun i (e : Pulse_cache.entry) ->
            Alcotest.(check string) (ctx ^ ": prefix key")
              (List.nth sample_entries i).Pulse_cache.key e.Pulse_cache.key)
          entries
      done)

let test_journal_replay_after_crash () =
  with_temp_cache (fun path ->
      (* Simulate a crash after the journal append but before compaction:
         the snapshot is stale, the journal holds the fresh records. *)
      Pulse_cache.save ~path [ List.nth sample_entries 0 ];
      let jp = Pulse_cache.journal_path path in
      write_raw jp
        (String.concat ""
           (List.map
              (fun e -> Pulse_cache.encode_entry e ^ "\n")
              [ List.nth sample_entries 1; List.nth sample_entries 2 ]));
      let { Pulse_cache.entries; dropped; salvaged } =
        Pulse_cache.load ~path
      in
      Alcotest.(check int) "all three records back" 3 (List.length entries);
      Alcotest.(check int) "no drops" 0 dropped;
      Alcotest.(check int) "no salvage" 0 salvaged;
      (* Replay is idempotent: loading again changes nothing, and a merge
         compacts the journal away without losing a record. *)
      let again = Pulse_cache.load ~path in
      Alcotest.(check int) "idempotent replay" 3
        (List.length again.Pulse_cache.entries);
      Pulse_cache.merge ~path [];
      Alcotest.(check bool) "journal retired" false (Sys.file_exists jp);
      let final = Pulse_cache.load ~path in
      Alcotest.(check int) "compaction kept every record" 3
        (List.length final.Pulse_cache.entries))

let test_cache_truncate_chaos () =
  with_temp_cache (fun path ->
      Sys.remove path;
      with_plan "seed=21,truncate=1" (fun () ->
          Pulse_cache.merge ~path sample_entries);
      (* The torn journal tail costs at most the last in-flight record;
         everything else compacted, and the cache reloads cleanly. *)
      let { Pulse_cache.entries; dropped; salvaged } =
        Pulse_cache.load ~path
      in
      Alcotest.(check int) "nothing dropped" 0 dropped;
      Alcotest.(check int) "clean reload after compaction" 0 salvaged;
      Alcotest.(check bool) "at most the torn record lost" true
        (List.length entries >= List.length sample_entries - 1);
      List.iter
        (fun (e : Pulse_cache.entry) ->
          Alcotest.(check bool) "every survivor was a real record" true
            (List.exists
               (fun (s : Pulse_cache.entry) ->
                 s.Pulse_cache.key = e.Pulse_cache.key)
               sample_entries))
        entries;
      (* A later fault-free merge restores the full set. *)
      Pulse_cache.merge ~path sample_entries;
      let final = Pulse_cache.load ~path in
      Alcotest.(check int) "full set after clean merge"
        (List.length sample_entries)
        (List.length final.Pulse_cache.entries))

let test_cache_enospc_chaos () =
  with_temp_cache (fun path ->
      Sys.remove path;
      (match
         with_plan "seed=22,enospc=1" (fun () ->
             Pulse_cache.merge ~path sample_entries)
       with
      | () -> Alcotest.fail "merge should have hit ENOSPC"
      | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
      Alcotest.(check bool) "nothing half-written" false
        (Sys.file_exists (Pulse_cache.journal_path path));
      (* The lock and fd released on the exception path: a subsequent
         fault-free merge on the same path must succeed immediately. *)
      Pulse_cache.merge ~path sample_entries;
      let { Pulse_cache.entries; dropped; salvaged } =
        Pulse_cache.load ~path
      in
      Alcotest.(check int) "full set after disk recovered"
        (List.length sample_entries)
        (List.length entries);
      Alcotest.(check int) "no drops" 0 dropped;
      Alcotest.(check int) "no salvage" 0 salvaged)

let test_engine_persist_degrades () =
  with_temp_cache (fun path ->
      let c = Circuit.of_gates 1 [ (Gate.H, [ 0 ]) ] in
      let engine = Engine.numeric ~settings:quick ~cache_file:path () in
      ignore (Engine.search engine c);
      with_plan "seed=23,enospc=1" (fun () ->
          match Engine.persist_result engine with
          | Ok () -> Alcotest.fail "persist should have degraded"
          | Error d ->
            Alcotest.(check string) "io-error degradation" "io-error"
              (Resilience.failure_to_string d.Resilience.reason);
            Alcotest.(check string) "persist stage" "persist"
              d.Resilience.stage;
            (* The unit wrapper swallows the same failure silently. *)
            Engine.persist engine);
      (* Memo table untouched; a later persist lands everything. *)
      Engine.persist engine;
      let reloaded = Engine.numeric ~settings:quick ~cache_file:path () in
      Alcotest.(check int) "entry persisted once the disk recovered" 1
        (Engine.cache_size reloaded))

let test_engine_persist_unwritable_path () =
  let engine =
    Engine.numeric ~settings:quick
      ~cache_file:"/nonexistent/pqc-chaos/pulse.cache" ()
  in
  ignore (Engine.search engine (Circuit.of_gates 1 [ (Gate.X, [ 0 ]) ]));
  (match Engine.persist_result engine with
   | Ok () -> Alcotest.fail "unwritable path should degrade"
   | Error d ->
     Alcotest.(check string) "io-error degradation" "io-error"
       (Resilience.failure_to_string d.Resilience.reason));
  (* And the ignore-wrapper never lets Sys_error escape. *)
  Engine.persist engine

(* --- Pool: supervision under injected faults --- *)

let with_hook hook f =
  Pool.set_fault_hook hook;
  Fun.protect ~finally:Pool.clear_fault_hook f

let test_hung_batch_completes_within_two_deadlines () =
  leak_checked (fun () ->
      let items = [ 0; 1; 2; 3 ] in
      let deadline = 0.75 in
      with_hook (fun _ -> Some Pool.Hang) (fun () ->
          let t0 = Unix.gettimeofday () in
          let out, stats =
            Pool.map ~workers:4 ~item_deadline_s:deadline ~item_retries:1
              (fun x -> x * x) items
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check (list int)) "results correct despite the hang"
            (List.map (fun x -> x * x) items)
            (List.map fst out);
          Alcotest.(check bool)
            (Printf.sprintf "batch done in %.2fs < 2 deadlines" elapsed)
            true
            (elapsed < 2.0 *. deadline);
          Alcotest.(check int) "every worker detected hung" 4
            stats.Pool.hung;
          Alcotest.(check int) "every item quarantined at retries=1" 4
            stats.Pool.quarantined;
          Alcotest.(check int) "every item recovered in-parent" 4
            stats.Pool.recovered;
          Alcotest.(check int) "deadline kills are not abnormal exits" 0
            stats.Pool.abnormal_exits))

let test_poison_batch_quarantines_and_converges () =
  leak_checked (fun () ->
      let items = [ 0; 1; 2; 3 ] in
      with_hook (fun _ -> Some Pool.Crash_pre) (fun () ->
          let out, stats =
            Pool.map ~workers:2 ~item_retries:1 (fun x -> x + 100) items
          in
          Alcotest.(check (list int)) "results correct despite every crash"
            (List.map (fun x -> x + 100) items)
            (List.map fst out);
          Alcotest.(check int) "all items quarantined" 4
            stats.Pool.quarantined;
          Alcotest.(check int) "all items recovered in-parent" 4
            stats.Pool.recovered;
          Alcotest.(check int) "crashes counted abnormal" 4
            stats.Pool.abnormal_exits;
          Alcotest.(check int) "one respawn per original worker" 2
            stats.Pool.respawned))

let test_crash_mid_and_partial_write_recovered () =
  leak_checked (fun () ->
      let items = List.init 9 (fun i -> i) in
      (* Even items die mid-frame, odd items write half a frame as a
         whole line and carry on; either way the parent must discard the
         damage and recompute. *)
      let hook i =
        if i mod 2 = 0 then Some Pool.Crash_mid else Some Pool.Partial_write
      in
      with_hook hook (fun () ->
          let out, stats =
            Pool.map ~workers:3 ~item_retries:1 (fun x -> (x * 7) + 1) items
          in
          Alcotest.(check (list int)) "all results correct"
            (List.map (fun x -> (x * 7) + 1) items)
            (List.map fst out);
          Alcotest.(check bool) "everything recovered or quarantined" true
            (stats.Pool.recovered = List.length items)))

(* The healthy path closes every feed and result pipe and reaps every
   worker: twenty maps in a row leave the descriptor count unchanged. *)
let test_healthy_maps_leak_nothing () =
  leak_checked (fun () ->
      let items = List.init 5 Fun.id in
      for k = 1 to 20 do
        let out, stats =
          Pool.map ~workers:2 (fun x -> x + k) items
        in
        Alcotest.(check (list int)) "results" (List.map (fun x -> x + k) items)
          (List.map fst out);
        Alcotest.(check int) "forked" 2 stats.Pool.workers;
        Alcotest.(check int) "nothing recovered" 0 stats.Pool.recovered
      done)

(* --- Flight recorder: fork semantics --- *)

let temp_flight_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pqc-flight-%d-%d" (Unix.getpid ())
         (Random.int 1_000_000))
  in
  Unix.mkdir d 0o700;
  d

let read_whole path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_flight_child_ring_reset_post_fork () =
  leak_checked (fun () ->
      (* Plant a sentinel in the parent's ring; if a forked worker's ring
         still replays parent history, its dump would misattribute the
         crash, so the child must start empty.  Each item reports the pid
         that computed it: the parent's lane keeps its history, and item
         0, which the fork fixes for worker 1, runs in a child. *)
      Obs.Flight.record ~kind:"test" "parent-sentinel-entry";
      let parent = Unix.getpid () in
      let sees_parent_history _ =
        ( Unix.getpid (),
          List.exists
            (fun e -> e.Obs.Flight.f_detail = "parent-sentinel-entry")
            (Obs.Flight.entries ()) )
      in
      let out, _ =
        Pool.map ~workers:2 sees_parent_history [ 0; 1; 2; 3 ]
      in
      let results = List.map fst out in
      Alcotest.(check bool) "item 0 computed in a child" true
        (fst (List.hd results) <> parent);
      List.iteri
        (fun i (pid, seen) ->
          Alcotest.(check bool)
            (Printf.sprintf "item %d sees parent history iff in the parent" i)
            (pid = parent) seen)
        results)

let test_flight_dumps_never_interleave () =
  let dir = temp_flight_dir () in
  let spawn tag =
    match Unix.fork () with
    | 0 ->
      (* Child: fresh ring, a couple of tagged entries, one dump. *)
      Obs.Flight.reset ();
      Obs.Flight.record ~kind:"span" ~run_id:tag (tag ^ " item 0");
      Obs.Flight.record ~kind:"span" ~run_id:tag (tag ^ " item 1");
      ignore (Obs.Flight.dump ~dir ~reason:("test." ^ tag) ());
      Unix._exit 0
    | pid -> pid
  in
  let p1 = spawn "w1" in
  let p2 = spawn "w2" in
  ignore (Unix.waitpid [] p1);
  ignore (Unix.waitpid [] p2);
  Obs.Flight.record ~kind:"test" "parent entry";
  ignore (Obs.Flight.dump ~dir ~reason:"test.parent" ());
  let files = Array.to_list (Sys.readdir dir) in
  Alcotest.(check int) "one file per dumping process" 3 (List.length files);
  Alcotest.(check int) "file names are unique" 3
    (List.length (List.sort_uniq compare files));
  (* Every file is internally consistent: its header pid matches its
     name and its entries come from exactly one process's ring. *)
  List.iter
    (fun name ->
      let body = read_whole (Filename.concat dir name) in
      Alcotest.(check bool)
        (Printf.sprintf "%s has a dump header" name)
        true
        (contains body "# flight-recorder dump pid=");
      let w1 = contains body "w1 item" and w2 = contains body "w2 item" in
      Alcotest.(check bool)
        (Printf.sprintf "%s holds entries from one ring only" name)
        false (w1 && w2))
    files

let test_flight_dump_on_chaos_crash () =
  let dir = temp_flight_dir () in
  with_env "PQC_FLIGHT_DIR" dir (fun () ->
      leak_checked (fun () ->
          with_hook (fun _ -> Some Pool.Crash_pre) (fun () ->
              let out, stats =
                Pool.map ~workers:2 ~item_retries:1
                  ~item_label:(fun i -> Printf.sprintf "r042-deadbeef#%d" i)
                  (fun x -> x + 1)
                  [ 0; 1; 2; 3 ]
              in
              Alcotest.(check (list int)) "results recovered in-parent"
                [ 1; 2; 3; 4 ] (List.map fst out);
              Alcotest.(check bool) "crashes actually happened" true
                (stats.Pool.abnormal_exits > 0))));
  let files = Array.to_list (Sys.readdir dir) in
  Alcotest.(check bool) "crash left at least one dump" true (files <> []);
  let body =
    String.concat "\n"
      (List.map (fun f -> read_whole (Filename.concat dir f)) files)
  in
  Alcotest.(check bool) "dump names the kill/crash event" true
    (contains body "pool.abnormal_exit" || contains body "pool.quarantine");
  Alcotest.(check bool) "dump names the worker's last span" true
    (contains body "span pool.item");
  Alcotest.(check bool) "dump carries the item's run_id" true
    (contains body "r042-deadbeef#")

(* --- Shared dispatch: the parent as a lane --- *)

(* An item computed in the parent's lane may itself run a pool map, as a
   bench-matrix cell does under --workers 2: the nested map forks from
   inside the outer one.  Item 0 is slow and fixed for worker 1, so the
   parent's lane claims the other items. *)
let test_nested_map_in_parent_lane () =
  let parent = Unix.getpid () in
  let outer x =
    if x = 0 then Unix.sleepf 0.2;
    let inner, stats =
      Pool.map ~workers:2 (fun y -> (y * 10) + x) (List.init 5 Fun.id)
    in
    (Unix.getpid (), stats.Pool.recovered, List.map fst inner)
  in
  let items = List.init 4 Fun.id in
  let seq, _ = Pool.map ~workers:1 outer items in
  let par, stats = leak_checked (fun () -> Pool.map ~workers:2 outer items) in
  let values = List.map (fun ((_, r, v), _) -> (r, v)) in
  Alcotest.(check (list (pair int (list int)))) "nested map equals workers:1"
    (values seq) (values par);
  Alcotest.(check int) "nothing recovered" 0 stats.Pool.recovered;
  Alcotest.(check bool) "the parent's lane ran a nested map" true
    (List.exists (fun ((pid, _, _), _) -> pid = parent) par)

(* More claims than one pipe buffer holds: the parent writes its claims
   before any reader exists and must never block doing so. *)
let test_many_items_map () =
  let n = 20_000 in
  let out, stats =
    leak_checked (fun () ->
        Pool.map ~workers:2 (fun x -> x + 1) (List.init n Fun.id))
  in
  Alcotest.(check bool) "every result in input order" true
    (List.for_all2 (fun i (v, _) -> v = i + 1) (List.init n Fun.id) out);
  Alcotest.(check int) "two lanes" 2 stats.Pool.workers;
  Alcotest.(check int) "nothing recovered" 0 stats.Pool.recovered

(* --- Engine batches: bit-equivalence to the fault-free sequential run
   under every seeded plan --- *)

(* Eight distinct single-qubit blocks: enough dispatched items that the
   seeds below (chosen against the same splitmix hash) demonstrably fire
   — the H2 UCCSD ansatz partitions into a single block at this width,
   which would make every worker-fault plan vacuous. *)
let chaos_blocks () =
  List.init 8 (fun i ->
      Circuit.of_gates 1
        [ (Gate.Rx (Param.const (0.2 +. (0.37 *. float_of_int i))), [ 0 ]) ])

let bits = Int64.bits_of_float

let check_same_result msg (a : Engine.block_result) (b : Engine.block_result)
    =
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

(* The fixed seed matrix CI's chaos-smoke job sweeps; every plan mixes
   differently but all must be invisible in the results. *)
let plan_matrix =
  [ "seed=2,hang=0.3";
    "seed=1,crash-pre=0.45";
    "seed=3,crash-mid=0.45";
    "seed=4,partial-pipe=0.6";
    "seed=8,hang=0.2,crash-pre=0.2,crash-mid=0.2,partial-pipe=0.2" ]

let baseline = ref None

let fault_free_baseline blocks =
  match !baseline with
  | Some rs -> rs
  | None ->
    Fault.clear ();
    let rs, _, _ =
      Engine.search_many ~workers:1 (Engine.numeric ~settings:quick ())
        blocks
    in
    baseline := Some rs;
    rs

let test_engine_chaos_equivalence spec () =
  let blocks = chaos_blocks () in
  let seq = fault_free_baseline blocks in
  leak_checked (fun () ->
      with_env "PQC_ITEM_DEADLINE_S" "0.5" (fun () ->
          with_plan spec (fun () ->
              (* Vacuity guard: the plan actually fires for some
                 dispatched item of this batch. *)
              let plan = Option.get (Fault.current ()) in
              let fires =
                List.exists
                  (fun key ->
                    List.exists
                      (fun site -> Fault.decide plan site ~key)
                      [ Fault.Worker_hang; Fault.Worker_crash_pre;
                        Fault.Worker_crash_mid; Fault.Partial_pipe ])
                  (List.init (List.length blocks) (fun i -> i))
              in
              Alcotest.(check bool)
                (Printf.sprintf "plan %S is not vacuous" spec)
                true fires;
              let par, _, _ =
                Engine.search_many ~workers:4
                  (Engine.numeric ~settings:quick ())
                  blocks
              in
              List.iteri
                (fun i (a, b) ->
                  check_same_result (Printf.sprintf "block %d" i) a b)
                (List.combine seq par))))

let test_env_plan_drives_engine_batch () =
  (* The same contract through the environment knob: PQC_FAULT_PLAN is
     parsed lazily at dispatch, so a batch run under it must still match
     the clean sequential baseline. *)
  let blocks = chaos_blocks () in
  let seq = fault_free_baseline blocks in
  leak_checked (fun () ->
      with_env "PQC_FAULT_PLAN" "seed=6,crash-pre=0.5,partial-pipe=0.5"
        (fun () ->
          Fault.set None;
          (* drop any cached plan; re-read from env *)
          let par, _, _ =
            Engine.search_many ~workers:4
              (Engine.numeric ~settings:quick ())
              blocks
          in
          List.iteri
            (fun i (a, b) ->
              check_same_result (Printf.sprintf "block %d" i) a b)
            (List.combine seq par)));
  Fault.clear ()

let test_chaos_run_keeps_cache_consistent () =
  (* End-to-end: a faulted batch that persists through a torn journal
     still round-trips every record it managed to keep, and the cache
     reloads without drops. *)
  let blocks = chaos_blocks () in
  with_temp_cache (fun path ->
      Sys.remove path;
      leak_checked (fun () ->
          with_plan "seed=7,crash-mid=0.4,truncate=0.5" (fun () ->
              let engine =
                Engine.numeric ~settings:quick ~cache_file:path ()
              in
              let _, _, _ = Engine.search_many ~workers:4 engine blocks in
              Engine.persist engine));
      let { Pulse_cache.entries = _; dropped; salvaged = _ } =
        Pulse_cache.load ~path
      in
      Alcotest.(check int) "reload has no corrupt records" 0 dropped;
      (* The reloaded cache serves an engine without complaint. *)
      let engine2 = Engine.numeric ~settings:quick ~cache_file:path () in
      Alcotest.(check int) "no drops at engine load" 0
        (Engine.cache_dropped engine2))

let () =
  Alcotest.run "chaos"
    [ ( "fault-plan",
        [ Alcotest.test_case "parse round-trip" `Quick
            test_plan_parse_round_trip;
          Alcotest.test_case "malformed specs rejected" `Quick
            test_plan_parse_rejects;
          Alcotest.test_case "decisions pure and seeded" `Quick
            test_plan_decisions_pure;
          Alcotest.test_case "malformed env plan inert" `Quick
            test_malformed_env_plan_injects_nothing ] );
      ( "cache-crash",
        [ Alcotest.test_case "salvage at every byte offset" `Quick
            test_truncation_at_every_byte;
          Alcotest.test_case "journal replay after crash" `Quick
            test_journal_replay_after_crash;
          Alcotest.test_case "torn journal append" `Quick
            test_cache_truncate_chaos;
          Alcotest.test_case "enospc releases the lock" `Quick
            test_cache_enospc_chaos;
          Alcotest.test_case "persist degrades on enospc" `Quick
            test_engine_persist_degrades;
          Alcotest.test_case "persist degrades on unwritable path" `Quick
            test_engine_persist_unwritable_path ] );
      ( "pool-supervision",
        [ Alcotest.test_case "hung batch within 2 deadlines" `Quick
            test_hung_batch_completes_within_two_deadlines;
          Alcotest.test_case "poison batch quarantines" `Quick
            test_poison_batch_quarantines_and_converges;
          Alcotest.test_case "torn frames recovered" `Quick
            test_crash_mid_and_partial_write_recovered;
          Alcotest.test_case "healthy maps leak nothing" `Quick
            test_healthy_maps_leak_nothing ] );
      ( "pool-lanes",
        [ Alcotest.test_case "nested map in the parent's lane" `Quick
            test_nested_map_in_parent_lane;
          Alcotest.test_case "20,000-item map" `Quick test_many_items_map ] );
      ( "flight-recorder",
        [ Alcotest.test_case "child ring reset post-fork" `Quick
            test_flight_child_ring_reset_post_fork;
          Alcotest.test_case "dumps never interleave" `Quick
            test_flight_dumps_never_interleave;
          Alcotest.test_case "chaos crash leaves an attributable dump"
            `Quick test_flight_dump_on_chaos_crash ] );
      ( "engine-equivalence",
        List.map
          (fun spec ->
            Alcotest.test_case spec `Quick
              (test_engine_chaos_equivalence spec))
          plan_matrix
        @ [ Alcotest.test_case "PQC_FAULT_PLAN drives the batch" `Quick
              test_env_plan_drives_engine_batch;
            Alcotest.test_case "faulted run keeps cache consistent" `Quick
              test_chaos_run_keeps_cache_consistent ] ) ]
