module Obs = Pqc_obs.Obs
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Rng = Pqc_util.Rng
module Engine = Pqc_core.Engine
module Strategy = Pqc_core.Strategy
module Compiler = Pqc_core.Compiler
module Uccsd = Pqc_vqe.Uccsd
module Molecule = Pqc_vqe.Molecule

(* Obs state is global to the process: every test runs against a fresh,
   explicitly enabled trace and restores the disabled default on the way
   out, pass or fail. *)
let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- Lifecycle --- *)

let test_disabled_is_noop () =
  Obs.reset ();
  Alcotest.(check bool) "starts disabled" false (Obs.enabled ());
  let r = Obs.Span.with_ ~name:"ignored" (fun () -> 41 + 1) in
  Alcotest.(check int) "span still runs the body" 42 r;
  Obs.count "ignored.counter";
  Obs.gauge "ignored.gauge" 1.0;
  Obs.profile ~label:"ignored" [];
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.events ()));
  Alcotest.(check (float 0.0)) "counter untouched" 0.0
    (Obs.counter_value "ignored.counter")

(* --- Spans --- *)

let test_span_nesting_and_order () =
  with_obs @@ fun () ->
  let r =
    Obs.Span.with_ ~name:"outer" ~attrs:(fun () -> [ ("k", "v") ]) (fun () ->
        Obs.Span.with_ ~name:"inner" (fun () -> 7))
  in
  Alcotest.(check int) "value threads through" 7 r;
  match Obs.events () with
  | [ Obs.Span inner; Obs.Span outer ] ->
    (* Spans are recorded when they close, so the child precedes its
       parent in emission order. *)
    Alcotest.(check string) "child closes first" "inner" inner.name;
    Alcotest.(check string) "parent closes last" "outer" outer.name;
    Alcotest.(check int) "child points at parent" outer.id inner.parent;
    Alcotest.(check int) "parent is top-level" 0 outer.parent;
    Alcotest.(check bool) "ids distinct" true (inner.id <> outer.id);
    Alcotest.(check bool) "attrs preserved" true
      (List.mem ("k", "v") outer.attrs)
  | evs ->
    Alcotest.failf "expected exactly two spans, got %d events"
      (List.length evs)

let test_span_sibling_parents () =
  with_obs @@ fun () ->
  Obs.Span.with_ ~name:"root" (fun () ->
      Obs.Span.with_ ~name:"a" (fun () -> ());
      Obs.Span.with_ ~name:"b" (fun () -> ()));
  match Obs.events () with
  | [ Obs.Span a; Obs.Span b; Obs.Span root ] ->
    Alcotest.(check string) "first sibling" "a" a.name;
    Alcotest.(check string) "second sibling" "b" b.name;
    Alcotest.(check int) "a under root" root.id a.parent;
    Alcotest.(check int) "b under root (stack popped after a)" root.id
      b.parent
  | evs -> Alcotest.failf "expected three spans, got %d" (List.length evs)

let test_span_exception_closes () =
  with_obs @@ fun () ->
  (try Obs.Span.with_ ~name:"boom" (fun () -> failwith "no") with
  | Failure _ -> ());
  (* The failed span must have been closed (with an error attribute) and
     popped, so the next span is back at top level. *)
  Obs.Span.with_ ~name:"after" (fun () -> ());
  match Obs.events () with
  | [ Obs.Span boom; Obs.Span after ] ->
    Alcotest.(check bool) "error attribute present" true
      (List.mem_assoc "error" boom.attrs);
    Alcotest.(check int) "stack unwound" 0 after.parent
  | evs -> Alcotest.failf "expected two spans, got %d" (List.length evs)

(* --- Counters, gauges, profiles, rollup --- *)

let test_counter_totals () =
  with_obs @@ fun () ->
  Obs.count "hits";
  Obs.count ~by:2.5 "hits";
  Obs.count "misses";
  Alcotest.(check (float 1e-9)) "accumulates" 3.5 (Obs.counter_value "hits");
  Alcotest.(check (float 1e-9)) "independent" 1.0
    (Obs.counter_value "misses");
  Alcotest.(check (float 0.0)) "unknown reads zero" 0.0
    (Obs.counter_value "nope");
  Alcotest.(check int) "one event per increment" 3
    (List.length (Obs.events ()))

let test_rollup_shape () =
  with_obs @@ fun () ->
  Obs.Span.with_ ~name:"b.span" (fun () -> ());
  Obs.Span.with_ ~name:"a.span" (fun () -> ());
  Obs.Span.with_ ~name:"b.span" (fun () -> ());
  Obs.count "not.a.span";
  let r = Obs.rollup () in
  Alcotest.(check (list string)) "counters excluded, names complete"
    [ "a.span"; "b.span" ]
    (List.sort compare (List.map (fun (n, _, _) -> n) r));
  Alcotest.(check int) "a.span count" 1
    (List.assoc "a.span" (List.map (fun (n, c, _) -> (n, c)) r));
  Alcotest.(check int) "b.span count" 2
    (List.assoc "b.span" (List.map (fun (n, c, _) -> (n, c)) r));
  (* Ordering contract: total_s descending, then count descending, then
     name ascending — deterministic even under equal totals. *)
  let ordered =
    List.map (fun (n, c, t) -> (-.t, -c, n)) r |> List.sort compare
    |> List.map (fun (_, _, n) -> n)
  in
  Alcotest.(check (list string)) "sorted by total desc with tie-breaks"
    ordered
    (List.map (fun (n, _, _) -> n) r);
  List.iter
    (fun (_, _, total) ->
      Alcotest.(check bool) "total non-negative" true (total >= 0.0))
    r

(* The cells after the first of the summary row whose first cell is
   [name].  A rendered row is "| a | b |", so splitting on '|' leaves an
   empty string at each end. *)
let summary_row summary name =
  List.find_map
    (fun line ->
      match List.map String.trim (String.split_on_char '|' line) with
      | "" :: first :: rest when first = name ->
        Some (List.filteri (fun i _ -> i < List.length rest - 1) rest)
      | _ -> None)
    (String.split_on_char '\n' summary)

(* Profiles fold by label: one row each, in first-seen order, with the
   profile count and the total number of points. *)
let test_summary_folds_profiles () =
  with_obs @@ fun () ->
  let point i =
    { Obs.iteration = i; infidelity = 0.5; learning_rate = 0.1; grad_norm = 1.0 }
  in
  Obs.profile ~label:"grape[dim=4,T=3]" [ point 1; point 2 ];
  Obs.profile ~label:"grape[dim=2,T=1]" [ point 1 ];
  Obs.profile ~label:"grape[dim=4,T=3]" [ point 1; point 2; point 3 ];
  let rows =
    List.filter_map
      (fun line ->
        match List.map String.trim (String.split_on_char '|' line) with
        | [ ""; label; "profile"; n; points; _; _; _; _; "" ] ->
          Some (label, n, points)
        | _ -> None)
      (String.split_on_char '\n' (Obs.summary ()))
  in
  Alcotest.(check (list (triple string string string)))
    "one row per label, first-seen order"
    [ ("grape[dim=4,T=3]", "2", "5"); ("grape[dim=2,T=1]", "1", "1") ]
    rows

(* Under a fake clock every span lasts a whole number of eighths of a
   second, so every duration, and every cell printed from one, is exact.
   Each span row's p50/p90/p99/max must be the nearest-rank order
   statistic of that name's recorded durations: the least duration d
   such that at least p% of them are <= d.  The hand-computed rows pin
   the same values without going through the recorded events. *)
let test_summary_percentiles_exact () =
  let t = ref 100.0 in
  Obs.Clock.set (fun () -> !t);
  Fun.protect ~finally:Obs.Clock.reset @@ fun () ->
  with_obs @@ fun () ->
  let span name eighths =
    Obs.Span.with_ ~name (fun () -> t := !t +. (float_of_int eighths /. 8.0))
  in
  (* 1/8 s to 25 s in a scrambled order (37 is coprime to 200). *)
  for i = 0 to 199 do
    span "wide" ((37 * i mod 200) + 1)
  done;
  span "single" 3;
  List.iter (span "three") [ 2; 1; 4 ];
  Obs.count "not.a.span";
  let summary = Obs.summary () in
  let row name =
    match summary_row summary name with
    | Some cells -> cells
    | None -> Alcotest.failf "no summary row for %s" name
  in
  let ms s = Printf.sprintf "%.3f ms" (s *. 1e3) in
  let durations name =
    List.filter_map
      (function
        | Obs.Span s when s.name = name -> Some s.dur
        | _ -> None)
      (Obs.events ())
    |> List.sort Float.compare
  in
  List.iter
    (fun (name, expected) ->
      let durs = durations name in
      let n = List.length durs in
      let nearest_rank p =
        List.find
          (fun d ->
            100 * List.length (List.filter (fun x -> x <= d) durs) >= p * n)
          durs
      in
      let p50, p90, p99, max =
        match row name with
        | [ "span"; _; _; p50; p90; p99; max ] -> (p50, p90, p99, max)
        | cells ->
          Alcotest.failf "%s: unexpected cells [%s]" name
            (String.concat "; " cells)
      in
      Alcotest.(check (list string))
        (name ^ ": percentiles of the recorded durations")
        (List.map (fun p -> ms (nearest_rank p)) [ 50; 90; 99; 100 ])
        [ p50; p90; p99; max ];
      Alcotest.(check (list string)) (name ^ ": whole row") expected
        (row name))
    [ ( "wide",
        [ "span"; "200"; "2512500.000 ms"; "12500.000 ms"; "22500.000 ms";
          "24750.000 ms"; "25000.000 ms" ] );
      ( "single",
        [ "span"; "1"; "375.000 ms"; "375.000 ms"; "375.000 ms"; "375.000 ms";
          "375.000 ms" ] );
      ( "three",
        [ "span"; "3"; "875.000 ms"; "250.000 ms"; "500.000 ms"; "500.000 ms";
          "500.000 ms" ] ) ];
  Alcotest.(check (list string)) "counter rows leave the percentiles empty"
    [ "counter"; "1"; "1.000"; ""; ""; ""; "" ]
    (row "not.a.span")

(* --- Fork plumbing --- *)

let test_encode_absorb_roundtrip () =
  with_obs @@ fun () ->
  Fun.protect ~finally:(fun () -> Obs.set_worker 0) @@ fun () ->
  Obs.Span.with_ ~name:"parent.span" (fun () -> ());
  let m = Obs.mark () in
  (* Simulate a forked worker: tagged tid, disjoint span ids. *)
  Obs.set_worker 2;
  Obs.Span.with_ ~name:"child.span"
    ~attrs:(fun () -> [ ("k", "tab\there\nand\x1e\x1frecord seps") ])
    (fun () -> ());
  Obs.count ~by:3.0 "shared.counter";
  Obs.profile ~label:"child.profile"
    [ { Obs.iteration = 4; infidelity = 0.25; learning_rate = 0.1;
        grad_norm = 2.0 } ];
  let shipped = Obs.events_since m in
  Alcotest.(check int) "span, counter and profile since the mark" 3
    (List.length shipped);
  Alcotest.(check int) "nothing fresh, nothing shipped" 0
    (List.length (Obs.events_since (Obs.mark ())));
  (* Receiving side: a fresh parent that already has its own counter
     increments; absorb must append events and merge totals additively. *)
  Obs.reset ();
  Obs.enable ();
  Obs.set_worker 0;
  Obs.count "shared.counter";
  Obs.absorb shipped;
  Alcotest.(check (float 1e-9)) "counter totals merge" 4.0
    (Obs.counter_value "shared.counter");
  let spans =
    List.filter_map
      (function
        | Obs.Span { name; attrs; tid; _ } -> Some (name, attrs, tid)
        | _ -> None)
      (Obs.events ())
  in
  (match spans with
  | [ ("child.span", attrs, tid) ] ->
    Alcotest.(check int) "worker tid preserved" 2 tid;
    Alcotest.(check (option string)) "hostile attr bytes intact"
      (Some "tab\there\nand\x1e\x1frecord seps")
      (List.assoc_opt "k" attrs)
  | _ -> Alcotest.fail "expected exactly the child span");
  match
    List.filter_map
      (function Obs.Profile { label; points; _ } -> Some (label, points) | _ -> None)
      (Obs.events ())
  with
  | [ ("child.profile", [ pt ]) ] ->
    Alcotest.(check int) "iteration" 4 pt.Obs.iteration;
    Alcotest.(check (float 1e-12)) "infidelity" 0.25 pt.Obs.infidelity;
    Alcotest.(check (float 1e-12)) "grad norm" 2.0 pt.Obs.grad_norm
  | _ -> Alcotest.fail "expected exactly the child profile"

(* --- Chrome export --- *)

let test_chrome_json_shape () =
  with_obs @@ fun () ->
  Obs.Span.with_ ~name:"spa\"n" (fun () -> Obs.count ~by:2.0 "c");
  Obs.count ~by:3.0 "c";
  Obs.gauge "g" 1.5;
  Obs.profile ~label:"p"
    [ { Obs.iteration = 1; infidelity = 0.5; learning_rate = 0.3;
        grad_norm = 1.0 } ];
  let doc = Obs.to_chrome_json () in
  Alcotest.(check bool) "traceEvents array" true (contains doc "\"traceEvents\"");
  Alcotest.(check bool) "quotes escaped" true (contains doc "spa\\\"n");
  Alcotest.(check bool) "complete spans use ph X" true
    (contains doc "\"ph\": \"X\"");
  Alcotest.(check bool) "counter carries accumulated total" true
    (contains doc "{\"c\": 5}");
  Alcotest.(check bool) "profile arrays present" true
    (contains doc "\"infidelity\": [0.5]")

let test_chrome_normalize_stable () =
  (* Two runs of the same span structure differ only in wall-clock
     timestamps; normalization must erase exactly that difference. *)
  let run () =
    with_obs @@ fun () ->
    Obs.Span.with_ ~name:"a" (fun () ->
        Obs.Span.with_ ~name:"b" (fun () -> ignore (Sys.opaque_identity 1)));
    Obs.count "k";
    Obs.to_chrome_json ~normalize:true ()
  in
  let d1 = run () and d2 = run () in
  Alcotest.(check string) "normalized docs bit-identical" d1 d2;
  Alcotest.(check bool) "raw docs differ only via timestamps" true
    (String.length (run ()) > 0)

(* --- Tracing never changes compilation output --- *)

let test_tracing_off_on_same_pulse () =
  let c = Compiler.prepare (Uccsd.ansatz Molecule.h2) in
  let rng = Rng.create 11 in
  let theta =
    Array.init (Circuit.n_params c) (fun _ ->
        Rng.uniform rng ~lo:0.0 ~hi:(2.0 *. Float.pi))
  in
  let compile () =
    Compiler.strict_partial ~workers:1 ~max_width:2 ~engine:Engine.model c
      ~theta
  in
  Obs.disable ();
  let untraced = compile () in
  let traced = with_obs (fun () -> compile ()) in
  Alcotest.(check bool) "pulse schedules structurally identical" true
    (untraced.Strategy.pulse = traced.Strategy.pulse);
  Alcotest.(check int64) "duration bits equal"
    (Int64.bits_of_float untraced.Strategy.duration_ns)
    (Int64.bits_of_float traced.Strategy.duration_ns)

(* --- Clock indirection --- *)

let test_clock_override () =
  with_obs @@ fun () ->
  let t = ref 100.0 in
  Obs.Clock.set (fun () -> !t);
  Fun.protect ~finally:Obs.Clock.reset @@ fun () ->
  Obs.Span.with_ ~name:"fake" (fun () -> t := !t +. 2.5);
  match List.filter (function Obs.Span _ -> true | _ -> false) (Obs.events ()) with
  | [ Obs.Span s ] ->
    Alcotest.(check (float 1e-9)) "span duration from the installed clock"
      2.5 s.dur
  | _ -> Alcotest.fail "expected exactly one span"

(* The default source is CLOCK_MONOTONIC, which never steps back the way
   the wall clock does under NTP. *)
let test_clock_monotonic () =
  Obs.Clock.reset ();
  let prev = ref (Obs.Clock.now ()) and backwards = ref 0 in
  for _ = 1 to 100_000 do
    let t = Obs.Clock.now () in
    if t < !prev then incr backwards;
    prev := t
  done;
  Alcotest.(check int) "reads that went backwards" 0 !backwards

(* --- Correlation contexts --- *)

let test_ctx_mint_deterministic () =
  Obs.reset ();
  let a = Obs.Ctx.mint "compile:x" in
  let b = Obs.Ctx.mint "compile:x" in
  Obs.reset ();
  let a' = Obs.Ctx.mint "compile:x" in
  Alcotest.(check bool) "distinct within a run" true (a <> b);
  Alcotest.(check string) "counter restarts on reset" a a';
  Alcotest.(check string) "derive appends the item index" (a ^ "#3")
    (Obs.Ctx.derive a 3);
  Alcotest.(check (option string)) "no ambient context by default" None
    (Obs.Ctx.current ());
  let inner =
    Obs.Ctx.with_ctx (Some a) (fun () -> Obs.Ctx.current ())
  in
  Alcotest.(check (option string)) "ambient inside with_ctx" (Some a) inner;
  Alcotest.(check (option string)) "restored after with_ctx" None
    (Obs.Ctx.current ())

let test_ctx_stamps_spans () =
  with_obs @@ fun () ->
  Obs.Ctx.with_ctx (Some "r007-cafe") (fun () ->
      Obs.Span.with_ ~name:"inside" (fun () -> ()));
  match List.filter (function Obs.Span _ -> true | _ -> false) (Obs.events ()) with
  | [ Obs.Span s ] ->
    Alcotest.(check (option string)) "span carries run_id attr"
      (Some "r007-cafe")
      (List.assoc_opt "run_id" s.attrs)
  | _ -> Alcotest.fail "expected exactly one span"

(* --- Flight recorder --- *)

let test_flight_ring_wrap () =
  Obs.Flight.set_capacity 4;
  Fun.protect ~finally:(fun () -> Obs.Flight.set_capacity 256) @@ fun () ->
  for i = 0 to 5 do
    Obs.Flight.record ~kind:"k" ~run_id:"r" (Printf.sprintf "e%d" i)
  done;
  let es = Obs.Flight.entries () in
  Alcotest.(check int) "window is the capacity" 4 (List.length es);
  Alcotest.(check (list string)) "oldest evicted, order preserved"
    [ "e2"; "e3"; "e4"; "e5" ]
    (List.map (fun e -> e.Obs.Flight.f_detail) es);
  Alcotest.(check (list int)) "seq survives the wrap" [ 2; 3; 4; 5 ]
    (List.map (fun e -> e.Obs.Flight.f_seq) es);
  Obs.Flight.reset ();
  Alcotest.(check int) "reset empties the window" 0
    (List.length (Obs.Flight.entries ()))

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pqc-obs-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir d 0o700;
  d

let test_flight_dump () =
  Obs.Flight.set_capacity 8;
  Fun.protect ~finally:(fun () -> Obs.Flight.set_capacity 256) @@ fun () ->
  let dir = temp_dir () in
  Alcotest.(check (option string)) "empty ring dumps nothing" None
    (Obs.Flight.dump ~dir ~reason:"empty" ());
  Obs.Flight.record ~kind:"span" ~run_id:"r001-aa" "pool.item";
  Obs.Flight.record ~kind:"pool.kill" "SIGKILL worker 2";
  match Obs.Flight.dump ~dir ~reason:"test.kill" () with
  | None -> Alcotest.fail "dump produced no file"
  | Some path ->
    let ic = open_in path in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Alcotest.(check bool) "header names the reason" true
      (contains body "reason=test.kill");
    Alcotest.(check bool) "entry carries run_id" true
      (contains body "r001-aa");
    Alcotest.(check bool) "entry carries detail" true
      (contains body "SIGKILL worker 2");
    Alcotest.(check bool) "dump file name embeds the pid" true
      (contains (Filename.basename path)
         (string_of_int (Unix.getpid ())))

(* --- Shared escaper: hostile bytes always re-parse --- *)

let prop_escape_roundtrip =
  QCheck.Test.make ~name:"escape_string round-trips arbitrary bytes"
    ~count:500
    QCheck.(string_gen_of_size Gen.(int_range 0 64) Gen.(map Char.chr (int_bound 255)))
    (fun s ->
      match Pqc_util.Jsonx.parse (Pqc_util.Jsonx.escape_string s) with
      | Ok (Pqc_util.Jsonx.Str s') -> s' = s
      | Ok _ -> QCheck.Test.fail_report "parsed to a non-string"
      | Error e -> QCheck.Test.fail_reportf "did not re-parse: %s" e)

(* --- Overhead regression --- *)

let test_overhead_bounded () =
  with_obs @@ fun () ->
  let spans = 10_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to spans do
    Obs.Span.with_ ~name:"overhead.probe" (fun () -> ())
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let overhead = Obs.overhead_seconds () in
  Alcotest.(check bool) "overhead measured" true (overhead > 0.0);
  Alcotest.(check bool) "overhead below wall clock" true (overhead <= elapsed);
  (* Generous absolute bound: 50us per span would still be two orders of
     magnitude above the measured cost, so this only catches a
     catastrophic regression (accidental allocation/IO on the hot path),
     never scheduler noise. *)
  Alcotest.(check bool)
    (Printf.sprintf "per-span overhead %.2fus under 50us"
       (1e6 *. overhead /. float_of_int spans))
    true
    (overhead /. float_of_int spans < 50e-6)

let () =
  Alcotest.run "obs"
    [ ( "lifecycle",
        [ Alcotest.test_case "disabled is a no-op" `Quick
            test_disabled_is_noop ] );
      ( "spans",
        [ Alcotest.test_case "nesting and order" `Quick
            test_span_nesting_and_order;
          Alcotest.test_case "sibling parents" `Quick
            test_span_sibling_parents;
          Alcotest.test_case "exception closes span" `Quick
            test_span_exception_closes ] );
      ( "metrics",
        [ Alcotest.test_case "counter totals" `Quick test_counter_totals;
          Alcotest.test_case "rollup shape" `Quick test_rollup_shape;
          Alcotest.test_case "summary percentiles are nearest-rank" `Quick
            test_summary_percentiles_exact;
          Alcotest.test_case "summary folds profiles by label" `Quick
            test_summary_folds_profiles ] );
      ( "pipe-codec",
        [ Alcotest.test_case "encode/absorb round-trip" `Quick
            test_encode_absorb_roundtrip ] );
      ( "export",
        [ Alcotest.test_case "chrome json shape" `Quick
            test_chrome_json_shape;
          Alcotest.test_case "normalized output stable" `Quick
            test_chrome_normalize_stable ] );
      ( "determinism",
        [ Alcotest.test_case "tracing off/on same pulse" `Quick
            test_tracing_off_on_same_pulse ] );
      ( "clock",
        [ Alcotest.test_case "span durations follow the installed clock"
            `Quick test_clock_override;
          Alcotest.test_case "default clock never decreases" `Quick
            test_clock_monotonic ] );
      ( "ctx",
        [ Alcotest.test_case "mint is deterministic" `Quick
            test_ctx_mint_deterministic;
          Alcotest.test_case "ambient context stamps spans" `Quick
            test_ctx_stamps_spans ] );
      ( "flight",
        [ Alcotest.test_case "ring wraps oldest-first" `Quick
            test_flight_ring_wrap;
          Alcotest.test_case "dump writes the window" `Quick
            test_flight_dump ] );
      ( "escaper",
        [ QCheck_alcotest.to_alcotest prop_escape_roundtrip ] );
      ( "overhead",
        [ Alcotest.test_case "per-span cost bounded" `Quick
            test_overhead_bounded ] ) ]
