module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Gate_times = Pqc_pulse.Gate_times
module Pulse = Pqc_pulse.Pulse

let check_float = Alcotest.(check (float 1e-9))

let test_table1_values () =
  check_float "Rz" 0.4 Gate_times.rz;
  check_float "Rx" 2.5 Gate_times.rx;
  check_float "H" 1.4 Gate_times.h;
  check_float "CX" 3.8 Gate_times.cx;
  check_float "SWAP" 7.4 Gate_times.swap

let test_duration_lookup () =
  check_float "rz gate" 0.4 (Gate_times.duration (Gate.Rz (Param.var 0)));
  check_float "rx gate" 2.5 (Gate_times.duration (Gate.Rx (Param.const 0.1)));
  check_float "x alias" 2.5 (Gate_times.duration Gate.X);
  check_float "phase gates use rz" 0.4 (Gate_times.duration Gate.T);
  check_float "cx" 3.8 (Gate_times.duration Gate.CX);
  check_float "swap" 7.4 (Gate_times.duration Gate.Swap)

let test_angle_independence () =
  (* The lookup table is static: any angle costs the full rotation (the
     fractional-gate inefficiency GRAPE exploits, Section 5.1). *)
  check_float "small angle same price" (Gate_times.duration (Gate.Rx (Param.const 3.0)))
    (Gate_times.duration (Gate.Rx (Param.const 0.001)))

let test_derived_durations () =
  check_float "ry = rz rx rz" (2.5 +. 0.8) (Gate_times.duration (Gate.Ry (Param.const 1.0)));
  check_float "cz = h cx h" (3.8 +. 2.8) (Gate_times.duration Gate.CZ)

let test_circuit_duration_serial () =
  let c = Circuit.of_gates 2 [ (Gate.H, [0]); (Gate.CX, [0;1]); (Gate.Rz (Param.const 1.0), [1]) ] in
  check_float "serial chain" (1.4 +. 3.8 +. 0.4) (Gate_times.circuit_duration c)

let test_circuit_duration_parallel () =
  let c = Circuit.of_gates 2 [ (Gate.H, [0]); (Gate.Rx (Param.const 1.0), [1]) ] in
  check_float "parallel max" 2.5 (Gate_times.circuit_duration c)

let test_table_rows () =
  Alcotest.(check int) "five rows" 5 (List.length Gate_times.table);
  Alcotest.(check bool) "has swap row" true
    (List.mem_assoc "SWAP" Gate_times.table)

let test_lookup_gate_segment () =
  let i = { Circuit.gate = Gate.CX; qubits = [| 0; 1 |] } in
  match Pulse.lookup_gate i with
  | Pulse.Lookup { gate_name; duration } ->
    Alcotest.(check string) "name" "cx" gate_name;
    check_float "duration" 3.8 duration
  | Pulse.Optimized _ -> Alcotest.fail "expected lookup segment"

let test_segment_duration () =
  check_float "lookup" 1.4 (Pulse.segment_duration (Pulse.Lookup { gate_name = "h"; duration = 1.4 }));
  check_float "optimized" 5.0
    (Pulse.segment_duration (Pulse.Optimized { label = "x"; duration = 5.0; samples = None }))

let test_empty_pulse () =
  let p = Pulse.schedule ~n:2 [] in
  check_float "empty" 0.0 (Pulse.duration p);
  Alcotest.(check int) "no segments" 0 (Pulse.length p)

(* --- The one scheduler --- *)

let optimized label duration =
  Pulse.Optimized { label; duration; samples = None }

(* The block scheduler the compiler used before Pulse.schedule existed:
   a reference for the makespan, bit for bit. *)
let reference_makespan ~n jobs =
  let free = Array.make n 0.0 in
  List.fold_left
    (fun acc (segment, qubits) ->
      let start =
        List.fold_left (fun t q -> Float.max t free.(q)) 0.0 (Array.to_list qubits)
      in
      let finish = start +. Pulse.segment_duration segment in
      Array.iter (fun q -> free.(q) <- finish) qubits;
      Float.max acc finish)
    0.0 jobs

(* Random job lists over 1-8 qubits: each job occupies 1-3 distinct
   qubits for a duration that is sometimes 0. *)
let gen_jobs =
  let open QCheck.Gen in
  int_range 1 8 >>= fun n ->
  let job =
    int_range 1 (min 3 n) >>= fun width ->
    shuffle_l (List.init n Fun.id) >>= fun qs ->
    oneof [ return 0.0; float_bound_inclusive 20.0 ] >>= fun d ->
    bool >|= fun lookup ->
    let qubits = Array.of_list (List.filteri (fun k _ -> k < width) qs) in
    let segment =
      if lookup then Pulse.Lookup { gate_name = "g"; duration = d }
      else optimized "b" d
    in
    (segment, qubits)
  in
  list_size (int_range 0 40) job >|= fun jobs -> (n, jobs)

let arb_jobs =
  QCheck.make gen_jobs ~print:(fun (n, jobs) ->
      Printf.sprintf "n=%d: %s" n
        (String.concat "; "
           (List.map
              (fun (s, qs) ->
                Printf.sprintf "%h on [%s]" (Pulse.segment_duration s)
                  (String.concat ","
                     (Array.to_list (Array.map string_of_int qs))))
              jobs)))

let prop_schedule_reference =
  QCheck.Test.make ~name:"schedule = reference fold, and legal" ~count:300
    arb_jobs (fun (n, jobs) ->
      let p = Pulse.schedule ~n jobs in
      let events = Pulse.events p in
      let finish (e : Pulse.event) = e.start +. Pulse.segment_duration e.segment in
      let shares (a : Pulse.event) (b : Pulse.event) =
        Array.exists (fun q -> Array.mem q b.qubits) a.qubits
      in
      (* Each event starts at the latest finish among earlier events on
         its qubits, or at 0. *)
      let rec asap earlier = function
        | [] -> true
        | (e : Pulse.event) :: rest ->
          let expected =
            List.fold_left
              (fun t (d : Pulse.event) -> if shares e d then Float.max t (finish d) else t)
              0.0 earlier
          in
          Int64.equal (Int64.bits_of_float e.start) (Int64.bits_of_float expected)
          && asap (e :: earlier) rest
      in
      let rec disjoint = function
        | [] -> true
        | (e : Pulse.event) :: rest ->
          List.for_all
            (fun (d : Pulse.event) ->
              (not (shares e d)) || finish e <= d.start || finish d <= e.start)
            rest
          && disjoint rest
      in
      Int64.equal
        (Int64.bits_of_float (Pulse.duration p))
        (Int64.bits_of_float (reference_makespan ~n jobs))
      && Int64.equal
           (Int64.bits_of_float (Pulse.makespan ~n jobs))
           (Int64.bits_of_float (Pulse.duration p))
      && List.map (fun (e : Pulse.event) -> (e.segment, e.qubits)) events = jobs
      && asap [] events && disjoint events)

let test_schedule_overlaps_disjoint () =
  let p =
    Pulse.schedule ~n:3
      [ (Pulse.Lookup { gate_name = "h"; duration = 1.4 }, [| 0 |]);
        (optimized "blk" 2.0, [| 1; 2 |]);
        (Pulse.Lookup { gate_name = "cx"; duration = 3.8 }, [| 0; 1 |]) ]
  in
  check_float "makespan" 5.8 (Pulse.duration p);
  Alcotest.(check (list (float 1e-12))) "starts" [ 0.0; 0.0; 2.0 ]
    (List.map (fun (e : Pulse.event) -> e.start) (Pulse.events p))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_json_export () =
  let p =
    Pulse.schedule ~n:2
      [ (Pulse.Lookup { gate_name = "h"; duration = 1.4 }, [| 0 |]);
        ( Pulse.Optimized
            { label = "blk"; duration = 2.0;
              samples = Some { Pulse.dt = 1.0; controls = [| [| 0.5; -0.25 |] |] } },
          [| 0; 1 |] );
        (Pulse.Lookup { gate_name = "x"; duration = 2.5 }, [| 1 |]) ]
  in
  let json = Pulse.to_json p in
  Alcotest.(check bool) "schedule key" true (contains json "\"schedule\"");
  Alcotest.(check bool) "lookup event" true
    (contains json
       {|{"name":"h","kind":"lookup","qubits":[0],"t0":0.000,"duration":1.400}|});
  Alcotest.(check bool) "grape event starts when qubit 0 is free" true
    (contains json
       {|{"name":"blk","kind":"grape","qubits":[0,1],"t0":1.400,"duration":2.000|});
  Alcotest.(check bool) "samples present" true (contains json "[0.50000,-0.25000]");
  Alcotest.(check bool) "t0 follows the qubit" true
    (contains json {|"qubits":[1],"t0":3.400|});
  Alcotest.(check bool) "total duration" true (contains json "\"total_duration\":5.900")

let test_json_escaping () =
  let p = Pulse.schedule ~n:1 [ (Pulse.Lookup { gate_name = "a\"b"; duration = 1.0 }, [| 0 |]) ] in
  Alcotest.(check bool) "quotes escaped" true (contains (Pulse.to_json p) "a\\\"b")

(* --- Decoherence --- *)

module Decoherence = Pqc_pulse.Decoherence

let test_decoherence_zero_duration () =
  check_float "P(0) = 1" 1.0 (Decoherence.success_probability ~n_qubits:4 0.0)

let test_decoherence_monotone () =
  let p1 = Decoherence.success_probability ~n_qubits:2 1000.0 in
  let p2 = Decoherence.success_probability ~n_qubits:2 2000.0 in
  Alcotest.(check bool) "longer pulses decohere more" true (p2 < p1);
  Alcotest.(check bool) "in (0,1]" true (p2 > 0.0 && p1 <= 1.0)

let test_decoherence_width () =
  let narrow = Decoherence.success_probability ~n_qubits:2 1000.0 in
  let wide = Decoherence.success_probability ~n_qubits:8 1000.0 in
  Alcotest.(check bool) "more qubits decohere more" true (wide < narrow)

let test_decoherence_known_value () =
  (* exp(-1 * 20000 / 20000) = 1/e. *)
  check_float "1/e" (exp (-1.0))
    (Decoherence.success_probability ~n_qubits:1 Decoherence.default_t2_ns)

let test_advantage_amplifies () =
  (* A 2x pulse speedup gives more than 2x success-probability advantage
     once the baseline is deep into the exponential decay. *)
  let adv =
    Decoherence.advantage ~n_qubits:6 ~baseline_ns:5000.0 2500.0
  in
  Alcotest.(check bool) "advantage > 1" true (adv > 1.0);
  check_float "exact ratio" (exp (6.0 *. 2500.0 /. Decoherence.default_t2_ns)) adv

let test_advantage_identity () =
  check_float "same duration, no advantage" 1.0
    (Decoherence.advantage ~n_qubits:3 ~baseline_ns:800.0 800.0)

let test_decoherence_rejects_negative () =
  Alcotest.(check bool) "negative duration" true
    (try ignore (Decoherence.success_probability ~n_qubits:1 (-1.0)); false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "pulse"
    [ ( "gate-times",
        [ Alcotest.test_case "table 1 values" `Quick test_table1_values;
          Alcotest.test_case "duration lookup" `Quick test_duration_lookup;
          Alcotest.test_case "angle independence" `Quick test_angle_independence;
          Alcotest.test_case "derived durations" `Quick test_derived_durations;
          Alcotest.test_case "serial circuit" `Quick test_circuit_duration_serial;
          Alcotest.test_case "parallel circuit" `Quick test_circuit_duration_parallel;
          Alcotest.test_case "table rows" `Quick test_table_rows ] );
      ( "pulse",
        [ Alcotest.test_case "lookup segment" `Quick test_lookup_gate_segment;
          Alcotest.test_case "segment duration" `Quick test_segment_duration;
          Alcotest.test_case "empty" `Quick test_empty_pulse;
          QCheck_alcotest.to_alcotest prop_schedule_reference;
          Alcotest.test_case "disjoint segments overlap" `Quick
            test_schedule_overlaps_disjoint;
          Alcotest.test_case "json export" `Quick test_json_export;
          Alcotest.test_case "json escaping" `Quick test_json_escaping ] );
      ( "decoherence",
        [ Alcotest.test_case "zero duration" `Quick test_decoherence_zero_duration;
          Alcotest.test_case "monotone in duration" `Quick test_decoherence_monotone;
          Alcotest.test_case "monotone in width" `Quick test_decoherence_width;
          Alcotest.test_case "known value" `Quick test_decoherence_known_value;
          Alcotest.test_case "advantage amplifies" `Quick test_advantage_amplifies;
          Alcotest.test_case "advantage identity" `Quick test_advantage_identity;
          Alcotest.test_case "rejects negative" `Quick test_decoherence_rejects_negative ] ) ]
