(* Prints a fixed Bench_report document; the golden test diffs it against
   examples/fixtures/bench_schema.golden.json so any change to the bench
   JSON schema is a visible, deliberate act (bump schema_version, then
   `dune promote`). *)

let () =
  print_string
    (Pqc_core.Bench_report.to_json
       { Pqc_core.Bench_report.mode = "fast";
         workers = 4;
         experiments =
           [ { Pqc_core.Bench_report.name = "uccsd-lih";
               strategy = "strict-partial";
               engine = "numeric";
               run_id = "bench:uccsd-lih/strict-partial";
               pulse_duration_ns = 945.8;
               cache_hits = 320;
               blocks_compiled = 21;
               workers = 4;
               equal_pulse = true };
             { Pqc_core.Bench_report.name = "qaoa-er8\"p1";
               strategy = "flexible-partial";
               engine = "model";
               (* An ad-hoc run with no ambient context. *)
               run_id = "";
               pulse_duration_ns = 101.25;
               cache_hits = 0;
               blocks_compiled = 0;
               workers = 1;
               equal_pulse = false } ] })
