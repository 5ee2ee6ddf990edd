module Pool = Pqc_parallel.Pool
module Obs = Pqc_obs.Obs

type site =
  | Worker_hang
  | Worker_crash_pre
  | Worker_crash_mid
  | Partial_pipe
  | Cache_truncate
  | Enospc
  | Nan_fidelity
  | No_converge
  | Stall

let all_sites =
  [ Worker_hang; Worker_crash_pre; Worker_crash_mid; Partial_pipe;
    Cache_truncate; Enospc; Nan_fidelity; No_converge; Stall ]

let site_to_string = function
  | Worker_hang -> "hang"
  | Worker_crash_pre -> "crash-pre"
  | Worker_crash_mid -> "crash-mid"
  | Partial_pipe -> "partial-pipe"
  | Cache_truncate -> "truncate"
  | Enospc -> "enospc"
  | Nan_fidelity -> "nan"
  | No_converge -> "no-converge"
  | Stall -> "stall"

let site_of_string = function
  | "hang" -> Some Worker_hang
  | "crash-pre" -> Some Worker_crash_pre
  | "crash-mid" -> Some Worker_crash_mid
  | "partial-pipe" -> Some Partial_pipe
  | "truncate" -> Some Cache_truncate
  | "enospc" -> Some Enospc
  | "nan" -> Some Nan_fidelity
  | "no-converge" -> Some No_converge
  | "stall" -> Some Stall
  | _ -> None

let site_index = function
  | Worker_hang -> 1
  | Worker_crash_pre -> 2
  | Worker_crash_mid -> 3
  | Partial_pipe -> 4
  | Cache_truncate -> 5
  | Enospc -> 6
  | Nan_fidelity -> 7
  | No_converge -> 8
  | Stall -> 9

type plan = { seed : int; rates : float array (* by site_index, 0 unused *) }

let rate plan site = plan.rates.(site_index site)

let to_string plan =
  String.concat ","
    (Printf.sprintf "seed=%d" plan.seed
    :: List.filter_map
         (fun s ->
           let r = rate plan s in
           if r > 0.0 then Some (Printf.sprintf "%s=%.17g" (site_to_string s) r)
           else None)
         all_sites)

let parse spec =
  let plan = { seed = 0; rates = Array.make (List.length all_sites + 1) 0.0 } in
  let fields =
    List.filter
      (fun f -> String.trim f <> "")
      (String.split_on_char ',' spec)
  in
  if fields = [] then Error "empty fault plan"
  else
    let rec go = function
      | [] ->
        if Array.for_all (fun r -> r = 0.0) plan.rates then
          Error "fault plan injects nothing (every rate is 0)"
        else Ok plan
      | field :: rest ->
        (match String.index_opt field '=' with
         | None -> Error (Printf.sprintf "fault plan field %S has no '='" field)
         | Some i ->
           let k = String.trim (String.sub field 0 i) in
           let v =
             String.trim
               (String.sub field (i + 1) (String.length field - i - 1))
           in
           if k = "seed" then
             match int_of_string_opt v with
             | Some seed -> go_seed seed rest
             | None -> Error (Printf.sprintf "bad fault plan seed %S" v)
           else
             match site_of_string k with
             | None -> Error (Printf.sprintf "unknown fault site %S" k)
             | Some site ->
               (match float_of_string_opt v with
                | Some r when Float.is_finite r && r >= 0.0 && r <= 1.0 ->
                  plan.rates.(site_index site) <- r;
                  go rest
                | Some _ | None ->
                  Error
                    (Printf.sprintf "fault rate %s=%S outside [0,1]" k v)))
    and go_seed seed rest =
      match go rest with
      | Ok p -> Ok { p with seed }
      | Error _ as e -> e
    in
    go fields

(* Deterministic per-decision hash — splitmix64's finalizer over
   (seed, site, key) — so whether a given site fires for a given key is
   a pure function of the plan, independent of process, worker count,
   or the order in which decisions are consulted.  This is what lets
   the chaos suite compare a faulted parallel run bit-for-bit against
   the clean sequential one. *)
let mix z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let decide plan site ~key =
  let r = rate plan site in
  if r <= 0.0 then false
  else begin
    let z =
      mix
        (Int64.add
           (Int64.mul (Int64.of_int plan.seed) 0x9E3779B97F4A7C15L)
           (Int64.of_int ((site_index site * 0x1000193) lxor (key * 0x01000193))))
    in
    let u =
      Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0
    in
    u < r
  end

(* --- Active plan --- *)

(* Lazily initialized from PQC_FAULT_PLAN; a malformed spec warns once
   and injects nothing (a chaos knob must never turn into a crash knob). *)
let state : plan option option ref = ref None

let pool_hook plan idx =
  let fire site = decide plan site ~key:idx in
  if fire Worker_hang then Some Pool.Hang
  else if fire Worker_crash_pre then Some Pool.Crash_pre
  else if fire Worker_crash_mid then Some Pool.Crash_mid
  else if fire Partial_pipe then Some Pool.Partial_write
  else None

let install = function
  | None -> Pool.clear_fault_hook ()
  | Some plan -> Pool.set_fault_hook (pool_hook plan)

let set p =
  state := Some p;
  install p

let clear () = set None

let from_env () =
  match Sys.getenv_opt "PQC_FAULT_PLAN" with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s ->
    (match parse s with
     | Ok plan -> Some plan
     | Error e ->
       Printf.eprintf
         "partialqc: ignoring invalid PQC_FAULT_PLAN (%s); no faults \
          injected\n%!"
         e;
       None)

let current () =
  match !state with
  | Some p -> p
  | None ->
    let p = from_env () in
    set p;
    p

let active () = current () <> None

let fire site ~key =
  match current () with
  | None -> false
  | Some plan ->
    let hit = decide plan site ~key in
    if hit then begin
      Obs.count ("fault." ^ site_to_string site);
      (* A firing lands in the flight ring of the process it fires in
         (the parent for storage sites, the searching process for
         optimizer sites), so the last-events trail is dumped at the
         moment of injection — the same forensic record an abnormal
         worker exit leaves. *)
      let detail =
        Printf.sprintf "fault %s fired (key %d)" (site_to_string site) key
      in
      Obs.Flight.record ~kind:"fault"
        ~run_id:(Option.value ~default:"" (Obs.Ctx.current ()))
        detail;
      ignore
        (Obs.Flight.dump_auto ~reason:("fault." ^ site_to_string site) ())
    end;
    hit
