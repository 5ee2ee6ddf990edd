type attr = string * string

type point = {
  iteration : int;
  infidelity : float;
  learning_rate : float;
  grad_norm : float;
}

type event =
  | Span of {
      id : int;
      parent : int;
      name : string;
      attrs : attr list;
      ts : float;
      dur : float;
      tid : int;
    }
  | Count of { name : string; by : float; ts : float; tid : int }
  | Gauge of { name : string; value : float; ts : float; tid : int }
  | Profile of { label : string; points : point list; ts : float; tid : int }

(* ---- clock -----------------------------------------------------------
   Single indirection over CLOCK_MONOTONIC.  Every span timestamp,
   deadline check and bench timer in the tree reads time through here,
   so a fake clock in a test is one line.  The source never steps under
   NTP, and every reader takes only differences of two reads or compares
   with a deadline built from a read. *)
external monotonic : unit -> (float[@unboxed])
  = "pqc_monotonic_now_byte" "pqc_monotonic_now"
[@@noalloc]

module Clock = struct
  let default = monotonic
  let hook = ref default
  let now () = !hook ()
  let set f = hook := f
  let reset () = hook := default
end

(* ---- correlation contexts --------------------------------------------
   A run_id names one compile request; per-batch-item ids derive from it
   with a "#<idx>" suffix.  Ids are minted in the parent (before any
   fork) from a process-local counter plus a label hash, so the id
   stream is a pure function of the request sequence: workers:1 and
   workers:N runs mint identical ids.  The ambient context is what
   spans, cache entries, run-log lines and degradation records stamp
   themselves with at creation time. *)
module Ctx = struct
  let ambient : string option ref = ref None
  let minted = ref 0

  let fnv1a s =
    let h = ref 0x811c9dc5 in
    String.iter
      (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
      s;
    !h

  let mint label =
    incr minted;
    Printf.sprintf "r%03d-%08x" !minted (fnv1a label)

  let derive parent idx = parent ^ "#" ^ string_of_int idx
  let current () = !ambient

  let with_ctx c f =
    let saved = !ambient in
    ambient := c;
    Fun.protect ~finally:(fun () -> ambient := saved) f

  let reset_minted () = minted := 0
end

(* Global, process-local trace state.  Forked pool children inherit a
   copy-on-write snapshot; everything they record past the fork point is
   shipped back explicitly via events_since/absorb, so the parent never
   sees duplicates. *)
let enabled_flag = ref false
let t0 = ref 0.0
let events_rev = ref []
let n_events = ref 0
let stack = ref []
let next_id = ref 0
(* Highest span id absorbed from a forked child: a later pool map numbers
   its workers' spans above it, so successive maps never reuse an id. *)
let absorbed_max = ref 0
let tid = ref 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

(* Backstop against a runaway instrumentation loop eating the heap; a
   real compile records a few thousand events. *)
let max_events = 500_000

let enabled () = !enabled_flag

(* Cumulative seconds the tracing layer spent on its own bookkeeping
   (span close, event push) — the self-overhead gauge. *)
let overhead = ref 0.0
let overhead_seconds () = !overhead

let enable () =
  if not !enabled_flag then begin
    enabled_flag := true;
    if !t0 = 0.0 then t0 := Clock.now ()
  end

let disable () = enabled_flag := false

let reset () =
  events_rev := [];
  n_events := 0;
  stack := [];
  next_id := 0;
  absorbed_max := 0;
  Hashtbl.reset counters;
  overhead := 0.0;
  Ctx.reset_minted ();
  t0 := Clock.now ()

let now () = Clock.now () -. !t0

let push e =
  if !n_events < max_events then begin
    events_rev := e :: !events_rev;
    incr n_events
  end

let events () = List.rev !events_rev
let mark () = !n_events

let set_worker w =
  tid := w;
  next_id := max !next_id !absorbed_max + (w * 1_000_000)

(* ---- flight recorder --------------------------------------------------
   A bounded ring of the last N structured events, always on (even with
   tracing disabled) because the append path is O(1) and allocation-free:
   parallel pre-sized arrays hold references to caller-owned strings plus
   an unboxed float timestamp.  The parent dumps its ring to a file when
   the pool kills or reaps an abnormal worker or a fault plan fires,
   turning "worker 3 died" into a replayable event tail. *)
module Flight = struct
  type entry = {
    f_seq : int;  (* monotonic per process; survives ring wrap *)
    f_ts : float;  (* wall clock, so a dump lines up with other logs *)
    f_kind : string;
    f_run_id : string;  (* "" when no ambient context *)
    f_detail : string;
  }

  let capacity = ref 256
  let kinds = ref (Array.make !capacity "")
  let runs = ref (Array.make !capacity "")
  let details = ref (Array.make !capacity "")
  let tss = ref (Array.make !capacity 0.0)
  let total = ref 0

  let set_capacity n =
    let n = max 1 n in
    capacity := n;
    kinds := Array.make n "";
    runs := Array.make n "";
    details := Array.make n "";
    tss := Array.make n 0.0;
    total := 0

  (* Child post-fork: logically empty the ring so a worker's dump never
     replays parent history.  O(1): stale slots are simply out of the
     live window. *)
  let reset () = total := 0

  let record ~kind ?(run_id = "") detail =
    let i = !total mod !capacity in
    !kinds.(i) <- kind;
    !runs.(i) <- run_id;
    !details.(i) <- detail;
    !tss.(i) <- Unix.gettimeofday ();
    incr total

  let entries () =
    let n = min !total !capacity in
    let first = !total - n in
    List.init n (fun j ->
        let seq = first + j in
        let i = seq mod !capacity in
        {
          f_seq = seq;
          f_ts = !tss.(i);
          f_kind = !kinds.(i);
          f_run_id = !runs.(i);
          f_detail = !details.(i);
        })

  (* Dumps are forensic text, not a codec: newlines and tabs inside a
     field are flattened so one entry is always one line. *)
  let flat s =
    String.map (function '\n' | '\r' | '\t' -> ' ' | c -> c) s

  let dump_counter = ref 0

  let render ~reason =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "# flight-recorder dump pid=%d worker=%d reason=%s\n"
         (Unix.getpid ()) !tid (flat reason));
    List.iter
      (fun e ->
        Buffer.add_string buf
          (Printf.sprintf "%d\t%.6f\t%s\t%s\t%s\n" e.f_seq e.f_ts
             (flat e.f_kind)
             (if e.f_run_id = "" then "-" else flat e.f_run_id)
             (flat e.f_detail)))
      (entries ());
    Buffer.contents buf

  let dump ~dir ~reason () =
    if !total = 0 then None
    else begin
      incr dump_counter;
      let path =
        Filename.concat dir
          (Printf.sprintf "flight-%d-w%d-%d.txt" (Unix.getpid ()) !tid
             !dump_counter)
      in
      match
        let tmp = path ^ ".tmp" in
        let oc = open_out tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (render ~reason));
        Sys.rename tmp path
      with
      | () -> Some path
      | exception _ -> None
    end

  let configured_dir () =
    match Sys.getenv_opt "PQC_FLIGHT_DIR" with
    | Some d when String.trim d <> "" -> Some (String.trim d)
    | _ -> None

  (* No-op unless PQC_FLIGHT_DIR is configured: a normal run must never
     leave dump files behind. *)
  let dump_auto ~reason () =
    match configured_dir () with
    | Some dir -> dump ~dir ~reason ()
    | None -> None
end

module Span = struct
  let with_ ~name ?attrs f =
    if not !enabled_flag then f ()
    else begin
      let attrs = match attrs with Some a -> a () | None -> [] in
      incr next_id;
      let id = !next_id in
      let parent = match !stack with p :: _ -> p | [] -> 0 in
      stack := id :: !stack;
      let ts = now () in
      let close attrs =
        (match !stack with
        | s :: rest when s = id -> stack := rest
        | _ -> stack := List.filter (fun s -> s <> id) !stack);
        let t_close = now () in
        let dur = t_close -. ts in
        (* Spans stamp themselves with the ambient correlation context,
           so a grep for one run_id pulls its spans out of the trace. *)
        let attrs =
          match Ctx.current () with
          | Some rid -> ("run_id", rid) :: attrs
          | None -> attrs
        in
        let rid = match Ctx.current () with Some r -> r | None -> "" in
        Flight.record ~kind:"span" ~run_id:rid name;
        push (Span { id; parent; name; attrs; ts; dur; tid = !tid });
        overhead := !overhead +. (now () -. t_close)
      in
      match f () with
      | v ->
        close attrs;
        v
      | exception e ->
        close (attrs @ [ ("error", Printexc.to_string e) ]);
        raise e
    end
end

let counter_value name =
  match Hashtbl.find_opt counters name with Some v -> v | None -> 0.0

let count ?(by = 1.0) name =
  if !enabled_flag then begin
    Hashtbl.replace counters name (counter_value name +. by);
    push (Count { name; by; ts = now (); tid = !tid })
  end

let gauge name value =
  if !enabled_flag then push (Gauge { name; value; ts = now (); tid = !tid })

let profile ~label points =
  if !enabled_flag then
    push (Profile { label; points; ts = now (); tid = !tid })

(* Per span name: count, total seconds and every recorded duration in
   emission order (the total sums them in that order).  Heaviest spans
   first; count then name break ties, so the ordering is fully
   deterministic even under equal totals. *)
let span_rows () =
  let tbl : (string, float list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (function
      | Span s ->
        Hashtbl.replace tbl s.name
          (s.dur :: Option.value ~default:[] (Hashtbl.find_opt tbl s.name))
      | Count _ | Gauge _ | Profile _ -> ())
    !events_rev;
  Hashtbl.fold
    (fun name durs acc ->
      (name, List.length durs, List.fold_left ( +. ) 0.0 durs, durs) :: acc)
    tbl []
  |> List.sort (fun (a, na, ta, _) (b, nb, tb, _) ->
         match Float.compare tb ta with
         | 0 -> ( match Int.compare nb na with
                | 0 -> String.compare a b
                | c -> c)
         | c -> c)

let rollup () =
  List.map (fun (name, n, total, _) -> (name, n, total)) (span_rows ())

(* ---- fork plumbing ---------------------------------------------------- *)

let events_since m =
  let rec take n l acc =
    if n <= 0 then acc
    else match l with [] -> acc | x :: rest -> take (n - 1) rest (x :: acc)
  in
  take (!n_events - m) !events_rev []

let rewind m =
  let rec drop n l =
    match l with
    | e :: rest when n > 0 ->
      (match e with
       | Count c -> Hashtbl.replace counters c.name (counter_value c.name -. c.by)
       | Span _ | Gauge _ | Profile _ -> ());
      drop (n - 1) rest
    | _ -> l
  in
  events_rev := drop (!n_events - m) !events_rev;
  n_events := min m !n_events

let absorb evs =
  List.iter
    (fun e ->
      (match e with
       | Count c -> Hashtbl.replace counters c.name (counter_value c.name +. c.by)
       | Span sp -> absorbed_max := max !absorbed_max sp.id
       | Gauge _ | Profile _ -> ());
      push e)
    evs

(* One shared escaper for every JSON writer in the tree — see
   {!Pqc_util.Jsonx.escape_string}. *)
let json_string = Pqc_util.Jsonx.escape_string

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

(* ---- Chrome trace-event export --------------------------------------- *)

let micros s = Printf.sprintf "%.3f" (s *. 1e6)

let to_chrome_json ?(normalize = false) () =
  let buf = Buffer.create 4096 in
  let totals : (string, float) Hashtbl.t = Hashtbl.create 16 in
  Buffer.add_string buf "{\n  \"traceEvents\": [\n";
  let first = ref true in
  let emit_event ~name ~ph ~ts ~tid extra =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf "    {\"name\": ";
    Buffer.add_string buf (json_string name);
    Buffer.add_string buf (Printf.sprintf ", \"ph\": \"%s\", \"ts\": %s" ph ts);
    Buffer.add_string buf extra;
    Buffer.add_string buf (Printf.sprintf ", \"pid\": 1, \"tid\": %d}" tid)
  in
  List.iteri
    (fun i e ->
      let ts s = if normalize then string_of_int i else micros s in
      match e with
      | Span s ->
        let dur = if normalize then "1" else micros s.dur in
        let args =
          String.concat ", "
            (Printf.sprintf "\"id\": \"%d\"" s.id
            :: Printf.sprintf "\"parent\": \"%d\"" s.parent
            :: List.map
                 (fun (k, v) ->
                   Printf.sprintf "%s: %s" (json_string k) (json_string v))
                 s.attrs)
        in
        emit_event ~name:s.name ~ph:"X" ~ts:(ts s.ts) ~tid:s.tid
          (Printf.sprintf ", \"dur\": %s, \"args\": {%s}" dur args)
      | Count c ->
        let total =
          match Hashtbl.find_opt totals c.name with
          | Some t -> t +. c.by
          | None -> c.by
        in
        Hashtbl.replace totals c.name total;
        emit_event ~name:c.name ~ph:"C" ~ts:(ts c.ts) ~tid:c.tid
          (Printf.sprintf ", \"args\": {%s: %s}" (json_string c.name)
             (json_float total))
      | Gauge g ->
        emit_event ~name:g.name ~ph:"C" ~ts:(ts g.ts) ~tid:g.tid
          (Printf.sprintf ", \"args\": {%s: %s}" (json_string g.name)
             (json_float g.value))
      | Profile p ->
        let col f = String.concat ", " (List.map f p.points) in
        let args =
          String.concat ""
            [ "\"label\": "; json_string p.label;
              ", \"iteration\": [";
              col (fun pt -> string_of_int pt.iteration);
              "], \"infidelity\": [";
              col (fun pt -> json_float pt.infidelity);
              "], \"learning_rate\": [";
              col (fun pt -> json_float pt.learning_rate);
              "], \"grad_norm\": [";
              col (fun pt -> json_float pt.grad_norm);
              "]" ]
        in
        emit_event
          ~name:("grape.profile:" ^ p.label)
          ~ph:"i" ~ts:(ts p.ts) ~tid:p.tid
          (Printf.sprintf ", \"s\": \"t\", \"args\": {%s}" args))
    (events ());
  Buffer.add_string buf "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n";
  Buffer.contents buf

let write ?normalize ~path () =
  (* Stamp the self-overhead gauge so every written trace carries the
     cost of its own instrumentation. *)
  gauge "obs.overhead_s" (overhead_seconds ());
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_chrome_json ?normalize ()));
  Sys.rename tmp path

(* The nearest-rank [p]-th percentile of [sorted]: the value at rank
   ceil(p·n/100), counted from 1, so [p = 100] is the maximum.  Integer
   arithmetic, so the rank never moves with the rounding of p/100. *)
let nearest_rank sorted p =
  sorted.(max 1 (((p * Array.length sorted) + 99) / 100) - 1)

let summary () =
  let t =
    Pqc_util.Table.create
      [ "name"; "kind"; "count"; "total"; "p50"; "p90"; "p99"; "max" ]
  in
  let ms s = Pqc_util.Table.cell_f ~decimals:3 (s *. 1e3) ^ " ms" in
  List.iter
    (fun (name, n, total, durs) ->
      let sorted = Array.of_list durs in
      Array.sort Float.compare sorted;
      Pqc_util.Table.add_row t
        (name :: "span" :: string_of_int n :: ms total
        :: List.map (fun p -> ms (nearest_rank sorted p)) [ 50; 90; 99; 100 ]))
    (span_rows ());
  let incs : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let gauges : (string, float) Hashtbl.t = Hashtbl.create 16 in
  (* Per profile label, in first-seen order: profiles and points. *)
  let profiles : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  let labels = ref [] in
  List.iter
    (function
      | Count c ->
        Hashtbl.replace incs c.name
          (1 + Option.value ~default:0 (Hashtbl.find_opt incs c.name))
      | Gauge g -> Hashtbl.replace gauges g.name g.value
      | Profile p ->
        let n, points =
          match Hashtbl.find_opt profiles p.label with
          | Some np -> np
          | None ->
            labels := p.label :: !labels;
            (0, 0)
        in
        Hashtbl.replace profiles p.label (n + 1, points + List.length p.points)
      | Span _ -> ())
    (events ());
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) incs []
  |> List.sort compare
  |> List.iter (fun (name, n) ->
         Pqc_util.Table.add_row t
           [ name; "counter"; string_of_int n;
             Pqc_util.Table.cell_f ~decimals:3 (counter_value name) ]);
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) gauges []
  |> List.sort compare
  |> List.iter (fun (name, v) ->
         Pqc_util.Table.add_row t
           [ name; "gauge"; ""; Pqc_util.Table.cell_f ~decimals:3 v ]);
  List.rev !labels
  |> List.iter (fun label ->
         let n, points = Hashtbl.find profiles label in
         Pqc_util.Table.add_row t
           [ label; "profile"; string_of_int n; string_of_int points ]);
  Pqc_util.Table.render t

(* PQC_TRACE: "1"/"true"/"summary" enable with a stderr summary at exit;
   any other non-empty, non-"0" value enables and is treated as the
   output path for the Chrome trace.  A path that cannot be written costs
   one stderr line, not the exit status.  Forked pool children exit
   through Unix._exit, which skips at_exit, so only the parent ever
   writes. *)
let () =
  match Sys.getenv_opt "PQC_TRACE" with
  | None -> ()
  | Some v -> (
    let v = String.trim v in
    if v = "" || v = "0" then ()
    else begin
      enable ();
      match v with
      | "1" | "true" | "summary" ->
        at_exit (fun () ->
            if !n_events > 0 then (
              prerr_string (summary ());
              prerr_newline ()))
      | path ->
        at_exit (fun () ->
            try write ~path () with
            | e ->
              Printf.eprintf "partialqc: cannot write trace %s: %s\n%!" path
                (match e with Sys_error m -> m | e -> Printexc.to_string e))
    end)
