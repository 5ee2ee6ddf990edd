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

(* ---- histogram registry (Metrics) -------------------------------------
   Log-bucketed histograms with bucket boundaries at 2^(k/8) — ~9%
   relative width, so any quantile read off a bucket is within one
   bucket (a factor of 2^(1/8)) of the exact order statistic.  Unlike
   events, observations fold into fixed-size bucket tables, so a
   thousand-iteration variational run costs O(#buckets) memory, not
   O(#observations). *)

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  mutable h_nonpos : int;  (* observations <= 0, kept out of the log grid *)
  h_buckets : (int, int) Hashtbl.t;
}

(* Every registry operation below is written against an explicit table
   so the same code serves both the live process-global registry and the
   offline aggregators used by the bench rollup (Metrics.Agg). *)
type hist_table = (string, hist) Hashtbl.t

let hists : hist_table = Hashtbl.create 16

let log_gamma = Float.log 2.0 /. 8.0
let bucket_of v = int_of_float (Float.floor (Float.log v /. log_gamma))
let bucket_mid k = Float.exp (log_gamma *. (float_of_int k +. 0.5))

let hist_in (tbl : hist_table) name =
  match Hashtbl.find_opt tbl name with
  | Some h -> h
  | None ->
    let h =
      { h_count = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity;
        h_nonpos = 0; h_buckets = Hashtbl.create 16 }
    in
    Hashtbl.replace tbl name h;
    h

let hist_for name = hist_in hists name

(* Non-finite observations are dropped: a NaN would poison sum/min/max
   and has no bucket. *)
let metrics_observe name v =
  if !enabled_flag && Float.is_finite v then begin
    let h = hist_for name in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    if v <= 0.0 then h.h_nonpos <- h.h_nonpos + 1
    else begin
      let k = bucket_of v in
      Hashtbl.replace h.h_buckets k
        (1 + Option.value ~default:0 (Hashtbl.find_opt h.h_buckets k))
    end
  end

(* Backstop against a runaway instrumentation loop eating the heap; a
   real compile records a few thousand events. *)
let max_events = 500_000

let enabled () = !enabled_flag

(* Cumulative seconds the tracing layer spent on its own bookkeeping
   (span close, event push, histogram fold) — the self-overhead gauge. *)
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
  Hashtbl.reset hists;
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
   the supervised pool kills/quarantines/reaps a worker or a fault plan
   fires, turning "worker 3 died" into a replayable event tail. *)
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
  let with_ ~name ?(attrs = []) f =
    if not !enabled_flag then f ()
    else begin
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
        (* Every span close also feeds the latency histogram of its
           name, so percentiles of e.g. engine.search come for free. *)
        metrics_observe name dur;
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

let rollup () =
  let tbl : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (function
      | Span s ->
        let n, total =
          match Hashtbl.find_opt tbl s.name with
          | Some (n, t) -> (n, t)
          | None -> (0, 0.0)
        in
        Hashtbl.replace tbl s.name (n + 1, total +. s.dur)
      | _ -> ())
    (events ());
  Hashtbl.fold (fun name (n, t) acc -> (name, n, t) :: acc) tbl []
  |> List.sort (fun (a, na, ta) (b, nb, tb) ->
         (* Heaviest spans first; count then name break ties, so the
            ordering is fully deterministic even under equal totals. *)
         match Float.compare tb ta with
         | 0 -> ( match Int.compare nb na with
                | 0 -> String.compare a b
                | c -> c)
         | c -> c)

(* ---- metrics text format --------------------------------------------
   Strings in a serialized histogram registry (metrics.reg files and the
   pool's Metrics frames) are escaped so no separator or newline
   survives: records are joined by '\x1e', fields by '\x1f', list
   elements by '\x1d', pair halves by '\x1c'. *)

let esc s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\x1e' -> Buffer.add_string buf "\\e"
      | '\x1f' -> Buffer.add_string buf "\\f"
      | '\x1d' -> Buffer.add_string buf "\\g"
      | '\x1c' -> Buffer.add_string buf "\\h"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unesc s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | '\\' -> Buffer.add_char buf '\\'
       | 'n' -> Buffer.add_char buf '\n'
       | 't' -> Buffer.add_char buf '\t'
       | 'e' -> Buffer.add_char buf '\x1e'
       | 'f' -> Buffer.add_char buf '\x1f'
       | 'g' -> Buffer.add_char buf '\x1d'
       | 'h' -> Buffer.add_char buf '\x1c'
       | c ->
         Buffer.add_char buf '\\';
         Buffer.add_char buf c);
       incr i
     end
     else Buffer.add_char buf s.[!i]);
    incr i
  done;
  Buffer.contents buf

(* ---- fork plumbing ---------------------------------------------------- *)

let events_since m =
  let rec take n l acc =
    if n <= 0 then acc
    else match l with [] -> acc | x :: rest -> take (n - 1) rest (x :: acc)
  in
  take (!n_events - m) !events_rev []

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

(* ---- run-level metrics ----------------------------------------------- *)

module Metrics = struct
  type stat = { count : int; sum : float; min : float; max : float }

  let observe = metrics_observe

  let reset () = Hashtbl.reset hists

  let names_in (tbl : hist_table) =
    Hashtbl.fold (fun name _ acc -> name :: acc) tbl []
    |> List.sort String.compare

  let names () = names_in hists

  let stats_in (tbl : hist_table) name =
    Hashtbl.find_opt tbl name
    |> Option.map (fun h ->
           { count = h.h_count; sum = h.h_sum; min = h.h_min; max = h.h_max })

  let stats name = stats_in hists name

  let quantile_in (tbl : hist_table) name q =
    match Hashtbl.find_opt tbl name with
    | None -> Float.nan
    | Some h when h.h_count = 0 -> Float.nan
    | Some h ->
      let q = Float.min 1.0 (Float.max 0.0 q) in
      let rank =
        max 1
          (min h.h_count (int_of_float (Float.ceil (q *. float_of_int h.h_count))))
      in
      if rank <= h.h_nonpos then h.h_min
      else begin
        let buckets =
          Hashtbl.fold (fun k n acc -> (k, n) :: acc) h.h_buckets []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        let rec walk seen = function
          | [] -> h.h_max
          | (k, n) :: rest ->
            let seen = seen + n in
            if seen >= rank then
              Float.max h.h_min (Float.min h.h_max (bucket_mid k))
            else walk seen rest
        in
        walk h.h_nonpos buckets
      end

  let quantile name q = quantile_in hists name q

  let percentiles_in tbl name =
    (quantile_in tbl name 0.5, quantile_in tbl name 0.9, quantile_in tbl name 0.99)

  let percentiles name = percentiles_in hists name

  (* The registry as one line of text (see esc above): what metrics.reg
     files hold and what a pool worker ships.  A forked child resets its
     (copy-on-write) registry right after the fork, so encode_all holds
     exactly the child's own observations and absorb can merge them
     additively. *)
  let encode_in (tbl : hist_table) =
    if Hashtbl.length tbl = 0 then ""
    else
      Hashtbl.fold (fun name h acc -> (name, h) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.filter (fun (_, h) -> h.h_count > 0)
      |> List.map (fun (name, h) ->
             let buckets =
               Hashtbl.fold (fun k n acc -> (k, n) :: acc) h.h_buckets []
               |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
               |> List.map (fun (k, n) ->
                      string_of_int k ^ "\x1c" ^ string_of_int n)
               |> String.concat "\x1d"
             in
             String.concat "\x1f"
               [ esc name; string_of_int h.h_count;
                 Printf.sprintf "%h" h.h_sum; Printf.sprintf "%h" h.h_min;
                 Printf.sprintf "%h" h.h_max; string_of_int h.h_nonpos;
                 buckets ])
      |> String.concat "\x1e"

  let encode_all () = encode_in hists

  let decode_hist s =
    match String.split_on_char '\x1f' s with
    | [ name; count; sum; vmin; vmax; nonpos; buckets ] ->
      let buckets =
        if buckets = "" then []
        else
          String.split_on_char '\x1d' buckets
          |> List.filter_map (fun pair ->
                 match String.index_opt pair '\x1c' with
                 | Some i ->
                   Some
                     ( int_of_string (String.sub pair 0 i),
                       int_of_string
                         (String.sub pair (i + 1) (String.length pair - i - 1))
                     )
                 | None -> None)
      in
      Some
        ( unesc name,
          int_of_string count,
          float_of_string sum,
          float_of_string vmin,
          float_of_string vmax,
          int_of_string nonpos,
          buckets )
    | _ -> None

  let absorb_in (tbl : hist_table) line =
    if line <> "" then
      String.split_on_char '\x1e' line
      |> List.iter (fun s ->
             match (try decode_hist s with _ -> None) with
             | None -> ()  (* best-effort: a damaged record is dropped *)
             | Some (name, count, sum, vmin, vmax, nonpos, buckets) ->
               let h = hist_in tbl name in
               h.h_count <- h.h_count + count;
               h.h_sum <- h.h_sum +. sum;
               h.h_min <- Float.min h.h_min vmin;
               h.h_max <- Float.max h.h_max vmax;
               h.h_nonpos <- h.h_nonpos + nonpos;
               List.iter
                 (fun (k, n) ->
                   Hashtbl.replace h.h_buckets k
                     (n
                     + Option.value ~default:0 (Hashtbl.find_opt h.h_buckets k)))
                 buckets)

  let absorb line = absorb_in hists line

  let mean_in tbl name =
    match stats_in tbl name with
    | Some s when s.count > 0 -> s.sum /. float_of_int s.count
    | Some _ | None -> Float.nan

  let mean name = mean_in hists name

  let summary () =
    let t =
      Pqc_util.Table.create
        [ "metric"; "count"; "mean"; "p50"; "p90"; "p99"; "max" ]
    in
    List.iter
      (fun name ->
        match stats name with
        | None -> ()
        | Some s ->
          let p50, p90, p99 = percentiles name in
          let cell v = Pqc_util.Table.cell_f ~decimals:6 v in
          Pqc_util.Table.add_row t
            [ name; string_of_int s.count; cell (mean name); cell p50;
              cell p90; cell p99; cell s.max ])
      (names ());
    Pqc_util.Table.render t

  (* Offline aggregator over serialized registries.  Unlike the global
     registry this is a plain value: it ignores the enabled flag and is
     untouched by {!reset}, so a rollup pass can merge the [encode_all]
     output of many finished runs (read back from disk) without tracing
     being live and without stomping on the process's own telemetry. *)
  module Agg = struct
    type t = hist_table

    let create () : t = Hashtbl.create 16
    let absorb = absorb_in
    let names = names_in
    let stats = stats_in
    let mean = mean_in
    let percentiles = percentiles_in
    let encode = encode_in
  end
end

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

let summary () =
  let t = Pqc_util.Table.create [ "name"; "kind"; "count"; "total" ] in
  List.iter
    (fun (name, n, total) ->
      Pqc_util.Table.add_row t
        [ name; "span"; string_of_int n;
          Pqc_util.Table.cell_f ~decimals:3 (total *. 1e3) ^ " ms" ])
    (rollup ());
  let incs : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let gauges : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let profiles = ref [] in
  List.iter
    (function
      | Count c ->
        Hashtbl.replace incs c.name
          (1 + Option.value ~default:0 (Hashtbl.find_opt incs c.name))
      | Gauge g -> Hashtbl.replace gauges g.name g.value
      | Profile p -> profiles := (p.label, List.length p.points) :: !profiles
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
  List.rev !profiles
  |> List.iter (fun (label, n) ->
         Pqc_util.Table.add_row t [ label; "profile"; string_of_int n; "" ]);
  Pqc_util.Table.render t

(* PQC_TRACE: "1"/"true"/"summary" enable with a stderr summary at exit;
   any other non-empty, non-"0" value enables and is treated as the
   output path for the Chrome trace.  Forked pool children exit through
   Unix._exit, which skips at_exit, so only the parent ever writes. *)
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
      | path -> at_exit (fun () -> try write ~path () with _ -> ())
    end)
