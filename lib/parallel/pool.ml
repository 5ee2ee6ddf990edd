module Obs = Pqc_obs.Obs
module Rng = Pqc_util.Rng

type stats = {
  workers : int;
  recovered : int;
  hung : int;
  respawned : int;
  quarantined : int;
  abnormal_exits : int;
}

type injected_fault = Hang | Crash_pre | Crash_mid | Partial_write

(* The chaos harness (Pqc_core.Fault) installs its decision function
   here; the hook is consulted only inside forked children, so the
   sequential path and in-parent recovery are fault-free by construction
   (which is what makes fault-plan runs comparable bit-for-bit to the
   clean sequential run). *)
let fault_hook : (int -> injected_fault option) ref = ref (fun _ -> None)
let set_fault_hook h = fault_hook := h
let clear_fault_hook () = fault_hook := fun _ -> None

(* Warn once per distinct bad value, not once per call: grid searches
   call workers_from_env per batch and a thousand identical lines on
   stderr would bury the signal. *)
let warned_invalid : (string, unit) Hashtbl.t = Hashtbl.create 4

let workers_from_env ?(default = 1) () =
  match Sys.getenv_opt "PQC_WORKERS" with
  | None -> default
  | Some s when String.trim s = "" -> default
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | Some _ | None ->
       if not (Hashtbl.mem warned_invalid s) then begin
         Hashtbl.add warned_invalid s ();
         Printf.eprintf
           "partialqc: ignoring invalid PQC_WORKERS=%S (expected an integer \
            >= 1); using %d\n%!"
           s default
       end;
       Obs.count "pool.env.invalid";
       default)

let item_deadline_from_env () =
  match Sys.getenv_opt "PQC_ITEM_DEADLINE_S" with
  | None -> None
  | Some s ->
    (match float_of_string_opt (String.trim s) with
     | Some d when Float.is_finite d && d > 0.0 -> Some d
     | Some _ | None -> None)

let item_retries_from_env ?(default = 2) () =
  match Sys.getenv_opt "PQC_POOL_ITEM_RETRIES" with
  | None -> default
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | Some _ | None -> default)

let backoff_base_from_env ?(default = 0.02) () =
  match Sys.getenv_opt "PQC_POOL_BACKOFF_S" with
  | None -> default
  | Some s ->
    (match float_of_string_opt (String.trim s) with
     | Some b when Float.is_finite b && b > 0.0 -> b
     | Some _ | None -> default)

let item_span f x = Obs.Span.with_ ~name:"pool.item" (fun () -> f x)

let zero_stats w =
  { workers = w; recovered = 0; hung = 0; respawned = 0; quarantined = 0;
    abnormal_exits = 0 }

let sequential f items =
  (List.map (fun x -> (item_span f x, false)) items, zero_stats 1)

(* --- Child protocol ---

   The parent feeds each worker item indices, one per line, on the
   worker's feed pipe.  The worker answers on its result pipe, one frame
   per line:
     H\t<idx>           heartbeat: the worker is starting item idx
     <idx>\t<payload>   a result for item idx (payload is codec output)
     R\t<idx>           ready: item idx is done, delivered or not
     T\t<payload>       trace events recorded since the fork
     M\t<payload>       histogram registry snapshot
   The parent answers each ready frame with the next queued index, or by
   closing the feed once the queue is empty; the worker then ships its T
   and M frames and exits.  Frames are flushed eagerly so the parent's
   liveness view is current: a worker that goes silent past the item
   deadline while it holds an item is presumed hung. *)

let child_loop ~encode ~f ~items ~feed ~wr wid =
  let ic = Unix.in_channel_of_descr feed in
  let oc = Unix.out_channel_of_descr wr in
  (* Events recorded before the fork belong to the parent; only ship
     what this child adds past this point.  The histogram registry is
     copy-on-write too: reset this child's copy so encode_all below
     ships exactly the observations made inside this worker (the parent
     still owns everything recorded before the fork).  The flight ring
     resets for the same reason: a worker dump must replay this worker's
     tail, not inherited parent history. *)
  let m = Obs.mark () in
  Obs.set_worker wid;
  Obs.Metrics.reset ();
  Obs.Flight.reset ();
  let next () =
    Option.bind (In_channel.input_line ic) (fun l ->
        match int_of_string_opt l with
        | Some i when i >= 0 && i < Array.length items -> Some i
        | Some _ | None -> None)
  in
  let run i =
    (* Claim the item before computing it, so a subsequent hang or crash
       is attributable to exactly this item. *)
    Printf.fprintf oc "H\t%d\n" i;
    flush oc;
    (match !fault_hook i with
     | Some Hang ->
       (* A hung worker is silent, not dead: it holds its pipe open and
          never frames again.  Only the parent's deadline can end it. *)
       while true do
         Unix.sleepf 3600.0
       done
     | Some Crash_pre -> Unix._exit 70
     | (Some (Crash_mid | Partial_write) | None) as fault ->
       (match encode (item_span f items.(i)) with
        | s ->
          (* A payload with a newline would desynchronize the line
             framing; drop it and let the parent recompute. *)
          if not (String.contains s '\n') then begin
            let line = Printf.sprintf "%d\t%s" i s in
            match fault with
            | Some Crash_mid ->
              (* Torn frame: half a line, no newline, then die — the
                 parent must discard the fragment. *)
              output_string oc
                (String.sub line 0 ((String.length line + 1) / 2));
              flush oc;
              Unix._exit 71
            | Some Partial_write ->
              (* Short write that still terminates the line: a
                 framed-but-corrupt record the codec must reject. *)
              output_string oc
                (String.sub line 0 ((String.length line + 1) / 2));
              output_char oc '\n'
            | _ ->
              output_string oc line;
              output_char oc '\n'
          end
        | exception _ -> ()));
    (* The result and the ready frame leave in one write. *)
    Printf.fprintf oc "R\t%d\n" i;
    flush oc
  in
  (try
     Obs.Span.with_ ~name:"pool.worker"
       ~attrs:[ ("worker", string_of_int wid) ]
       (fun () ->
         let rec loop () =
           match next () with
           | Some i ->
             run i;
             loop ()
           | None -> ()
         in
         loop ());
     (* Trace frames ride the same pipe under a "T" pseudo-index that
        result parsing ignores, so untraced parents stay compatible;
        histogram registries travel likewise under "M". *)
     (match Obs.encode_since m with
      | "" -> ()
      | payload ->
        if not (String.contains payload '\n') then
          Printf.fprintf oc "T\t%s\n" payload);
     (match Obs.Metrics.encode_all () with
      | "" -> ()
      | payload ->
        if not (String.contains payload '\n') then
          Printf.fprintf oc "M\t%s\n" payload);
     flush oc
   with _ -> ());
  (try flush oc with _ -> ())

let parse_line ~decode ~n line =
  match String.index_opt line '\t' with
  | None -> None
  | Some t ->
    (match int_of_string_opt (String.sub line 0 t) with
     | Some i when i >= 0 && i < n ->
       let payload = String.sub line (t + 1) (String.length line - t - 1) in
       Option.map (fun v -> (i, v)) (decode payload)
     | Some _ | None -> None)

let framed c line =
  String.length line >= 2 && line.[0] = c && line.[1] = '\t'

let frame_payload line = String.sub line 2 (String.length line - 2)

let is_trace_line = framed 'T'
let is_metrics_line = framed 'M'
let is_heartbeat_line = framed 'H'
let is_ready_line = framed 'R'

(* --- Parent-side supervision --- *)

type worker = {
  pid : int;
  fd : Unix.file_descr;  (** Result pipe, read end. *)
  mutable feed : Unix.file_descr option;
      (** Feed pipe, write end; [None] once closed. *)
  buf : Buffer.t;
  wid : int;
  mutable current : int;  (** Item fed and not yet finished, -1 if none. *)
  mutable last_seen : float;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Reap one child, preferring WNOHANG polls so a child that is slow to
   transition never wedges shutdown behind a blocking wait; after the
   poll budget a blocking wait is safe (the child is dead or dying: we
   only reap after EOF or SIGKILL).  [None] when the child was already
   reaped elsewhere. *)
let reap_status pid =
  let rec poll n =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if n <= 0 then snd (Unix.waitpid [] pid)
      else begin
        Unix.sleepf 0.002;
        poll (n - 1)
      end
    | _, status -> status
  in
  match poll 100 with
  | status -> Some status
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None

let map ?workers ?item_deadline_s ?item_retries ?item_label ~encode ~decode f
    items =
  let requested =
    match workers with Some w -> max 1 w | None -> workers_from_env ()
  in
  let deadline =
    match item_deadline_s with
    | Some d when Float.is_finite d && d > 0.0 -> Some d
    | Some _ -> None
    | None -> item_deadline_from_env ()
  in
  let retries =
    match item_retries with
    | Some k -> max 1 k
    | None -> item_retries_from_env ()
  in
  let n = List.length items in
  if requested <= 1 || n <= 1 then sequential f items
  else
    Obs.Span.with_ ~name:"pool.map"
      ~attrs:
        [ ("items", string_of_int n);
          ("workers", string_of_int (min requested n)) ]
      (fun () ->
        (* A feed write to a worker that has died must fail with EPIPE,
           not kill the parent. *)
        let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
        Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe sigpipe)
        @@ fun () ->
        let items = Array.of_list items in
        (* Correlation label for item [i] — the run_id the supervising
           parent stamps on flight-recorder entries, so a dump names the
           request a killed worker was serving. *)
        let label i =
          match item_label with
          | Some l -> ( match l i with "" -> Printf.sprintf "item#%d" i | s -> s)
          | None -> Printf.sprintf "item#%d" i
        in
        let w = min requested n in
        let results = Array.make n None in
        let strikes = Array.make n 0 in
        (* The shared queue every worker pulls from, one item at a time:
           a worker that draws cheap items simply asks again, so no worker
           idles while another still holds a backlog. *)
        let queue = Queue.create () in
        for i = 0 to n - 1 do
          Queue.push i queue
        done;
        let hung = ref 0
        and respawned = ref 0
        and nquar = ref 0
        and abnormal = ref 0 in
        (* Deterministic backoff jitter: seeded per map call, so a chaos
           run's sleep pattern is reproducible. *)
        let rng = Rng.create 0x5eed1 in
        let backoff_base = backoff_base_from_env () in
        (* A runaway poison batch must converge: after the cap, anything
           still undelivered falls through to in-parent recovery. *)
        let respawn_cap = max 16 (4 * w) in
        let next_wid = ref w in
        let live = ref [] in
        let close_feed wk =
          Option.iter close_quietly wk.feed;
          wk.feed <- None
        in
        (* Answer a ready worker with the next queued item, or close its
           feed once the queue is empty.  The worker has consumed every
           line sent before its ready frame (and a new worker's feed is
           empty), so this line is the only one in the pipe and the write
           cannot block. *)
        let feed wk =
          match wk.feed with
          | None -> ()
          | Some fd ->
            (match Queue.take_opt queue with
             | None -> close_feed wk
             | Some i ->
               let line = string_of_int i ^ "\n" in
               (match Unix.write_substring fd line 0 (String.length line) with
                | _ ->
                  wk.current <- i;
                  wk.last_seen <- Obs.Clock.now ()
                | exception Unix.Unix_error _ ->
                  (* EPIPE: the worker died before taking the item; its
                     EOF follows on the result pipe. *)
                  Queue.push i queue;
                  close_feed wk))
        in
        let spawn wid =
          let r, wr = Unix.pipe () in
          let feed_r, feed_w = Unix.pipe () in
          match Unix.fork () with
          | 0 ->
            (* Child: keep only its own pipe ends.  An inherited copy of
               another worker's feed would keep that feed open after the
               parent closes it, and that worker would never see the end
               of its input.  Compute what the feed hands out, stream
               results, and _exit without running at_exit handlers or
               flushing buffers inherited from the parent (which would
               duplicate its pending output). *)
            close_quietly r;
            close_quietly feed_w;
            List.iter
              (fun wk ->
                close_quietly wk.fd;
                Option.iter close_quietly wk.feed)
              !live;
            child_loop ~encode ~f ~items ~feed:feed_r ~wr wid;
            Unix._exit 0
          | pid ->
            close_quietly wr;
            close_quietly feed_r;
            let wk =
              { pid; fd = r; feed = Some feed_w; buf = Buffer.create 256; wid;
                current = -1; last_seen = Obs.Clock.now () }
            in
            live := wk :: !live;
            feed wk
        in
        for j = 1 to w do
          spawn j
        done;
        let process_line wk line =
          if is_trace_line line then Obs.absorb (frame_payload line)
          else if is_metrics_line line then
            Obs.Metrics.absorb (frame_payload line)
          else if is_heartbeat_line line then begin
            match int_of_string_opt (frame_payload line) with
            | Some i when i >= 0 && i < n ->
              (* The claim trail is what makes a later kill attributable:
                 the dump's tail shows which item (and which request) the
                 worker was on when it went silent. *)
              Obs.Flight.record ~kind:"pool.claim" ~run_id:(label i)
                (Printf.sprintf "worker %d (pid %d) claimed item %d" wk.wid
                   wk.pid i)
            | Some _ | None -> ()
          end
          else if is_ready_line line then begin
            if int_of_string_opt (frame_payload line) = Some wk.current
            then begin
              wk.current <- -1;
              feed wk
            end
          end
          else
            match parse_line ~decode ~n line with
            | Some (i, v) -> results.(i) <- Some v
            | None -> ()
        in
        let split_lines wk =
          let s = Buffer.contents wk.buf in
          Buffer.clear wk.buf;
          let len = String.length s in
          let rec go start =
            if start >= len then ()
            else
              match String.index_from_opt s start '\n' with
              | Some e ->
                process_line wk (String.sub s start (e - start));
                go (e + 1)
              | None -> Buffer.add_substring wk.buf s start (len - start)
          in
          go 0
        in
        let chunk = Bytes.create 65536 in
        (* [true] on EOF. *)
        let read_once wk =
          match Unix.read wk.fd chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | k ->
            Buffer.add_subbytes wk.buf chunk 0 k;
            wk.last_seen <- Obs.Clock.now ();
            split_lines wk;
            false
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
        in
        let drain_to_eof wk =
          try
            while not (read_once wk) do
              ()
            done
          with Unix.Unix_error _ -> ()
        in
        (* A strike (abnormal death or hang) is charged to the item the
           worker held.  An item that collects [retries] strikes is poison
           — it has killed that many workers — and is quarantined to
           in-parent execution instead of being allowed to kill another;
           any other struck item goes to the back of the queue, so healthy
           items complete first. *)
        let strike wk =
          let i = wk.current in
          if i >= 0 && results.(i) = None then begin
            strikes.(i) <- strikes.(i) + 1;
            if strikes.(i) >= retries then begin
              incr nquar;
              Obs.count "pool.quarantine";
              Obs.Flight.record ~kind:"pool.quarantine" ~run_id:(label i)
                (Printf.sprintf
                   "item %d quarantined after %d strikes (last worker %d, \
                    pid %d)"
                   i strikes.(i) wk.wid wk.pid);
              ignore (Obs.Flight.dump_auto ~reason:"pool.quarantine" ())
            end
            else Queue.push i queue
          end
        in
        (* A replacement is forked only while there is work to hand it.
           Without a strike (a worker that exited 0 early) or once the
           respawn budget is spent, the remaining workers drain the queue
           and whatever is left recovers in-parent at fan-in. *)
        let respawn () =
          if (not (Queue.is_empty queue)) && !respawned < respawn_cap then begin
            Obs.count "pool.respawn";
            let b =
              Float.min 0.5
                (backoff_base
                *. (2.0 ** float_of_int !respawned)
                *. (0.5 +. Rng.float rng 1.0))
            in
            incr respawned;
            Obs.Metrics.observe "pool.respawn.backoff_s" b;
            Unix.sleepf b;
            incr next_wid;
            spawn !next_wid
          end
        in
        let finalize wk ~killed =
          live := List.filter (fun x -> x.pid <> wk.pid) !live;
          close_quietly wk.fd;
          close_feed wk;
          let crashed =
            match reap_status wk.pid with
            | Some (Unix.WEXITED 0) | None -> false
            | Some (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
              (* Deaths we caused (deadline SIGKILL) are accounted under
                 pool.worker.hung, not as abnormal exits. *)
              if not killed then begin
                incr abnormal;
                Obs.count "pool.worker.abnormal_exit";
                Obs.Flight.record ~kind:"pool.abnormal_exit"
                  ~run_id:(if wk.current >= 0 then label wk.current else "")
                  (Printf.sprintf
                     "reaped worker %d (pid %d) abnormal exit; last claimed \
                      item %d span pool.item"
                     wk.wid wk.pid wk.current);
                ignore (Obs.Flight.dump_auto ~reason:"pool.abnormal_exit" ())
              end;
              true
          in
          (* A worker that exited 0 holding an undelivered item is not
             struck: it failed without dying, so handing the item to
             another worker would fail the same way. *)
          if killed || crashed then begin
            strike wk;
            respawn ()
          end
        in
        while !live <> [] do
          let now = Obs.Clock.now () in
          let timeout =
            match deadline with
            | None -> -1.0
            | Some d ->
              let remaining =
                List.fold_left
                  (fun acc wk ->
                    if wk.current < 0 then acc
                    else Float.min acc (d -. (now -. wk.last_seen)))
                  d !live
              in
              Float.min 0.25 (Float.max 0.005 remaining)
          in
          let readable, _, _ =
            match Unix.select (List.map (fun wk -> wk.fd) !live) [] [] timeout with
            | r -> r
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
          in
          let eofs = ref [] in
          List.iter
            (fun wk ->
              if List.mem wk.fd readable then
                if read_once wk then eofs := wk :: !eofs)
            !live;
          List.iter (fun wk -> finalize wk ~killed:false) !eofs;
          (match deadline with
           | None -> ()
           | Some d ->
             let now = Obs.Clock.now () in
             List.iter
               (fun wk ->
                 if wk.current >= 0 && now -. wk.last_seen > d then begin
                   (* Hung: no frame for a full item deadline while it
                      holds an item.  SIGKILL — a stuck optimizer does
                      not respond to gentler signals — then salvage
                      whatever it piped before stalling.  The feed closes
                      first, so a late ready frame hands out nothing. *)
                   incr hung;
                   Obs.count "pool.worker.hung";
                   Obs.Flight.record ~kind:"pool.kill"
                     ~run_id:(label wk.current)
                     (Printf.sprintf
                        "SIGKILL worker %d (pid %d) hung on item %d span \
                         pool.item"
                        wk.wid wk.pid wk.current);
                   close_feed wk;
                   (try Unix.kill wk.pid Sys.sigkill
                    with Unix.Unix_error _ -> ());
                   drain_to_eof wk;
                   finalize wk ~killed:true;
                   ignore (Obs.Flight.dump_auto ~reason:"pool.kill" ())
                 end)
               !live)
        done;
        (* Fan-in recovery: anything a worker failed to deliver — death,
           corrupt record, encode failure, quarantine — is recomputed
           here.  Exceptions from [f] now surface in the parent, exactly
           as they would have sequentially. *)
        let recovered = ref 0 in
        let out =
          List.init n (fun i ->
              match results.(i) with
              | Some v -> (v, false)
              | None ->
                incr recovered;
                Obs.count "pool.recovered";
                ( Obs.Span.with_ ~name:"pool.recover" (fun () -> f items.(i)),
                  true ))
        in
        ( out,
          { workers = w; recovered = !recovered; hung = !hung;
            respawned = !respawned; quarantined = !nquar;
            abnormal_exits = !abnormal } ))
