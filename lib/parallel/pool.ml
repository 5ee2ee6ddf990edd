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

(* Worker deaths an item may cause before it is quarantined, and the
   base of the respawn backoff. *)
let default_item_retries = 2
let backoff_base = 0.02

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
     H\t<idx>                heartbeat: the worker is starting item idx
     P\t<digest><hex bytes>  a sealed [frame] (below)
     R\t<idx>                ready: item idx is done, delivered or not
   The parent answers each ready frame with the next queued index, or by
   closing the feed once the queue is empty; the worker then seals its
   trace events and histogram registry and exits.  Frames are flushed
   eagerly so the parent's liveness view is current: a worker that goes
   silent past the item deadline while it holds an item is presumed
   hung. *)

(* Everything a worker ships besides its H and R frames is one value of
   this type. *)
type 'b frame =
  | Result of int * 'b
  | Trace of Obs.event list
  | Metrics of string  (* {!Obs.Metrics.encode_all} of the worker *)

let hex_digit = "0123456789abcdef"

let to_hex s =
  let b = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let c = Char.code c in
      Bytes.unsafe_set b (2 * i) hex_digit.[c lsr 4];
      Bytes.unsafe_set b ((2 * i) + 1) hex_digit.[c land 15])
    s;
  Bytes.unsafe_to_string b

let nibble = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | _ -> raise Exit

(* [None] on an odd length or a byte that is not a lowercase hex digit. *)
let of_hex s pos =
  let len = String.length s - pos in
  if len land 1 = 1 then None
  else
    let b = Bytes.create (len / 2) in
    match
      for i = 0 to (len / 2) - 1 do
        let j = pos + (2 * i) in
        Bytes.unsafe_set b i
          (Char.unsafe_chr ((nibble s.[j] lsl 4) lor nibble s.[j + 1]))
      done
    with
    | () -> Some (Bytes.unsafe_to_string b)
    | exception Exit -> None

let digest_hex_len = 32

(* The frame, marshalled, hex-encoded onto one line behind the digest of
   the marshalled bytes.  Raises when the value cannot be marshalled (it
   holds a closure): the item is then recomputed in the parent. *)
let seal (frame : 'b frame) =
  let bytes = Marshal.to_string frame [] in
  String.concat "" [ "P\t"; Digest.to_hex (Digest.string bytes); to_hex bytes ]

(* The only place the pool unmarshals, and only bytes whose digest
   matches: the constructor and the item index are inside the digested
   bytes, so a torn or damaged frame is dropped, never read as another
   item or another kind of frame. *)
let unseal line : 'b frame option =
  let body = 2 + digest_hex_len in
  if String.length line < body then None
  else
    match of_hex line body with
    | Some bytes
      when String.equal
             (Digest.to_hex (Digest.string bytes))
             (String.sub line 2 digest_hex_len) ->
      Some (Marshal.from_string bytes 0)
    | Some _ | None -> None

let child_loop ~f ~items ~feed ~wr wid =
  let ic = Unix.in_channel_of_descr feed in
  let oc = Unix.out_channel_of_descr wr in
  (* Events recorded before the fork belong to the parent; only ship
     what this child adds past this point.  The histogram registry is
     copy-on-write too: reset this child's copy so the Metrics frame below
     holds exactly the observations made inside this worker (the parent
     still owns everything recorded before the fork).  The flight ring
     resets for the same reason: a worker dump must replay this worker's
     tail, not inherited parent history. *)
  let m = Obs.mark () in
  Obs.set_worker wid;
  Obs.Metrics.reset ();
  Obs.Flight.reset ();
  let send line =
    output_string oc line;
    output_char oc '\n'
  in
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
       (match seal (Result (i, item_span f items.(i))) with
        | exception _ -> ()
        | line ->
          let half () = String.sub line 0 ((String.length line + 1) / 2) in
          (match fault with
           | Some Crash_mid ->
             (* Torn frame: half a line, no newline, then die — the
                parent must discard the fragment. *)
             output_string oc (half ());
             flush oc;
             Unix._exit 71
           | Some Partial_write ->
             (* Half a frame as a whole line: the digest must reject
                it. *)
             send (half ())
           | _ -> send line)));
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
     (match Obs.events_since m with
      | [] -> ()
      | evs -> send (seal (Trace evs)));
     (match Obs.Metrics.encode_all () with
      | "" -> ()
      | reg -> send (seal (Metrics reg)));
     flush oc
   with _ -> ());
  (try flush oc with _ -> ())

let framed c line =
  String.length line >= 2 && line.[0] = c && line.[1] = '\t'

let frame_payload line = String.sub line 2 (String.length line - 2)

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

(* Reap one child with a blocking wait.  The parent reaps only after
   SIGKILL or after EOF on the child's result pipe, whose only write end
   the child closes by exiting, so the child is already dying and the wait
   is short.  A signal landing on the parent mid-wait retries instead of
   escaping [map].  [None] when the child was already reaped elsewhere. *)
let rec reap_status pid =
  match Unix.waitpid [] pid with
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap_status pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None

let map ?workers ?item_deadline_s ?item_retries ?item_label f items =
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
    | None -> default_item_retries
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
            child_loop ~f ~items ~feed:feed_r ~wr wid;
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
          if framed 'P' line then begin
            match unseal line with
            | Some (Result (i, v)) when i >= 0 && i < n ->
              results.(i) <- Some v
            | Some (Trace evs) -> Obs.absorb evs
            | Some (Metrics reg) -> Obs.Metrics.absorb reg
            | Some (Result _) | None -> ()
          end
          else if framed 'H' line then begin
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
          else if framed 'R' line then begin
            if int_of_string_opt (frame_payload line) = Some wk.current
            then begin
              wk.current <- -1;
              feed wk
            end
          end
        in
        let chunk = Bytes.create 65536 in
        (* [true] on EOF.  Only the bytes just read can end a line, so a
           frame costs time linear in its length however many reads it
           spans. *)
        let read_once wk =
          match Unix.read wk.fd chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | k ->
            wk.last_seen <- Obs.Clock.now ();
            let start = ref 0 in
            for j = 0 to k - 1 do
              if Bytes.get chunk j = '\n' then begin
                Buffer.add_subbytes wk.buf chunk !start (j - !start);
                let line = Buffer.contents wk.buf in
                Buffer.clear wk.buf;
                start := j + 1;
                process_line wk line
              end
            done;
            Buffer.add_subbytes wk.buf chunk !start (k - !start);
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
           damaged frame, a result that cannot be marshalled, quarantine —
           is recomputed here.  Exceptions from [f] now surface in the
           parent, exactly as they would have sequentially. *)
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
