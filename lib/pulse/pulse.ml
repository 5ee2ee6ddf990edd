module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Schedule = Pqc_transpile.Schedule

type samples = { dt : float; controls : float array array }

type segment =
  | Lookup of { gate_name : string; duration : float }
  | Optimized of { label : string; duration : float; samples : samples option }

type event = { segment : segment; qubits : int array; start : float }

type t = { events : event list; duration : float }

let segment_duration = function
  | Lookup { duration; _ } | Optimized { duration; _ } -> duration

let asap ~n ?emit jobs =
  Schedule.asap ~n ~qubits:snd
    ~duration:(fun (segment, _) -> segment_duration segment)
    ?emit
    (fun f -> List.iter f jobs)

let schedule ~n jobs =
  let rev = ref [] in
  let duration =
    asap ~n jobs ~emit:(fun (segment, qubits) start _ ->
        rev := { segment; qubits; start } :: !rev)
  in
  { events = List.rev !rev; duration }

let makespan ~n jobs = asap ~n jobs

let duration t = t.duration
let events t = t.events
let segments t = List.map (fun e -> e.segment) t.events
let length t = List.length t.events

let lookup_gate (i : Circuit.instr) =
  Lookup { gate_name = Gate.name i.gate; duration = Gate_times.instr_duration i }

let qubit_list qubits =
  String.concat "," (Array.to_list (Array.map string_of_int qubits))

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"schedule\":[";
  List.iteri
    (fun i { segment; qubits; start } ->
      if i > 0 then Buffer.add_char buf ',';
      let name, kind, samples =
        match segment with
        | Lookup { gate_name; _ } -> (gate_name, "lookup", None)
        | Optimized { label; samples; _ } -> (label, "grape", samples)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":%s,\"kind\":\"%s\",\"qubits\":[%s],\"t0\":%.3f,\"duration\":%.3f"
           (Pqc_util.Jsonx.escape_string name) kind (qubit_list qubits) start
           (segment_duration segment));
      (match samples with
      | None -> ()
      | Some { dt; controls } ->
        Buffer.add_string buf (Printf.sprintf ",\"dt\":%.4f,\"samples\":[" dt);
        Array.iteri
          (fun ch row ->
            if ch > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '[';
            Array.iteri
              (fun k v ->
                if k > 0 then Buffer.add_char buf ',';
                Buffer.add_string buf (Printf.sprintf "%.5f" v))
              row;
            Buffer.add_char buf ']')
          controls;
        Buffer.add_char buf ']');
      Buffer.add_char buf '}')
    t.events;
  Buffer.add_string buf (Printf.sprintf "],\"total_duration\":%.3f}" t.duration);
  Buffer.contents buf

let pp fmt t =
  Format.fprintf fmt "pulse[%.1f ns, %d segments]@." t.duration (length t);
  List.iter
    (fun { segment; qubits; start } ->
      let kind, name =
        match segment with
        | Lookup { gate_name; _ } -> ("lookup", gate_name)
        | Optimized { label; _ } -> ("grape ", label)
      in
      Format.fprintf fmt "  %s %-10s %5.1f ns at %6.1f on {%s}@." kind name
        (segment_duration segment) start (qubit_list qubits))
    t.events
