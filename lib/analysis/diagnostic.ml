type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type span = { first : int; last : int }

let point i = { first = i; last = i }
let span ~first ~last =
  if last < first then invalid_arg "Diagnostic.span: last < first";
  { first; last }

type t = {
  rule : string;
  severity : severity;
  span : span option;
  message : string;
  hint : string option;
}

let v ?span ?hint ~rule ~severity message =
  { rule; severity; span; message; hint }

let error ?span ?hint ~rule message = v ?span ?hint ~rule ~severity:Error message
let warning ?span ?hint ~rule message =
  v ?span ?hint ~rule ~severity:Warning message
let info ?span ?hint ~rule message = v ?span ?hint ~rule ~severity:Info message

let is_error d = d.severity = Error

(* Stable presentation order: severity first, then source position, then
   rule id, so reports are deterministic and the worst news leads. *)
let compare a b =
  let k = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if k <> 0 then k
  else
    let pos = function None -> max_int | Some s -> s.first in
    let k = Int.compare (pos a.span) (pos b.span) in
    if k <> 0 then k
    else
      let k = String.compare a.rule b.rule in
      if k <> 0 then k else String.compare a.message b.message

let span_to_string = function
  | None -> ""
  | Some { first; last } ->
    if first = last then Printf.sprintf "@%d" first
    else Printf.sprintf "@%d-%d" first last

let to_string d =
  let hint = match d.hint with None -> "" | Some h -> " [hint: " ^ h ^ "]" in
  Printf.sprintf "%s %s%s: %s%s"
    (severity_to_string d.severity)
    d.rule (span_to_string d.span) d.message hint

let json_string = Pqc_util.Jsonx.escape_string

let to_json d =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"rule\":%s,\"severity\":\"%s\"" (json_string d.rule)
       (severity_to_string d.severity));
  (match d.span with
  | None -> ()
  | Some { first; last } ->
    Buffer.add_string buf
      (Printf.sprintf ",\"span\":{\"first\":%d,\"last\":%d}" first last));
  Buffer.add_string buf
    (Printf.sprintf ",\"message\":%s" (json_string d.message));
  (match d.hint with
  | None -> ()
  | Some h ->
    Buffer.add_string buf (Printf.sprintf ",\"hint\":%s" (json_string h)));
  Buffer.add_char buf '}';
  Buffer.contents buf
