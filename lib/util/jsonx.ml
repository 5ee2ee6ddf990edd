type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of int * string

let fail pos msg = raise (Fail (pos, msg))

(* Recursive-descent over a string with an explicit cursor.  The input
   documents are machine-written (bench reports, run logs), so the
   parser favors clear errors over recovery. *)
type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  let n = String.length c.src in
  while
    c.pos < n
    && (match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail c.pos (Printf.sprintf "expected %C, found %C" ch x)
  | None -> fail c.pos (Printf.sprintf "expected %C, found end of input" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos (Printf.sprintf "invalid literal (expected %s)" word)

let hex4 c =
  if c.pos + 4 > String.length c.src then fail c.pos "truncated \\u escape";
  let s = String.sub c.src c.pos 4 in
  match int_of_string_opt ("0x" ^ s) with
  | Some v ->
    c.pos <- c.pos + 4;
    v
  | None -> fail c.pos "invalid \\u escape"

(* Encode a code point as UTF-8; surrogate pairs are combined by the
   caller.  Lone surrogates become U+FFFD, matching lenient decoders. *)
let add_utf8 buf cp =
  let cp = if cp >= 0xD800 && cp <= 0xDFFF then 0xFFFD else cp in
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' ->
      c.pos <- c.pos + 1;
      (match peek c with
      | None -> fail c.pos "truncated escape"
      | Some e ->
        c.pos <- c.pos + 1;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let hi = hex4 c in
          let cp =
            if
              hi >= 0xD800 && hi <= 0xDBFF
              && c.pos + 1 < String.length c.src
              && c.src.[c.pos] = '\\'
              && c.src.[c.pos + 1] = 'u'
            then begin
              c.pos <- c.pos + 2;
              let lo = hex4 c in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
              else 0xFFFD
            end
            else hi
          in
          add_utf8 buf cp
        | _ -> fail (c.pos - 1) "invalid escape"));
      go ()
    | Some ch when Char.code ch < 0x20 -> fail c.pos "raw control character"
    | Some ch ->
      Buffer.add_char buf ch;
      c.pos <- c.pos + 1;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let n = String.length c.src in
  let advance_while p =
    while c.pos < n && p c.src.[c.pos] do
      c.pos <- c.pos + 1
    done
  in
  if peek c = Some '-' then c.pos <- c.pos + 1;
  advance_while (fun ch -> ch >= '0' && ch <= '9');
  if peek c = Some '.' then begin
    c.pos <- c.pos + 1;
    advance_while (fun ch -> ch >= '0' && ch <= '9')
  end;
  (match peek c with
  | Some ('e' | 'E') ->
    c.pos <- c.pos + 1;
    (match peek c with
    | Some ('+' | '-') -> c.pos <- c.pos + 1
    | _ -> ());
    advance_while (fun ch -> ch >= '0' && ch <= '9')
  | _ -> ());
  match float_of_string_opt (String.sub c.src start (c.pos - start)) with
  | Some f -> f
  | None -> fail start "invalid number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          members ((key, v) :: acc)
        | Some '}' ->
          c.pos <- c.pos + 1;
          List.rev ((key, v) :: acc)
        | _ -> fail c.pos "expected ',' or '}' in object"
      in
      Obj (members [])
    end
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          elements (v :: acc)
        | Some ']' ->
          c.pos <- c.pos + 1;
          List.rev (v :: acc)
        | _ -> fail c.pos "expected ',' or ']' in array"
      in
      Arr (elements [])
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> fail c.pos (Printf.sprintf "unexpected character %C" ch)

(* One escaper shared by every JSON writer in the tree (Obs trace
   export, Run_log, Bench_report).  Quote, backslash and control bytes
   are escaped (short escapes where RFC 8259 has them, [\u00XX]
   otherwise); every byte >= 0x20 passes through raw.  UTF-8 input
   therefore survives byte-for-byte through {!parse} — escaping high
   bytes as Latin-1 [\u00XX] would come back as a different (doubly
   encoded) byte sequence, breaking the round-trip the hostile-name
   tests pin. *)
let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* %.17g always reads back to the same double, but prints 0.1 as
   0.10000000000000001; most values need fewer digits, so the first of 15,
   16 and 17 significant digits whose text reads back to the same bits
   wins. *)
let number f =
  if not (Float.is_finite f) then "null"
  else
    let bits = Int64.bits_of_float f in
    let same s = Int64.equal (Int64.bits_of_float (float_of_string s)) bits in
    let s15 = Printf.sprintf "%.15g" f in
    if same s15 then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if same s16 then s16 else Printf.sprintf "%.17g" f

let parse src =
  let c = { src; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos = String.length src then Ok v
    else Error (Printf.sprintf "trailing garbage at byte %d" c.pos)
  | exception Fail (pos, msg) ->
    Error (Printf.sprintf "parse error at byte %d: %s" pos msg)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_float = function Num f -> Some f | Null -> Some Float.nan | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr l -> Some l | _ -> None
