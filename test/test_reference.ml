(* Reference-equivalence properties for the compile path's bookkeeping.

   The slicer, the blocker, the reconcile check of PQC021/PQC022, the
   dead-parameter scan of PQC061 and the engine's memo keys were rewritten
   to do linear work without per-gate garbage.  Each rewritten function is
   checked here, over random circuits, against a copy of the
   straightforward list-and-Printf implementation it replaced: equal
   instruction lists, qubit lists and indices, equal verdicts, and
   byte-equal keys.  The allocation budget pins the gain itself, since no
   test gates speed. *)

module Param = Pqc_quantum.Param
module Gate = Pqc_quantum.Gate
module Circuit = Pqc_quantum.Circuit
module Slice = Pqc_transpile.Slice
module Block = Pqc_transpile.Block
module Dataflow = Pqc_analysis.Dataflow
module Rules = Pqc_analysis.Rules
module Pulse = Pqc_pulse.Pulse
module Engine = Pqc_core.Engine
module Compiler = Pqc_core.Compiler
module Bench_matrix = Pqc_core.Bench_matrix
module Obs = Pqc_obs.Obs

(* ------------------------------------------------------------------ *)
(* References                                                          *)
(* ------------------------------------------------------------------ *)

module Reference = struct
  (* Region slicing, owners as a variant sorted with polymorphic compare
     and regions in a hash table. *)
  type region_owner = Unowned | Open_region of int | Sealed

  let slice_strict c =
    let n = Circuit.n_qubits c in
    let owner = Array.make n Unowned in
    let regions = Hashtbl.create 16 in
    let out = ref [] in
    let next_id = ref 0 in
    let fresh_region instr =
      let id = !next_id in
      incr next_id;
      Hashtbl.replace regions id (ref [ instr ]);
      out := `Region id :: !out;
      id
    in
    Circuit.iter
      (fun (i : Circuit.instr) ->
        match Gate.depends_on i.gate with
        | Some _ ->
          out := `Theta i :: !out;
          Array.iter (fun q -> owner.(q) <- Sealed) i.qubits
        | None ->
          let owners =
            Array.to_list i.qubits
            |> List.map (fun q -> owner.(q))
            |> List.sort_uniq compare
          in
          let id =
            match owners with
            | [ Open_region id ] | [ Unowned; Open_region id ] ->
              let r = Hashtbl.find regions id in
              r := i :: !r;
              id
            | [ Unowned ] | [] | [ Sealed ] | [ Unowned; Sealed ] | _ :: _ :: _
              ->
              fresh_region i
          in
          Array.iter (fun q -> owner.(q) <- Open_region id) i.qubits)
      c;
    List.rev !out
    |> List.map (fun slot ->
           match slot with
           | `Theta (i : Circuit.instr) ->
             { Slice.var = Gate.depends_on i.gate;
               circuit = Circuit.of_instrs n [ i ] }
           | `Region id ->
             let r = Hashtbl.find regions id in
             { Slice.var = None; circuit = Circuit.of_instrs n (List.rev !r) })

  (* Greedy blocking with sorted lists per gate, then merging adjacent
     blocks by list concatenation until a pass fuses nothing. *)
  type open_block = {
    id : int;
    mutable qset : int list;
    mutable rev_instrs : Circuit.instr list;
    mutable rev_indices : int list;
  }

  let sorted_union a b = List.sort_uniq compare (List.rev_append a b)

  let merge_adjacent ~max_width blocks =
    let fuse ((a : Block.block), ai) ((b : Block.block), bi) =
      ( { Block.qubits = sorted_union a.qubits b.qubits;
          circuit = Circuit.concat a.circuit b.circuit },
        ai @ bi )
    in
    let shares_qubit ((a : Block.block), _) ((b : Block.block), _) =
      List.exists (fun q -> List.mem q b.qubits) a.qubits
    in
    let rec pass acc = function
      | a :: b :: rest
        when shares_qubit a b
             && List.length
                  (sorted_union (fst a).Block.qubits (fst b).Block.qubits)
                <= max_width ->
        pass acc (fuse a b :: rest)
      | a :: rest -> pass (a :: acc) rest
      | [] -> List.rev acc
    in
    let rec fixpoint blocks =
      let merged = pass [] blocks in
      if List.length merged = List.length blocks then merged
      else fixpoint merged
    in
    fixpoint blocks

  let partition_with_indices ~max_width c =
    if max_width < 2 then
      invalid_arg "Block.partition: max_width must be >= 2";
    let n = Circuit.n_qubits c in
    let owner = Array.make n None in
    let blocks = ref [] in
    let next_id = ref 0 in
    let fresh qset instr idx =
      let b =
        { id = !next_id; qset; rev_instrs = [ instr ]; rev_indices = [ idx ] }
      in
      incr next_id;
      blocks := b :: !blocks;
      b
    in
    let index = ref (-1) in
    Circuit.iter
      (fun (instr : Circuit.instr) ->
        incr index;
        let idx = !index in
        let qs = List.sort compare (Array.to_list instr.qubits) in
        let owners =
          List.sort_uniq compare
            (List.filter_map (fun q -> Option.map (fun b -> b.id) owner.(q)) qs)
        in
        let extend b =
          b.qset <- sorted_union b.qset qs;
          b.rev_instrs <- instr :: b.rev_instrs;
          b.rev_indices <- idx :: b.rev_indices;
          List.iter (fun q -> owner.(q) <- Some b) qs
        in
        let target =
          match owners with
          | [] -> None
          | [ id ] ->
            let b =
              List.find (fun q -> owner.(q) <> None) qs |> fun q ->
              Option.get owner.(q)
            in
            assert (b.id = id);
            if List.length (sorted_union b.qset qs) <= max_width then Some b
            else None
          | _ :: _ :: _ -> None
        in
        match target with
        | Some b -> extend b
        | None ->
          let b = fresh qs instr idx in
          List.iter (fun q -> owner.(q) <- Some b) qs)
      c;
    List.rev_map
      (fun b ->
        ( { Block.qubits = b.qset;
            circuit = Circuit.of_instrs n (List.rev b.rev_instrs) },
          List.rev b.rev_indices ))
      !blocks
    |> merge_adjacent ~max_width

  (* Operands renamed by rank through a hash table, over instruction
     lists. *)
  let extract (b : Block.block) =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i q -> Hashtbl.replace tbl q i) b.qubits;
    let rename (i : Circuit.instr) =
      { i with qubits = Array.map (Hashtbl.find tbl) i.qubits }
    in
    Circuit.of_instrs (List.length b.qubits)
      (List.map rename (Array.to_list (Circuit.instrs b.circuit)))

  (* Angles compare by [Float.equal], so a NaN angle equals itself. *)
  let instr_equal (a : Circuit.instr) (b : Circuit.instr) =
    Gate.name a.gate = Gate.name b.gate
    && (match (Gate.param a.gate, Gate.param b.gate) with
       | Some (p : Param.t), Some (q : Param.t) ->
         p.var = q.var && Float.equal p.scale q.scale
         && Float.equal p.offset q.offset
       | None, None -> true
       | Some _, None | None, Some _ -> false)
    && a.qubits = b.qubits

  (* The concatenated circuit rebuilt, and each qubit's lane as a list. *)
  let lanes n instrs =
    let lanes = Array.make n [] in
    Array.iter
      (fun (i : Circuit.instr) ->
        Array.iter (fun q -> lanes.(q) <- i :: lanes.(q)) i.qubits)
      instrs;
    lanes

  let slice_reconciles ~linear original slices =
    let n = Circuit.n_qubits original in
    let rebuilt = Circuit.instrs (Slice.concat_all ~n slices) in
    let orig = Circuit.instrs original in
    Array.length orig = Array.length rebuilt
    &&
    if linear then Array.for_all2 instr_equal orig rebuilt
    else
      Array.for_all2 (List.equal instr_equal) (lanes n orig) (lanes n rebuilt)

  (* Keys rendered with Printf, one qubit and one angle at a time. *)
  let circuit_key ~param c =
    let buf = Buffer.create 128 in
    Buffer.add_string buf (string_of_int (Circuit.n_qubits c));
    Circuit.iter
      (fun (i : Circuit.instr) ->
        Buffer.add_char buf ';';
        Buffer.add_string buf (Gate.name i.gate);
        Option.iter
          (fun p -> Buffer.add_string buf (param p))
          (Gate.param i.gate);
        Array.iter
          (fun q -> Buffer.add_string buf (Printf.sprintf ",%d" q))
          i.qubits)
      c;
    Buffer.contents buf

  let bits = Int64.bits_of_float

  let block_key =
    circuit_key ~param:(fun p ->
        Printf.sprintf "(%Lx)" (bits (Param.bind p [||])))

  let slice_key =
    circuit_key ~param:(fun (p : Param.t) ->
        Printf.sprintf "(%s*%Lx+%Lx)"
          (match p.var with Some v -> "t" ^ string_of_int v | None -> "c")
          (bits p.scale) (bits p.offset))

  let block_label qubits =
    Printf.sprintf "block[%s]"
      (String.concat "," (List.map string_of_int qubits))

  (* A forward scan from every gate of every parameter. *)
  let measurement_irrelevant instrs idx =
    let i = instrs.(idx) in
    Gate.is_diagonal i.Circuit.gate
    &&
    let len = Array.length instrs in
    let rec scan j =
      j >= len
      ||
      let o = instrs.(j) in
      (if Array.exists (fun q -> Array.mem q i.Circuit.qubits) o.Circuit.qubits
       then Gate.is_diagonal o.Circuit.gate
       else true)
      && scan (j + 1)
    in
    scan (idx + 1)

  let dead_params c =
    let instrs = Circuit.instrs c in
    List.filter_map
      (fun (d : Dataflow.def_use) ->
        if
          d.gates <> []
          && List.for_all (fun idx -> measurement_irrelevant instrs idx) d.gates
        then Some (d.var, d.gates)
        else None)
      (Dataflow.of_circuit c).def_uses
end

(* ------------------------------------------------------------------ *)
(* Bit-exact comparison                                                *)
(* ------------------------------------------------------------------ *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_instr (a : Circuit.instr) (b : Circuit.instr) =
  String.equal (Gate.name a.gate) (Gate.name b.gate)
  && (match (Gate.param a.gate, Gate.param b.gate) with
     | Some (p : Param.t), Some (q : Param.t) ->
       p.var = q.var && same_float p.scale q.scale
       && same_float p.offset q.offset
     | None, None -> true
     | Some _, None | None, Some _ -> false)
  && a.qubits = b.qubits

let same_circuit a b =
  Circuit.n_qubits a = Circuit.n_qubits b
  && Circuit.length a = Circuit.length b
  && Array.for_all2 same_instr (Circuit.instrs a) (Circuit.instrs b)

let same_slices a b =
  List.equal
    (fun (x : Slice.slice) (y : Slice.slice) ->
      x.var = y.var && same_circuit x.circuit y.circuit)
    a b

let same_blocks a b =
  List.equal
    (fun ((x : Block.block), xi) ((y : Block.block), yi) ->
      x.qubits = y.qubits && same_circuit x.circuit y.circuit && xi = yi)
    a b

(* ------------------------------------------------------------------ *)
(* Random circuits                                                     *)
(* ------------------------------------------------------------------ *)

(* Angles whose bits a key must keep: NaNs with payload bits (one with the
   sign set), both zeros, subnormals and both infinities. *)
let special_angles =
  [| Int64.float_of_bits 0x7FF8_0000_0000_0001L;
     Int64.float_of_bits 0xFFF4_0000_0000_00ABL;
     -0.0; 0.0; 4.9e-324; -2.2250738585072009e-308; 1e-310;
     Float.infinity; Float.neg_infinity; Float.pi; -1.5 |]

let gen_angle =
  QCheck.Gen.(
    frequency [ (2, oneofa special_angles); (3, float_range (-4.0) 4.0) ])

(* 1-8 qubits; cx, cz, swap and iswap mixed with fixed gates and with
   fixed and (when [params]) parametrized rotations over a small parameter
   pool, so runs collide and break monotonicity. *)
let gen_circuit ~params ~angle =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    int_range 0 40 >>= fun len ->
    let qubit = int_range 0 (n - 1) in
    let param =
      if params then
        frequency
          [ (2, map Param.const angle);
            ( 3,
              map3
                (fun v scale offset -> Param.var ~scale ~offset v)
                (int_range 0 5) angle angle ) ]
      else map Param.const angle
    in
    let rotation =
      map2
        (fun axis p ->
          match axis with 0 -> Gate.Rx p | 1 -> Gate.Ry p | _ -> Gate.Rz p)
        (int_range 0 2) param
    in
    let one =
      frequency
        [ (2, oneofl Gate.[ H; X; Y; Z; S; Sdg; T; Tdg ]); (3, rotation) ]
    in
    let instr =
      if n = 1 then map2 (fun g q -> (g, [ q ])) one qubit
      else
        frequency
          [ (3, map2 (fun g q -> (g, [ q ])) one qubit);
            ( 2,
              qubit >>= fun a ->
              int_range 0 (n - 2) >>= fun b' ->
              let b = if b' >= a then b' + 1 else b' in
              map (fun g -> (g, [ a; b ])) (oneofl Gate.[ CX; CZ; Swap; ISwap ])
            ) ]
    in
    list_repeat len instr >|= Circuit.of_gates n)

let print_circuit c = Format.asprintf "%a" Circuit.pp c

let arb_circuit ~params ~angle =
  QCheck.make ~print:print_circuit (gen_circuit ~params ~angle)

let arb_circuit_width =
  QCheck.make
    ~print:(fun (c, w) -> Printf.sprintf "max_width %d\n%s" w (print_circuit c))
    QCheck.Gen.(
      pair (gen_circuit ~params:true ~angle:gen_angle) (int_range 2 6))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_slice_strict =
  QCheck.Test.make ~count:500 ~name:"slice.strict = reference"
    (arb_circuit ~params:true ~angle:gen_angle) (fun c ->
      same_slices (Slice.strict c) (Reference.slice_strict c))

let prop_partition =
  QCheck.Test.make ~count:500
    ~name:"block.partition_with_indices = reference" arb_circuit_width
    (fun (c, max_width) ->
      let blocks = Block.partition_with_indices ~max_width c in
      same_blocks blocks (Reference.partition_with_indices ~max_width c)
      && List.equal
           (fun (a : Block.block) (b : Block.block) ->
             a.qubits = b.qubits && same_circuit a.circuit b.circuit)
           (Block.partition ~max_width c)
           (List.map fst blocks))

(* Blocking every Fixed slice of both strict slicings, as strict partial
   compilation does. *)
let prop_partition_slices =
  QCheck.Test.make ~count:300
    ~name:"block.partition of strict slices = reference" arb_circuit_width
    (fun (c, max_width) ->
      List.for_all
        (fun (s : Slice.slice) ->
          s.var <> None
          || same_blocks
               (Block.partition_with_indices ~max_width s.circuit)
               (Reference.partition_with_indices ~max_width s.circuit))
        (Slice.strict c @ Slice.strict_linear c))

let prop_extract =
  QCheck.Test.make ~count:300 ~name:"block.extract = reference"
    arb_circuit_width (fun (c, max_width) ->
      List.for_all
        (fun b -> same_circuit (Block.extract b) (Reference.extract b))
        (Block.partition ~max_width c))

(* Slicings of [c] that should reconcile, and mutations of them that
   mostly should not: a dropped gate, a duplicated gate, a gate moved to
   another qubit, a gate replaced by another on the same qubits, and two
   slices swapped. *)
let mutations rng c slices =
  let n = Circuit.n_qubits c in
  let arr = Array.of_list slices in
  let m = Array.length arr in
  let with_slice k f =
    List.mapi
      (fun j (s : Slice.slice) ->
        if j = k then
          { s with
            circuit =
              Circuit.of_instrs n (f (Array.to_list (Circuit.instrs s.circuit)))
          }
        else s)
      slices
  in
  let nonempty =
    List.filter
      (fun k -> Circuit.length arr.(k).Slice.circuit > 0)
      (List.init m Fun.id)
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  (* Instruction [pos] of a random non-empty slice, rewritten by [f]. *)
  let at_instr f =
    match nonempty with
    | [] -> []
    | _ ->
      let k = pick nonempty in
      let pos = Random.State.int rng (Circuit.length arr.(k).Slice.circuit) in
      let rewrite j i = if j = pos then f i else [ i ] in
      [ with_slice k (fun l -> List.concat (List.mapi rewrite l)) ]
  in
  let drop = at_instr (fun _ -> []) in
  let dup = at_instr (fun i -> [ i; i ]) in
  let moved =
    at_instr (fun (i : Circuit.instr) ->
        match
          List.filter (fun q -> not (Array.mem q i.qubits)) (List.init n Fun.id)
        with
        | [] -> [ i ]
        | free ->
          let qubits = Array.copy i.qubits in
          qubits.(Random.State.int rng (Array.length qubits)) <- pick free;
          [ { i with qubits } ])
  in
  let replaced =
    at_instr (fun (i : Circuit.instr) ->
        let gate =
          match i.gate with
          | Gate.H -> Gate.X
          | Gate.CX -> Gate.CZ
          | Gate.Rx p -> Gate.Ry p
          | g -> if Gate.arity g = 1 then Gate.H else Gate.CX
        in
        [ { i with gate } ])
  in
  let swapped =
    if m < 2 then []
    else
      let a = Random.State.int rng m in
      let b = (a + 1 + Random.State.int rng (m - 1)) mod m in
      [ List.mapi
          (fun j s -> if j = a then arr.(b) else if j = b then arr.(a) else s)
          slices ]
  in
  slices :: (drop @ dup @ moved @ replaced @ swapped)

let prop_reconcile =
  QCheck.Test.make ~count:500
    ~name:"reconcile verdicts = reference, mutated slicings included"
    (QCheck.pair (arb_circuit ~params:true ~angle:gen_angle) QCheck.small_nat)
    (fun (c, seed) ->
      let rng = Random.State.make [| seed |] in
      let slicings =
        Slice.strict c :: Slice.strict_linear c
        :: (if Slice.is_monotone c then [ Slice.flexible c ] else [])
      in
      List.for_all
        (fun slices ->
          List.for_all
            (fun candidate ->
              List.for_all
                (fun linear ->
                  Bool.equal
                    (Rules.slice_reconciles ~linear c candidate)
                    (Reference.slice_reconciles ~linear c candidate))
                [ true; false ])
            (mutations rng c slices))
        slicings)

let prop_block_key =
  QCheck.Test.make ~count:500 ~name:"block_key = reference, byte for byte"
    (arb_circuit ~params:false ~angle:gen_angle) (fun c ->
      String.equal (Engine.block_key c) (Reference.block_key c))

let prop_slice_key =
  QCheck.Test.make ~count:500 ~name:"slice_key = reference, byte for byte"
    (arb_circuit ~params:true ~angle:gen_angle) (fun c ->
      String.equal (Engine.slice_key c) (Reference.slice_key c))

let test_key_corners () =
  (* Every special angle alone, and a width and qubit index with more
     than one digit. *)
  Array.iter
    (fun a ->
      let c = Circuit.of_gates 12 [ (Gate.Rz (Param.const a), [ 11 ]) ] in
      Alcotest.(check string) "block key" (Reference.block_key c)
        (Engine.block_key c);
      let c =
        Circuit.of_gates 12
          [ (Gate.Rx (Param.var ~scale:a ~offset:a 17), [ 10 ]);
            (Gate.CX, [ 0; 11 ]) ]
      in
      Alcotest.(check string) "slice key" (Reference.slice_key c)
        (Engine.slice_key c))
    special_angles

let prop_dead_params =
  QCheck.Test.make ~count:500 ~name:"dead_params = reference"
    (arb_circuit ~params:true ~angle:gen_angle) (fun c ->
      Dataflow.dead_params c = Reference.dead_params c)

(* Block labels reach the pulse: every GRAPE segment of a full-GRAPE
   compile is labelled with its block's qubits. *)
let prop_block_labels =
  QCheck.Test.make ~count:200 ~name:"block labels = reference"
    (QCheck.pair
       (arb_circuit ~params:true ~angle:(QCheck.Gen.float_range (-4.0) 4.0))
       (QCheck.int_range 2 4))
    (fun (c, max_width) ->
      let r =
        Compiler.full_grape ~workers:1 ~max_width ~engine:Engine.model c
          ~theta:(Array.init 6 (fun i -> 0.3 *. float_of_int (i + 1)))
      in
      List.for_all
        (fun (e : Pulse.event) ->
          match e.segment with
          | Pulse.Optimized { label; _ } ->
            String.equal label
              (Reference.block_label (Array.to_list e.qubits))
          | Pulse.Lookup _ -> true)
        (Pulse.events r.Pqc_core.Strategy.pulse))

(* ------------------------------------------------------------------ *)
(* Allocation budget                                                   *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words that the four model-engine compiles of prepared BeH2
   allocate, per gate.  This tree allocates 537; the budget is that plus
   15%.  The list-and-Printf implementations above allocated 3,337, so a
   return to per-gate garbage fails here. *)
let words_per_gate_budget = 618.0

let test_allocation_budget () =
  Obs.disable ();
  let raw =
    match Bench_matrix.circuit_of_spec "beh2" with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let c = Compiler.prepare raw in
  Alcotest.(check int) "prepared BeH2 gates" 2094 (Circuit.length c);
  let theta =
    Array.init
      (max (Circuit.n_params raw) (Circuit.n_params c))
      (fun i -> 0.1 *. float_of_int (i + 1))
  in
  let compile_all () =
    List.iter
      (fun s ->
        ignore
          (Compiler.compile ~workers:1 ~max_width:4 ~engine:Engine.model s c
             ~theta))
      Compiler.all_strategies
  in
  (* Lazy set-up on the first compile is not per-compile work. *)
  compile_all ();
  let before = Gc.minor_words () in
  compile_all ();
  let per_gate =
    (Gc.minor_words () -. before) /. float_of_int (Circuit.length c)
  in
  if per_gate > words_per_gate_budget then
    Alcotest.failf "%.0f minor words per gate, over the budget of %.0f"
      per_gate words_per_gate_budget

let () =
  Alcotest.run "reference"
    [ ( "reference",
        List.map QCheck_alcotest.to_alcotest
          [ prop_slice_strict; prop_partition; prop_partition_slices;
            prop_extract; prop_reconcile; prop_block_key; prop_slice_key;
            prop_dead_params; prop_block_labels ]
        @ [ Alcotest.test_case "key corners" `Quick test_key_corners ] );
      ( "allocation",
        [ Alcotest.test_case "model compile words per gate" `Quick
            test_allocation_budget ] ) ]
