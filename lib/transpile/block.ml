module Circuit = Pqc_quantum.Circuit

type block = { qubits : int list; circuit : Circuit.t }

(* Qubit sets are sorted lists of at most [max_width] entries. *)
let rec union a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
    if x < y then x :: union a' b
    else if x > y then y :: union a b'
    else x :: union a' b'

let rec union_size acc a b =
  match (a, b) with
  | [], l | l, [] -> acc + List.length l
  | x :: a', y :: b' ->
    if x < y then union_size (acc + 1) a' b
    else if x > y then union_size (acc + 1) a b'
    else union_size (acc + 1) a' b'

let rec shares a b =
  match (a, b) with
  | [], _ | _, [] -> false
  | x :: a', y :: b' ->
    if x < y then shares a' b else if x > y then shares a b' else true

let rec insert q = function
  | x :: rest when x < q -> x :: insert q rest
  | l -> q :: l

(* The greedy pass keeps one open block per qubit: an instruction joins
   the block owning all of its owned operands when the union stays within
   the width budget, and opens a block otherwise.  Blocks are numbered in
   creation order.  Returns each instruction's block and each block's
   qubits. *)
let greedy ~max_width c =
  let n = Circuit.n_qubits c and len = Circuit.length c in
  let owner = Array.make n (-1) in
  let block_of = Array.make len 0 in
  let qsets = Array.make len [] in
  let n_blocks = ref 0 in
  for k = 0 to len - 1 do
    let qs = (Circuit.instr c k).qubits in
    let target = ref (-1) and split = ref false and unowned = ref 0 in
    for j = 0 to Array.length qs - 1 do
      let o = owner.(qs.(j)) in
      if o < 0 then incr unowned
      else if !target < 0 then target := o
      else if !target <> o then split := true
    done;
    (* An unowned operand is in no block yet, so it widens the target by
       one. *)
    let b =
      if
        !target >= 0 && (not !split)
        && List.length qsets.(!target) + !unowned <= max_width
      then begin
        let b = !target in
        for j = 0 to Array.length qs - 1 do
          if owner.(qs.(j)) < 0 then qsets.(b) <- insert qs.(j) qsets.(b)
        done;
        b
      end
      else begin
        let b = !n_blocks in
        incr n_blocks;
        let set = ref [] in
        for j = 0 to Array.length qs - 1 do
          set := insert qs.(j) !set
        done;
        qsets.(b) <- !set;
        b
      end
    in
    block_of.(k) <- b;
    for j = 0 to Array.length qs - 1 do
      owner.(qs.(j)) <- b
    done
  done;
  (block_of, qsets, !n_blocks)

(* Merge adjacent blocks in the emitted linear order while the union stays
   within the width budget.  Sound because the blocks are adjacent in a
   valid linearization: fusing consecutive elements preserves the relative
   order of everything else (this is the aggregation step that lets a
   4-qubit circuit collapse into a single GRAPE block no matter how its
   gates interleave).  Fuse only dependent neighbours: fusing disjoint
   blocks would serialize work the scheduler could otherwise overlap.
   Each pass sweeps left to right, the current group absorbing its right
   neighbour while it can; passes repeat until one fuses nothing.  A group
   is always a run of consecutive blocks, [first.(g)] to [last.(g)]. *)
let merge ~max_width qsets n_blocks =
  let first = Array.init n_blocks Fun.id in
  let last = Array.init n_blocks Fun.id in
  let sets = Array.sub qsets 0 n_blocks in
  let groups = ref n_blocks and fused = ref true in
  while !fused do
    fused := false;
    let out = ref 0 and g = ref 0 in
    while !g < !groups do
      let lo = first.(!g) and hi = ref last.(!g) and set = ref sets.(!g) in
      incr g;
      while
        !g < !groups
        && shares !set sets.(!g)
        && union_size 0 !set sets.(!g) <= max_width
      do
        set := union !set sets.(!g);
        hi := last.(!g);
        incr g;
        fused := true
      done;
      first.(!out) <- lo;
      last.(!out) <- !hi;
      sets.(!out) <- !set;
      incr out
    done;
    groups := !out
  done;
  (first, last, sets, !groups)

(* Blocks with their contents in block order: a merged block holds its
   first constituent's instructions, then the next one's, each in circuit
   order.  A counting sort by block gives that order. *)
let blocks ~max_width ~indices c =
  Pqc_obs.Obs.Span.with_ ~name:"block.partition"
    ~attrs:(fun () ->
      [ ("max_width", string_of_int max_width);
        ("gates", string_of_int (Circuit.length c)) ])
  @@ fun () ->
  if max_width < 2 then invalid_arg "Block.partition: max_width must be >= 2";
  let n = Circuit.n_qubits c and len = Circuit.length c in
  let block_of, qsets, n_blocks = greedy ~max_width c in
  let first, last, sets, groups = merge ~max_width qsets n_blocks in
  (* start.(b): where block b's instructions begin in [order]. *)
  let start = Array.make (n_blocks + 1) 0 in
  for k = 0 to len - 1 do
    start.(block_of.(k) + 1) <- start.(block_of.(k) + 1) + 1
  done;
  for b = 1 to n_blocks do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let order = Array.make len 0 in
  let fill = Array.sub start 0 n_blocks in
  for k = 0 to len - 1 do
    let b = block_of.(k) in
    order.(fill.(b)) <- k;
    fill.(b) <- fill.(b) + 1
  done;
  let out = ref [] in
  for g = groups - 1 downto 0 do
    let instrs = ref [] and idx = ref [] in
    for j = start.(last.(g) + 1) - 1 downto start.(first.(g)) do
      let k = order.(j) in
      instrs := Circuit.instr c k :: !instrs;
      if indices then idx := k :: !idx
    done;
    out :=
      ({ qubits = sets.(g); circuit = Circuit.of_instrs n !instrs }, !idx)
      :: !out
  done;
  !out

let partition_with_indices ~max_width c = blocks ~max_width ~indices:true c

let partition ~max_width c =
  List.map fst (blocks ~max_width ~indices:false c)

let rec rank q k = function
  | [] -> raise Not_found
  | x :: rest -> if x = q then k else rank q (k + 1) rest

let extract b =
  Circuit.relabel b.circuit ~n:(List.length b.qubits) ~mapping:(fun q ->
      rank q 0 b.qubits)

let depends b =
  match Circuit.depends b.circuit with
  | [] -> Ok None
  | [ v ] -> Ok (Some v)
  | _ :: _ :: _ as vs -> Error vs

let concat_all ~n blocks =
  let builder = Circuit.Builder.create n in
  List.iter (fun b -> Circuit.Builder.add_circuit builder b.circuit) blocks;
  Circuit.Builder.to_circuit builder
