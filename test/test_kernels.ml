(* Kernel-equivalence suite: pins the Bigarray kernels in Cmat/Expm to
   naive reference implementations, bit for bit.  The hot kernels (tiled
   products, fused Taylor steps, the vectorized C product and expm at
   dim 4) are all refactorings of these textbook loops under the
   summation-order contract — every float is produced by the same chain of
   operations in the same order — so equality here is exact IEEE-754
   equality on the bits, not approximate closeness.  A kernel change that
   reorders a sum fails this suite even when it is mathematically
   equivalent, by design: bit drift would silently break the workers:1 ≡
   workers:4 determinism gate and the committed pulse baselines. *)

module Cmat = Pqc_linalg.Cmat
module Expm = Pqc_linalg.Expm
module Rng = Pqc_util.Rng
module Adam = Pqc_grape.Adam

(* Each C kernel has three entries: the loader's clone (AVX-512 on hosts
   that have it), a baseline-ISA build ([*_default]) and an AVX2 build
   ([*_avx2], the baseline body on CPUs without AVX2).  Without the last
   two, the loader's choice would leave the other bodies untested. *)
external mul4_default : Cmat.buffer -> Cmat.buffer -> Cmat.buffer -> unit
  = "pqc_mul4_default"
[@@noalloc]

external mul4_avx2 : Cmat.buffer -> Cmat.buffer -> Cmat.buffer -> unit
  = "pqc_mul4_avx2"
[@@noalloc]

external expm4_default : Cmat.buffer -> Cmat.buffer -> unit
  = "pqc_expm4_default"
[@@noalloc]

external expm4_avx2 : Cmat.buffer -> Cmat.buffer -> unit = "pqc_expm4_avx2"
[@@noalloc]

(* The dim-4 GRAPE passes (see [Grape.optimize]). *)
external grape4_forward :
  Cmat.buffer -> int -> int -> (float[@unboxed]) -> float array array ->
  Cmat.buffer -> Cmat.buffer -> float array -> unit
  = "pqc_grape4_forward_byte" "pqc_grape4_forward"
[@@noalloc]

external grape4_forward_default :
  Cmat.buffer -> int -> int -> (float[@unboxed]) -> float array array ->
  Cmat.buffer -> Cmat.buffer -> float array -> unit
  = "pqc_grape4_forward_default_byte" "pqc_grape4_forward_default"
[@@noalloc]

external grape4_forward_avx2 :
  Cmat.buffer -> int -> int -> (float[@unboxed]) -> float array array ->
  Cmat.buffer -> Cmat.buffer -> float array -> unit
  = "pqc_grape4_forward_avx2_byte" "pqc_grape4_forward_avx2"
[@@noalloc]

external grape4_backward :
  Cmat.buffer -> int -> int -> (float[@unboxed]) -> Cmat.buffer ->
  Cmat.buffer -> float array -> (float[@unboxed]) -> (float[@unboxed]) ->
  float array -> float array array -> float array array -> unit
  = "pqc_grape4_backward_byte" "pqc_grape4_backward"
[@@noalloc]

external grape4_backward_default :
  Cmat.buffer -> int -> int -> (float[@unboxed]) -> Cmat.buffer ->
  Cmat.buffer -> float array -> (float[@unboxed]) -> (float[@unboxed]) ->
  float array -> float array array -> float array array -> unit
  = "pqc_grape4_backward_default_byte" "pqc_grape4_backward_default"
[@@noalloc]

external grape4_backward_avx2 :
  Cmat.buffer -> int -> int -> (float[@unboxed]) -> Cmat.buffer ->
  Cmat.buffer -> float array -> (float[@unboxed]) -> (float[@unboxed]) ->
  float array -> float array array -> float array array -> unit
  = "pqc_grape4_backward_avx2_byte" "pqc_grape4_backward_avx2"
[@@noalloc]

(* The ADAM step and drive clip of every GRAPE iteration (see
   [Grape.optimize]): nc, n_steps, step count, learning rate, drive
   bounds, u, grad and the moments m and v; [true] means diverged. *)
external adam_step :
  int -> int -> int -> (float[@unboxed]) -> float array -> float array array ->
  float array array -> float array -> float array -> bool
  = "pqc_adam_step_byte" "pqc_adam_step"
[@@noalloc]

external adam_step_default :
  int -> int -> int -> (float[@unboxed]) -> float array -> float array array ->
  float array array -> float array -> float array -> bool
  = "pqc_adam_step_default_byte" "pqc_adam_step_default"
[@@noalloc]

external adam_step_avx2 :
  int -> int -> int -> (float[@unboxed]) -> float array -> float array array ->
  float array array -> float array -> float array -> bool
  = "pqc_adam_step_avx2_byte" "pqc_adam_step_avx2"
[@@noalloc]

(* --- references: naive loops over Cmat.get/set, float chains spelled out --- *)

let random_mat rng r c =
  let m = Cmat.create r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      Cmat.set m i j
        { Complex.re = Rng.uniform rng ~lo:(-2.0) ~hi:2.0;
          im = Rng.uniform rng ~lo:(-2.0) ~hi:2.0 }
    done
  done;
  m

let ref_identity n =
  let m = Cmat.create n n in
  for i = 0 to n - 1 do
    Cmat.set m i i Complex.one
  done;
  m

(* Naive triple loop: ascending k, accumulators from 0.0 — the order every
   product kernel (tiled, 4x4, fused Taylor) must reproduce. *)
let ref_mul a b =
  let n = Cmat.rows a and p = Cmat.cols a and q = Cmat.cols b in
  let d = Cmat.create n q in
  for i = 0 to n - 1 do
    for j = 0 to q - 1 do
      let sre = ref 0.0 and sim = ref 0.0 in
      for k = 0 to p - 1 do
        let x = Cmat.get a i k and y = Cmat.get b k j in
        sre := !sre +. ((x.Complex.re *. y.Complex.re) -. (x.im *. y.im));
        sim := !sim +. ((x.Complex.re *. y.im) +. (x.im *. y.Complex.re))
      done;
      Cmat.set d i j { Complex.re = !sre; im = !sim }
    done
  done;
  d

let ref_scale (z : Complex.t) a =
  let d = Cmat.create (Cmat.rows a) (Cmat.cols a) in
  for i = 0 to Cmat.rows a - 1 do
    for j = 0 to Cmat.cols a - 1 do
      let x = Cmat.get a i j in
      Cmat.set d i j
        { Complex.re = (z.re *. x.Complex.re) -. (z.im *. x.im);
          im = (z.re *. x.im) +. (z.im *. x.Complex.re) }
    done
  done;
  d

let ref_axpy (z : Complex.t) x y =
  let d = Cmat.copy y in
  for i = 0 to Cmat.rows x - 1 do
    for j = 0 to Cmat.cols x - 1 do
      let v = Cmat.get x i j and w = Cmat.get d i j in
      Cmat.set d i j
        { Complex.re = w.Complex.re +. ((z.re *. v.Complex.re) -. (z.im *. v.im));
          im = w.im +. ((z.re *. v.im) +. (z.im *. v.Complex.re)) }
    done
  done;
  d

let ref_trace_of_product a b =
  let re = ref 0.0 and im = ref 0.0 in
  for i = 0 to Cmat.rows a - 1 do
    for j = 0 to Cmat.cols a - 1 do
      let x = Cmat.get a i j and y = Cmat.get b j i in
      re := !re +. ((x.Complex.re *. y.Complex.re) -. (x.im *. y.im));
      im := !im +. ((x.Complex.re *. y.im) +. (x.im *. y.Complex.re))
    done
  done;
  { Complex.re = !re; im = !im }

let ref_dagger a =
  let d = Cmat.create (Cmat.cols a) (Cmat.rows a) in
  for i = 0 to Cmat.rows a - 1 do
    for j = 0 to Cmat.cols a - 1 do
      let x = Cmat.get a i j in
      Cmat.set d j i { Complex.re = x.Complex.re; im = -.x.im }
    done
  done;
  d

let ref_one_norm a =
  let best = ref 0.0 in
  for j = 0 to Cmat.cols a - 1 do
    let s = ref 0.0 in
    for i = 0 to Cmat.rows a - 1 do
      let x = Cmat.get a i j in
      s :=
        !s +. sqrt ((x.Complex.re *. x.Complex.re) +. (x.im *. x.im))
    done;
    if !s > !best then best := !s
  done;
  !best

(* Squarings for a given one-norm; a non-finite ceiling (an infinite norm)
   gives 0. *)
let ref_scaling_exponent norm =
  if norm <= 0.5 then 0
  else
    let c = ceil (log (norm /. 0.5) /. log 2.0) in
    if Float.is_finite c then int_of_float c else 0

(* The scaling-and-squaring Taylor exponential, rebuilt from the reference
   ops above: exactly Expm's algorithm (order 13, norm threshold 1/2,
   ldexp scaling), so both the generic path and the dim-4 C kernel must
   reproduce it bit for bit. *)
let ref_expm a =
  let n = Cmat.rows a in
  let s = ref_scaling_exponent (ref_one_norm a) in
  let inv = Float.ldexp 1.0 (-s) in
  let scaled = ref_scale { Complex.re = inv; im = 0.0 } a in
  let acc = ref (ref_identity n) in
  let term = ref (ref_identity n) in
  for k = 1 to 13 do
    term :=
      ref_scale { Complex.re = 1.0 /. float_of_int k; im = 0.0 }
        (ref_mul !term scaled);
    acc := ref_axpy { Complex.re = 1.0; im = 0.0 } !term !acc
  done;
  for _ = 1 to s do
    acc := ref_mul !acc !acc
  done;
  !acc

(* --- exact-bits comparison --- *)

(* [same x y] decides each float pair, [y] from the reference. *)
let mat_eq_by same label a b =
  if Cmat.rows a <> Cmat.rows b || Cmat.cols a <> Cmat.cols b then
    QCheck.Test.fail_reportf "%s: dimension mismatch" label;
  for i = 0 to Cmat.rows a - 1 do
    for j = 0 to Cmat.cols a - 1 do
      let x = Cmat.get a i j and y = Cmat.get b i j in
      if not (same x.Complex.re y.Complex.re && same x.im y.im) then
        QCheck.Test.fail_reportf "%s: entry (%d,%d) differs: (%h,%h) vs (%h,%h)"
          label i j x.Complex.re x.im y.Complex.re y.im
    done
  done;
  true

let bits_eq_mat =
  mat_eq_by (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)

(* For inputs with non-finite entries: where the reference holds a NaN the
   kernel must hold a NaN too, but its payload and sign may differ
   (IEEE-754 leaves them to the implementation); every other float must
   match bit for bit. *)
let bits_eq_mat_nan =
  mat_eq_by (fun x y ->
      if Float.is_nan y then Float.is_nan x
      else Int64.bits_of_float x = Int64.bits_of_float y)

let bits_eq_c label (x : Complex.t) (y : Complex.t) =
  if
    Int64.bits_of_float x.re <> Int64.bits_of_float y.re
    || Int64.bits_of_float x.im <> Int64.bits_of_float y.im
  then QCheck.Test.fail_reportf "%s: (%h,%h) vs (%h,%h)" label x.re x.im y.re y.im;
  true

(* The baseline and AVX2 entries of the 4x4 product and exponential, by
   name.  [Cmat.mul_into] and [Expm.expm_into] call the loader's clone. *)
let mul4_clones =
  List.map
    (fun (name, f) ->
      ( name,
        fun a b ->
          let d = Cmat.create 4 4 in
          f (Cmat.data a) (Cmat.data b) (Cmat.data d);
          d ))
    [ ("mul4_default", mul4_default); ("mul4_avx2", mul4_avx2) ]

let expm4_clones =
  List.map
    (fun (name, f) ->
      ( name,
        fun a ->
          let d = Cmat.create 4 4 in
          f (Cmat.data a) (Cmat.data d);
          d ))
    [ ("expm4_default", expm4_default); ("expm4_avx2", expm4_avx2) ]

(* [eq] holds for every clone's result against [expect]. *)
let all_clones eq clones run expect =
  List.for_all (fun (name, f) -> eq name (run f) expect) clones

let dim_of_seed seed lo hi = lo + (seed mod (hi - lo + 1))

(* --- properties --- *)

let prop_mul_equiv =
  QCheck.Test.make ~name:"mul = naive triple loop (bits)" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      (* Independent draws from 1..16 would hit the square shapes GRAPE
         uses about once in 4096 cases: route a quarter of the cases to
         2x2x2 (the single-qubit slice, on the generic loop), a quarter to
         4x4x4 (the C kernel, every clone) and a quarter to a row or column
         count in 49..96, which takes the cache-blocked branch: one full
         48-wide tile and a partial one. *)
      let n, p, q =
        match seed mod 4 with
        | 0 -> (2, 2, 2)
        | 1 -> (4, 4, 4)
        | 2 ->
          let big = 49 + Rng.int rng 48 and other = 1 + Rng.int rng 96 in
          let p = 1 + Rng.int rng 16 in
          if Rng.int rng 2 = 0 then (big, p, other) else (other, p, big)
        | _ ->
          ( dim_of_seed (seed / 4) 1 16,
            dim_of_seed (seed / 68) 1 16,
            dim_of_seed (seed / 1156) 1 16 )
      in
      let a = random_mat rng n p and b = random_mat rng p q in
      let d = Cmat.create n q in
      Cmat.mul_into ~dst:d a b;
      bits_eq_mat "mul_into" d (ref_mul a b)
      && bits_eq_mat "mul" (Cmat.mul a b) (ref_mul a b)
      && ((n, p, q) <> (4, 4, 4)
         || all_clones bits_eq_mat mul4_clones (fun f -> f a b) (ref_mul a b)))

let prop_scale_equiv =
  QCheck.Test.make ~name:"scale = reference (bits)" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = dim_of_seed seed 1 16 and m = dim_of_seed (seed / 17) 1 16 in
      let a = random_mat rng n m in
      let z =
        { Complex.re = Rng.uniform rng ~lo:(-2.0) ~hi:2.0;
          im = Rng.uniform rng ~lo:(-2.0) ~hi:2.0 }
      in
      bits_eq_mat "scale" (Cmat.scale z a) (ref_scale z a))

let prop_axpy_equiv =
  QCheck.Test.make ~name:"axpy = reference (bits)" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = dim_of_seed seed 1 16 and m = dim_of_seed (seed / 17) 1 16 in
      let x = random_mat rng n m and y = random_mat rng n m in
      let z =
        { Complex.re = Rng.uniform rng ~lo:(-2.0) ~hi:2.0;
          im = Rng.uniform rng ~lo:(-2.0) ~hi:2.0 }
      in
      let expect = ref_axpy z x y in
      Cmat.axpy ~alpha:z ~x ~y;
      bits_eq_mat "axpy" y expect)

let prop_trace_of_product_equiv =
  QCheck.Test.make ~name:"trace_of_product = reference (bits)" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = dim_of_seed seed 1 16 in
      let a = random_mat rng n n and b = random_mat rng n n in
      let expect = ref_trace_of_product a b in
      let buf = [| 0.0; 0.0 |] in
      Cmat.trace_of_product_into ~dst:buf a b;
      bits_eq_c "trace_of_product" (Cmat.trace_of_product a b) expect
      && bits_eq_c "trace_of_product_into"
           { Complex.re = buf.(0); im = buf.(1) }
           expect)

let prop_dagger_equiv =
  QCheck.Test.make ~name:"dagger = reference (bits)" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = dim_of_seed seed 1 16 and m = dim_of_seed (seed / 17) 1 16 in
      let a = random_mat rng n m in
      bits_eq_mat "dagger" (Cmat.dagger a) (ref_dagger a))

let prop_expm_equiv =
  QCheck.Test.make
    ~name:"expm = reference scaling-squaring Taylor (bits, incl. dim 2/4)"
    ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      (* 1..16 but biased through GRAPE's two slice dims: 4 takes the C
         kernel, 2 (the single-qubit slice) and everything else the generic
         loop. *)
      let n =
        match seed mod 4 with
        | 0 -> 2
        | 1 -> 4
        | _ -> dim_of_seed (seed / 17) 1 16
      in
      let a = random_mat rng n n in
      let ws = Expm.make_ws n in
      let d = Cmat.create n n in
      Expm.expm_into ws ~dst:d a;
      bits_eq_mat "expm_into" d (ref_expm a)
      && bits_eq_mat "expm" (Expm.expm a) (ref_expm a)
      && (n <> 4
         || all_clones bits_eq_mat expm4_clones (fun f -> f a) (ref_expm a)))

(* GRAPE's dim-4 slice generators are -i dt H for a Hermitian H.  The
   random inputs above reach the dim-4 kernel about 15 times a run, with
   scaling exponents up to 4, while GRAPE on the bench workloads reaches 5.
   Here dt puts the one-norm inside the band of exponent [seed mod 8], so
   the squaring count covers 0..7 evenly. *)
let prop_expm4_grape_equiv =
  QCheck.Test.make
    ~name:"expm dim 4 on -i dt H, exponents 0..7 = reference (bits)"
    ~count:600 ~long_factor:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let s = seed mod 8 in
      let h = Cmat.random_hermitian rng 4 in
      let lo, hi =
        if s = 0 then (0.01, 0.49)
        else (0.5 *. Float.ldexp 1.05 (s - 1), 0.5 *. Float.ldexp 0.95 s)
      in
      let dt = Rng.uniform rng ~lo ~hi /. ref_one_norm h in
      let g = Cmat.scale { Complex.re = 0.0; im = -.dt } h in
      if ref_scaling_exponent (ref_one_norm g) <> s then
        QCheck.Test.fail_reportf "generator missed exponent %d" s;
      let d = Cmat.create 4 4 in
      Expm.expm_into (Expm.make_ws 4) ~dst:d g;
      let expect = ref_expm g in
      bits_eq_mat "expm_into" d expect
      && all_clones bits_eq_mat expm4_clones (fun f -> f g) expect)

(* A diverged GRAPE run feeds NaN and infinities to the kernels.  Entries
   here are special a quarter of the time: NaN, +-inf, +-0, subnormals,
   +-1e308 (whose squares overflow the one-norm) and 1e150 (a finite norm
   with hundreds of squarings). *)
let specials =
  [| Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 4.9e-324;
     -2.5e-310; 1e308; -1e308; 1e150 |]

let special_mat rng n =
  let entry () =
    if Rng.int rng 4 = 0 then specials.(Rng.int rng (Array.length specials))
    else Rng.uniform rng ~lo:(-2.0) ~hi:2.0
  in
  let m = Cmat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Cmat.set m i j { Complex.re = entry (); im = entry () }
    done
  done;
  m

let prop_nonfinite_equiv =
  QCheck.Test.make
    ~name:"expm and mul on NaN/inf/zero/subnormal/1e308 = reference"
    ~count:400
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = match seed mod 4 with 0 -> 2 | 1 -> 3 | _ -> 4 in
      let a = special_mat rng n and b = special_mat rng n in
      let d = Cmat.create n n in
      Expm.expm_into (Expm.make_ws n) ~dst:d a;
      let expect = ref_expm a in
      let prod = ref_mul a b in
      bits_eq_mat_nan "expm_into" d expect
      && bits_eq_mat_nan "mul" (Cmat.mul a b) prod
      && (n <> 4
         || all_clones bits_eq_mat_nan expm4_clones (fun f -> f a) expect
            && all_clones bits_eq_mat_nan mul4_clones (fun f -> f a b) prod))

(* Cmat.inner: conj(a) * b over the flat row-major order, from 0.0. *)
let ref_inner a b =
  let re = ref 0.0 and im = ref 0.0 in
  for i = 0 to Cmat.rows a - 1 do
    for j = 0 to Cmat.cols a - 1 do
      let x = Cmat.get a i j and y = Cmat.get b i j in
      re := !re +. ((x.Complex.re *. y.Complex.re) +. (x.im *. y.im));
      im := !im +. ((x.Complex.re *. y.im) -. (x.im *. y.Complex.re))
    done
  done;
  { Complex.re = !re; im = !im }

(* Every clone of the GRAPE passes against a dense rebuild from the
   references above, on random split-layout systems with 0 to 8 controls,
   or 17, past the 16 the backward pass traces sparsely: a first forward
   pass, a second one after every other control column changed, then a
   backward pass.  Every slice is checked against [ref_expm] of its
   generator, every prefix product against [ref_mul], and the overlap and
   every gradient entry against a backward sweep of [ref_mul] and
   [ref_trace_of_product]; the baseline and AVX2 clones must also match
   the loader's clone bit for bit, NaN payloads included.

   Half the systems are real (every imaginary part of the drift and the
   controls a zero of either sign) with sparse controls (each real part a
   zero with probability 3/4), which the forward pass's step lanes and the
   backward pass's sparse traces take.  [n_steps] runs from 2 to 40, so a
   pass sees 1 to 5 lane batches and every remainder.  Each step scales
   its controls by its own power of two, so one batch mixes scaling
   exponents 0 to 7.  A quarter of the draws put NaN, +-inf or 1e200 in
   one control value or one entry of a control (the drift with no
   controls): that step's batch, or every batch, takes the step-by-step
   exponential, and no W of the backward sweep is finite.  The overlap is
   then not finite either, which hides the traces, so another quarter put
   NaN or +-inf in one entry of one prefix product between the passes: W
   is not finite at that step while the overlap is, and a sparse trace
   that skipped a NaN row of W would return a number where the dense one
   returns NaN. *)
let prop_grape4_clones_equiv =
  QCheck.Test.make
    ~name:"GRAPE dim-4 passes: baseline clone = AVX2 clone = loader's clone (bits)"
    ~count:200 ~long_factor:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nc = if seed mod 16 = 15 then 17 else seed mod 9 in
      let n_steps = 2 + Rng.int rng 39 and real = Rng.int rng 2 = 0 in
      let uniform lo hi = Rng.uniform rng ~lo ~hi in
      let buf n f =
        let b = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n in
        for i = 0 to n - 1 do
          b.{i} <- f ()
        done;
        b
      in
      let sys4 = buf (32 * (nc + 2)) (fun () -> uniform (-1.0) 1.0) in
      if real then
        for p = 32 to (32 * (nc + 2)) - 1 do
          if p mod 32 >= 16 || (p >= 64 && Rng.int rng 4 > 0) then
            sys4.{p} <- (if Rng.int rng 2 = 0 then 0.0 else -0.0)
        done;
      let neg_dt = -.uniform 0.05 1.0 and amp_penalty = uniform 0.0 0.1 in
      let scale = Array.init n_steps (fun _ -> Float.ldexp 1.0 (Rng.int rng 10 - 4)) in
      let u0 =
        Array.init nc (fun _ ->
            Array.init n_steps (fun k -> scale.(k) *. uniform (-1.0) 1.0))
      in
      if Rng.int rng 4 = 0 then begin
        let x = [| Float.nan; Float.infinity; Float.neg_infinity; 1e200 |].(Rng.int rng 4) in
        if nc > 0 && Rng.int rng 2 = 0 then u0.(Rng.int rng nc).(Rng.int rng n_steps) <- x
        else sys4.{(32 * if nc = 0 then 1 else 2 + Rng.int rng nc) + Rng.int rng 16} <- x
      end;
      let broken_prefix =
        if Rng.int rng 4 = 0 then
          Some
            ( Rng.int rng n_steps, Rng.int rng 32,
              [| Float.nan; Float.infinity; Float.neg_infinity |].(Rng.int rng 3) )
        else None
      in
      let max_amp = Array.init nc (fun _ -> uniform 0.2 3.0) in
      let halve u =
        Array.iter
          (fun row ->
            for k = 0 to n_steps - 1 do
              if k mod 2 = 1 then row.(k) <- row.(k) *. 0.5
            done)
          u
      in
      let run (forward, backward) =
        let slices = buf (32 * n_steps) (fun () -> 0.0) in
        let prefix = buf (32 * n_steps) (fun () -> 0.0) in
        let ov = [| 0.0; 0.0 |] and u = Array.map Array.copy u0 in
        let grad = Array.make_matrix nc n_steps 0.0 in
        forward sys4 nc n_steps neg_dt u slices prefix ov;
        halve u;
        forward sys4 nc n_steps neg_dt u slices prefix ov;
        Option.iter (fun (k, p, x) -> prefix.{(32 * k) + p} <- x) broken_prefix;
        backward sys4 nc n_steps neg_dt slices prefix ov 16.0 amp_penalty max_amp
          u grad;
        ([ slices; prefix ], Array.append ov (Array.concat (Array.to_list grad)))
      in
      (* The reference: both passes rebuilt from the dense references. *)
      let mat b m =
        let x = Cmat.create 4 4 in
        for i = 0 to 3 do
          for j = 0 to 3 do
            let p = (32 * m) + (4 * i) + j in
            Cmat.set x i j { Complex.re = b.{p}; im = b.{p + 16} }
          done
        done;
        x
      in
      let u = Array.map Array.copy u0 in
      halve u;
      let target = mat sys4 0 and controls = Array.init nc (fun j -> mat sys4 (j + 2)) in
      let slices =
        Array.init n_steps (fun k ->
            let h = ref (mat sys4 1) in
            Array.iteri
              (fun j c -> h := ref_axpy { Complex.re = u.(j).(k); im = 0.0 } c !h)
              controls;
            ref_expm (ref_scale { Complex.re = 0.0; im = neg_dt } !h))
      in
      let prefix = Array.copy slices in
      for k = 1 to n_steps - 1 do
        prefix.(k) <- ref_mul slices.(k) prefix.(k - 1)
      done;
      let ov = ref_inner target prefix.(n_steps - 1) in
      let ov_re = ov.re and ov_im = -.ov.im in
      Option.iter
        (fun (k, p, x) ->
          let m = Cmat.copy prefix.(k) and i = p mod 16 / 4 and j = p mod 4 in
          let z = Cmat.get m i j in
          Cmat.set m i j
            (if p < 16 then { z with Complex.re = x } else { z with Complex.im = x });
          prefix.(k) <- m)
        broken_prefix;
      let grad = Array.make_matrix nc n_steps 0.0 in
      let m = ref (ref_dagger target) in
      for k = n_steps - 1 downto 0 do
        let w = ref_mul prefix.(k) !m in
        Array.iteri
          (fun j c ->
            let s = ref_trace_of_product w c in
            let d_o_re = (0.0 *. s.Complex.re) -. (neg_dt *. s.im) in
            let d_o_im = (0.0 *. s.im) +. (neg_dt *. s.re) in
            let d_fid = 2.0 /. 16.0 *. ((ov_re *. d_o_re) -. (ov_im *. d_o_im)) in
            grad.(j).(k) <-
              -.d_fid
              +. (2.0 *. amp_penalty *. u.(j).(k) /. (max_amp.(j) *. max_amp.(j))))
          controls;
        if k > 0 then m := ref_mul !m slices.(k)
      done;
      let expect_floats = Array.append [| ov.re; ov.im |] (Array.concat (Array.to_list grad)) in
      let same x y =
        if Float.is_nan y then Float.is_nan x
        else Int64.bits_of_float x = Int64.bits_of_float y
      in
      let bits = Int64.bits_of_float in
      let check_reference name (bufs, floats) =
        List.iter2
          (fun (what, b) expect ->
            Array.iteri
              (fun k x ->
                ignore (bits_eq_mat_nan (Printf.sprintf "%s %s %d" name what k) (mat b k) x))
              expect)
          (List.combine [ "slice"; "prefix" ] bufs)
          [ slices; prefix ];
        Array.iteri
          (fun i x ->
            if not (same x expect_floats.(i)) then
              QCheck.Test.fail_reportf "%s overlap/gradient entry %d: %h vs reference %h"
                name i x expect_floats.(i))
          floats
      in
      let loader = run (grape4_forward, grape4_backward) in
      check_reference "loader" loader;
      List.iter
        (fun (name, passes) ->
          let bufs', floats' = run passes in
          check_reference name (bufs', floats');
          List.iter2
            (fun b b' ->
              for i = 0 to Bigarray.Array1.dim b - 1 do
                if bits b.{i} <> bits b'.{i} then
                  QCheck.Test.fail_reportf "%s buffer entry %d: %h vs loader %h" name i
                    b'.{i} b.{i}
              done)
            (fst loader) bufs';
          Array.iteri
            (fun i x ->
              if bits x <> bits floats'.(i) then
                QCheck.Test.fail_reportf "%s overlap/gradient entry %d: %h vs loader %h"
                  name i floats'.(i) x)
            (snd loader))
        [ ("default", (grape4_forward_default, grape4_backward_default));
          ("avx2", (grape4_forward_avx2, grape4_backward_avx2)) ];
      true)

(* The C ADAM step with the drive clip, on every clone, against
   [Adam.step] on the flattened controls followed by
   [Float.max (-cap) (Float.min cap x)], as [Grape.optimize] ran them in
   OCaml.  A quarter of the controls are special (NaN, +-inf, +-0,
   subnormals, 1e308), and a quarter of the gradient entries the finite
   ones among them (1e308 squares past the second moment's range); large
   learning rates saturate the clip.
   Each case runs a few steps; a step whose gradient holds a NaN or an
   infinity must return diverged and leave the controls and moments
   untouched, and the reference skips it. *)
let prop_adam_step_equiv =
  QCheck.Test.make
    ~name:"ADAM step and clip, every clone = Adam.step + clip (bits)"
    ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nc = seed mod 6 and n_steps = 1 + Rng.int rng 12 in
      let special () = specials.(Rng.int rng (Array.length specials)) in
      let draw lo hi =
        if Rng.int rng 4 = 0 then special () else Rng.uniform rng ~lo ~hi
      in
      (* Drive bounds are positive in GRAPE; signed zeros, a negative, an
         infinite and a NaN bound reach every branch of the clip. *)
      let max_amp =
        Array.init nc (fun _ ->
            match Rng.int rng 10 with
            | 0 -> 0.0
            | 1 -> -0.0
            | 2 -> Float.infinity
            | 3 -> Float.nan
            | 4 -> Rng.uniform rng ~lo:(-3.0) ~hi:(-0.2)
            | _ -> Rng.uniform rng ~lo:0.2 ~hi:3.0)
      in
      let u0 = Array.init nc (fun _ -> Array.init n_steps (fun _ -> draw (-4.0) 4.0)) in
      let steps =
        List.init (1 + Rng.int rng 5) (fun _ ->
            let lr =
              if Rng.int rng 3 = 0 then Rng.uniform rng ~lo:5.0 ~hi:50.0
              else Rng.uniform rng ~lo:0.01 ~hi:0.5
            in
            let grad =
              Array.init nc (fun _ ->
                  Array.init n_steps (fun _ ->
                      match Rng.int rng 4 with
                      | 0 ->
                        let x = special () in
                        if Float.is_finite x then x else 0.5
                      | _ -> Rng.uniform rng ~lo:(-3.0) ~hi:3.0))
            in
            (* A fifth of the steps carry one non-finite gradient entry. *)
            if nc > 0 && Rng.int rng 5 = 0 then
              grad.(Rng.int rng nc).(Rng.int rng n_steps) <-
                [| Float.nan; Float.infinity; Float.neg_infinity |].(Rng.int rng 3);
            (lr, grad))
      in
      (* The reference: controls after each step, or None for a diverged one. *)
      let expect =
        let adam = Adam.create (nc * n_steps) and u = Array.map Array.copy u0 in
        List.map
          (fun (lr, grad) ->
            let flat_grad = Array.concat (Array.to_list grad) in
            if not (Array.for_all Float.is_finite flat_grad) then None
            else begin
              let params = Array.concat (Array.to_list u) in
              Adam.step adam ~learning_rate:lr ~params ~grad:flat_grad;
              Array.iteri
                (fun j cap ->
                  for k = 0 to n_steps - 1 do
                    u.(j).(k) <-
                      Float.max (-.cap) (Float.min cap params.((j * n_steps) + k))
                  done)
                max_amp;
              Some (Array.map Array.copy u)
            end)
          steps
      in
      (* Where the reference holds a NaN the step must hold one too, its
         payload and sign aside; every other float matches bit for bit. *)
      let same x y =
        if Float.is_nan y then Float.is_nan x
        else Int64.bits_of_float x = Int64.bits_of_float y
      in
      List.iter
        (fun (name, step) ->
          let u = Array.map Array.copy u0 in
          let m = Array.make (nc * n_steps) 0.0 and v = Array.make (nc * n_steps) 0.0 in
          let t = ref 1 in
          List.iter2
            (fun (lr, grad) expect ->
              let before = (Array.map Array.copy u, Array.copy m, Array.copy v) in
              let diverged = step nc n_steps !t lr max_amp u grad m v in
              match expect with
              | None ->
                if not diverged then
                  QCheck.Test.fail_reportf "%s: a non-finite gradient stepped" name;
                let u', m', v' = before in
                let bits = Array.map Int64.bits_of_float in
                if
                  Array.map bits u <> Array.map bits u' || bits m <> bits m'
                  || bits v <> bits v'
                then
                  QCheck.Test.fail_reportf "%s: a diverged step wrote" name
              | Some expect ->
                if diverged then
                  QCheck.Test.fail_reportf "%s: finite gradients diverged" name;
                incr t;
                Array.iteri
                  (fun j row ->
                    Array.iteri
                      (fun k x ->
                        if not (same x expect.(j).(k)) then
                          QCheck.Test.fail_reportf
                            "%s step %d, control (%d,%d): %h vs reference %h" name
                            (!t - 1) j k x expect.(j).(k))
                      row)
                  u)
            steps expect)
        [ ("loader", adam_step); ("default", adam_step_default);
          ("avx2", adam_step_avx2) ];
      true)

(* --- aliasing preconditions: misuse must trip the asserts, not corrupt --- *)

let raises_assert f =
  match f () with
  | _ -> false
  | exception Assert_failure _ -> true

let test_mul_into_aliasing () =
  let rng = Rng.create 7 in
  let a = random_mat rng 4 4 and b = random_mat rng 4 4 in
  Alcotest.(check bool) "dst == a rejected" true
    (raises_assert (fun () -> Cmat.mul_into ~dst:a a b));
  Alcotest.(check bool) "dst == b rejected" true
    (raises_assert (fun () -> Cmat.mul_into ~dst:b a b));
  Alcotest.(check bool) "shape mismatch rejected" true
    (raises_assert (fun () ->
         Cmat.mul_into ~dst:(Cmat.create 3 3) a b))

let test_dagger_into_aliasing () =
  let rng = Rng.create 8 in
  let a = random_mat rng 4 4 in
  Alcotest.(check bool) "dst == a rejected" true
    (raises_assert (fun () -> Cmat.dagger_into ~dst:a a))

(* --- allocation: the expm hot path must not touch the minor heap --- *)

let test_expm_into_no_alloc () =
  (* [expm_into] with a prepared workspace is allocation-free at the C
     kernel's dim 4 and at the generic loop's dims.  Run a few thousand
     calls between two [Gc.minor_words] readings: per-call heap growth shows
     up as thousands of words here; the slack only covers the
     instrumentation's own boxes. *)
  List.iter
    (fun n ->
      let rng = Rng.create (100 + n) in
      let a = random_mat rng n n in
      let ws = Expm.make_ws n in
      let d = Cmat.create n n in
      Expm.expm_into ws ~dst:d a;
      let w0 = Gc.minor_words () in
      for _ = 1 to 2_000 do
        Expm.expm_into ws ~dst:d a
      done;
      let dw = Gc.minor_words () -. w0 in
      Alcotest.(check bool)
        (Printf.sprintf "expm_into dim %d allocates (%.0f words / 2000 calls)"
           n dw)
        true (dw < 100.0))
    [ 2; 3; 4; 8 ]

let () =
  Alcotest.run "kernels"
    [ ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_mul_equiv;
          QCheck_alcotest.to_alcotest prop_scale_equiv;
          QCheck_alcotest.to_alcotest prop_axpy_equiv;
          QCheck_alcotest.to_alcotest prop_trace_of_product_equiv;
          QCheck_alcotest.to_alcotest prop_dagger_equiv;
          QCheck_alcotest.to_alcotest prop_expm_equiv;
          QCheck_alcotest.to_alcotest prop_expm4_grape_equiv;
          QCheck_alcotest.to_alcotest prop_nonfinite_equiv;
          QCheck_alcotest.to_alcotest prop_grape4_clones_equiv;
          QCheck_alcotest.to_alcotest prop_adam_step_equiv ] );
      ( "preconditions",
        [ Alcotest.test_case "mul_into aliasing" `Quick test_mul_into_aliasing;
          Alcotest.test_case "dagger_into aliasing" `Quick
            test_dagger_into_aliasing ] );
      ( "allocation",
        [ Alcotest.test_case "expm_into allocation-free" `Quick
            test_expm_into_no_alloc ] ) ]
