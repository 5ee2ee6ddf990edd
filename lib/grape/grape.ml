module BA = Bigarray.Array1
module Cmat = Pqc_linalg.Cmat
module Expm = Pqc_linalg.Expm
module Rng = Pqc_util.Rng
module Obs = Pqc_obs.Obs

type hyperparams = { learning_rate : float; decay : float }

type settings = {
  dt : float;
  max_iters : int;
  target_fidelity : float;
  hyperparams : hyperparams;
  amp_penalty : float;
  smoothness_penalty : float;
  envelope : bool;
  seed : int;
}

let default_settings =
  { dt = 0.05; max_iters = 600; target_fidelity = 0.999;
    hyperparams = { learning_rate = 0.3; decay = 0.998 }; amp_penalty = 1e-4;
    smoothness_penalty = 0.0; envelope = false; seed = 0 }

let fast_settings =
  { default_settings with dt = 0.25; max_iters = 300; target_fidelity = 0.99 }

let realistic_settings =
  (* The paper samples at 1 GSa/s; with first-order gradients (rather than
     exact automatic differentiation) the slice exponential's linearization
     needs dt <= 0.5 ns at the gmon flux amplitudes, so "realistic" here
     means 2 GSa/s — still 10x coarser than the standard 20 GSa/s mode. *)
  { default_settings with dt = 0.5; max_iters = 1000;
    target_fidelity = 0.99; smoothness_penalty = 1e-3; envelope = true }

type result = {
  fidelity : float;
  iterations : int;
  converged : bool;
  diverged : bool;
  deadline_hit : bool;
  total_time : float;
  n_steps : int;
  controls : float array array;
  wall_time_s : float;
}

(* Hard cap on the discretization: beyond this the slice-propagator arrays
   alone dominate memory and a search will never finish interactively. *)
let max_steps = 100_000

let now () = Pqc_obs.Obs.Clock.now ()

(* Build H(u_k) = drift + sum_j u.(j).(k) H_j into [dst].  The axpy is
   written out over the flat buffers: a closure per call or a float argument
   crossing a function boundary would each allocate (vanilla ocamlopt boxes
   float arguments), and this runs once per slice per ADAM iteration on
   every worker domain — minor-GC pressure here turns into stop-the-world
   barriers for the whole pool.  The arithmetic is the scalar
   {re = u; im = 0} case of [Cmat.axpy_ri], operation for operation. *)
let build_slice_hamiltonian (sys : Hamiltonian.t) u k ~dst =
  Cmat.blit ~src:sys.drift ~dst;
  let dd = Cmat.data dst in
  let len = BA.dim dd in
  for j = 0 to Array.length sys.controls - 1 do
    let zre = u.(j).(k) in
    let xd = Cmat.data sys.controls.(j).Hamiltonian.matrix in
    let i = ref 0 in
    while !i < len do
      let p = !i in
      let re = BA.unsafe_get xd p and im = BA.unsafe_get xd (p + 1) in
      BA.unsafe_set dd p (BA.unsafe_get dd p +. ((zre *. re) -. (0.0 *. im)));
      BA.unsafe_set dd (p + 1)
        (BA.unsafe_get dd (p + 1) +. ((zre *. im) +. (0.0 *. re)));
      i := p + 2
    done
  done

let propagate (sys : Hamiltonian.t) ~dt u =
  let dim = sys.dim in
  let n_steps = if Array.length u = 0 then 0 else Array.length u.(0) in
  let ws = Expm.make_ws dim in
  let h = Cmat.create dim dim in
  let gen = Cmat.create dim dim in
  let uk = Cmat.create dim dim in
  (* Ping-pong accumulation: two buffers for the whole walk instead of one
     fresh Cmat.mul allocation per time step.  Each step still computes the
     same product U_k * acc, so the result is bit-identical to the
     allocating version. *)
  let acc = ref (Cmat.identity dim) in
  let nxt = ref (Cmat.create dim dim) in
  for k = 0 to n_steps - 1 do
    build_slice_hamiltonian sys u k ~dst:h;
    Cmat.scale_ri_into ~dst:gen ~re:0.0 ~im:(-.dt) h;
    Expm.expm_into ws ~dst:uk gen;
    Cmat.mul_into ~dst:!nxt uk !acc;
    let t = !acc in
    acc := !nxt;
    nxt := t
  done;
  !acc

(* Exact-bits comparison: the expm memo must only reuse a slice propagator
   when the controls are indistinguishable at the IEEE-754 level ([=] alone
   would conflate +0.0 with -0.0, whose products differ in zero signs).
   For equal nonzero values plain [=] suffices; the reciprocal probe
   separates the two zeros (1/+0. = inf, 1/-0. = -inf) without boxing an
   Int64 per comparison.  NaN compares unequal, i.e. "changed" — controls
   are NaN-guarded upstream anyway. *)
let[@inline] same_bits a b = a = b && (a <> 0.0 || 1.0 /. a = 1.0 /. b)

let subspace_overlap sys target_embedded u_total =
  let o = Cmat.inner target_embedded u_total in
  let d = float_of_int (Hamiltonian.subspace_dim sys) in
  (o, Complex.norm2 o /. (d *. d))

let fidelity_of_controls sys ~target ~dt u =
  let embedded = Hamiltonian.embed_target sys target in
  snd (subspace_overlap sys embedded (propagate sys ~dt u))

let optimize ?(settings = default_settings) ?deadline (sys : Hamiltonian.t)
    ~target ~total_time =
  if settings.dt <= 0.0 || not (Float.is_finite settings.dt) then
    invalid_arg "Grape.optimize: dt must be positive and finite";
  if not (Float.is_finite total_time) then
    invalid_arg "Grape.optimize: total_time must be finite";
  let t0 = now () in
  let dim = sys.dim in
  let nc = Array.length sys.controls in
  let n_steps = max 2 (int_of_float (Float.round (total_time /. settings.dt))) in
  if n_steps > max_steps then
    invalid_arg
      (Printf.sprintf
         "Grape.optimize: total_time %g / dt %g needs %d steps (cap %d)"
         total_time settings.dt n_steps max_steps);
  Obs.Span.with_ ~name:"grape.optimize"
    ~attrs:
      [ ("dim", string_of_int dim);
        ("total_time", Printf.sprintf "%g" total_time);
        ("max_iters", string_of_int settings.max_iters) ]
  @@ fun () ->
  let dt = settings.dt in
  let dsub2 =
    let d = float_of_int (Hamiltonian.subspace_dim sys) in
    d *. d
  in
  let embedded = Hamiltonian.embed_target sys target in
  let rng = Rng.create settings.seed in
  (* Small random start; zero would be a stationary point of the fidelity
     for many targets. *)
  let u =
    Array.init nc (fun j ->
        let amp = 0.1 *. sys.controls.(j).max_amp in
        Array.init n_steps (fun _ -> Rng.uniform rng ~lo:(-.amp) ~hi:amp))
  in
  let grad = Array.init nc (fun _ -> Array.make n_steps 0.0) in
  let flat_dim = nc * n_steps in
  let adam = Adam.create flat_dim in
  let flat_params = Array.make flat_dim 0.0 in
  let flat_grad = Array.make flat_dim 0.0 in
  (* Workspaces reused across iterations. *)
  let ws = Expm.make_ws dim in
  let gen_buf = Cmat.create dim dim in
  let slice_u = Array.init n_steps (fun _ -> Cmat.create dim dim) in
  let prefix = Array.init n_steps (fun _ -> Cmat.create dim dim) in
  (* Matrix-exponential memo: slice_u.(k) persists across ADAM iterations,
     so a step whose control column is bit-for-bit unchanged (clip-saturated
     tails, converged coordinates) can skip build + scale + expm entirely.
     Keys are the exact IEEE-754 bits of the nc controls of that step —
     exact bits are the only "quantization" that cannot change pulses, which
     keeps the memo invisible to the determinism suite.  Memory is one
     float per control per step, bounded for the life of the run. *)
  let memo_key = Array.init n_steps (fun _ -> Array.make nc 0.0) in
  let memo_valid = Array.make n_steps false in
  let memo_hits = ref 0 in
  let m_buf = ref (Cmat.create dim dim) in
  let m_next = ref (Cmat.create dim dim) in
  let w_buf = Cmat.create dim dim in
  (* Scratch for the allocation-free fused traces in the gradient loop (one
     accumulator pair per control), plus flat views of the buffers the two
     fused hot loops below stream over.  [ctrl_data] hoists the per-control
     bigarray pointers so neither loop re-reads them through the record. *)
  let tr_re = Array.make nc 0.0 and tr_im = Array.make nc 0.0 in
  let neg_dt = -.dt in
  let drift_d = Cmat.data sys.drift in
  let ctrl_data =
    Array.map (fun c -> Cmat.data c.Hamiltonian.matrix) sys.controls
  in
  let gd = Cmat.data gen_buf and wd = Cmat.data w_buf in
  let buf_len = BA.dim gd in
  let target_dag = Cmat.dagger embedded in
  let best_fidelity = ref 0.0 in
  let best_u = Array.map Array.copy u in
  let iterations = ref 0 in
  let converged = ref false in
  let diverged = ref false in
  let deadline_hit = ref false in
  (* Convergence profile: ~32 evenly strided snapshots per run when
     tracing is on.  Collection reads the loop state but never writes
     it, so traced and untraced runs compute identical pulses. *)
  let prof_points = ref [] in
  let prof_stride = max 1 (settings.max_iters / 32) in
  let prof_snapshot iter fid lr =
    if Obs.enabled () && (iter = 1 || iter mod prof_stride = 0) then begin
      let gn = ref 0.0 in
      for i = 0 to flat_dim - 1 do
        gn := !gn +. (flat_grad.(i) *. flat_grad.(i))
      done;
      prof_points :=
        { Obs.iteration = iter; infidelity = 1.0 -. fid; learning_rate = lr;
          grad_norm = sqrt !gn }
        :: !prof_points
    end
  in
  (try
     for iter = 1 to settings.max_iters do
       iterations := iter;
       (match deadline with
       | Some d when now () > d ->
         deadline_hit := true;
         raise Exit
       | _ -> ());
       (* Forward pass: slice propagators and cumulative products.  A memo
          hit leaves slice_u.(k) from the previous iteration in place; the
          prefix products only need recomputing from the first changed
          slice onward (earlier prefixes depend only on unchanged ones). *)
       let first_dirty = ref n_steps in
       for k = 0 to n_steps - 1 do
         let key = memo_key.(k) in
         let hit = ref memo_valid.(k) in
         if !hit then
           for j = 0 to nc - 1 do
             if not (same_bits key.(j) u.(j).(k)) then hit := false
           done;
         if !hit then incr memo_hits
         else begin
           for j = 0 to nc - 1 do
             key.(j) <- u.(j).(k)
           done;
           memo_valid.(k) <- true;
           (* gen = -i dt (drift + sum_j u_jk H_j), fused into one pass per
              element: per entry this performs the exact per-element chains
              of [build_slice_hamiltonian] (drift value, then controls in
              ascending j) followed by [Cmat.scale_ri_into ~re:0.0
              ~im:neg_dt], so the fusion is bit-invisible.  It saves the
              per-control full-buffer passes over H plus the separate scale
              pass, and keeps the coefficient an unboxed local.  [key] holds
              exactly u.(j).(k) (just written above). *)
           let ii = ref 0 in
           while !ii < buf_len do
             let p = !ii in
             let hre = ref (BA.unsafe_get drift_d p)
             and him = ref (BA.unsafe_get drift_d (p + 1)) in
             for j = 0 to nc - 1 do
               let zre = key.(j) in
               let xd = ctrl_data.(j) in
               let re = BA.unsafe_get xd p and im = BA.unsafe_get xd (p + 1) in
               hre := !hre +. ((zre *. re) -. (0.0 *. im));
               him := !him +. ((zre *. im) +. (0.0 *. re))
             done;
             let re = !hre and im = !him in
             BA.unsafe_set gd p ((0.0 *. re) -. (neg_dt *. im));
             BA.unsafe_set gd (p + 1) ((0.0 *. im) +. (neg_dt *. re));
             ii := p + 2
           done;
           Expm.expm_into ws ~dst:slice_u.(k) gen_buf;
           if !first_dirty = n_steps then first_dirty := k
         end
       done;
       for k = !first_dirty to n_steps - 1 do
         if k = 0 then Cmat.blit ~src:slice_u.(0) ~dst:prefix.(0)
         else Cmat.mul_into_unchecked ~dst:prefix.(k) slice_u.(k) prefix.(k - 1)
       done;
       let overlap, fid = subspace_overlap sys embedded prefix.(n_steps - 1) in
       (* Divergence guard: a NaN/inf fidelity means the propagators blew
          up (bad dt, corrupt Hamiltonian, exploding controls).  Abort the
          iteration here, before the gradient step, so neither the ADAM
          moments nor the best-so-far controls are polluted. *)
       if not (Float.is_finite fid) then begin
         diverged := true;
         raise Exit
       end;
       if fid > !best_fidelity then begin
         best_fidelity := fid;
         Array.iteri (fun j row -> Array.blit row 0 best_u.(j) 0 n_steps) u
       end;
       if fid >= settings.target_fidelity then begin
         converged := true;
         raise Exit
       end;
       (* Backward pass: M_k = T† R_k with R_k = U_T ... U_{k+1}. *)
       Cmat.blit ~src:target_dag ~dst:!m_buf;
       (* conj(overlap), unpacked once: the gradient inner loop below works
          on floats so it allocates no Complex.t records per control/step. *)
       let ov_re = overlap.Complex.re and ov_im = -.overlap.Complex.im in
       for k = n_steps - 1 downto 0 do
         (* W = P_k M_k, so Tr(M_k H_j P_k) = Tr(W H_j). *)
         Cmat.mul_into_unchecked ~dst:w_buf prefix.(k) !m_buf;
         (* Fused traces: one pass over W computes Tr(W H_j) for every
            control at once, loading each W entry once instead of nc times.
            Each control's accumulator runs through the same (i, jj) order
            as [Cmat.trace_of_product_into] from the same 0.0 start, so the
            fusion is bit-invisible. *)
         for j = 0 to nc - 1 do
           tr_re.(j) <- 0.0;
           tr_im.(j) <- 0.0
         done;
         for i = 0 to dim - 1 do
           for jj = 0 to dim - 1 do
             let ka = 2 * ((i * dim) + jj) and kb = 2 * ((jj * dim) + i) in
             let are = BA.unsafe_get wd ka and aim = BA.unsafe_get wd (ka + 1) in
             for j = 0 to nc - 1 do
               let xd = ctrl_data.(j) in
               let bre = BA.unsafe_get xd kb and bim = BA.unsafe_get xd (kb + 1) in
               tr_re.(j) <- tr_re.(j) +. ((are *. bre) -. (aim *. bim));
               tr_im.(j) <- tr_im.(j) +. ((are *. bim) +. (aim *. bre))
             done
           done
         done;
         for j = 0 to nc - 1 do
           let ctrl = sys.controls.(j) in
           (* s = Tr(W H_j); gradient of |O|^2/d^2 via dO = -i dt s.
              The float formulas transcribe Complex.mul/conj exactly, on
              floats throughout, so no Complex.t record (and no per-step
              closure) is allocated in this loop. *)
           let s_re = tr_re.(j) and s_im = tr_im.(j) in
           let d_o_re = (0.0 *. s_re) -. (-.dt *. s_im) in
           let d_o_im = (0.0 *. s_im) +. (-.dt *. s_re) in
           let d_fid =
             2.0 /. dsub2 *. ((ov_re *. d_o_re) -. (ov_im *. d_o_im))
           in
           (* Cost = 1 - F + penalties: descend -dF plus penalty grads. *)
           let amp_grad =
             2.0 *. settings.amp_penalty *. u.(j).(k)
             /. (ctrl.Hamiltonian.max_amp *. ctrl.Hamiltonian.max_amp)
           in
           grad.(j).(k) <- -.d_fid +. amp_grad
         done;
         if k > 0 then begin
           Cmat.mul_into_unchecked ~dst:!m_next !m_buf slice_u.(k);
           let tmp = !m_buf in
           m_buf := !m_next;
           m_next := tmp
         end
       done;
       (* Smoothness / envelope regularization. *)
       if settings.smoothness_penalty > 0.0 then
         for j = 0 to nc - 1 do
           let row = u.(j) and g = grad.(j) in
           let lambda = settings.smoothness_penalty in
           for k = 0 to n_steps - 2 do
             let diff = row.(k + 1) -. row.(k) in
             g.(k) <- g.(k) -. (2.0 *. lambda *. diff);
             g.(k + 1) <- g.(k + 1) +. (2.0 *. lambda *. diff)
           done;
           if settings.envelope then begin
             g.(0) <- g.(0) +. (2.0 *. lambda *. row.(0));
             g.(n_steps - 1) <- g.(n_steps - 1) +. (2.0 *. lambda *. row.(n_steps - 1))
           end
         done;
       (* ADAM step on the flattened parameters, then clip to drive bounds. *)
       for j = 0 to nc - 1 do
         Array.blit u.(j) 0 flat_params (j * n_steps) n_steps;
         Array.blit grad.(j) 0 flat_grad (j * n_steps) n_steps
       done;
       let grad_finite = ref true in
       for i = 0 to flat_dim - 1 do
         (* Float.is_finite, written out: the stdlib function is not
            [@inline], so calling it boxes every gradient entry. *)
         let g = flat_grad.(i) in
         if not (g -. g = 0.) then grad_finite := false
       done;
       if not !grad_finite then begin
         diverged := true;
         raise Exit
       end;
       let lr =
         settings.hyperparams.learning_rate
         *. (settings.hyperparams.decay ** float_of_int (iter - 1))
       in
       prof_snapshot iter fid lr;
       Adam.step adam ~learning_rate:lr ~params:flat_params ~grad:flat_grad;
       for j = 0 to nc - 1 do
         let cap = sys.controls.(j).max_amp in
         let lo = -.cap in
         for k = 0 to n_steps - 1 do
           let v = flat_params.((j * n_steps) + k) in
           (* Float.max lo (Float.min cap v), stdlib bodies written out:
              neither function is inlined by vanilla ocamlopt, and the
              boxed float arguments dominated this loop's allocation
              (~2 words per parameter per iteration). *)
           let mn =
             if v > cap || (not (Float.sign_bit v) && Float.sign_bit cap)
             then if v <> v then v else cap
             else if cap <> cap then cap
             else v
           in
           let mx =
             if mn > lo || (not (Float.sign_bit mn) && Float.sign_bit lo)
             then if lo <> lo then lo else mn
             else if mn <> mn then mn
             else lo
           in
           u.(j).(k) <- mx
         done
       done
     done
   with Exit -> ());
  if !memo_hits > 0 then
    Obs.count ~by:(float_of_int !memo_hits) "grape.expm.memo_hits";
  if !prof_points <> [] then
    Obs.profile
      ~label:
        (Printf.sprintf "grape[dim=%d,T=%g]" dim
           (float_of_int n_steps *. dt))
      (List.rev !prof_points);
  { fidelity = !best_fidelity; iterations = !iterations; converged = !converged;
    diverged = !diverged; deadline_hit = !deadline_hit;
    total_time = float_of_int n_steps *. dt; n_steps; controls = best_u;
    wall_time_s = now () -. t0 }

let optimize_multistart ?(settings = default_settings) ?(starts = 3) ?deadline
    sys ~target ~total_time =
  if starts <= 0 then invalid_arg "Grape.optimize_multistart: starts must be positive";
  let rec go k best =
    if k >= starts then best
    else begin
      let r =
        optimize ~settings:{ settings with seed = settings.seed + k } ?deadline
          sys ~target ~total_time
      in
      let merged =
        let keep = if r.fidelity >= best.fidelity then r else best in
        { keep with
          iterations = best.iterations + r.iterations;
          wall_time_s = best.wall_time_s +. r.wall_time_s;
          deadline_hit = best.deadline_hit || r.deadline_hit }
      in
      if merged.converged || merged.deadline_hit then merged else go (k + 1) merged
    end
  in
  let first =
    optimize ~settings ?deadline sys ~target ~total_time
  in
  if first.converged || first.deadline_hit then first else go 1 first

let to_pulse ?(label = "grape") r =
  let dt = if r.n_steps = 0 then 0.0 else r.total_time /. float_of_int r.n_steps in
  Pqc_pulse.Pulse.of_segments
    [ Pqc_pulse.Pulse.Optimized
        { label; duration = r.total_time;
          samples = Some { Pqc_pulse.Pulse.dt; controls = r.controls } } ]

type search = {
  minimal : result;
  probes : (float * bool) list;
  grape_iterations_total : int;
  wall_time_total_s : float;
  deadline_hit : bool;
}

let minimal_time ?(settings = default_settings) ?(precision = 0.3) ?deadline
    ~upper_bound sys ~target =
  Obs.Span.with_ ~name:"grape.minimal_time"
    ~attrs:
      [ ("dim", string_of_int sys.Hamiltonian.dim);
        ("upper_bound", Printf.sprintf "%g" upper_bound) ]
  @@ fun () ->
  let probes = ref [] in
  let iters = ref 0 in
  let wall = ref 0.0 in
  let hit = ref false in
  let attempt time =
    let r = optimize ~settings ?deadline sys ~target ~total_time:time in
    probes := (time, r.converged) :: !probes;
    iters := !iters + r.iterations;
    wall := !wall +. r.wall_time_s;
    if r.deadline_hit then hit := true;
    r
  in
  let finish best =
    Option.map
      (fun r ->
        { minimal = r; probes = List.rev !probes;
          grape_iterations_total = !iters; wall_time_total_s = !wall;
          deadline_hit = !hit })
      best
  in
  let expired () =
    match deadline with Some d -> now () > d | None -> false
  in
  (* Establish a converging upper bound (one doubling allowed). *)
  let r0 = attempt upper_bound in
  let hi_result =
    if r0.converged then Some r0
    else if !hit then None
    else begin
      let r1 = attempt (2.0 *. upper_bound) in
      if r1.converged then Some r1 else None
    end
  in
  match hi_result with
  | None -> finish None
  | Some hi_r ->
    (* Bisection stops early on an expired deadline: the best converged
       probe so far is still a valid (just not minimal) pulse. *)
    let rec bisect lo hi best =
      if hi -. lo <= precision || expired () then finish (Some best)
      else begin
        let mid = (lo +. hi) /. 2.0 in
        let r = attempt mid in
        if r.converged then bisect lo mid r else bisect mid hi best
      end
    in
    bisect 0.0 hi_r.total_time hi_r
