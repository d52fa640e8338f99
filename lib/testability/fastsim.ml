module Netlist = Circuit.Netlist
module Element = Circuit.Element
module Cmat = Linalg.Cmat
module Big = Cmat.Big
module Bvec = Big.Vec
module Csparse = Linalg.Csparse

(* Which factorization serves the fault-free system. [Auto] measures
   the view: below the crossover dimension the dense planar kernels
   win on locality and the sparse ordering overhead cannot pay for
   itself, so small circuits keep the dense path (and its bitwise
   behaviour) unconditionally. *)
type backend = Dense | Sparse | Auto

let auto_crossover_n = 64
let auto_picks_sparse ~n ~nnz = n >= auto_crossover_n && 8 * nnz <= n * n

(* A sparse ±1 stamp pattern: the nonzero rows (columns) of the rank-1
   factor u (v), as (index, sign) pairs. *)
type pat = (int * float) list

(* ΔA(ω) = (alpha_g + jω alpha_c) · u vᵀ *)
type rank1 = { u : pat; v : pat; alpha_g : float; alpha_c : float }

(* Fault classification, before any per-plan state is built. *)
type cls =
  | Unchanged  (* the fault does not alter the system (e.g. grounded element) *)
  | Rank_one of rank1
  | Structural  (* full path on the injected netlist *)

(* One cached A⁻¹u back-solve: w occupies [wre]/[wim] at offsets
   [off .. off+n-1]. {!warm_cache} stores every pattern of a frequency
   in one shared slab (pattern r at offset r·n); a lazily inserted
   entry owns its planes at offset 0. [fresh] lets {!warm_cache}
   prepopulate the table without disturbing the hit/miss accounting:
   a warmed entry is "fresh" until its first reader, who claims it
   with a CAS and books the one miss the lazy path would have booked
   at insertion time. The claim is exactly-once even when workers
   race, so the counter totals are schedule-invariant. *)
type wentry = { wre : Big.plane; wim : Big.plane; off : int; fresh : bool Atomic.t }

(* The factored fault-free system at one frequency. Besides its
   factors, each arm keeps A(jω) only in compressed form — the dense
   arm a lossless compressed-row copy (an MNA matrix is mostly zeros:
   a leapfrog5 view holds 75–82 nonzeros out of 676), the sparse arm
   the nnz value planes of its pattern — which serves the residual
   gate and is densified on demand for the rare full fallback. *)
type solver =
  | Dense_solver of { dcsr : Big.csr; dlu : Big.lu }
  | Sparse_solver of {
      spat : Csparse.pattern;
      sre : Csparse.plane;  (* A(jω) values, slot order of [spat] *)
      sim_ : Csparse.plane;
      num : Csparse.numeric;  (* factored; shared symbolic analysis *)
    }

type freq_state = {
  omega : float;
  f_hz : float;
  solver : solver;
  anorm : float;
  b : Bvec.t;
  bnorm : float;
  x0 : Bvec.t;
  wcache : (pat, wentry) Hashtbl.t;  (* u-pattern -> A⁻¹u this frequency *)
}

(* Backend dispatch for the four operations the solve paths need. The
   residual gate downstream makes the two arms interchangeable: both
   produce solutions the gate re-verifies against the same A(jω).
   Both residual products visit only stored entries; the dense arm's
   is bitwise the full dense product for the finite candidates the
   gate admits (see {!Linalg.Cmat.Big.csr_mul_vec_into}). *)

let solver_solve_into fs ~b ~x =
  match fs.solver with
  | Dense_solver { dlu; _ } -> Big.lu_solve_into dlu ~b ~x
  | Sparse_solver { num; _ } -> Csparse.solve_into num ~b ~x

let solver_solve_block_into fs ~b ~x =
  match fs.solver with
  | Dense_solver { dlu; _ } -> Big.lu_solve_block_into dlu ~b ~x
  | Sparse_solver { num; _ } -> Csparse.solve_block_into num ~b ~x

let solver_mul_vec_into fs ~x ~y =
  match fs.solver with
  | Dense_solver { dcsr; _ } -> Big.csr_mul_vec_into dcsr ~x ~y
  | Sparse_solver { spat; sre; sim_; _ } ->
      Csparse.mul_vec_into spat ~re:sre ~im:sim_ ~x ~y

(* Materialize A(jω) into a dense workspace (the full-refactorization
   fallback's starting point). *)
let solver_dense_into fs dst =
  match fs.solver with
  | Dense_solver { dcsr; _ } -> Big.csr_dense_into dcsr dst
  | Sparse_solver { spat; sre; sim_; _ } -> Csparse.dense_into spat ~re:sre ~im:sim_ dst

type t = {
  netlist : Netlist.t;
  index : Mna.Index.t;
  source : string;
  output : string;
  out_idx : int option;
  n : int;
  freqs : freq_state array;
  nominal : Complex.t array;
  nom_re : float array;  (* nominal, planar, for the Unchanged fast path *)
  nom_im : float array;
  smw_solves : int Atomic.t;
  full_solves : int Atomic.t;
}

(* A fault ready to simulate. Plans are immutable and safe to share
   across domains; all mutable solve state lives in per-domain
   scratch. *)
type plan =
  | P_unchanged
  | P_rank1 of rank1
  | P_structural of { s_stamps : Mna.Stamps.t; s_n : int; s_out : int option }

(* Counter increments batched per domain: the solver hot loop bumps
   plain mutable ints and {!flush_pending} folds them into the
   engine's atomics and the {!Obs.Metrics} registry once per response
   / range call, instead of one sharded-counter operation per solve
   (which was ~17% of a metrics-enabled campaign). [p_owner] records
   which engine the pending counts belong to so a domain interleaving
   several engines can never misattribute them. *)
type pending = {
  mutable p_owner : t option;
  mutable p_smw : int;
  mutable p_full : int;
  mutable p_refine : int;
  mutable p_hits : int;
  mutable p_misses : int;
}

(* Per-domain off-heap workspaces for the rank-1 hot path: one scratch
   record per domain (via DLS), re-sized when the engine dimension
   changes. Workers therefore share nothing but the scheduler state
   and the read-only engine/plan state. The [s*] fields are the
   fallback workspace (full refactorization and structural assembly),
   sized independently because a structural netlist can change the
   system dimension. *)
type scratch = {
  mutable dim : int;
  mutable xf : Bvec.t;  (* candidate faulty solution *)
  mutable resid : Bvec.t;  (* faulty residual b_f − A_f xf *)
  mutable d0 : Bvec.t;  (* refinement back-solve *)
  mutable uvec : Bvec.t;  (* densified u pattern for cache misses *)
  mutable sdim : int;
  mutable sm : Big.t;  (* fallback assembly / perturbed-copy target *)
  mutable slu : Big.lu;
  mutable sb : Bvec.t;
  mutable sx : Bvec.t;
  pend : pending;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        dim = -1;
        xf = Bvec.create 0;
        resid = Bvec.create 0;
        d0 = Bvec.create 0;
        uvec = Bvec.create 0;
        sdim = -1;
        sm = Big.create 0 0;
        slu = Big.lu_create 0;
        sb = Bvec.create 0;
        sx = Bvec.create 0;
        pend =
          {
            p_owner = None;
            p_smw = 0;
            p_full = 0;
            p_refine = 0;
            p_hits = 0;
            p_misses = 0;
          };
      })

let flush_pending (p : pending) =
  match p.p_owner with
  | None -> ()
  | Some t ->
      if p.p_smw > 0 then begin
        ignore (Atomic.fetch_and_add t.smw_solves p.p_smw);
        Obs.Metrics.incr "fastsim.smw_solves" ~by:p.p_smw
      end;
      if p.p_full > 0 then begin
        ignore (Atomic.fetch_and_add t.full_solves p.p_full);
        Obs.Metrics.incr "fastsim.full_solves" ~by:p.p_full
      end;
      if p.p_refine > 0 then Obs.Metrics.incr "fastsim.refine_steps" ~by:p.p_refine;
      if p.p_hits > 0 then Obs.Metrics.incr "fastsim.wcache_hits" ~by:p.p_hits;
      if p.p_misses > 0 then Obs.Metrics.incr "fastsim.wcache_misses" ~by:p.p_misses;
      p.p_smw <- 0;
      p.p_full <- 0;
      p.p_refine <- 0;
      p.p_hits <- 0;
      p.p_misses <- 0;
      p.p_owner <- None

(* The pending record for engine [t]: re-targets (flushing first) if
   the previous counts belonged to a different engine. *)
let pend_for t s =
  let p = s.pend in
  (match p.p_owner with
  | Some o when o == t -> ()
  | Some _ ->
      flush_pending p;
      p.p_owner <- Some t
  | None -> p.p_owner <- Some t);
  p

let scratch_for n =
  let s = Domain.DLS.get scratch_key in
  if s.dim <> n then begin
    s.dim <- n;
    s.xf <- Bvec.create n;
    s.resid <- Bvec.create n;
    s.d0 <- Bvec.create n;
    s.uvec <- Bvec.create n
  end;
  s

let fallback_ws s n =
  if s.sdim <> n then begin
    s.sdim <- n;
    s.sm <- Big.create n n;
    s.slu <- Big.lu_create n;
    s.sb <- Bvec.create n;
    s.sx <- Bvec.create n
  end;
  s

let create ?(backend = Auto) ~source ~output ~freqs_hz netlist =
  Obs.Trace.span "fastsim.create" @@ fun () ->
  let index = Mna.Index.build netlist in
  let n = Mna.Index.size index in
  let out_idx = Mna.Index.node index output in
  let singular_at f_hz =
    raise
      (Mna.Ac.Singular_circuit
         (Printf.sprintf "MNA matrix singular at f = %g Hz for %S" f_hz
            (Netlist.title netlist)))
  in
  (* [Auto] never pays the sparse build below the dimension crossover;
     above it the decision needs nnz, which the build provides. *)
  let sparse_stamps =
    match backend with
    | Dense -> None
    | Auto when n < auto_crossover_n || Array.length freqs_hz = 0 -> None
    | Sparse | Auto -> (
        let sp =
          Mna.Stamps.build_sparse ~sources:(Mna.Assemble.Only source) index netlist
        in
        match backend with
        | Sparse -> Some sp
        | _ -> if auto_picks_sparse ~n ~nnz:(Mna.Stamps.sparse_nnz sp) then Some sp else None)
  in
  let freqs =
    match sparse_stamps with
    | None ->
        let stamps =
          Mna.Stamps.build ~sources:(Mna.Assemble.Only source) index netlist
        in
        (* One assembly workspace for the sweep: every fill overwrites
           it whole, and each frequency keeps only its factors and a
           compressed copy. *)
        let a = Big.create n n in
        Array.map
          (fun f_hz ->
            let omega = 2.0 *. Float.pi *. f_hz in
            Mna.Stamps.fill_big stamps ~omega a;
            let b = Bvec.create n in
            Mna.Stamps.rhs_into_big stamps ~omega b;
            match Obs.Metrics.time "mna.factor_s" (fun () -> Big.lu_factor a) with
            | exception Cmat.Singular -> singular_at f_hz
            | lu ->
                let x0 = Bvec.create n in
                Big.lu_solve_into lu ~b ~x:x0;
                {
                  omega;
                  f_hz;
                  solver = Dense_solver { dcsr = Big.csr_of a; dlu = lu };
                  anorm = Big.norm_inf a;
                  b;
                  bnorm = Bvec.norm_inf b;
                  x0;
                  wcache = Hashtbl.create 16;
                })
          freqs_hz
    | Some sp ->
        let spat = Mna.Stamps.sparse_pattern sp in
        let nnz = Mna.Stamps.sparse_nnz sp in
        (* One symbolic Markowitz analysis per netlist, on the values
           at the grid's middle frequency (the pattern is fixed and
           entry magnitudes vary smoothly in ω, so one pivot order
           serves the whole sweep); per-frequency work is then a
           numeric refactorization in that fixed pattern. *)
        let sym =
          let mid_hz = freqs_hz.(Array.length freqs_hz / 2) in
          let re = Csparse.plane nnz and im = Csparse.plane nnz in
          Mna.Stamps.fill_sparse sp ~omega:(2.0 *. Float.pi *. mid_hz) ~re ~im;
          match
            Obs.Metrics.time "mna.analyze_s" (fun () -> Csparse.analyze spat ~re ~im)
          with
          | exception Cmat.Singular -> singular_at mid_hz
          | sym -> sym
        in
        Array.map
          (fun f_hz ->
            let omega = 2.0 *. Float.pi *. f_hz in
            let sre = Csparse.plane nnz and sim_ = Csparse.plane nnz in
            Mna.Stamps.fill_sparse sp ~omega ~re:sre ~im:sim_;
            let b = Bvec.create n in
            Mna.Stamps.sparse_rhs_into_big sp ~omega b;
            let num = Csparse.numeric sym in
            (match
               Obs.Metrics.time "mna.factor_s" (fun () ->
                   Csparse.refactor num ~re:sre ~im:sim_)
             with
            | exception Cmat.Singular -> singular_at f_hz
            | () -> ());
            let x0 = Bvec.create n in
            Csparse.solve_into num ~b ~x:x0;
            {
              omega;
              f_hz;
              solver = Sparse_solver { spat; sre; sim_; num };
              anorm = Csparse.norm_inf spat ~re:sre ~im:sim_;
              b;
              bnorm = Bvec.norm_inf b;
              x0;
              wcache = Hashtbl.create 16;
            })
          freqs_hz
  in
  let nominal =
    Array.map
      (fun fs -> match out_idx with None -> Complex.zero | Some i -> Bvec.get fs.x0 i)
      freqs
  in
  {
    netlist;
    index;
    source;
    output;
    out_idx;
    n;
    freqs;
    nominal;
    nom_re = Array.map (fun (z : Complex.t) -> z.Complex.re) nominal;
    nom_im = Array.map (fun (z : Complex.t) -> z.Complex.im) nominal;
    smw_solves = Atomic.make 0;
    full_solves = Atomic.make 0;
  }

let nominal t = t.nominal
let stats t = (Atomic.get t.smw_solves, Atomic.get t.full_solves)
let dim t = t.n
let n_freqs t = Array.length t.freqs

let uses_sparse t =
  Array.length t.freqs > 0
  &&
  match t.freqs.(0).solver with Sparse_solver _ -> true | Dense_solver _ -> false

(* ---- fault classification ---- *)

let two_node_pat index n1 n2 : pat =
  match (Mna.Index.node index n1, Mna.Index.node index n2) with
  | Some i, Some j when i = j -> []
  | Some i, Some j -> [ (i, 1.0); (j, -1.0) ]
  | Some i, None -> [ (i, 1.0) ]
  | None, Some j -> [ (j, -1.0) ]
  | None, None -> []

let rank1_if_sane r1 =
  if Float.is_finite r1.alpha_g && Float.is_finite r1.alpha_c then
    if r1.u = [] || r1.v = [] || (r1.alpha_g = 0.0 && r1.alpha_c = 0.0) then
      Some Unchanged
    else Some (Rank_one r1)
  else None

(* The admittance-style elements stamp y·uuᵀ with u the two-node
   pattern, so a value change is the rank-1 perturbation Δy·uuᵀ; an
   inductor's deviation only moves its own branch-equation diagonal
   entry, −sΔL. Anything else (dimension-changing replacements, source
   deviations, non-finite deltas) takes the structural path. *)
let classify_in index netlist (fault : Fault.t) =
  match Netlist.find netlist fault.Fault.element with
  | None -> raise (Fault.Unknown_element fault.Fault.element)
  | Some e -> (
      let or_structural r1 =
        match rank1_if_sane r1 with Some p -> p | None -> Structural
      in
      match (fault.Fault.kind, e) with
      | Fault.Deviation f, Element.Resistor { n1; n2; value; _ } ->
          let p = two_node_pat index n1 n2 in
          or_structural
            {
              u = p;
              v = p;
              alpha_g = (1.0 /. (f *. value)) -. (1.0 /. value);
              alpha_c = 0.0;
            }
      | Fault.Deviation f, Element.Capacitor { n1; n2; value; _ } ->
          let p = two_node_pat index n1 n2 in
          or_structural
            { u = p; v = p; alpha_g = 0.0; alpha_c = (f -. 1.0) *. value }
      | Fault.Deviation f, Element.Inductor { name; value; _ } ->
          let bi = Mna.Index.branch index name in
          or_structural
            {
              u = [ (bi, 1.0) ];
              v = [ (bi, 1.0) ];
              alpha_g = 0.0;
              alpha_c = -.((f -. 1.0) *. value);
            }
      | (Fault.Open_circuit | Fault.Short_circuit), Element.Resistor { n1; n2; value; _ }
        ->
          let r =
            match fault.Fault.kind with
            | Fault.Open_circuit -> Fault.open_resistance
            | _ -> Fault.short_resistance
          in
          let p = two_node_pat index n1 n2 in
          or_structural
            { u = p; v = p; alpha_g = (1.0 /. r) -. (1.0 /. value); alpha_c = 0.0 }
      | (Fault.Open_circuit | Fault.Short_circuit), Element.Capacitor { n1; n2; value; _ }
        ->
          (* the capacitor is replaced by a resistance: add 1/r, retire sC *)
          let r =
            match fault.Fault.kind with
            | Fault.Open_circuit -> Fault.open_resistance
            | _ -> Fault.short_resistance
          in
          let p = two_node_pat index n1 n2 in
          or_structural { u = p; v = p; alpha_g = 1.0 /. r; alpha_c = -.value }
      | _ -> Structural)

let classify t fault = classify_in t.index t.netlist fault

type update =
  | No_change
  | Rank_one_update of { u : (int * float) list; alpha_g : float; alpha_c : float }
  | Restamp

let classify_update index netlist fault =
  match classify_in index netlist fault with
  | Unchanged -> No_change
  | Rank_one { u; v; alpha_g; alpha_c } when u = v -> Rank_one_update { u; alpha_g; alpha_c }
  | Rank_one _ | Structural -> Restamp

let plan_of t fault =
  match classify t fault with
  | Unchanged -> P_unchanged
  | Rank_one r1 -> P_rank1 r1
  | Structural ->
      let faulty = Fault.inject fault t.netlist in
      (* Once per (engine, fault) plan — the same accounting point the
         per-call structural path used before plans existed. *)
      Obs.Metrics.incr "fastsim.structural_faults";
      Obs.Trace.span "fastsim.structural" @@ fun () ->
      let index = Mna.Index.build faulty in
      let stamps =
        Mna.Stamps.build ~sources:(Mna.Assemble.Only t.source) index faulty
      in
      P_structural
        {
          s_stamps = stamps;
          s_n = Mna.Stamps.size stamps;
          s_out = Mna.Index.node index t.output;
        }

(* ---- rank-1 solves ---- *)

(* Pattern dot product against one plane read from offset [off]:
   Σ s·plane.(off + i). The complex dot against a planar vector is two
   of these, one per plane. *)
let rec dot_pat_from (pat : pat) (plane : Big.plane) off acc =
  match pat with
  | [] -> acc
  | (i, s) :: tl ->
      dot_pat_from tl plane off (acc +. (s *. Bigarray.Array1.unsafe_get plane (off + i)))

let dot_pat_at pat plane off = dot_pat_from pat plane off 0.0
let dot_pat pat plane = dot_pat_from pat plane 0 0.0

(* (nr + i·ni) / (dr + i·di) — Smith's algorithm, exactly Complex.div. *)
let div2 nr ni dr di =
  if Float.abs dr >= Float.abs di then
    let r = di /. dr in
    let d = dr +. (r *. di) in
    ((nr +. (r *. ni)) /. d, (ni -. (r *. nr)) /. d)
  else
    let r = dr /. di in
    let d = di +. (r *. dr) in
    (((r *. nr) +. ni) /. d, ((r *. ni) -. nr) /. d)

let solve_pattern fs (u : pat) (w : Bvec.t) =
  let s = scratch_for (Bvec.length fs.x0) in
  let uvec = s.uvec in
  List.iter (fun (i, sg) -> Bigarray.Array1.set uvec.Bvec.re i sg) u;
  solver_solve_into fs ~b:uvec ~x:w;
  List.iter (fun (i, _) -> Bigarray.Array1.set uvec.Bvec.re i 0.0) u

(* Cache lookup. The on-demand insertion path mutates the Hashtbl and
   is only safe while the engine is confined to one domain; parallel
   analysis must {!warm_cache} first so lookups during the parallel
   phase are read-only. *)
let w_for t fs u =
  let s = Domain.DLS.get scratch_key in
  match Hashtbl.find_opt fs.wcache u with
  | Some e ->
      let p = pend_for t s in
      if Atomic.get e.fresh && Atomic.compare_and_set e.fresh true false then
        p.p_misses <- p.p_misses + 1
      else p.p_hits <- p.p_hits + 1;
      e
  | None ->
      let p = pend_for t s in
      p.p_misses <- p.p_misses + 1;
      let w = Bvec.create (Bvec.length fs.x0) in
      solve_pattern fs u w;
      let e = { wre = w.Bvec.re; wim = w.Bvec.im; off = 0; fresh = Atomic.make false } in
      Hashtbl.add fs.wcache u e;
      e

(* Warm the A⁻¹u cache with one multi-RHS block back-solve per
   frequency: every missing pattern at that frequency becomes a column
   of one n×k block, so the cached LU factor is swept once per
   frequency instead of once per (pattern, frequency). Column results
   are bitwise-identical to the per-pattern {!solve_pattern} path
   (see {!Linalg.Cmat.Big.lu_solve_block_into}). The block is then
   transposed into one k×n slab per frequency, so each w stays
   contiguous for the point solves at two off-heap allocations per
   frequency rather than two per pattern. *)
let warm_cache t faults =
  Obs.Trace.span "fastsim.warm_cache" @@ fun () ->
  let pats =
    List.fold_left
      (fun acc fault ->
        match classify t fault with
        | Rank_one { u; _ } -> if List.mem u acc then acc else u :: acc
        | Unchanged | Structural -> acc
        | exception Fault.Unknown_element _ -> acc)
      [] faults
    |> List.rev
  in
  if pats <> [] then begin
    (* One n×k block pair serves every frequency with the same number
       of missing patterns: x is overwritten by each solve, and the
       ±1 entries of b are cleared again after it. *)
    let block = ref (0, Big.create 0 0, Big.create 0 0) in
    Array.iter
      (fun fs ->
        let missing = List.filter (fun u -> not (Hashtbl.mem fs.wcache u)) pats in
        let k = List.length missing in
        if k > 0 then begin
          let b, x =
            match !block with
            | k', b, x when k' = k -> (b, x)
            | _ ->
                let b = Big.create t.n k and x = Big.create t.n k in
                block := (k, b, x);
                (b, x)
          in
          let set_rhs value =
            List.iteri
              (fun r u -> List.iter (fun (i, sg) -> Big.set b i r (value sg)) u)
              missing
          in
          set_rhs (fun sg -> Complex.{ re = sg; im = 0.0 });
          solver_solve_block_into fs ~b ~x;
          set_rhs (fun _ -> Complex.zero);
          let n = t.n in
          let slab = Bvec.create (k * n) in
          let xre = Big.re_plane x and xim = Big.im_plane x in
          let open Bigarray in
          for i = 0 to n - 1 do
            for r = 0 to k - 1 do
              Array1.unsafe_set slab.Bvec.re ((r * n) + i) (Array1.unsafe_get xre ((i * k) + r));
              Array1.unsafe_set slab.Bvec.im ((r * n) + i) (Array1.unsafe_get xim ((i * k) + r))
            done
          done;
          List.iteri
            (fun r u ->
              Hashtbl.add fs.wcache u
                { wre = slab.Bvec.re; wim = slab.Bvec.im; off = r * n; fresh = Atomic.make true })
            missing
        end)
      t.freqs
  end

let cached_w t fault i =
  match classify t fault with
  | Rank_one { u; _ } -> (
      match Hashtbl.find_opt t.freqs.(i).wcache u with
      | None -> None
      | Some { wre; wim; off; _ } ->
          Some
            (Array.init t.n (fun k ->
                 {
                   Complex.re = Bigarray.Array1.get wre (off + k);
                   im = Bigarray.Array1.get wim (off + k);
                 })))
  | Unchanged | Structural -> None

(* ---- point solvers ----

   Each writes slot [ix] of the caller's planar response row
   ([re]/[im] plus the [ok] validity byte, '\000' = singular). Keeping
   the output planar avoids boxing a [Some Complex.t] per point in the
   campaign inner loop. *)

let write_out t (x : Bvec.t) ~re ~im ~ok ~ix =
  (match t.out_idx with
  | None ->
      Array.unsafe_set re ix 0.0;
      Array.unsafe_set im ix 0.0
  | Some oi ->
      Array.unsafe_set re ix (Bigarray.Array1.unsafe_get x.Bvec.re oi);
      Array.unsafe_set im ix (Bigarray.Array1.unsafe_get x.Bvec.im oi));
  Bytes.unsafe_set ok ix '\001'

(* Full fallback at one frequency: perturb a copy of A(jω) and
   refactorize — exactly the naive path, minus the assembly. *)
let full_point_solve t fs ~al_re ~al_im ~u ~v ~re ~im ~ok ~ix =
  let s = Domain.DLS.get scratch_key in
  let p = pend_for t s in
  p.p_full <- p.p_full + 1;
  let s = fallback_ws s t.n in
  solver_dense_into fs s.sm;
  List.iter
    (fun (i, si) ->
      List.iter
        (fun (j, sj) ->
          Big.add_to s.sm i j
            { Complex.re = al_re *. si *. sj; Complex.im = al_im *. si *. sj })
        v)
    u;
  match
    Obs.Metrics.time "mna.solve_s" (fun () ->
        Big.lu_factor_into s.slu s.sm;
        Big.lu_solve_into s.slu ~b:fs.b ~x:s.sx)
  with
  | () -> write_out t s.sx ~re ~im ~ok ~ix
  | exception Cmat.Singular ->
      Array.unsafe_set re ix 0.0;
      Array.unsafe_set im ix 0.0;
      Bytes.unsafe_set ok ix '\000'

(* After refinement a healthy update sits at ~machine-precision
   normwise relative residual; anything above this bound means the
   update genuinely struggled (wild growth, near-cancelling denom) and
   the full refactorization is worth its O(n³). *)
let smw_tolerance = 1e-9

(* Conformance-testing chaos hook: [`Smw_denominator k] scales the
   Sherman–Morrison denominator by [k] and bypasses the residual guard
   — the exact class of silent-wrong-answer bug the differential
   oracles exist to catch. Skipping the guard is the point: a real
   denominator bug shipped together with a broken guard is what makes
   the fast path return plausible-but-wrong responses. *)
let chaos : [ `None | `Smw_denominator of float ] Atomic.t = Atomic.make `None
let set_chaos c = Atomic.set chaos c

(* Whether every entry of [v] is finite: x − x is 0 for a finite x
   and NaN for ±∞ or NaN, and a NaN term keeps the sum NaN. *)
let all_finite (v : Bvec.t) =
  let vre = v.Bvec.re and vim = v.Bvec.im in
  let acc = ref 0.0 in
  for i = 0 to Bvec.length v - 1 do
    let r = Bigarray.Array1.unsafe_get vre i and m = Bigarray.Array1.unsafe_get vim i in
    acc := !acc +. (r -. r) +. (m -. m)
  done;
  !acc = 0.0

let smw_point_solve t fs ({ u; v; alpha_g; alpha_c } : rank1) ~re ~im ~ok ~ix =
  let al_re = alpha_g and al_im = fs.omega *. alpha_c in
  if al_re = 0.0 && al_im = 0.0 then write_out t fs.x0 ~re ~im ~ok ~ix
  else begin
    let { wre; wim; off; _ } = w_for t fs u in
    let vw_re = dot_pat_at v wre off and vw_im = dot_pat_at v wim off in
    let den_re = 1.0 +. ((al_re *. vw_re) -. (al_im *. vw_im))
    and den_im = (al_re *. vw_im) +. (al_im *. vw_re) in
    let chaotic, den_re, den_im =
      match Atomic.get chaos with
      | `None -> (false, den_re, den_im)
      | `Smw_denominator k -> (true, den_re *. k, den_im *. k)
    in
    if Cmat.norm2 den_re den_im <= 1e-12 then
      full_point_solve t fs ~al_re ~al_im ~u ~v ~re ~im ~ok ~ix
    else begin
      let vx0_re = dot_pat v fs.x0.Bvec.re and vx0_im = dot_pat v fs.x0.Bvec.im in
      let coef_re, coef_im =
        div2
          ((al_re *. vx0_re) -. (al_im *. vx0_im))
          ((al_re *. vx0_im) +. (al_im *. vx0_re))
          den_re den_im
      in
      let n = t.n in
      let s = scratch_for n in
      let xf = s.xf and resid = s.resid in
      let xf_re = xf.Bvec.re and xf_im = xf.Bvec.im in
      let x0re = fs.x0.Bvec.re and x0im = fs.x0.Bvec.im in
      let open Bigarray in
      for i = 0 to n - 1 do
        let wr = Array1.unsafe_get wre (off + i) and wi = Array1.unsafe_get wim (off + i) in
        Array1.unsafe_set xf_re i
          (Array1.unsafe_get x0re i -. ((coef_re *. wr) -. (coef_im *. wi)));
        Array1.unsafe_set xf_im i
          (Array1.unsafe_get x0im i -. ((coef_re *. wi) +. (coef_im *. wr)))
      done;
      (* Residual of the perturbed system without forming it:
         b − A_f xf = (b − α (vᵀxf) u) − A xf. *)
      let faulty_residual () =
        let vxf_re = dot_pat v xf_re and vxf_im = dot_pat v xf_im in
        let av_re = (al_re *. vxf_re) -. (al_im *. vxf_im)
        and av_im = (al_re *. vxf_im) +. (al_im *. vxf_re) in
        solver_mul_vec_into fs ~x:xf ~y:resid;
        let rre = resid.Bvec.re and rim = resid.Bvec.im in
        let bre = fs.b.Bvec.re and bim = fs.b.Bvec.im in
        for i = 0 to n - 1 do
          Array1.unsafe_set rre i (Array1.unsafe_get bre i -. Array1.unsafe_get rre i);
          Array1.unsafe_set rim i (Array1.unsafe_get bim i -. Array1.unsafe_get rim i)
        done;
        List.iter
          (fun (i, sg) ->
            Array1.set rre i (Array1.get rre i -. (sg *. av_re));
            Array1.set rim i (Array1.get rim i -. (sg *. av_im)))
          u
      in
      (* One step of iterative refinement: a large |α| (a catastrophic
         open/short is a ~10⁹-fold conductance change) amplifies
         rounding in the bare update; correcting by the SMW solve of
         the residual restores direct-solve accuracy at O(n²). The
         common case — a mild deviation whose bare update already sits
         near machine-precision residual (the 1024·ε gate below) —
         skips the extra back-solve. *)
      let refine () =
        let d0 = s.d0 in
        solver_solve_into fs ~b:resid ~x:d0;
        let d0re = d0.Bvec.re and d0im = d0.Bvec.im in
        let vd_re = dot_pat v d0re and vd_im = dot_pat v d0im in
        let dc_re, dc_im =
          div2
            ((al_re *. vd_re) -. (al_im *. vd_im))
            ((al_re *. vd_im) +. (al_im *. vd_re))
            den_re den_im
        in
        for i = 0 to n - 1 do
          let wr = Array1.unsafe_get wre (off + i) and wi = Array1.unsafe_get wim (off + i) in
          Array1.unsafe_set xf_re i
            (Array1.unsafe_get xf_re i
            +. (Array1.unsafe_get d0re i -. ((dc_re *. wr) -. (dc_im *. wi))));
          Array1.unsafe_set xf_im i
            (Array1.unsafe_get xf_im i
            +. (Array1.unsafe_get d0im i -. ((dc_re *. wi) +. (dc_im *. wr))))
        done
      in
      let scale_of () = (fs.anorm *. Bvec.norm_inf xf) +. fs.bnorm +. 1e-300 in
      (* The gate only vouches for a finite candidate: a non-finite
         entry turns residual rows into NaN, which [Bvec.norm_inf]
         skips (so an all-NaN residual would read as 0 and pass), and
         it is where the compressed-row product stops being bitwise
         the dense one (0·∞). Such a candidate, before or after
         refinement, goes straight to the full refactorization. *)
      let accepted =
        chaotic
        || all_finite xf
           &&
           let scale = scale_of () in
           faulty_residual ();
           let res = Bvec.norm_inf resid in
           if res <= 1024.0 *. epsilon_float *. scale then res <= smw_tolerance *. scale
           else begin
             let p = pend_for t (Domain.DLS.get scratch_key) in
             p.p_refine <- p.p_refine + 1;
             refine ();
             all_finite xf
             &&
             (faulty_residual ();
              Bvec.norm_inf resid <= smw_tolerance *. scale_of ())
           end
      in
      if accepted then begin
        let p = pend_for t (Domain.DLS.get scratch_key) in
        p.p_smw <- p.p_smw + 1;
        write_out t xf ~re ~im ~ok ~ix
      end
      else full_point_solve t fs ~al_re ~al_im ~u ~v ~re ~im ~ok ~ix
    end
  end

(* ---- structural fallback: the plan holds the split-assembled
   stamps; each point assembles and factorizes in per-domain fallback
   workspaces ---- *)

let structural_point t ~s_stamps ~s_n ~s_out fs ~re ~im ~ok ~ix =
  let s = Domain.DLS.get scratch_key in
  let p = pend_for t s in
  p.p_full <- p.p_full + 1;
  let s = fallback_ws s s_n in
  Mna.Stamps.fill_big s_stamps ~omega:fs.omega s.sm;
  Mna.Stamps.rhs_into_big s_stamps ~omega:fs.omega s.sb;
  match
    Obs.Metrics.time "mna.solve_s" (fun () ->
        Big.lu_factor_into s.slu s.sm;
        Big.lu_solve_into s.slu ~b:s.sb ~x:s.sx)
  with
  | () -> (
      match s_out with
      | None ->
          Array.unsafe_set re ix 0.0;
          Array.unsafe_set im ix 0.0;
          Bytes.unsafe_set ok ix '\001'
      | Some oi ->
          Array.unsafe_set re ix (Bigarray.Array1.unsafe_get s.sx.Bvec.re oi);
          Array.unsafe_set im ix (Bigarray.Array1.unsafe_get s.sx.Bvec.im oi);
          Bytes.unsafe_set ok ix '\001')
  | exception Cmat.Singular ->
      Array.unsafe_set re ix 0.0;
      Array.unsafe_set im ix 0.0;
      Bytes.unsafe_set ok ix '\000'

(* ---- response over a frequency range ---- *)

let response_range_into t plan ~lo ~hi ~re ~im ~ok =
  if lo < 0 || hi > Array.length t.freqs || lo > hi then
    invalid_arg "Fastsim.response_range_into: bad frequency range";
  if Array.length re < hi || Array.length im < hi || Bytes.length ok < hi then
    invalid_arg "Fastsim.response_range_into: row buffers too short";
  Fun.protect ~finally:(fun () -> flush_pending (Domain.DLS.get scratch_key).pend)
  @@ fun () ->
  match plan with
  | P_unchanged ->
      for i = lo to hi - 1 do
        Array.unsafe_set re i (Array.unsafe_get t.nom_re i);
        Array.unsafe_set im i (Array.unsafe_get t.nom_im i);
        Bytes.unsafe_set ok i '\001'
      done
  | P_rank1 r1 ->
      for i = lo to hi - 1 do
        smw_point_solve t (Array.unsafe_get t.freqs i) r1 ~re ~im ~ok ~ix:i
      done
  | P_structural { s_stamps; s_n; s_out } ->
      for i = lo to hi - 1 do
        structural_point t ~s_stamps ~s_n ~s_out (Array.unsafe_get t.freqs i) ~re ~im
          ~ok ~ix:i
      done

let response t fault =
  let plan = plan_of t fault in
  let nf = Array.length t.freqs in
  let rre = Array.make nf 0.0
  and rim = Array.make nf 0.0
  and ok = Bytes.make nf '\000' in
  response_range_into t plan ~lo:0 ~hi:nf ~re:rre ~im:rim ~ok;
  Array.init nf (fun i ->
      if Bytes.get ok i = '\000' then None
      else Some { Complex.re = rre.(i); im = rim.(i) })
