module Netlist = Circuit.Netlist
module Element = Circuit.Element
module Cmat = Linalg.Cmat
module Big = Cmat.Big
module Bvec = Big.Vec
module Csparse = Linalg.Csparse

(* The hot loops below call only primitives and functions of this
   module: a float crossing an out-of-line call is boxed. *)
let norm2 = Float.hypot
let[@inline always] fmax (a : float) b = if a >= b then a else b

(* |re| + |im|: an upper bound on the modulus, within √2 of it — all an
   error bound needs, at no square root. *)
let[@inline always] mag re im = Float.abs re +. Float.abs im

(* ---- tolerances (DESIGN §16) ---- *)

(* The relative accuracy budget of every Woodbury scalar, on each side:
   the per-view engine's own rank-1 acceptance level. *)
let theta = Fastsim.smw_tolerance

(* A capacitance matrix whose (Skeel) condition number exceeds this
   leaves θ·cond above 1e-2 — no longer a first-order error. *)
let cond_max = 1e7

(* |1 + α·uᵀw| below this means the fault nearly makes the view
   singular; the per-view engine's full refactorization takes over at
   1e-12, and the low-rank path stops well before. *)
let den_min = 1e-6

(* Conformance-testing chaos hook: [`Capacitance_scale k] multiplies
   every entry of K⁻¹ by [k] after its condition number is taken — a
   wrong capacitance solve the error bound does not see, which the
   lowrank-vs-per-view oracle exists to catch. *)
let chaos : [ `None | `Capacitance_scale of float ] Atomic.t = Atomic.make `None
let set_chaos c = Atomic.set chaos c

type stats = {
  views : int;
  lowrank_views : int;
  fallbacks : (string * string) list;
  base_factors : int;
  capacitance_solves : int;
  threshold_points : int;
  fault_points : int;
}

(* A rank-1 point: ΔA(s) = (ag + s·ac)·u·uᵀ with u the campaign's
   pattern [pat]. *)
type rank1 = { pat : int; ag : float; ac : float }

(* One instantiated sub-criterion of the campaign's criterion. *)
type sub = {
  phase : bool;
  fixed : float option;  (* a constant threshold, or an envelope: *)
  floor : float;
  drifts : rank1 array;  (* the envelope drifts that change the system *)
}

(* How a view relates to the base: its distinct row updates, as
   indices into the campaign's update table, or why it cannot. *)
type relation = Updates of int array | Unrelated of string

type setup = {
  nf : int;
  omegas : float array;
  freqs_hz : float array;
  n : int;
  out : int;
  stamps : [ `Dense of Mna.Stamps.t | `Sparse of Mna.Stamps.sparse * Csparse.symbolic ];
      (* the base's, in the back-end chosen for it *)
  rows : int array;  (* R: every row some view updates, ascending *)
  updates : (Mna.Stamps.row_update * int) array;  (* distinct updates, position of the row in R *)
  pats : (int * float) list array;  (* distinct fault/drift patterns *)
  changes : rank1 option array;  (* per fault; [None]: no change *)
  subs : sub array;
  relation : relation array;  (* per view *)
}

exception Unsupported of string

(* ---- setup: relate every view to the base ---- *)

let rec subs_of criterion =
  match criterion with
  | Detect.Fixed_tolerance eps -> [ (false, Some eps, 0.0, 0.0) ]
  | Detect.Phase_fixed rad -> [ (true, Some rad, 0.0, 0.0) ]
  | Detect.Process_envelope { component_tol; floor } ->
      [ (false, None, floor, component_tol) ]
  | Detect.Phase_envelope { component_tol; floor_rad } ->
      [ (true, None, floor_rad, component_tol) ]
  | Detect.Any_of cs -> List.concat_map subs_of cs

let setup ~base ~backend ~criterion grid (views : Matrix.view array) faults =
  let probe = views.(0).Matrix.probe in
  let source = probe.Detect.source in
  let index = Mna.Index.build base in
  let n = Mna.Index.size index in
  let out =
    match Mna.Index.node index probe.Detect.output with
    | Some o -> o
    | None -> raise (Unsupported "the output is the ground node")
  in
  let stamps = Mna.Stamps.build ~sources:(Mna.Assemble.Only source) index base in
  let freqs_hz = Grid.freqs_hz grid in
  let nf = Array.length freqs_hz in
  let sparse =
    let sp () = Mna.Stamps.build_sparse ~sources:(Mna.Assemble.Only source) index base in
    let pick =
      match (backend : Fastsim.backend) with
      | Dense -> None
      | Sparse -> Some (sp ())
      | Auto ->
          if nf = 0 then None
          else
            let s = sp () in
            if Fastsim.auto_picks_sparse ~n ~nnz:(Mna.Stamps.sparse_nnz s) then Some s
            else None
    in
    Option.map
      (fun sp ->
        (* one pivot order for the sweep, from the middle frequency, as
           the per-view engine chooses it *)
        let nnz = Mna.Stamps.sparse_nnz sp in
        let re = Csparse.plane nnz and im = Csparse.plane nnz in
        let mid = freqs_hz.(nf / 2) in
        Mna.Stamps.fill_sparse sp ~omega:(2.0 *. Float.pi *. mid) ~re ~im;
        match Csparse.analyze (Mna.Stamps.sparse_pattern sp) ~re ~im with
        | sym -> (sp, sym)
        | exception Cmat.Singular ->
            raise (Unsupported (Printf.sprintf "the base is singular at f = %g Hz" mid)))
      pick
  in
  (* fault and drift patterns, shared by every related view *)
  let pat_tbl = Hashtbl.create 64 and pats = ref [] in
  let pat_of u =
    match Hashtbl.find_opt pat_tbl u with
    | Some p -> p
    | None ->
        let p = Hashtbl.length pat_tbl in
        Hashtbl.add pat_tbl u p;
        pats := u :: !pats;
        p
  in
  let change fault =
    match Fastsim.classify_update index base fault with
    | Fastsim.No_change -> None
    | Fastsim.Rank_one_update { u; alpha_g; alpha_c } ->
        Some { pat = pat_of u; ag = alpha_g; ac = alpha_c }
    | Fastsim.Restamp ->
        raise (Unsupported (Printf.sprintf "fault %s restamps the system" fault.Fault.id))
  in
  let changes = Array.map change faults in
  let passives = Netlist.passives base in
  let subs =
    Array.of_list
      (List.map
         (fun (phase, fixed, floor, tol) ->
           let drifts =
             if fixed <> None then [||]
             else
               Array.of_list
                 (List.filter_map
                    (fun e -> change (Fault.deviation ~element:(Element.name e) (1.0 +. tol)))
                    passives)
           in
           { phase; fixed; floor; drifts })
         (subs_of criterion))
  in
  (* each view's row updates against the base *)
  let upd_tbl = Hashtbl.create 16 and upds = ref [] in
  let relation (v : Matrix.view) =
    if v.Matrix.probe <> probe then Unrelated "its probe differs from the base's"
    else
      let vindex = Mna.Index.build v.Matrix.netlist in
      if not (Mna.Index.equal vindex index) then Unrelated "its MNA unknowns differ from the base's"
      else if Netlist.passives v.Matrix.netlist <> passives then
        Unrelated "its passive elements differ from the base's"
      else
        let vstamps =
          Mna.Stamps.build ~sources:(Mna.Assemble.Only source) vindex v.Matrix.netlist
        in
        match Mna.Stamps.row_updates ~base:stamps vstamps with
        | None -> Unrelated "its excitation or a higher-order entry differs from the base's"
        | Some us ->
            Updates
              (Array.map
                 (fun (u : Mna.Stamps.row_update) ->
                   match Hashtbl.find_opt upd_tbl u with
                   | Some d -> d
                   | None ->
                       let d = Hashtbl.length upd_tbl in
                       Hashtbl.add upd_tbl u d;
                       upds := u :: !upds;
                       d)
                 us)
  in
  let relations = Array.map relation views in
  let updates = Array.of_list (List.rev !upds) in
  let rows =
    Array.of_list
      (List.sort_uniq compare
         (Array.to_list (Array.map (fun (u : Mna.Stamps.row_update) -> u.Mna.Stamps.row) updates)))
  in
  let row_pos r =
    let rec find i = if rows.(i) = r then i else find (i + 1) in
    find 0
  in
  let pats = Array.of_list (List.rev !pats) in
  {
    nf;
    omegas = Array.map (fun f -> 2.0 *. Float.pi *. f) freqs_hz;
    freqs_hz;
    n;
    out;
    stamps = (match sparse with None -> `Dense stamps | Some sp -> `Sparse sp);
    rows;
    updates = Array.map (fun (u : Mna.Stamps.row_update) -> (u, row_pos u.Mna.Stamps.row)) updates;
    pats;
    changes;
    subs;
    relation = relations;
  }

(* ---- the sweep workspace ----

   One per frequency-block task. The per-frequency part holds the
   base's solutions and their Gram products; the per-view part the
   four scalars of every pattern in the current view. All planar, all
   allocated once per task. *)

type ws = {
  k : int;  (* block width: 1 + |R| + patterns *)
  nr : int;
  np : int;
  bblk : Big.t;  (* [b | e_R | u_p] *)
  xblk : Big.t;  (* A₀⁻¹ of it *)
  bvec : Bvec.t;
  base : [ `Dense of Big.t * Big.lu | `Sparse of Csparse.plane * Csparse.plane * Csparse.numeric ];
  (* per frequency *)
  zo_re : float array;  (* Z[out, r] *)
  zo_im : float array;
  yo_re : float array;  (* y_p[out] *)
  yo_im : float array;
  ux_re : float array;  (* u_pᵀx₀ *)
  ux_im : float array;
  uy_re : float array;  (* u_pᵀy_p *)
  uy_im : float array;
  uz_re : float array;  (* u_pᵀZ[:, r], p-major *)
  uz_im : float array;
  dx_re : float array;  (* dᵀX[:, c] per distinct update, update-major *)
  dx_im : float array;
  (* the operand magnitudes of those products — |u_p|ᵀ|x₀|, |u_p|ᵀ|y_p|,
     |u_p|ᵀ|Z|, |d|ᵀ|X| — which bound their error under cancellation *)
  uxm : float array;
  uym : float array;
  uzm : float array;
  dxm : float array;
  (* per view: the capacitance matrix, its inverse and a right-hand
     side, m×m with m ≤ |R| *)
  kre : float array;
  kim : float array;
  kinv_re : float array;
  kinv_im : float array;
  kinv_m : float array;  (* |K⁻¹| *)
  q : float array;  (* |K⁻¹|·|K| for the condition number, then |K⁻¹|·|D_S||Z_S| *)
  t : float array;  (* the bound on |δc|, per unit θ *)
  t0 : float array;
  c_re : float array;
  c_im : float array;
  c0_re : float array;
  c0_im : float array;
  (* per view and pattern *)
  uxs_re : float array;
  uxs_im : float array;
  mux : float array;
  wo_re : float array;
  wo_im : float array;
  mw : float array;
  uw_re : float array;
  uw_im : float array;
  muw : float array;
  thr : float array;  (* per sub-criterion: threshold and its bound *)
  bthr : float array;
  s : scal;
}

(* Scalar registers: an all-float record is stored flat, so writing
   them allocates nothing. *)
and scal = {
  mutable xo_re : float;
  mutable xo_im : float;
  mutable h0_re : float;  (* the view's nominal H₀ *)
  mutable h0_im : float;
  mutable m0 : float;  (* magnitude of the terms forming H₀ *)
  mutable tk : float;  (* bound per unit magnitude: 2θ, one θ per side *)
  mutable omega : float;
  mutable pr : float;  (* the last point: H and its bound *)
  mutable pi : float;
  mutable pb : float;
  mutable a0 : float;  (* |H₀| and its bound *)
  mutable b0 : float;
  mutable dev : float;  (* the last deviation and its bound *)
  mutable db : float;
}

let make_ws st =
  let nr = Array.length st.rows and np = Array.length st.pats in
  let k = 1 + nr + np and n = st.n in
  let nu = Array.length st.updates in
  let bblk = Big.create n k in
  for r = 0 to nr - 1 do
    Big.set bblk st.rows.(r) (1 + r) Complex.one
  done;
  Array.iteri
    (fun p u ->
      List.iter (fun (i, sg) -> Big.set bblk i (1 + nr + p) { Complex.re = sg; im = 0.0 }) u)
    st.pats;
  let base =
    match st.stamps with
    | `Dense _ -> `Dense (Big.create n n, Big.lu_create n)
    | `Sparse (sp, sym) ->
        let nnz = Mna.Stamps.sparse_nnz sp in
        `Sparse (Csparse.plane nnz, Csparse.plane nnz, Csparse.numeric sym)
  in
  let f len = Array.make len 0.0 in
  {
    k;
    nr;
    np;
    bblk;
    xblk = Big.create n k;
    bvec = Bvec.create n;
    base;
    zo_re = f nr;
    zo_im = f nr;
    yo_re = f np;
    yo_im = f np;
    ux_re = f np;
    ux_im = f np;
    uy_re = f np;
    uy_im = f np;
    uz_re = f (np * nr);
    uz_im = f (np * nr);
    dx_re = f (nu * k);
    dx_im = f (nu * k);
    uxm = f np;
    uym = f np;
    uzm = f (np * nr);
    dxm = f (nu * k);
    kre = f (nr * nr);
    kim = f (nr * nr);
    kinv_re = f (nr * nr);
    kinv_im = f (nr * nr);
    kinv_m = f (nr * nr);
    q = f (nr * nr);
    t = f nr;
    t0 = f nr;
    c_re = f nr;
    c_im = f nr;
    c0_re = f nr;
    c0_im = f nr;
    uxs_re = f np;
    uxs_im = f np;
    mux = f np;
    wo_re = f np;
    wo_im = f np;
    mw = f np;
    uw_re = f np;
    uw_im = f np;
    muw = f np;
    thr = f (Array.length st.subs);
    bthr = f (Array.length st.subs);
    s =
      {
        xo_re = 0.0;
        xo_im = 0.0;
        h0_re = 0.0;
        h0_im = 0.0;
        m0 = 0.0;
        tk = 0.0;
        omega = 0.0;
        pr = 0.0;
        pi = 0.0;
        pb = 0.0;
        a0 = 0.0;
        b0 = 0.0;
        dev = 0.0;
        db = 0.0;
      };
  }

(* ---- one frequency: factor A₀, solve the block, Gram products ---- *)

let base_frequency st ws fi =
  let omega = st.omegas.(fi) in
  ws.s.omega <- omega;
  let n = st.n and k = ws.k and nr = ws.nr in
  (match (ws.base, st.stamps) with
  | `Dense (a, lu), `Dense stamps ->
      Mna.Stamps.fill_big stamps ~omega a;
      Mna.Stamps.rhs_into_big stamps ~omega ws.bvec;
      Big.lu_factor_into lu a
  | `Sparse (re, im, num), `Sparse (sp, _) ->
      Mna.Stamps.fill_sparse sp ~omega ~re ~im;
      Mna.Stamps.sparse_rhs_into_big sp ~omega ws.bvec;
      Csparse.refactor num ~re ~im
  | _ -> invalid_arg "Lowrank: workspace and stamps of different back-ends");
  let bre = Big.re_plane ws.bblk and bim = Big.im_plane ws.bblk in
  let open Bigarray in
  for i = 0 to n - 1 do
    Array1.unsafe_set bre (i * k) (Array1.unsafe_get ws.bvec.Bvec.re i);
    Array1.unsafe_set bim (i * k) (Array1.unsafe_get ws.bvec.Bvec.im i)
  done;
  (match ws.base with
  | `Dense (_, lu) -> Big.lu_solve_block_into lu ~b:ws.bblk ~x:ws.xblk
  | `Sparse (_, _, num) -> Csparse.solve_block_into num ~b:ws.bblk ~x:ws.xblk);
  let xre = Big.re_plane ws.xblk and xim = Big.im_plane ws.xblk in
  let xr i c = Array1.unsafe_get xre ((i * k) + c)
  and xi i c = Array1.unsafe_get xim ((i * k) + c) in
  let o = st.out in
  ws.s.xo_re <- xr o 0;
  ws.s.xo_im <- xi o 0;
  for r = 0 to nr - 1 do
    ws.zo_re.(r) <- xr o (1 + r);
    ws.zo_im.(r) <- xi o (1 + r)
  done;
  Array.iteri
    (fun p u ->
      let c = 1 + nr + p in
      ws.yo_re.(p) <- xr o c;
      ws.yo_im.(p) <- xi o c;
      let dot c =
        List.fold_left
          (fun (ar, ai, am) (i, sg) ->
            let vr = xr i c and vi = xi i c in
            (ar +. (sg *. vr), ai +. (sg *. vi), am +. (Float.abs sg *. mag vr vi)))
          (0.0, 0.0, 0.0) u
      in
      let r0, i0, m0 = dot 0 in
      ws.ux_re.(p) <- r0;
      ws.ux_im.(p) <- i0;
      ws.uxm.(p) <- m0;
      let ry, iy, my = dot c in
      ws.uy_re.(p) <- ry;
      ws.uy_im.(p) <- iy;
      ws.uym.(p) <- my;
      for r = 0 to nr - 1 do
        let rz, iz, mz = dot (1 + r) in
        ws.uz_re.((p * nr) + r) <- rz;
        ws.uz_im.((p * nr) + r) <- iz;
        ws.uzm.((p * nr) + r) <- mz
      done)
    st.pats;
  (* dᵀX for every distinct row update, d = dg + jω·dc *)
  Array.iteri
    (fun d ((u : Mna.Stamps.row_update), _) ->
      let base = d * k in
      for c = 0 to k - 1 do
        let ar = ref 0.0 and ai = ref 0.0 and am = ref 0.0 in
        for t = 0 to Array.length u.Mna.Stamps.cols - 1 do
          let j = u.Mna.Stamps.cols.(t) in
          let gr = u.Mna.Stamps.dg.(t) and gi = omega *. u.Mna.Stamps.dc.(t) in
          let vr = xr j c and vi = xi j c in
          ar := !ar +. ((gr *. vr) -. (gi *. vi));
          ai := !ai +. ((gr *. vi) +. (gi *. vr));
          am := !am +. (mag gr gi *. mag vr vi)
        done;
        ws.dx_re.(base + c) <- !ar;
        ws.dx_im.(base + c) <- !ai;
        ws.dxm.(base + c) <- !am
      done)
    st.updates

(* ---- one view at the current frequency ---- *)

(* Invert the m×m capacitance matrix in [kre]/[kim] into
   [kinv_re]/[kinv_im] by Gauss–Jordan elimination with partial
   pivoting; returns Skeel's condition number ‖|K⁻¹|·|K|‖∞, or
   [infinity] when a pivot falls to the round-off floor. *)
let invert_capacitance ws m =
  let a_re = Array.sub ws.kre 0 (m * m) and a_im = Array.sub ws.kim 0 (m * m) in
  let knorm = ref 0.0 in
  for i = 0 to (m * m) - 1 do
    knorm := fmax !knorm (norm2 a_re.(i) a_im.(i))
  done;
  let vr = ws.kinv_re and vi = ws.kinv_im in
  for i = 0 to (m * m) - 1 do
    vr.(i) <- 0.0;
    vi.(i) <- 0.0
  done;
  for i = 0 to m - 1 do
    vr.((i * m) + i) <- 1.0
  done;
  let tiny = 1e-300 +. (!knorm *. float_of_int m *. 4.0 *. epsilon_float) in
  let swap_rows (re : float array) (im : float array) r1 r2 =
    for j = 0 to m - 1 do
      let t = re.((r1 * m) + j) in
      re.((r1 * m) + j) <- re.((r2 * m) + j);
      re.((r2 * m) + j) <- t;
      let t = im.((r1 * m) + j) in
      im.((r1 * m) + j) <- im.((r2 * m) + j);
      im.((r2 * m) + j) <- t
    done
  in
  let rec eliminate col =
    if col = m then true
    else begin
      let piv = ref col in
      for i = col + 1 to m - 1 do
        if norm2 a_re.((i * m) + col) a_im.((i * m) + col)
           > norm2 a_re.((!piv * m) + col) a_im.((!piv * m) + col)
        then piv := i
      done;
      let pmag = norm2 a_re.((!piv * m) + col) a_im.((!piv * m) + col) in
      if not (pmag > tiny) then false
      else begin
        if !piv <> col then begin
          swap_rows a_re a_im !piv col;
          swap_rows vr vi !piv col
        end;
        let pr = a_re.((col * m) + col) and pi = a_im.((col * m) + col) in
        let d = (pr *. pr) +. (pi *. pi) in
        let ir = pr /. d and ii = -.pi /. d in
        let scale (re : float array) (im : float array) =
          for j = 0 to m - 1 do
            let x = re.((col * m) + j) and y = im.((col * m) + j) in
            re.((col * m) + j) <- (x *. ir) -. (y *. ii);
            im.((col * m) + j) <- (x *. ii) +. (y *. ir)
          done
        in
        scale a_re a_im;
        scale vr vi;
        for i = 0 to m - 1 do
          if i <> col then begin
            let fr = a_re.((i * m) + col) and fi = a_im.((i * m) + col) in
            if fr <> 0.0 || fi <> 0.0 then begin
              let sub (re : float array) (im : float array) =
                for j = 0 to m - 1 do
                  let x = re.((col * m) + j) and y = im.((col * m) + j) in
                  re.((i * m) + j) <- re.((i * m) + j) -. ((fr *. x) -. (fi *. y));
                  im.((i * m) + j) <- im.((i * m) + j) -. ((fr *. y) +. (fi *. x))
                done
              in
              sub a_re a_im;
              sub vr vi
            end
          end
        done;
        eliminate (col + 1)
      end
    end
  in
  if not (eliminate 0) then infinity
  else begin
    (* Q = |K⁻¹|·|K| and its largest row sum *)
    let q = ws.q in
    Array.fill q 0 (m * m) 0.0;
    for i = 0 to m - 1 do
      for l = 0 to m - 1 do
        let v = mag vr.((i * m) + l) vi.((i * m) + l) in
        if v > 0.0 then
          for j = 0 to m - 1 do
            q.((i * m) + j) <- q.((i * m) + j) +. (v *. mag ws.kre.((l * m) + j) ws.kim.((l * m) + j))
          done
      done
    done;
    let cond = ref 0.0 in
    for i = 0 to m - 1 do
      let row = ref 0.0 in
      for j = 0 to m - 1 do
        row := !row +. q.((i * m) + j)
      done;
      cond := fmax !cond !row
    done;
    !cond
  end

(* The four scalars of every pattern in view [upd] at the current
   frequency (base_frequency must have run), each with the magnitude
   its error bound scales with. A scalar s = s₀ − gᵀc, c = K⁻¹r, with
   K = I + D_S·Z_S and r = D_S·X[:, col], is formed from base
   quantities each within θ of exact relative to its operand magnitude
   (a solve entry's own modulus, |u|ᵀ|x| for a Gram product, |D||X|
   for K − I and r); to first order its error is then at most
   θ·(|s₀| + |g|ᵀ|c| + |g|ᵀ|K⁻¹|(|D||X[:, col]| + |D||Z_S||c|))
   (DESIGN §16). Returns [None] when the view is usable here, or why
   not. *)
let view_frequency st ws upd =
  let m = Array.length upd and k = ws.k and nr = ws.nr in
  let s = ws.s in
  (* K = I + D_S Z_S over the view's updates *)
  for a = 0 to m - 1 do
    let da = upd.(a) * k in
    for b = 0 to m - 1 do
      let rb = snd st.updates.(upd.(b)) in
      ws.kre.((a * m) + b) <- (if a = b then 1.0 else 0.0) +. ws.dx_re.(da + 1 + rb);
      ws.kim.((a * m) + b) <- ws.dx_im.(da + 1 + rb)
    done
  done;
  let cond = if m = 0 then 1.0 else invert_capacitance ws m in
  if not (cond <= cond_max) then
    Some
      (if cond = infinity then "its capacitance matrix is singular"
       else Printf.sprintf "its capacitance matrix is ill-conditioned (cond %.3g)" cond)
  else begin
    (* |K⁻¹| and P = |K⁻¹|·|D_S||Z_S| into [q], from the true inverse *)
    for i = 0 to (m * m) - 1 do
      ws.kinv_m.(i) <- mag ws.kinv_re.(i) ws.kinv_im.(i)
    done;
    for a = 0 to m - 1 do
      for b = 0 to m - 1 do
        let rb = snd st.updates.(upd.(b)) in
        let acc = ref 0.0 in
        for l = 0 to m - 1 do
          acc := !acc +. (ws.kinv_m.((a * m) + l) *. ws.dxm.((upd.(l) * k) + 1 + rb))
        done;
        ws.q.((a * m) + b) <- !acc
      done
    done;
    (match Atomic.get chaos with
    | `None -> ()
    | `Capacitance_scale c ->
        for i = 0 to (m * m) - 1 do
          ws.kinv_re.(i) <- c *. ws.kinv_re.(i);
          ws.kinv_im.(i) <- c *. ws.kinv_im.(i)
        done);
    s.tk <- 2.0 *. theta;
    (* c = K⁻¹·(dᵀX[:, col]) into c_re/c_im, and into [t] the bound
       t = |K⁻¹|·|D||X[:, col]| + P·|c| on |δc|/θ *)
    let solve col t =
      for a = 0 to m - 1 do
        let ar = ref 0.0 and ai = ref 0.0 in
        for b = 0 to m - 1 do
          let vr = ws.kinv_re.((a * m) + b) and vi = ws.kinv_im.((a * m) + b) in
          let db = (upd.(b) * k) + col in
          let rr = ws.dx_re.(db) and ri = ws.dx_im.(db) in
          ar := !ar +. ((vr *. rr) -. (vi *. ri));
          ai := !ai +. ((vr *. ri) +. (vi *. rr))
        done;
        ws.c_re.(a) <- !ar;
        ws.c_im.(a) <- !ai
      done;
      for a = 0 to m - 1 do
        let acc = ref 0.0 in
        for b = 0 to m - 1 do
          acc :=
            !acc
            +. (ws.kinv_m.((a * m) + b) *. ws.dxm.((upd.(b) * k) + col))
            +. (ws.q.((a * m) + b) *. mag ws.c_re.(b) ws.c_im.(b))
        done;
        t.(a) <- !acc
      done
    in
    solve 0 ws.t0;
    Array.blit ws.c_re 0 ws.c0_re 0 m;
    Array.blit ws.c_im 0 ws.c0_im 0 m;
    (* H₀ = x₀[out] − Z[out, S]·c₀ *)
    let hr = ref s.xo_re and hi = ref s.xo_im and hm = ref (mag s.xo_re s.xo_im) in
    for b = 0 to m - 1 do
      let rb = snd st.updates.(upd.(b)) in
      let zr = ws.zo_re.(rb) and zi = ws.zo_im.(rb) in
      let cr = ws.c0_re.(b) and ci = ws.c0_im.(b) in
      hr := !hr -. ((zr *. cr) -. (zi *. ci));
      hi := !hi -. ((zr *. ci) +. (zi *. cr));
      hm := !hm +. (mag zr zi *. (mag cr ci +. ws.t0.(b)))
    done;
    s.h0_re <- !hr;
    s.h0_im <- !hi;
    s.m0 <- !hm;
    for p = 0 to ws.np - 1 do
      (* uᵀx_S = uᵀx₀ − (uᵀZ_S)·c₀ *)
      let xr = ref ws.ux_re.(p) and xi = ref ws.ux_im.(p) and xm = ref ws.uxm.(p) in
      for b = 0 to m - 1 do
        let rb = snd st.updates.(upd.(b)) in
        let zr = ws.uz_re.((p * nr) + rb) and zi = ws.uz_im.((p * nr) + rb) in
        let cr = ws.c0_re.(b) and ci = ws.c0_im.(b) in
        xr := !xr -. ((zr *. cr) -. (zi *. ci));
        xi := !xi -. ((zr *. ci) +. (zi *. cr));
        xm := !xm +. (ws.uzm.((p * nr) + rb) *. (mag cr ci +. ws.t0.(b)))
      done;
      ws.uxs_re.(p) <- !xr;
      ws.uxs_im.(p) <- !xi;
      ws.mux.(p) <- !xm;
      (* w_S = y_p − Z_S·c_p: its output entry and uᵀw_S *)
      solve (1 + nr + p) ws.t;
      let wr = ref ws.yo_re.(p) and wi = ref ws.yo_im.(p)
      and wm = ref (mag ws.yo_re.(p) ws.yo_im.(p)) in
      let ur = ref ws.uy_re.(p) and ui = ref ws.uy_im.(p) and um = ref ws.uym.(p) in
      for b = 0 to m - 1 do
        let rb = snd st.updates.(upd.(b)) in
        let cr = ws.c_re.(b) and ci = ws.c_im.(b) in
        let cm = mag cr ci +. ws.t.(b) in
        let zr = ws.zo_re.(rb) and zi = ws.zo_im.(rb) in
        wr := !wr -. ((zr *. cr) -. (zi *. ci));
        wi := !wi -. ((zr *. ci) +. (zi *. cr));
        wm := !wm +. (mag zr zi *. cm);
        let zr = ws.uz_re.((p * nr) + rb) and zi = ws.uz_im.((p * nr) + rb) in
        ur := !ur -. ((zr *. cr) -. (zi *. ci));
        ui := !ui -. ((zr *. ci) +. (zi *. cr));
        um := !um +. (ws.uzm.((p * nr) + rb) *. cm)
      done;
      ws.wo_re.(p) <- !wr;
      ws.wo_im.(p) <- !wi;
      ws.mw.(p) <- !wm;
      ws.uw_re.(p) <- !ur;
      ws.uw_im.(p) <- !ui;
      ws.muw.(p) <- !um
    done;
    None
  end

(* One rank-1 point of the current view: H = x[out] − ĉ·w[out] with
   ĉ = α·uᵀx/(1 + α·uᵀw), and its error bound, into s.pr/s.pi/s.pb.
   Returns [None], or why the point is outside the low-rank path. *)
let point ws { pat = p; ag; ac } =
  let s = ws.s in
  let ar = ag and ai = s.omega *. ac in
  let uwr = ws.uw_re.(p) and uwi = ws.uw_im.(p) in
  let dr = 1.0 +. ((ar *. uwr) -. (ai *. uwi)) and di = (ar *. uwi) +. (ai *. uwr) in
  let dmag = norm2 dr di in
  if not (dmag > den_min && dmag -. dmag = 0.0) then
    Some (Printf.sprintf "a rank-1 denominator is %.3g" dmag)
  else begin
    let uxr = ws.uxs_re.(p) and uxi = ws.uxs_im.(p) in
    let nr = (ar *. uxr) -. (ai *. uxi) and ni = (ar *. uxi) +. (ai *. uxr) in
    let d2 = (dr *. dr) +. (di *. di) in
    let cr = ((nr *. dr) +. (ni *. di)) /. d2 and ci = ((ni *. dr) -. (nr *. di)) /. d2 in
    let wr = ws.wo_re.(p) and wi = ws.wo_im.(p) in
    let xr = s.h0_re and xi = s.h0_im in
    s.pr <- xr -. ((cr *. wr) -. (ci *. wi));
    s.pi <- xi -. ((cr *. wi) +. (ci *. wr));
    let cm = mag cr ci in
    let g = mag ar ai *. mag wr wi /. dmag in
    s.pb <- s.tk *. (s.m0 +. (cm *. ws.mw.(p)) +. (g *. ws.mux.(p)) +. (cm *. g *. ws.muw.(p)));
    None
  end

(* ---- deviations with their bounds ---- *)

(* The deviation of the last point (s.pr, s.pi, bound s.pb) from the
   view's nominal H₀ (modulus a0, bound b0) into s.dev; into s.db a
   bound on how far the per-view engine's deviation can lie from it.
   The arithmetic must match Detect.magnitude_dev and Detect.phase_dev
   (the per-view engine's verdict rule); it is inlined here so that no
   float crosses an out-of-line call in the point loop. *)
let deviation s ~phase =
  let a0 = s.a0 and b0 = s.b0 in
  let hr = s.pr and hi = s.pi and bf = s.pb in
  let af = norm2 hr hi in
  if not phase then begin
    let dev =
      if a0 = 0.0 then if af = 0.0 then 0.0 else infinity else Float.abs (af -. a0) /. a0
    in
    s.dev <- dev;
    s.db <- (if b0 < a0 then (bf +. b0 +. (dev *. b0)) /. (a0 -. b0) else infinity)
  end
  else begin
    s.dev <-
      (if a0 = 0.0 || af = 0.0 then 0.0
       else
         let d = Float.abs (Float.atan2 hi hr -. Float.atan2 s.h0_im s.h0_re) in
         if d > Float.pi then (2.0 *. Float.pi) -. d else d);
    (* |δ arg z| ≤ asin(b/|z|) ≤ (π/2)·b/|z| for b < |z| *)
    s.db <- (if b0 < a0 && bf < af then Float.pi /. 2.0 *. ((bf /. af) +. (b0 /. a0)) else infinity)
  end

(* ---- the sweep ---- *)

let freq_block = 8

(* Evaluate every related view at every frequency, over frequency-block
   tasks. [visit ws v fi] runs after view [v]'s scalars are ready at
   frequency [fi] (view_frequency returned [None]); [fail v fi why]
   records a view the low-rank path cannot serve at [fi]. Returns the
   number of successful base factorizations and capacitance solves. *)
let sweep st ~jobs ~visit ~fail =
  let nf = st.nf in
  let n_blocks = (nf + freq_block - 1) / freq_block in
  let factors = Array.make n_blocks 0 and caps = Array.make n_blocks 0 in
  let nv = Array.length st.relation in
  let est_ns =
    let n = float_of_int st.n and k = float_of_int (1 + Array.length st.rows + Array.length st.pats) in
    float_of_int nf *. ((n *. n *. (n +. k)) +. (float_of_int nv *. k *. 200.0))
  in
  Util.Parallel.for_ ~jobs ~est_ns n_blocks (fun blk ->
      Obs.Trace.span "lowrank.block" @@ fun () ->
      let ws = make_ws st in
      for fi = blk * freq_block to Int.min nf ((blk + 1) * freq_block) - 1 do
        match base_frequency st ws fi with
        | exception Cmat.Singular ->
            let why = Printf.sprintf "the base is singular at f = %g Hz" st.freqs_hz.(fi) in
            Array.iteri
              (fun v -> function Updates _ -> fail v fi why | Unrelated _ -> ())
              st.relation
        | () ->
            factors.(blk) <- factors.(blk) + 1;
            Array.iteri
              (fun v -> function
                | Unrelated _ -> ()
                | Updates upd -> (
                    caps.(blk) <- caps.(blk) + 1;
                    match view_frequency st ws upd with
                    | None -> visit ws v fi
                    | Some why ->
                        fail v fi (Printf.sprintf "%s at f = %g Hz" why st.freqs_hz.(fi))))
              st.relation
      done);
  (Array.fold_left ( + ) 0 factors, Array.fold_left ( + ) 0 caps)

(* ---- the campaign ---- *)

let build ~base ?backend ?(criterion = Detect.default_criterion) ?(jobs = 1) grid views
    faults =
  Obs.Trace.span "lowrank.build" @@ fun () ->
  let views = Array.of_list views and faults = Array.of_list faults in
  let nv = Array.length views and m = Array.length faults in
  let nf = Grid.n_points grid in
  let detect = Array.make_matrix nv m false and omega = Array.make_matrix nv m 0.0 in
  let st =
    if nv = 0 then Error "no views"
    else
      try
        Ok
          (setup ~base ~backend:(Option.value backend ~default:Fastsim.Auto) ~criterion grid
             views faults)
      with Unsupported why -> Error why
  in
  (* per (view, frequency): why the view left the low-rank path here *)
  let failed = Array.make (nv * nf) None in
  let a0s = Array.make (nv * nf) 0.0 and b0s = Array.make (nv * nf) 0.0 in
  let verdicts = Array.init nv (fun _ -> Array.init m (fun _ -> Bytes.make nf '?')) in
  let factors, caps, thr_points, fault_points =
    match st with
    | Error _ -> (0, 0, 0, 0)
    | Ok st ->
        let n_sub = Array.length st.subs in
        let thr_points = Atomic.make 0 and fault_points = Atomic.make 0 in
        let fail v fi why = if failed.((v * nf) + fi) = None then failed.((v * nf) + fi) <- Some why in
        let at fi why = Printf.sprintf "%s at f = %g Hz" why st.freqs_hz.(fi) in
        let visit ws v fi =
          let s = ws.s in
          let a0 = norm2 s.h0_re s.h0_im in
          let b0 = s.tk *. s.m0 in
          s.a0 <- a0;
          s.b0 <- b0;
          a0s.((v * nf) + fi) <- a0;
          b0s.((v * nf) + fi) <- b0;
          let thr = ws.thr and bthr = ws.bthr in
          (* thresholds: an envelope is the floor plus every drift's
             deviation, its bound the sum of theirs plus the rounding
             of the sum itself *)
          let ok = ref true and tp = ref 0 and fp = ref 0 in
          for c = 0 to n_sub - 1 do
            let sub = st.subs.(c) in
            match sub.fixed with
            | Some eps ->
                thr.(c) <- eps;
                bthr.(c) <- 0.0
            | None ->
                let nd = Array.length sub.drifts in
                thr.(c) <- sub.floor;
                bthr.(c) <- 0.0;
                let d = ref 0 in
                while !ok && !d < nd do
                  incr tp;
                  (match point ws sub.drifts.(!d) with
                  | Some why ->
                      ok := false;
                      fail v fi (at fi why)
                  | None ->
                      deviation s ~phase:sub.phase;
                      thr.(c) <- thr.(c) +. s.dev;
                      bthr.(c) <- bthr.(c) +. s.db);
                  incr d
                done;
                bthr.(c) <- bthr.(c) +. (float_of_int (nd + 1) *. epsilon_float *. thr.(c))
          done;
          let j = ref 0 in
          while !ok && !j < m do
            let byte =
              match st.changes.(!j) with
              | None -> 'u' (* H_f = H₀ exactly on both paths: deviation 0 *)
              | Some r -> (
                  incr fp;
                  match point ws r with
                  | Some why ->
                      ok := false;
                      fail v fi (at fi why);
                      '?'
                  | None ->
                      (* 'd' once one sub-criterion clears its threshold
                         by more than the bound, 'u' once every one
                         stays below by more, '?' otherwise *)
                      let above = ref false and below = ref true in
                      for c = 0 to n_sub - 1 do
                        deviation s ~phase:st.subs.(c).phase;
                        let diff = s.dev -. thr.(c) and b = s.db +. bthr.(c) in
                        if diff > b then above := true
                        else if not (-.diff > b) then below := false
                      done;
                      if !above then 'd' else if !below then 'u' else '?')
            in
            Bytes.unsafe_set verdicts.(v).(!j) fi byte;
            incr j
          done;
          ignore (Atomic.fetch_and_add thr_points !tp);
          ignore (Atomic.fetch_and_add fault_points !fp)
        in
        let factors, caps = sweep st ~jobs ~visit ~fail in
        (factors, caps, Atomic.get thr_points, Atomic.get fault_points)
  in
  (* Decide each view after the sweep: the measurement floor needs the
     view's peak over the whole grid. *)
  let reason v =
    match st with
    | Error why -> Some why
    | Ok st -> (
        match st.relation.(v) with
        | Unrelated why -> Some why
        | Updates _ -> (
            let first = ref None in
            for fi = nf - 1 downto 0 do
              match failed.((v * nf) + fi) with Some w -> first := Some w | None -> ()
            done;
            match !first with
            | Some _ as w -> w
            | None ->
                let peak = ref 0.0 and bpk = ref 0.0 in
                for fi = 0 to nf - 1 do
                  peak := fmax !peak a0s.((v * nf) + fi);
                  bpk := fmax !bpk b0s.((v * nf) + fi)
                done;
                let lo = Detect.floor_of_peak (!peak -. !bpk)
                and hi = Detect.floor_of_peak (!peak +. !bpk) in
                let why = ref None in
                for fi = nf - 1 downto 0 do
                  let a0 = a0s.((v * nf) + fi) and b0 = b0s.((v * nf) + fi) in
                  if a0 +. b0 < lo then
                    (* below the floor on both paths: undetectable by definition *)
                    Array.iter (fun row -> Bytes.unsafe_set row fi 'u') verdicts.(v)
                  else if a0 -. b0 >= hi then
                    Array.iteri
                      (fun j row ->
                        if Bytes.get row fi = '?' then
                          why :=
                            Some
                              (Printf.sprintf "fault %s sits within the bound of a threshold at f = %g Hz"
                                 faults.(j).Fault.id st.freqs_hz.(fi)))
                      verdicts.(v)
                  else
                    why :=
                      Some
                        (Printf.sprintf "the response sits within the bound of the measurement floor at f = %g Hz"
                           st.freqs_hz.(fi))
                done;
                !why))
  in
  let reasons = Array.init nv reason in
  Obs.Trace.span "lowrank.reduce" (fun () ->
      Array.iteri
        (fun v why ->
          if why = None then
            Array.iteri
              (fun j row ->
                let r = Detect.result_of_verdicts grid faults.(j) row in
                detect.(v).(j) <- r.Detect.detectable;
                omega.(v).(j) <- r.Detect.omega_det)
              verdicts.(v))
        reasons);
  (* the exact per-view path for every view left over, rows spliced back *)
  let back = List.filter (fun v -> reasons.(v) <> None) (List.init nv Fun.id) in
  if back <> [] then begin
    Obs.Trace.span "lowrank.fallback" @@ fun () ->
    let mb =
      Matrix.build ?backend ~criterion ~jobs grid (List.map (fun v -> views.(v)) back)
        (Array.to_list faults)
    in
    List.iteri
      (fun r v ->
        detect.(v) <- mb.Matrix.detect.(r);
        omega.(v) <- mb.Matrix.omega.(r))
      back
  end;
  let fallbacks =
    List.map (fun v -> (views.(v).Matrix.label, Option.get reasons.(v))) back
  in
  Obs.Metrics.incr ~by:factors "lowrank.base_factors";
  Obs.Metrics.incr ~by:caps "lowrank.capacitance_solves";
  Obs.Metrics.incr ~by:thr_points "lowrank.points_thresholds";
  Obs.Metrics.incr ~by:fault_points "lowrank.points_faults";
  Obs.Metrics.incr ~by:(List.length back) "lowrank.fallback_views";
  ( { Matrix.views; faults; detect; omega },
    {
      views = nv;
      lowrank_views = nv - List.length back;
      fallbacks;
      base_factors = factors;
      capacitance_solves = caps;
      threshold_points = thr_points;
      fault_points;
    } )

(* ---- point responses, for the differential oracle ---- *)

type point = { h : Complex.t; bound : float }

type view_points =
  | Points of { nominal : point array; faults : point array array }
  | Skipped of string

let responses ~base grid views faults =
  let views = Array.of_list views and faults = Array.of_list faults in
  let nv = Array.length views and m = Array.length faults and nf = Grid.n_points grid in
  if nv = 0 then [||]
  else
    (* a fixed threshold instantiates no drift: only the points asked for *)
    match setup ~base ~backend:Fastsim.Auto ~criterion:(Detect.Fixed_tolerance 0.1) grid views faults with
    | exception Unsupported why -> Array.make nv (Skipped why)
    | st ->
        let zero = { h = Complex.zero; bound = 0.0 } in
        let nominal = Array.init nv (fun _ -> Array.make nf zero) in
        let rows = Array.init nv (fun _ -> Array.make_matrix m nf zero) in
        let failed = Array.make (nv * nf) None in
        let fail v fi why = if failed.((v * nf) + fi) = None then failed.((v * nf) + fi) <- Some why in
        let visit ws v fi =
          let s = ws.s in
          let h0 = { h = { Complex.re = s.h0_re; im = s.h0_im }; bound = s.tk *. s.m0 } in
          nominal.(v).(fi) <- h0;
          Array.iteri
            (fun j change ->
              rows.(v).(j).(fi) <-
                (match change with
                | None -> h0
                | Some r -> (
                    match point ws r with
                    | Some why ->
                        fail v fi why;
                        zero
                    | None -> { h = { Complex.re = s.pr; im = s.pi }; bound = s.pb })))
            st.changes
        in
        ignore (sweep st ~jobs:1 ~visit ~fail : int * int);
        Array.init nv (fun v ->
            match st.relation.(v) with
            | Unrelated why -> Skipped why
            | Updates _ -> (
                match List.find_map (fun fi -> failed.((v * nf) + fi)) (List.init nf Fun.id) with
                | Some why -> Skipped why
                | None -> Points { nominal = nominal.(v); faults = rows.(v) }))
