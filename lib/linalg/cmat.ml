type vec = Complex.t array

(* Planar ("split complex") storage: the real and imaginary planes are
   separate unboxed float arrays. A Complex.t is a boxed 2-float
   record, so Complex.t array kernels chase one pointer per element
   read and allocate one record per element write; under OCaml 5
   domains that allocation rate makes every worker hammer the shared
   minor/major heaps and a multicore campaign anti-scales. The planar
   layout keeps the O(n³)/O(n²) kernels on flat float arrays — no
   pointer chasing, no per-element allocation — while the boxed
   Complex.t API survives at the edges (get/set/of_arrays/to_arrays
   and the vec-returning solvers) for report/export/symbolic code.
   Element (i, j) of both planes lives at [i * ncols + j]. *)
type t = { nrows : int; ncols : int; re : float array; im : float array }

exception Singular

(* Stdlib-identical scaled magnitude on raw components. Keeping the
   formula bit-identical to Complex.norm means the planar rewrite
   cannot shift a pivot choice or a residual-threshold decision
   relative to the boxed implementation it replaces. Inlined so the
   float arguments and result stay unboxed in the hot loops (the
   non-flambda backend boxes floats across out-of-line calls). *)
let[@inline always] norm2 re im =
  let r = Float.abs re and i = Float.abs im in
  if r = 0.0 then i
  else if i = 0.0 then r
  else if r >= i then
    let q = i /. r in
    r *. sqrt (1.0 +. (q *. q))
  else
    let q = r /. i in
    i *. sqrt (1.0 +. (q *. q))

module Pvec = struct
  type t = { re : float array; im : float array }

  let create n = { re = Array.make n 0.0; im = Array.make n 0.0 }
  let length v = Array.length v.re
  let get v i =
    let re = v.re.(i) and im = v.im.(i) in
    Complex.{ re; im }

  let set v i (z : Complex.t) =
    v.re.(i) <- z.Complex.re;
    v.im.(i) <- z.Complex.im

  let fill_zero v =
    Array.fill v.re 0 (Array.length v.re) 0.0;
    Array.fill v.im 0 (Array.length v.im) 0.0

  let of_complex (x : Complex.t array) =
    {
      re = Array.map (fun z -> z.Complex.re) x;
      im = Array.map (fun z -> z.Complex.im) x;
    }

  let to_complex v =
    let vre = v.re and vim = v.im in
    Array.init (length v) (fun k ->
        let re = Array.unsafe_get vre k and im = Array.unsafe_get vim k in
        Complex.{ re; im })

  let blit ~src ~dst =
    Array.blit src.re 0 dst.re 0 (Array.length src.re);
    Array.blit src.im 0 dst.im 0 (Array.length src.im)

  let norm_inf v =
    let acc = ref 0.0 in
    for i = 0 to length v - 1 do
      let m = norm2 (Array.unsafe_get v.re i) (Array.unsafe_get v.im i) in
      if m > !acc then acc := m
    done;
    !acc
end

let create nrows ncols =
  if nrows < 0 || ncols < 0 then invalid_arg "Cmat.create: negative dimension";
  let len = nrows * ncols in
  { nrows; ncols; re = Array.make len 0.0; im = Array.make len 0.0 }

let rows m = m.nrows
let cols m = m.ncols

let check_bounds m i j =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg
      (Printf.sprintf "Cmat: index (%d, %d) out of bounds for %dx%d" i j m.nrows m.ncols)

let get m i j =
  check_bounds m i j;
  let k = (i * m.ncols) + j in
  let re = m.re.(k) and im = m.im.(k) in
  Complex.{ re; im }

let set m i j (v : Complex.t) =
  check_bounds m i j;
  let k = (i * m.ncols) + j in
  m.re.(k) <- v.Complex.re;
  m.im.(k) <- v.Complex.im

let add_to m i j (v : Complex.t) =
  check_bounds m i j;
  let k = (i * m.ncols) + j in
  m.re.(k) <- m.re.(k) +. v.Complex.re;
  m.im.(k) <- m.im.(k) +. v.Complex.im

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.re.((i * n) + i) <- 1.0
  done;
  m

let copy m = { m with re = Array.copy m.re; im = Array.copy m.im }

let of_arrays a =
  let nrows = Array.length a in
  let ncols = if nrows = 0 then 0 else Array.length a.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> ncols then invalid_arg "Cmat.of_arrays: ragged rows")
    a;
  let m = create nrows ncols in
  Array.iteri (fun i row -> Array.iteri (fun j v -> set m i j v) row) a;
  m

let to_arrays m =
  Array.init m.nrows (fun i -> Array.init m.ncols (fun j -> get m i j))

let transpose m =
  let r = create m.ncols m.nrows in
  for i = 0 to m.nrows - 1 do
    let row = i * m.ncols in
    for j = 0 to m.ncols - 1 do
      let k = (j * m.nrows) + i in
      r.re.(k) <- m.re.(row + j);
      r.im.(k) <- m.im.(row + j)
    done
  done;
  r

let map f m =
  let r = create m.nrows m.ncols in
  for k = 0 to Array.length m.re - 1 do
    let re = m.re.(k) and im = m.im.(k) in
    let v = f Complex.{ re; im } in
    r.re.(k) <- v.Complex.re;
    r.im.(k) <- v.Complex.im
  done;
  r

let mul a b =
  if a.ncols <> b.nrows then invalid_arg "Cmat.mul: dimension mismatch";
  let r = create a.nrows b.ncols in
  let nc = a.ncols and bc = b.ncols in
  for i = 0 to a.nrows - 1 do
    let row = i * nc in
    for j = 0 to bc - 1 do
      let acc_re = ref 0.0 and acc_im = ref 0.0 in
      for k = 0 to nc - 1 do
        let are = Array.unsafe_get a.re (row + k)
        and aim = Array.unsafe_get a.im (row + k)
        and bre = Array.unsafe_get b.re ((k * bc) + j)
        and bim = Array.unsafe_get b.im ((k * bc) + j) in
        acc_re := !acc_re +. ((are *. bre) -. (aim *. bim));
        acc_im := !acc_im +. ((are *. bim) +. (aim *. bre))
      done;
      r.re.((i * bc) + j) <- !acc_re;
      r.im.((i * bc) + j) <- !acc_im
    done
  done;
  r

(* Hot kernel: y <- A x entirely on the planes, zero allocation. *)
let mul_vec_into a ~(x : Pvec.t) ~(y : Pvec.t) =
  if a.ncols <> Pvec.length x || a.nrows <> Pvec.length y then
    invalid_arg "Cmat.mul_vec_into: dimension mismatch";
  let nc = a.ncols in
  let xre = x.Pvec.re and xim = x.Pvec.im in
  for i = 0 to a.nrows - 1 do
    let row = i * nc in
    let acc_re = ref 0.0 and acc_im = ref 0.0 in
    for k = 0 to nc - 1 do
      let are = Array.unsafe_get a.re (row + k)
      and aim = Array.unsafe_get a.im (row + k)
      and vre = Array.unsafe_get xre k
      and vim = Array.unsafe_get xim k in
      acc_re := !acc_re +. ((are *. vre) -. (aim *. vim));
      acc_im := !acc_im +. ((are *. vim) +. (aim *. vre))
    done;
    Array.unsafe_set y.Pvec.re i !acc_re;
    Array.unsafe_set y.Pvec.im i !acc_im
  done

let mul_vec a x =
  if a.ncols <> Array.length x then invalid_arg "Cmat.mul_vec: dimension mismatch";
  let xp = Pvec.of_complex x in
  let y = Pvec.create a.nrows in
  mul_vec_into a ~x:xp ~y;
  Pvec.to_complex y

let scale s m = map (Complex.mul s) m

let elementwise op a b =
  if a.nrows <> b.nrows || a.ncols <> b.ncols then
    invalid_arg "Cmat: dimension mismatch";
  let r = create a.nrows a.ncols in
  for k = 0 to Array.length a.re - 1 do
    let are = a.re.(k) and aim = a.im.(k) and bre = b.re.(k) and bim = b.im.(k) in
    let v = op Complex.{ re = are; im = aim } Complex.{ re = bre; im = bim } in
    r.re.(k) <- v.Complex.re;
    r.im.(k) <- v.Complex.im
  done;
  r

let add a b = elementwise Complex.add a b
let sub a b = elementwise Complex.sub a b

type lu = { mat : t; perm : int array; sign : int }

(* Partial-pivoting LU (Doolittle) on the planes. Pivots on the largest
   |.| in the column; a pivot below [tiny] relative to the matrix norm
   signals a singular system. The elimination loops are unsafe-indexed
   with the complex arithmetic written out on the float components
   (bit-identical to the Complex module's naive formulas); the
   bounds-checked API above guards every entry point. *)
let lu_factor a =
  if a.nrows <> a.ncols then invalid_arg "Cmat.lu_factor: non-square matrix";
  let n = a.nrows in
  let m = copy a in
  let dre = m.re and dim = m.im in
  let perm = Array.init n (fun i -> i) in
  let sign = ref 1 in
  let scale_norm = ref 0.0 in
  for k = 0 to (n * n) - 1 do
    let v = norm2 (Array.unsafe_get dre k) (Array.unsafe_get dim k) in
    if v > !scale_norm then scale_norm := v
  done;
  (* Growth-aware threshold: a pivot at the round-off floor of the
     elimination, n * eps * ||A||, is numerically zero. *)
  let tiny = 1e-300 +. (!scale_norm *. float_of_int n *. 4.0 *. epsilon_float) in
  for k = 0 to n - 1 do
    (* find pivot *)
    let pivot_row = ref k
    and pivot_mag =
      ref
        (norm2
           (Array.unsafe_get dre ((k * n) + k))
           (Array.unsafe_get dim ((k * n) + k)))
    in
    for i = k + 1 to n - 1 do
      let mag =
        norm2 (Array.unsafe_get dre ((i * n) + k)) (Array.unsafe_get dim ((i * n) + k))
      in
      if mag > !pivot_mag then begin
        pivot_mag := mag;
        pivot_row := i
      end
    done;
    if !pivot_mag <= tiny then raise Singular;
    if !pivot_row <> k then begin
      sign := - !sign;
      let p = !pivot_row in
      let rk = k * n and rp = p * n in
      for j = 0 to n - 1 do
        let tr = Array.unsafe_get dre (rk + j) in
        Array.unsafe_set dre (rk + j) (Array.unsafe_get dre (rp + j));
        Array.unsafe_set dre (rp + j) tr;
        let ti = Array.unsafe_get dim (rk + j) in
        Array.unsafe_set dim (rk + j) (Array.unsafe_get dim (rp + j));
        Array.unsafe_set dim (rp + j) ti
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(p);
      perm.(p) <- tmp
    end;
    let rk = k * n in
    let p_re = Array.unsafe_get dre (rk + k) and p_im = Array.unsafe_get dim (rk + k) in
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let a_re = Array.unsafe_get dre (ri + k) and a_im = Array.unsafe_get dim (ri + k) in
      (* factor = a / pivot — Smith's algorithm, exactly Complex.div.
         Results are written straight to the planes (a tuple returned
         from the conditional would be boxed without flambda). *)
      if Float.abs p_re >= Float.abs p_im then begin
        let r = p_im /. p_re in
        let d = p_re +. (r *. p_im) in
        Array.unsafe_set dre (ri + k) ((a_re +. (r *. a_im)) /. d);
        Array.unsafe_set dim (ri + k) ((a_im -. (r *. a_re)) /. d)
      end
      else begin
        let r = p_re /. p_im in
        let d = p_im +. (r *. p_re) in
        Array.unsafe_set dre (ri + k) (((r *. a_re) +. a_im) /. d);
        Array.unsafe_set dim (ri + k) (((r *. a_im) -. a_re) /. d)
      end;
      let f_re = Array.unsafe_get dre (ri + k) and f_im = Array.unsafe_get dim (ri + k) in
      if f_re <> 0.0 || f_im <> 0.0 then
        for j = k + 1 to n - 1 do
          let akj_re = Array.unsafe_get dre (rk + j)
          and akj_im = Array.unsafe_get dim (rk + j) in
          Array.unsafe_set dre (ri + j)
            (Array.unsafe_get dre (ri + j) -. ((f_re *. akj_re) -. (f_im *. akj_im)));
          Array.unsafe_set dim (ri + j)
            (Array.unsafe_get dim (ri + j) -. ((f_re *. akj_im) +. (f_im *. akj_re)))
        done
    done
  done;
  { mat = m; perm; sign = !sign }

(* In-place substitution core: [x] must already hold P·b; on return it
   holds the solution. Shared by every solve entry point so the boxed
   and planar paths are arithmetically identical. *)
let lu_substitute { mat = m; _ } (x : Pvec.t) =
  let n = m.nrows in
  let dre = m.re and dim = m.im in
  let xre = x.Pvec.re and xim = x.Pvec.im in
  (* forward substitution: L y = P b, with unit diagonal L *)
  for i = 1 to n - 1 do
    let ri = i * n in
    let acc_re = ref (Array.unsafe_get xre i) and acc_im = ref (Array.unsafe_get xim i) in
    for j = 0 to i - 1 do
      let l_re = Array.unsafe_get dre (ri + j) and l_im = Array.unsafe_get dim (ri + j) in
      let v_re = Array.unsafe_get xre j and v_im = Array.unsafe_get xim j in
      acc_re := !acc_re -. ((l_re *. v_re) -. (l_im *. v_im));
      acc_im := !acc_im -. ((l_re *. v_im) +. (l_im *. v_re))
    done;
    Array.unsafe_set xre i !acc_re;
    Array.unsafe_set xim i !acc_im
  done;
  (* back substitution: U x = y *)
  for i = n - 1 downto 0 do
    let ri = i * n in
    let acc_re = ref (Array.unsafe_get xre i) and acc_im = ref (Array.unsafe_get xim i) in
    for j = i + 1 to n - 1 do
      let u_re = Array.unsafe_get dre (ri + j) and u_im = Array.unsafe_get dim (ri + j) in
      let v_re = Array.unsafe_get xre j and v_im = Array.unsafe_get xim j in
      acc_re := !acc_re -. ((u_re *. v_re) -. (u_im *. v_im));
      acc_im := !acc_im -. ((u_re *. v_im) +. (u_im *. v_re))
    done;
    let p_re = Array.unsafe_get dre (ri + i) and p_im = Array.unsafe_get dim (ri + i) in
    let a_re = !acc_re and a_im = !acc_im in
    if Float.abs p_re >= Float.abs p_im then begin
      let r = p_im /. p_re in
      let d = p_re +. (r *. p_im) in
      Array.unsafe_set xre i ((a_re +. (r *. a_im)) /. d);
      Array.unsafe_set xim i ((a_im -. (r *. a_re)) /. d)
    end
    else begin
      let r = p_re /. p_im in
      let d = p_im +. (r *. p_re) in
      Array.unsafe_set xre i (((r *. a_re) +. a_im) /. d);
      Array.unsafe_set xim i (((r *. a_im) -. a_re) /. d)
    end
  done

let lu_solve_into ({ mat = m; perm; _ } as lu) ~(b : Pvec.t) ~(x : Pvec.t) =
  let n = m.nrows in
  if Pvec.length b <> n || Pvec.length x <> n then
    invalid_arg "Cmat.lu_solve_into: dimension mismatch";
  for i = 0 to n - 1 do
    let p = Array.unsafe_get perm i in
    Array.unsafe_set x.Pvec.re i (Array.unsafe_get b.Pvec.re p);
    Array.unsafe_set x.Pvec.im i (Array.unsafe_get b.Pvec.im p)
  done;
  lu_substitute lu x

let lu_solve ({ mat = m; perm; _ } as lu) b =
  let n = m.nrows in
  if Array.length b <> n then invalid_arg "Cmat.lu_solve: dimension mismatch";
  let x = Pvec.create n in
  for i = 0 to n - 1 do
    let v = b.(perm.(i)) in
    x.Pvec.re.(i) <- v.Complex.re;
    x.Pvec.im.(i) <- v.Complex.im
  done;
  lu_substitute lu x;
  Pvec.to_complex x

let solve a b = lu_solve (lu_factor a) b

let determinant a =
  if a.nrows <> a.ncols then invalid_arg "Cmat.determinant: non-square matrix";
  match lu_factor a with
  | exception Singular -> Complex.zero
  | { mat = m; sign; _ } ->
      let n = a.nrows in
      let acc_re = ref (if sign >= 0 then 1.0 else -1.0) and acc_im = ref 0.0 in
      for i = 0 to n - 1 do
        let d_re = m.re.((i * n) + i) and d_im = m.im.((i * n) + i) in
        let r = (!acc_re *. d_re) -. (!acc_im *. d_im) in
        acc_im := (!acc_re *. d_im) +. (!acc_im *. d_re);
        acc_re := r
      done;
      Complex.{ re = !acc_re; im = !acc_im }

let inverse a =
  let n = a.nrows in
  let lu = lu_factor a in
  let r = create n n in
  let e = Pvec.create n and col = Pvec.create n in
  for j = 0 to n - 1 do
    e.Pvec.re.(j) <- 1.0;
    lu_solve_into lu ~b:e ~x:col;
    e.Pvec.re.(j) <- 0.0;
    for i = 0 to n - 1 do
      r.re.((i * n) + j) <- col.Pvec.re.(i);
      r.im.((i * n) + j) <- col.Pvec.im.(i)
    done
  done;
  r

let residual_norm a x b =
  if a.nrows <> Array.length b then invalid_arg "Cmat.residual_norm: dimension mismatch";
  let ax = mul_vec a x in
  let acc = ref 0.0 in
  for i = 0 to Array.length b - 1 do
    let m =
      norm2 (ax.(i).Complex.re -. b.(i).Complex.re) (ax.(i).Complex.im -. b.(i).Complex.im)
    in
    if m > !acc then acc := m
  done;
  !acc

let norm_inf m =
  let acc = ref 0.0 in
  for i = 0 to m.nrows - 1 do
    let row = i * m.ncols in
    let row_sum = ref 0.0 in
    for j = 0 to m.ncols - 1 do
      row_sum :=
        !row_sum +. norm2 (Array.unsafe_get m.re (row + j)) (Array.unsafe_get m.im (row + j))
    done;
    if !row_sum > !acc then acc := !row_sum
  done;
  !acc

let fill_parts m ~re ~im_scale ~im =
  let len = Array.length m.re in
  if Array.length re <> len || Array.length im <> len then
    invalid_arg "Cmat.fill_parts: part length mismatch";
  Array.blit re 0 m.re 0 len;
  let dst = m.im in
  for k = 0 to len - 1 do
    Array.unsafe_set dst k (im_scale *. Array.unsafe_get im k)
  done

let pp ppf m =
  for i = 0 to m.nrows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.ncols - 1 do
      let v = get m i j in
      Format.fprintf ppf " %8.3g%+8.3gi" v.Complex.re v.Complex.im
    done;
    Format.fprintf ppf " ]@."
  done

(* ---- off-heap planar kernels -------------------------------------

   Same split re/im layout and bit-identical arithmetic as the float
   array kernels above, but the planes live in Bigarray storage outside
   the OCaml heap. A [float array] is already unboxed, yet it still
   sits on the major heap: every campaign worker's live numeric state
   adds to the marking work of each GC cycle, and under OCaml 5 every
   stop-the-world minor collection synchronizes all domains. Bigarray
   planes are invisible to the GC — a warmed campaign's numeric state
   contributes nothing to collection, so the domains have nothing to
   stop the world for. The float-array path above is kept verbatim as
   the differential reference; every [Big] kernel must match it
   bitwise (same formulas, same loop order, same pivot decisions). *)

module Big = struct
  open Bigarray

  type plane = (float, float64_elt, c_layout) Array1.t

  let plane len : plane =
    let p = Array1.create Float64 C_layout len in
    Array1.fill p 0.0;
    p

  module Vec = struct
    type t = { re : plane; im : plane }

    let create n = { re = plane n; im = plane n }
    let length v = Array1.dim v.re

    let get v i =
      let re = Array1.get v.re i and im = Array1.get v.im i in
      Complex.{ re; im }

    let set v i (z : Complex.t) =
      Array1.set v.re i z.Complex.re;
      Array1.set v.im i z.Complex.im

    let fill_zero v =
      Array1.fill v.re 0.0;
      Array1.fill v.im 0.0

    let blit ~src ~dst =
      Array1.blit src.re dst.re;
      Array1.blit src.im dst.im

    let of_complex (x : Complex.t array) =
      let v = create (Array.length x) in
      Array.iteri (fun i z -> set v i z) x;
      v

    let to_complex v = Array.init (length v) (fun i -> get v i)

    let of_pvec (p : Pvec.t) =
      let n = Pvec.length p in
      let v = create n in
      for i = 0 to n - 1 do
        Array1.unsafe_set v.re i (Array.unsafe_get p.Pvec.re i);
        Array1.unsafe_set v.im i (Array.unsafe_get p.Pvec.im i)
      done;
      v

    let to_pvec v =
      let n = length v in
      let p = Pvec.create n in
      for i = 0 to n - 1 do
        Array.unsafe_set p.Pvec.re i (Array1.unsafe_get v.re i);
        Array.unsafe_set p.Pvec.im i (Array1.unsafe_get v.im i)
      done;
      p

    let norm_inf v =
      let vre = v.re and vim = v.im in
      let acc = ref 0.0 in
      for i = 0 to Array1.dim vre - 1 do
        let m = norm2 (Array1.unsafe_get vre i) (Array1.unsafe_get vim i) in
        if m > !acc then acc := m
      done;
      !acc
  end

  type mat = { nrows : int; ncols : int; re : plane; im : plane }
  type nonrec t = mat

  let create nrows ncols =
    if nrows < 0 || ncols < 0 then invalid_arg "Cmat.Big.create: negative dimension";
    let len = nrows * ncols in
    { nrows; ncols; re = plane len; im = plane len }

  let rows m = m.nrows
  let cols m = m.ncols
  let re_plane m = m.re
  let im_plane m = m.im

  let check_bounds m i j =
    if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
      invalid_arg
        (Printf.sprintf "Cmat.Big: index (%d, %d) out of bounds for %dx%d" i j m.nrows
           m.ncols)

  let get m i j =
    check_bounds m i j;
    let k = (i * m.ncols) + j in
    let re = Array1.get m.re k and im = Array1.get m.im k in
    Complex.{ re; im }

  let set m i j (v : Complex.t) =
    check_bounds m i j;
    let k = (i * m.ncols) + j in
    Array1.set m.re k v.Complex.re;
    Array1.set m.im k v.Complex.im

  let add_to m i j (v : Complex.t) =
    check_bounds m i j;
    let k = (i * m.ncols) + j in
    Array1.set m.re k (Array1.get m.re k +. v.Complex.re);
    Array1.set m.im k (Array1.get m.im k +. v.Complex.im)

  let blit ~src ~dst =
    if src.nrows <> dst.nrows || src.ncols <> dst.ncols then
      invalid_arg "Cmat.Big.blit: dimension mismatch";
    Array1.blit src.re dst.re;
    Array1.blit src.im dst.im

  let copy m =
    let r = create m.nrows m.ncols in
    blit ~src:m ~dst:r;
    r

  let fill_parts m ~re ~im_scale ~im =
    let len = m.nrows * m.ncols in
    if Array.length re <> len || Array.length im <> len then
      invalid_arg "Cmat.Big.fill_parts: part length mismatch";
    let dre = m.re and dim = m.im in
    for k = 0 to len - 1 do
      Array1.unsafe_set dre k (Array.unsafe_get re k);
      Array1.unsafe_set dim k (im_scale *. Array.unsafe_get im k)
    done

  let norm_inf m =
    let acc = ref 0.0 in
    for i = 0 to m.nrows - 1 do
      let row = i * m.ncols in
      let row_sum = ref 0.0 in
      for j = 0 to m.ncols - 1 do
        row_sum :=
          !row_sum
          +. norm2 (Array1.unsafe_get m.re (row + j)) (Array1.unsafe_get m.im (row + j))
      done;
      if !row_sum > !acc then acc := !row_sum
    done;
    !acc

  (* y <- A x on the off-heap planes, zero visible allocation. *)
  let mul_vec_into a ~(x : Vec.t) ~(y : Vec.t) =
    if a.ncols <> Vec.length x || a.nrows <> Vec.length y then
      invalid_arg "Cmat.Big.mul_vec_into: dimension mismatch";
    let nc = a.ncols in
    let mre = a.re and mim = a.im in
    let xre = x.Vec.re and xim = x.Vec.im in
    for i = 0 to a.nrows - 1 do
      let row = i * nc in
      let acc_re = ref 0.0 and acc_im = ref 0.0 in
      for k = 0 to nc - 1 do
        let are = Array1.unsafe_get mre (row + k)
        and aim = Array1.unsafe_get mim (row + k)
        and vre = Array1.unsafe_get xre k
        and vim = Array1.unsafe_get xim k in
        acc_re := !acc_re +. ((are *. vre) -. (aim *. vim));
        acc_im := !acc_im +. ((are *. vim) +. (aim *. vre))
      done;
      Array1.unsafe_set y.Vec.re i !acc_re;
      Array1.unsafe_set y.Vec.im i !acc_im
    done

  (* Compressed rows of a square matrix: every entry that is not +0 in
     both planes, row by row in column order — a −0 entry is kept, so
     {!csr_dense_into} rebuilds the matrix bit for bit. Built in two
     passes (count, then fill) so no intermediate list is ever
     allocated. *)
  type index = (int, int_elt, c_layout) Array1.t

  type csr = { cn : int; rowptr : index; colidx : index; vre : plane; vim : plane }

  (* Whether an entry is stored: not +0 in both planes. The reciprocal
     tells the zeros apart (1/+0 = +∞, 1/−0 = −∞) without a C call,
     and inlining keeps the floats unboxed. *)
  let[@inline always] stored re im =
    re <> 0.0 || im <> 0.0 || 1.0 /. re < 0.0 || 1.0 /. im < 0.0

  let csr_of m =
    if m.nrows <> m.ncols then invalid_arg "Cmat.Big.csr_of: non-square matrix";
    let n = m.nrows in
    let mre = m.re and mim = m.im in
    let rowptr = Array1.create Int C_layout (n + 1) in
    let nnz = ref 0 in
    for i = 0 to n - 1 do
      Array1.unsafe_set rowptr i !nnz;
      for k = i * n to (i * n) + n - 1 do
        if stored (Array1.unsafe_get mre k) (Array1.unsafe_get mim k) then incr nnz
      done
    done;
    Array1.unsafe_set rowptr n !nnz;
    let colidx = Array1.create Int C_layout !nnz in
    let vre = Array1.create Float64 C_layout !nnz
    and vim = Array1.create Float64 C_layout !nnz in
    let p = ref 0 in
    for k = 0 to (n * n) - 1 do
      let re = Array1.unsafe_get mre k and im = Array1.unsafe_get mim k in
      if stored re im then begin
        Array1.unsafe_set colidx !p (k mod n);
        Array1.unsafe_set vre !p re;
        Array1.unsafe_set vim !p im;
        incr p
      end
    done;
    { cn = n; rowptr; colidx; vre; vim }

  let csr_nnz c = Array1.dim c.colidx

  let csr_dense_into c m =
    if m.nrows <> c.cn || m.ncols <> c.cn then
      invalid_arg "Cmat.Big.csr_dense_into: dimension mismatch";
    Array1.fill m.re 0.0;
    Array1.fill m.im 0.0;
    for i = 0 to c.cn - 1 do
      for p = Array1.unsafe_get c.rowptr i to Array1.unsafe_get c.rowptr (i + 1) - 1 do
        let k = (i * c.cn) + Array1.unsafe_get c.colidx p in
        Array1.unsafe_set m.re k (Array1.unsafe_get c.vre p);
        Array1.unsafe_set m.im k (Array1.unsafe_get c.vim p)
      done
    done

  (* The loop body is {!mul_vec_into}'s with the both-planes-+0
     terms skipped. For finite x each skipped term is ±0; an
     accumulator that starts at +0 never becomes −0 in
     round-to-nearest, and adding ±0 to any other value leaves it
     unchanged — so every row is bitwise the dense one. *)
  let csr_mul_vec_into c ~(x : Vec.t) ~(y : Vec.t) =
    if c.cn <> Vec.length x || c.cn <> Vec.length y then
      invalid_arg "Cmat.Big.csr_mul_vec_into: dimension mismatch";
    let rowptr = c.rowptr and colidx = c.colidx and mre = c.vre and mim = c.vim in
    let xre = x.Vec.re and xim = x.Vec.im in
    for i = 0 to c.cn - 1 do
      let acc_re = ref 0.0 and acc_im = ref 0.0 in
      for p = Array1.unsafe_get rowptr i to Array1.unsafe_get rowptr (i + 1) - 1 do
        let k = Array1.unsafe_get colidx p in
        let are = Array1.unsafe_get mre p
        and aim = Array1.unsafe_get mim p
        and vre = Array1.unsafe_get xre k
        and vim = Array1.unsafe_get xim k in
        acc_re := !acc_re +. ((are *. vre) -. (aim *. vim));
        acc_im := !acc_im +. ((are *. vim) +. (aim *. vre))
      done;
      Array1.unsafe_set y.Vec.re i !acc_re;
      Array1.unsafe_set y.Vec.im i !acc_im
    done

  (* The LU workspace owns its factor storage, so a sweep reuses one
     workspace across every frequency point instead of allocating a
     fresh factor per factorization (the float-array [lu_factor] copies
     its input each call). *)
  type lu = { mat : mat; perm : int array; mutable sign : int }

  let lu_create n = { mat = create n n; perm = Array.make (Int.max n 1) 0; sign = 1 }
  let lu_dim lu = lu.mat.nrows

  (* Identical algorithm to the float-array [lu_factor] above: same
     scale norm, same growth-aware threshold, same pivot comparisons,
     same Smith division — bitwise-equal factors and the same Singular
     verdicts, with the storage off-heap. *)
  let lu_factor_into ws a =
    if a.nrows <> a.ncols then invalid_arg "Cmat.Big.lu_factor_into: non-square matrix";
    if ws.mat.nrows <> a.nrows then
      invalid_arg "Cmat.Big.lu_factor_into: workspace dimension mismatch";
    let n = a.nrows in
    blit ~src:a ~dst:ws.mat;
    let dre = ws.mat.re and dim = ws.mat.im in
    let perm = ws.perm in
    for i = 0 to n - 1 do
      perm.(i) <- i
    done;
    let sign = ref 1 in
    let scale_norm = ref 0.0 in
    for k = 0 to (n * n) - 1 do
      let v = norm2 (Array1.unsafe_get dre k) (Array1.unsafe_get dim k) in
      if v > !scale_norm then scale_norm := v
    done;
    let tiny = 1e-300 +. (!scale_norm *. float_of_int n *. 4.0 *. epsilon_float) in
    for k = 0 to n - 1 do
      let pivot_row = ref k
      and pivot_mag =
        ref
          (norm2
             (Array1.unsafe_get dre ((k * n) + k))
             (Array1.unsafe_get dim ((k * n) + k)))
      in
      for i = k + 1 to n - 1 do
        let mag =
          norm2
            (Array1.unsafe_get dre ((i * n) + k))
            (Array1.unsafe_get dim ((i * n) + k))
        in
        if mag > !pivot_mag then begin
          pivot_mag := mag;
          pivot_row := i
        end
      done;
      if !pivot_mag <= tiny then raise Singular;
      if !pivot_row <> k then begin
        sign := - !sign;
        let p = !pivot_row in
        let rk = k * n and rp = p * n in
        for j = 0 to n - 1 do
          let tr = Array1.unsafe_get dre (rk + j) in
          Array1.unsafe_set dre (rk + j) (Array1.unsafe_get dre (rp + j));
          Array1.unsafe_set dre (rp + j) tr;
          let ti = Array1.unsafe_get dim (rk + j) in
          Array1.unsafe_set dim (rk + j) (Array1.unsafe_get dim (rp + j));
          Array1.unsafe_set dim (rp + j) ti
        done;
        let tmp = perm.(k) in
        perm.(k) <- perm.(p);
        perm.(p) <- tmp
      end;
      let rk = k * n in
      let p_re = Array1.unsafe_get dre (rk + k)
      and p_im = Array1.unsafe_get dim (rk + k) in
      for i = k + 1 to n - 1 do
        let ri = i * n in
        let a_re = Array1.unsafe_get dre (ri + k)
        and a_im = Array1.unsafe_get dim (ri + k) in
        if Float.abs p_re >= Float.abs p_im then begin
          let r = p_im /. p_re in
          let d = p_re +. (r *. p_im) in
          Array1.unsafe_set dre (ri + k) ((a_re +. (r *. a_im)) /. d);
          Array1.unsafe_set dim (ri + k) ((a_im -. (r *. a_re)) /. d)
        end
        else begin
          let r = p_re /. p_im in
          let d = p_im +. (r *. p_re) in
          Array1.unsafe_set dre (ri + k) (((r *. a_re) +. a_im) /. d);
          Array1.unsafe_set dim (ri + k) (((r *. a_im) -. a_re) /. d)
        end;
        let f_re = Array1.unsafe_get dre (ri + k)
        and f_im = Array1.unsafe_get dim (ri + k) in
        if f_re <> 0.0 || f_im <> 0.0 then
          for j = k + 1 to n - 1 do
            let akj_re = Array1.unsafe_get dre (rk + j)
            and akj_im = Array1.unsafe_get dim (rk + j) in
            Array1.unsafe_set dre (ri + j)
              (Array1.unsafe_get dre (ri + j) -. ((f_re *. akj_re) -. (f_im *. akj_im)));
            Array1.unsafe_set dim (ri + j)
              (Array1.unsafe_get dim (ri + j) -. ((f_re *. akj_im) +. (f_im *. akj_re)))
          done
      done
    done;
    ws.sign <- !sign

  let lu_factor a =
    let ws = lu_create a.nrows in
    lu_factor_into ws a;
    ws

  (* In-place substitution core on one off-heap vector; mirrors
     [lu_substitute] exactly. *)
  let lu_substitute { mat = m; _ } (x : Vec.t) =
    let n = m.nrows in
    let dre = m.re and dim = m.im in
    let xre = x.Vec.re and xim = x.Vec.im in
    for i = 1 to n - 1 do
      let ri = i * n in
      let acc_re = ref (Array1.unsafe_get xre i)
      and acc_im = ref (Array1.unsafe_get xim i) in
      for j = 0 to i - 1 do
        let l_re = Array1.unsafe_get dre (ri + j)
        and l_im = Array1.unsafe_get dim (ri + j) in
        let v_re = Array1.unsafe_get xre j and v_im = Array1.unsafe_get xim j in
        acc_re := !acc_re -. ((l_re *. v_re) -. (l_im *. v_im));
        acc_im := !acc_im -. ((l_re *. v_im) +. (l_im *. v_re))
      done;
      Array1.unsafe_set xre i !acc_re;
      Array1.unsafe_set xim i !acc_im
    done;
    for i = n - 1 downto 0 do
      let ri = i * n in
      let acc_re = ref (Array1.unsafe_get xre i)
      and acc_im = ref (Array1.unsafe_get xim i) in
      for j = i + 1 to n - 1 do
        let u_re = Array1.unsafe_get dre (ri + j)
        and u_im = Array1.unsafe_get dim (ri + j) in
        let v_re = Array1.unsafe_get xre j and v_im = Array1.unsafe_get xim j in
        acc_re := !acc_re -. ((u_re *. v_re) -. (u_im *. v_im));
        acc_im := !acc_im -. ((u_re *. v_im) +. (u_im *. v_re))
      done;
      let p_re = Array1.unsafe_get dre (ri + i)
      and p_im = Array1.unsafe_get dim (ri + i) in
      let a_re = !acc_re and a_im = !acc_im in
      if Float.abs p_re >= Float.abs p_im then begin
        let r = p_im /. p_re in
        let d = p_re +. (r *. p_im) in
        Array1.unsafe_set xre i ((a_re +. (r *. a_im)) /. d);
        Array1.unsafe_set xim i ((a_im -. (r *. a_re)) /. d)
      end
      else begin
        let r = p_re /. p_im in
        let d = p_im +. (r *. p_re) in
        Array1.unsafe_set xre i (((r *. a_re) +. a_im) /. d);
        Array1.unsafe_set xim i (((r *. a_im) -. a_re) /. d)
      end
    done

  let lu_solve_into ({ mat = m; perm; _ } as lu) ~(b : Vec.t) ~(x : Vec.t) =
    let n = m.nrows in
    if Vec.length b <> n || Vec.length x <> n then
      invalid_arg "Cmat.Big.lu_solve_into: dimension mismatch";
    for i = 0 to n - 1 do
      let p = Array.unsafe_get perm i in
      Array1.unsafe_set x.Vec.re i (Array1.unsafe_get b.Vec.re p);
      Array1.unsafe_set x.Vec.im i (Array1.unsafe_get b.Vec.im p)
    done;
    lu_substitute lu x

  (* Multi-RHS back-solve: [b] and [x] are n×k blocks whose column [r]
     is the r-th right-hand side / solution. The substitution recurrence
     accumulates in place row by row with the RHS index in the innermost
     loop, so for each (i, j) the k column updates read two contiguous
     runs — SIMD-amenable and one pass of the factor per block instead
     of one pass per right-hand side. Per column the operation sequence
     (and so every rounding) is exactly {!lu_solve_into}'s. *)
  let lu_solve_block_into { mat = m; perm; _ } ~b ~x =
    let n = m.nrows in
    let k = b.ncols in
    if b.nrows <> n || x.nrows <> n || x.ncols <> k then
      invalid_arg "Cmat.Big.lu_solve_block_into: dimension mismatch";
    let dre = m.re and dim = m.im in
    let xre = x.re and xim = x.im in
    (* x <- P b *)
    for i = 0 to n - 1 do
      let p = Array.unsafe_get perm i in
      let ri = i * k and rp = p * k in
      for r = 0 to k - 1 do
        Array1.unsafe_set xre (ri + r) (Array1.unsafe_get b.re (rp + r));
        Array1.unsafe_set xim (ri + r) (Array1.unsafe_get b.im (rp + r))
      done
    done;
    (* forward substitution: L y = P b, unit diagonal *)
    for i = 1 to n - 1 do
      let mi = i * n and ri = i * k in
      for j = 0 to i - 1 do
        let l_re = Array1.unsafe_get dre (mi + j)
        and l_im = Array1.unsafe_get dim (mi + j) in
        if l_re <> 0.0 || l_im <> 0.0 then begin
          let rj = j * k in
          for r = 0 to k - 1 do
            let v_re = Array1.unsafe_get xre (rj + r)
            and v_im = Array1.unsafe_get xim (rj + r) in
            Array1.unsafe_set xre (ri + r)
              (Array1.unsafe_get xre (ri + r) -. ((l_re *. v_re) -. (l_im *. v_im)));
            Array1.unsafe_set xim (ri + r)
              (Array1.unsafe_get xim (ri + r) -. ((l_re *. v_im) +. (l_im *. v_re)))
          done
        end
      done
    done;
    (* back substitution: U x = y *)
    for i = n - 1 downto 0 do
      let mi = i * n and ri = i * k in
      for j = i + 1 to n - 1 do
        let u_re = Array1.unsafe_get dre (mi + j)
        and u_im = Array1.unsafe_get dim (mi + j) in
        if u_re <> 0.0 || u_im <> 0.0 then begin
          let rj = j * k in
          for r = 0 to k - 1 do
            let v_re = Array1.unsafe_get xre (rj + r)
            and v_im = Array1.unsafe_get xim (rj + r) in
            Array1.unsafe_set xre (ri + r)
              (Array1.unsafe_get xre (ri + r) -. ((u_re *. v_re) -. (u_im *. v_im)));
            Array1.unsafe_set xim (ri + r)
              (Array1.unsafe_get xim (ri + r) -. ((u_re *. v_im) +. (u_im *. v_re)))
          done
        end
      done;
      let p_re = Array1.unsafe_get dre (mi + i)
      and p_im = Array1.unsafe_get dim (mi + i) in
      if Float.abs p_re >= Float.abs p_im then begin
        let r = p_im /. p_re in
        let d = p_re +. (r *. p_im) in
        for c = 0 to k - 1 do
          let a_re = Array1.unsafe_get xre (ri + c)
          and a_im = Array1.unsafe_get xim (ri + c) in
          Array1.unsafe_set xre (ri + c) ((a_re +. (r *. a_im)) /. d);
          Array1.unsafe_set xim (ri + c) ((a_im -. (r *. a_re)) /. d)
        done
      end
      else begin
        let r = p_re /. p_im in
        let d = p_im +. (r *. p_re) in
        for c = 0 to k - 1 do
          let a_re = Array1.unsafe_get xre (ri + c)
          and a_im = Array1.unsafe_get xim (ri + c) in
          Array1.unsafe_set xre (ri + c) (((r *. a_re) +. a_im) /. d);
          Array1.unsafe_set xim (ri + c) (((r *. a_im) -. a_re) /. d)
        done
      end
    done

  let determinant a =
    if a.nrows <> a.ncols then invalid_arg "Cmat.Big.determinant: non-square matrix";
    match lu_factor a with
    | exception Singular -> Complex.zero
    | { mat = m; sign; _ } ->
        let n = a.nrows in
        let acc_re = ref (if sign >= 0 then 1.0 else -1.0) and acc_im = ref 0.0 in
        for i = 0 to n - 1 do
          let d_re = Array1.get m.re ((i * n) + i)
          and d_im = Array1.get m.im ((i * n) + i) in
          let r = (!acc_re *. d_re) -. (!acc_im *. d_im) in
          acc_im := (!acc_re *. d_im) +. (!acc_im *. d_re);
          acc_re := r
        done;
        Complex.{ re = !acc_re; im = !acc_im }
end
