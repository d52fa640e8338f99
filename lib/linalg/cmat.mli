(** Dense complex matrices and vectors with LU-based solving.

    This is the numeric kernel behind the MNA AC analysis: systems are
    small (tens of unknowns) and dense, so a straightforward
    partial-pivoting LU is both simple and adequate.

    Storage is planar ("split complex"): the real and imaginary planes
    of a matrix are separate unboxed [float array]s, so the O(n³)
    factorization and O(n²) solve/matvec kernels never allocate and
    never chase a [Complex.t] box. The boxed [Complex.t] API remains at
    the edges ([get]/[set]/[of_arrays]/[to_arrays] and the
    [vec]-returning solvers); allocation-free callers use {!Pvec}
    workspaces with the [_into] variants. *)

type vec = Complex.t array

type t
(** A dense [rows x cols] complex matrix. *)

exception Singular
(** Raised by factorization/solve when the matrix is numerically
    singular. *)

val norm2 : float -> float -> float
(** [norm2 re im] is the magnitude of the complex number [re + i·im],
    computed with the same overflow-safe scaling as [Complex.norm].
    Exposed so allocation-free callers score planar components without
    boxing an intermediate [Complex.t]. *)

(** Preallocated planar complex vectors: the workspace type of the
    allocation-free solve API. The [re]/[im] fields are exposed on
    purpose — hot loops index the raw planes directly. Both arrays
    always have the same length. *)
module Pvec : sig
  type t = { re : float array; im : float array }

  val create : int -> t
  (** [create n] is the zero vector of length [n]. *)

  val length : t -> int
  val get : t -> int -> Complex.t
  val set : t -> int -> Complex.t -> unit
  val fill_zero : t -> unit

  val of_complex : Complex.t array -> t
  val to_complex : t -> Complex.t array

  val blit : src:t -> dst:t -> unit
  (** Copy [src] over [dst]; both must have the same length. *)

  val norm_inf : t -> float
  (** Largest element magnitude ([Complex.norm] semantics). *)
end

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val identity : int -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit

val add_to : t -> int -> int -> Complex.t -> unit
(** [add_to m i j v] accumulates [v] into [m.(i).(j)] — the stamping
    primitive used by MNA. *)

val copy : t -> t
val of_arrays : Complex.t array array -> t
val to_arrays : t -> Complex.t array array
val transpose : t -> t
val map : (Complex.t -> Complex.t) -> t -> t
val mul : t -> t -> t
val mul_vec : t -> vec -> vec

val mul_vec_into : t -> x:Pvec.t -> y:Pvec.t -> unit
(** [mul_vec_into a ~x ~y] writes [a·x] into [y] without allocating.
    [x] and [y] must be distinct workspaces of matching dimensions. *)

val scale : Complex.t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t

type lu
(** A partial-pivoting LU factorization of a square matrix. *)

val lu_factor : t -> lu
(** Factorize; raises {!Singular} when a pivot is (numerically) zero.
    The input matrix is not modified. *)

val lu_solve : lu -> vec -> vec
(** Solve [A x = b] for a previously factorized [A]. *)

val lu_solve_into : lu -> b:Pvec.t -> x:Pvec.t -> unit
(** Allocation-free [lu_solve]: solves into the caller-supplied
    workspace [x]. [b] is not modified; [b] and [x] must be distinct
    (aliasing them corrupts the permutation step). Arithmetic is
    identical to {!lu_solve} — both share one substitution core. *)

val solve : t -> vec -> vec
(** One-shot [solve a b]; factorizes internally. *)

val determinant : t -> Complex.t
(** Determinant via LU; [Complex.zero] for singular matrices. *)

val inverse : t -> t
(** Matrix inverse; raises {!Singular}. *)

val residual_norm : t -> vec -> vec -> float
(** [residual_norm a x b] is the infinity norm of [a*x - b]; used by
    tests and by the solver's optional iterative refinement. *)

val norm_inf : t -> float
(** Maximum absolute row sum. *)

val fill_parts : t -> re:float array -> im_scale:float -> im:float array -> unit
(** [fill_parts m ~re ~im_scale ~im] overwrites every entry of [m]
    (row-major) with [re.(k) + i * im_scale * im.(k)] in one fused
    pass. This is the hot path of the split MNA assembly, forming
    A(jω) = G + jωC from two real stamp planes without touching the
    stamping code. Both arrays must have exactly [rows * cols]
    elements. With planar storage this is a blit of the real plane and
    one scaling pass over the imaginary plane. *)

val pp : Format.formatter -> t -> unit

(** Off-heap planar kernels: the same split re/im layout and the exact
    same arithmetic as the float-array kernels above, but with the
    planes stored in [Bigarray.Array1] (C layout, float64) outside the
    OCaml heap. The GC never scans them, so a campaign whose hot state
    lives here adds nothing to the marking work of a collection and
    gives OCaml 5's stop-the-world minor GC nothing to stop the world
    for. All kernels are verbatim ports of the float-array versions —
    same formulas, same loop order, same pivoting — and therefore
    produce bitwise-identical results (enforced by qcheck equivalence
    tests); the float-array path remains the differential reference. *)
module Big : sig
  type plane = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  (** Off-heap planar vectors; the [Big] analogue of {!Pvec}. *)
  module Vec : sig
    type t = { re : plane; im : plane }

    val create : int -> t
    (** [create n] is the zero vector of length [n]. *)

    val length : t -> int
    val get : t -> int -> Complex.t
    val set : t -> int -> Complex.t -> unit
    val fill_zero : t -> unit
    val blit : src:t -> dst:t -> unit
    val of_complex : Complex.t array -> t
    val to_complex : t -> Complex.t array
    val of_pvec : Pvec.t -> t
    val to_pvec : t -> Pvec.t

    val norm_inf : t -> float
    (** Largest element magnitude ([Complex.norm] semantics). *)
  end

  type t
  (** A dense [rows x cols] off-heap complex matrix. *)

  val create : int -> int -> t
  (** [create rows cols] is the zero matrix. *)

  val rows : t -> int
  val cols : t -> int

  val re_plane : t -> plane
  val im_plane : t -> plane
  (** The raw row-major storage planes — for kernels outside this
      module (the sparse back-end) that stream whole blocks. *)

  val get : t -> int -> int -> Complex.t
  val set : t -> int -> int -> Complex.t -> unit

  val add_to : t -> int -> int -> Complex.t -> unit
  (** Accumulate — the stamping primitive, as in the heap API. *)

  val blit : src:t -> dst:t -> unit
  val copy : t -> t

  val fill_parts : t -> re:float array -> im_scale:float -> im:float array -> unit
  (** As the heap {!fill_parts}: overwrite row-major with
      [re.(k) + i·im_scale·im.(k)] in one fused pass. *)

  val norm_inf : t -> float

  val mul_vec_into : t -> x:Vec.t -> y:Vec.t -> unit
  (** [y <- A·x], zero allocation; [x] and [y] must be distinct. *)

  type csr
  (** A compressed-row copy of a square matrix: row pointers, column
      indices and re/im values of every entry that is not +0 in both
      planes (a −0 entry is kept, so the copy is lossless). *)

  val csr_of : t -> csr
  (** Compress a square matrix (two passes, no intermediate lists).
      Raises [Invalid_argument] on a non-square matrix. *)

  val csr_nnz : csr -> int
  (** Number of stored entries. *)

  val csr_dense_into : csr -> t -> unit
  (** Overwrite a square matrix of the same dimension with the
      compressed one — bitwise the matrix {!csr_of} read. *)

  val csr_mul_vec_into : csr -> x:Vec.t -> y:Vec.t -> unit
  (** [y <- A·x] in O(nnz + n). For an [x] whose entries are all
      finite the result is bitwise {!mul_vec_into}'s on the source
      matrix: each row adds the same products in the same column
      order, and a skipped term is ±0, which leaves an accumulator
      that starts at +0 unchanged. A non-finite [x] entry can differ
      (the dense loop forms 0·∞ = NaN). [x] and [y] must be distinct. *)

  type lu
  (** A reusable LU workspace. Unlike the heap {!lu_factor} (which
      allocates a fresh factor per call), a [Big.lu] owns its factor
      storage: sweeps call {!lu_factor_into} once per frequency point
      on the same workspace and allocate nothing. *)

  val lu_create : int -> lu
  (** Workspace for [n x n] factorizations. *)

  val lu_dim : lu -> int

  val lu_factor_into : lu -> t -> unit
  (** Factorize [a] into the workspace (the input is not modified).
      Raises {!Singular} exactly when the heap kernel would. *)

  val lu_factor : t -> lu
  (** One-shot convenience: [lu_create] + [lu_factor_into]. *)

  val lu_solve_into : lu -> b:Vec.t -> x:Vec.t -> unit
  (** Allocation-free solve into [x]; [b] unmodified, [b] and [x]
      distinct. Bitwise-identical to the heap {!lu_solve_into}. *)

  val lu_solve_block_into : lu -> b:t -> x:t -> unit
  (** Multi-RHS back-solve: [b] and [x] are [n x k] blocks whose
      columns are the right-hand sides / solutions ([n] = system
      dimension, [k] = block width, element [(i, r)] at offset
      [i*k + r]). One pass over the factor serves all [k] columns —
      the factor stays hot in cache and the innermost loop runs
      contiguously over the block — while each column's operation
      order (hence every rounding) is exactly {!lu_solve_into}'s, so
      results are bitwise-equal to [k] scalar solves. [b] and [x] must
      be distinct. *)

  val determinant : t -> Complex.t
  (** Determinant via LU; [Complex.zero] for singular matrices. *)
end
