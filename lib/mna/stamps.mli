module Netlist := Circuit.Netlist

(** Frequency-split MNA assembly: A(s) = G + sC (+ rare higher-order
    terms).

    Every stamp the assembler produces is affine in the Laplace
    variable, so the system splits into two frequency-independent real
    planes: G (conductances, controlled-source gains, unit entries) and
    C (capacitances, inductances, opamp pole terms). The split is
    computed {e once per netlist} by running the generic stamping
    functor over the polynomial field and reading off the
    s-coefficients of each entry — the numeric and symbolic back-ends
    therefore share one stamping routine and cannot drift apart.

    Forming A(jω) at a sweep point is then a single fused pass over
    the two planes ({!Linalg.Cmat.fill_parts}): no functor
    instantiation, no [array array] round-trip, no per-frequency
    restamping. Entries whose polynomial degree exceeds 1 (none of the
    current element models produce any) are kept exactly in a sparse
    overflow list and evaluated per frequency. *)

type t

val build : ?sources:Assemble.source_mode -> Index.t -> Netlist.t -> t
(** Assemble the split stamps for a netlist under the given source
    mode (default [Nominal]). Same exceptions as {!Assemble.Make}. *)

val size : t -> int
(** The MNA system dimension (nodes + group-2 branches). *)

val fill : t -> omega:float -> Linalg.Cmat.t -> unit
(** Overwrite the given [size t] square matrix with A(jω). Entry
    values match assembling with the complex field at [s = jω] exactly,
    except where several reactive stamps accumulate on one entry —
    there ω(c₁+c₂) replaces ωc₁+ωc₂, a difference of at most one ulp. *)

val matrix : t -> omega:float -> Linalg.Cmat.t
(** Freshly allocated A(jω). *)

val rhs : t -> omega:float -> Linalg.Cmat.vec
(** The excitation vector b(jω) (frequency-independent for all current
    element models, but evaluated generally). *)

val rhs_into : t -> omega:float -> Linalg.Cmat.Pvec.t -> unit
(** Allocation-free {!rhs}: overwrite the caller's planar workspace
    with b(jω). The workspace length must be [size t]. *)

val fill_big : t -> omega:float -> Linalg.Cmat.Big.t -> unit
(** {!fill} onto an off-heap matrix. Same entry values and the same
    ["mna.fills"] counter discipline — one increment per assembled
    A(jω), whichever storage receives it. *)

val rhs_into_big : t -> omega:float -> Linalg.Cmat.Big.Vec.t -> unit
(** {!rhs_into} onto an off-heap vector. *)

type row_update = {
  row : int;  (** the system row that differs *)
  cols : int array;  (** its differing columns, ascending *)
  dg : float array;  (** s⁰ difference per column: this system minus the base *)
  dc : float array;  (** s¹ difference per column *)
}

val row_updates : base:t -> t -> row_update array option
(** The difference A(s) − A_base(s) written as one sparse row update per
    differing row, rows ascending: A(s) = A_base(s) + Σ e_row·(dg + s·dc)ᵀ.
    [None] when the two systems cannot be related that way: different
    dimensions, a different excitation, or a differing entry of
    polynomial degree above 1. Both systems must be built over equal
    indices ({!Index.equal}) for the rows to name the same unknowns. *)

(** {1 Sparse stamps}

    The same split-coefficient assembly delivered straight into a CSC
    pattern over only the stamped positions. Because the callback layer
    of {!Assemble.Make} accumulates in netlist element order, each
    sparse entry holds the {e identical} polynomial the dense build
    computes for that position — the two layouts produce the same
    A(jω) entry-for-entry, with the sparse one simply omitting the
    structural zeros. *)

type sparse

val build_sparse :
  ?sources:Assemble.source_mode -> Index.t -> Netlist.t -> sparse
(** {!build} into sparse storage. Same source-mode semantics and
    exceptions, same ["mna.assemble_s"] timer. *)

val sparse_size : sparse -> int
(** The MNA system dimension. *)

val sparse_pattern : sparse -> Linalg.Csparse.pattern
(** The CSC sparsity pattern of A — fixed per netlist; value planes
    indexed by its slot order. *)

val sparse_nnz : sparse -> int

val fill_sparse :
  sparse -> omega:float -> re:Linalg.Csparse.plane -> im:Linalg.Csparse.plane -> unit
(** Overwrite caller-owned value planes (length {!sparse_nnz}, slot
    order of {!sparse_pattern}) with A(jω). Entry values match
    {!fill} bit-for-bit — same split, same ω scaling, same overflow
    evaluation — and the same ["mna.fills"] counter increment. *)

val sparse_rhs_into_big : sparse -> omega:float -> Linalg.Cmat.Big.Vec.t -> unit
(** {!rhs_into_big} from the sparse build; identical values. *)
