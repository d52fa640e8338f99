(** The low-rank campaign: one factorization per frequency for every
    view of a multi-configuration campaign.

    Every test configuration differs from the functional circuit only
    in the rows of its follower-mode opamps, so each view's system is
    A_S(jω) = A₀(jω) + E_S·D_S(jω), with E_S the unit columns of those
    rows and D_S their differences. {!build} factors A₀ once per grid
    frequency, back-solves x₀ = A₀⁻¹b, Z = A₀⁻¹E_R (one column per
    updated row) and y = A₀⁻¹u (one per fault or drift stamp pattern)
    as one block, and serves every view through its small capacitance
    matrix K_S = I + D_S·Z_S (Woodbury). A view's four scalars per
    pattern — uᵀx, uᵀw, w[out] and x[out] — then give every fault point
    and every envelope drift in O(1):
    H = x[out] − α·uᵀx/(1 + α·uᵀw)·w[out].

    Each point carries an error bound on its distance from the
    per-view engine's value ({!Fastsim}), and a view whose verdicts
    the bound cannot separate from a threshold or from the
    measurement floor goes through {!Matrix.build} instead, as does
    any view the low-rank path cannot serve at all (DESIGN §16). The
    bound is a first-order error model, not a proof: it does not cover
    the normwise residual the per-view engine's rank-1 gate admits.
    The detect and ω matrices equal those of {!Matrix.build} on every
    circuit tested — the registry and the [lowrank-vs-per-view]
    oracle's fuzz families. *)

module Netlist := Circuit.Netlist

type stats = {
  views : int;  (** views handed in *)
  lowrank_views : int;  (** views decided on the base factorizations *)
  fallbacks : (string * string) list;
      (** every view that went through {!Matrix.build}, in view order:
          its label and why *)
  base_factors : int;  (** factorizations of A₀, one per frequency *)
  capacitance_solves : int;  (** K_S factorizations, one per (view, frequency) *)
  threshold_points : int;  (** O(1) envelope-drift points *)
  fault_points : int;  (** O(1) fault points *)
}

val build :
  base:Netlist.t ->
  ?backend:Fastsim.backend ->
  ?criterion:Detect.criterion ->
  ?jobs:int ->
  Grid.t ->
  Matrix.view list ->
  Fault.t list ->
  Matrix.t * stats
(** The campaign of {!Matrix.build}, with its matrices wherever the
    error model holds (see above). [base]
    is the circuit every view is written against — the functional
    configuration of a multi-configuration campaign. [backend]
    selects the base factorization exactly as it selects a view's
    ({!Fastsim.backend}) and is handed on to the fallback. [jobs]
    spreads frequency blocks over domains; matrices and the counters
    are the same at every worker count.

    A view falls back to {!Matrix.build} when its probe differs from
    the first view's, or its MNA unknowns, its passives, its
    excitation or a higher-order entry differ from the base's; when A₀
    is singular at a grid frequency; when its capacitance matrix is
    singular or ill-conditioned; when a rank-1 denominator is tiny or
    non-finite; when a fault restamps the system (every view falls
    back then); and when a point's margin to a threshold, or its
    nominal magnitude against the measurement floor, lies within the
    bound.

    Books [lowrank.base_factors], [lowrank.capacitance_solves],
    [lowrank.points_thresholds], [lowrank.points_faults] and
    [lowrank.fallback_views]; the fallback's own work books the
    per-view counters. *)

type point = { h : Complex.t; bound : float }
(** A low-rank response value and the bound on its distance from the
    per-view engine's. *)

type view_points =
  | Points of { nominal : point array; faults : point array array }
      (** per grid point; [faults.(j)] is fault [j]'s row *)
  | Skipped of string  (** why the low-rank path does not serve the view *)

val responses :
  base:Netlist.t ->
  Grid.t ->
  Matrix.view list ->
  Fault.t list ->
  view_points array
(** The low-rank nominal and faulty responses of every view with their
    bounds, before any verdict — the quantities {!build} decides from,
    for the differential oracle, on the [Auto] back-end. Not for
    campaigns: it keeps every point. *)

val set_chaos : [ `None | `Capacitance_scale of float ] -> unit
(** Conformance-testing hook. [`Capacitance_scale k] multiplies every
    entry of each view's inverted capacitance matrix by [k] after its
    condition number is taken, so the error bounds stay those of the
    correct solve while the responses go wrong — the silent bug class
    the [lowrank-vs-per-view] oracle must catch. [`None], the default,
    restores correct behaviour; tests that enable it must restore
    [`None] before returning. *)
