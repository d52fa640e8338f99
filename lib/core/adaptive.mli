(** Coverage-directed adaptive campaigns (ROADMAP item 5).

    A uniform points-per-decade sweep spends most of its numeric solves
    far from any detectability boundary: inside a deviation region every
    point votes ['d'], outside every point votes ['u'], and only the
    handful of grid points straddling a threshold crossing carry
    information. {!build} runs the same campaign as
    {!Testability.Matrix.build} but coarse-to-fine: each (view × fault)
    row starts at every [stride]-th grid point of the {e final} grid,
    then recursively bisects the intervals whose endpoint verdicts
    disagree (a crossing is known to be inside) {e and} the intervals
    whose endpoint margins sit too close to the threshold for their
    width — under a slope bound of [guard] nepers per decade on the
    log deviation-to-threshold ratio, an interval of width [w] decades
    whose weaker endpoint margin satisfies [min |s_lo| |s_hi| >
    guard·w] (plus the exactly-known movement of the threshold and
    nominal profile inside the interval) cannot hide a crossing.
    Points inside an interval proved crossing-free inherit the shared
    endpoint verdict without being solved. Narrow resonance spikes and
    deviation-zero dips — regions a verdict-only bisection provably
    misses at any points-per-decade — announce themselves through the
    small margins of their shoulders, which is what the guard refines
    toward; points below the view's measurement floor (dead view
    outputs, notch bottoms) are undetectable by definition
    ({!Testability.Detect.measurement_mask}) and act as free static
    ['u'] anchors, so a reconfiguration that disconnects the probed
    output costs zero solves.

    The refinement invariant — the filled-in verdict row equals the
    exhaustive one byte for byte — is empirical, not proved: the slope
    bound is a calibrated constant, not a certificate, and a response
    steeper than [guard] could still hide a crossing. The repo
    therefore treats it like the pruning and certification invariants
    before it: the detect/omega matrices must come out {e bitwise
    identical} to the exhaustive sweep, asserted by the tier-1 tests,
    the [adaptive-vs-exhaustive] fuzz oracle and the bench (DESIGN
    §15). The default guard holds with margin across the registry's
    resonant and notch families at every tested grid density, and
    coarse grids tighten automatically: the bound scales with interval
    width in decades, so fewer points per decade means wider intervals
    and earlier refinement.

    When an {!Analysis.Certify} verdict cube is supplied, its certified
    ['d']/['u'] bytes act as free anchors (they are known without
    solving, and flips against them trigger bisection) and only the
    residual ['?'] points are candidates for numeric solves — the
    static certificates seed the numeric refinement. *)

type stats = {
  rows : int;  (** scored (view × fault) rows *)
  points : int;  (** rows × grid points *)
  certified : int;  (** points taken from the certify cube, never solved *)
  solved : int;  (** points solved numerically *)
  skipped : int;
      (** points filled from equal-verdict interval endpoints —
          [points - certified - solved] *)
  bisections : int;  (** midpoint solves beyond the coarse pass *)
  envelope_solves : int;
      (** point solves spent on the criterion's thresholds (one per
          passive drift and frequency for each envelope criterion, 0
          for fixed thresholds) — the same in an exhaustive campaign,
          since refinement never touches them *)
}

val default_stride : int
(** 8 — the coarse pass samples the final grid every 8th point, i.e. a
    ppd/8 starting grid. Coarse grids stay safe automatically: the
    slope-bound budget scales with interval width in decades, so at low
    points-per-decade nearly every interval fails the skip test and the
    sweep degrades toward exhaustive. *)

val default_guard : float
(** 12.0 nepers/decade (≈ 104 dB/decade) — the assumed bound on how
    fast the log deviation-to-threshold ratio can move along the log
    frequency axis. Calibrated against the registry's sharpest
    resonances (see DESIGN §15); raising it buys safety, lowering it
    buys skipped solves. *)

(** The pure refinement core, factored out so the tier-1 property tests
    can drive it against precomputed exhaustive verdict rows without an
    engine. *)
module Refine : sig
  type outcome = {
    verdicts : Bytes.t;
        (** every byte decided (['d'] or ['u']), length [nf] *)
    solved : int list;  (** indices solved numerically, in solve order *)
    bisections : int;  (** solves issued by interval bisection *)
  }

  val row :
    nf:int ->
    stride:int ->
    step_dec:float ->
    guard:float ->
    steer_range:(int -> int -> float) ->
    certified:(int -> char) ->
    solve:(int -> char * float) ->
    outcome
  (** Refine one verdict row of [nf] grid points. [certified i] is the
      static seed byte for point [i] (['d'], ['u'] or ['?'] — unknown)
      — the certify cube and the measurement mask both arrive through
      it; [solve i] performs the numeric solve and returns its verdict
      byte plus its margin in nepers ({!Testability.Detect.point_margin}
      — sign must agree with the byte; steering only). Solves the
      coarse points (every [stride]-th plus the last) that are not
      already certified, then refines every interval between adjacent
      known points whose verdicts differ or whose weaker endpoint
      margin fails the slope-bound test [min |s_lo| |s_hi| >
      guard·step_dec·(hi-lo) + steer_range lo hi]. [step_dec] is the
      grid step in decades; [steer_range lo hi] (pass
      [fun _ _ -> 0.0] for a flat profile) is the exactly-known
      variation of the margin's static profile over the closed
      interval; a certified anchor or a failed solve ([nan]) carries
      no margin and contributes zero to the test, so refinement stops
      at it rather than skipping past. Raises [Invalid_argument] on [nf <= 0],
      [stride <= 0], negative [step_dec]/[guard] or a byte outside the
      verdict alphabet. *)
end

val build :
  ?backend:Testability.Fastsim.backend ->
  ?certified:Bytes.t option array array ->
  ?criterion:Testability.Detect.criterion ->
  ?jobs:int ->
  Testability.Grid.t ->
  Testability.Matrix.view list ->
  Fault.t list ->
  Testability.Matrix.t * stats
(** Drop-in replacement for {!Testability.Matrix.build} producing
    bitwise-identical matrices from a fraction of the numeric solves.
    Same engine preparation ({!Testability.Matrix.stream}: warmed
    planar/sparse plans, views streamed in windows of one view per
    worker), but scoring fans out over each window's (view × fault)
    rows, each refined sequentially by {!Refine.row} with single-point
    {!Testability.Detect.score_range} solves against the warmed
    read-only plans; only the verdict rows outlive the window.

    [certified] is the {!Analysis.Certify} verdict cube, exactly as
    {!Testability.Matrix.stream} takes it (shape-checked, same
    [certify.solves_skipped]/[certify.cells_proved] accounting); only
    [Pipeline.run ~certify:true] passes one. Every row is refined
    with {!default_stride} and {!default_guard}.

    Counters — incremented sequentially after the parallel scoring
    phase, so they are jobs-invariant by construction:
    [adaptive.solves_skipped] (points filled without solving) and
    [adaptive.bisections]. *)
