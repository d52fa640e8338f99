(** End-to-end flow on a benchmark circuit: multi-configuration
    transform → fault-simulation campaign over every test configuration
    → detectability matrices → ordered-requirements optimization.

    This is the programmatic equivalent of the paper's experimental
    procedure, with our MNA engine standing in for HSPICE. *)

type t = {
  benchmark : Circuits.Benchmark.t;
  dft : Multiconfig.Transform.t;
  grid : Testability.Grid.t;
  criterion : Testability.Detect.criterion;
  faults : Fault.t list;
  matrix : Testability.Matrix.t;
      (** Rows are the test configurations C₀ … C_{2ⁿ-2} in index
          order; ω values in [0, 1]. Always full-height: pruned rows
          are replicated from their group representative. *)
  input : Optimizer.input;  (** Same data, ω in percent. *)
  equivalence_groups : int;
      (** Number of value-distinct classes of live configurations
          simulated. *)
  pruned_configs : int;
      (** Configurations whose rows were replicated instead of
          simulated ([live views − equivalence_groups]; 0 with
          [~prune:false]). Structurally dead views are neither
          simulated nor counted here. *)
  certify : Analysis.Certify.t option;
      (** The interval-certification result over the representative
          views, when [~certify:true] was asked for and the criterion
          is certifiable ([Fixed_tolerance] with ε > 0); [None]
          otherwise, which includes every default run. *)
  adaptive : Adaptive.stats option;
      (** Solve accounting of an {!Adaptive.build} campaign. {!run}
          never drives one and leaves it [None]; the field stays for
          tools that replay {!Adaptive.build} into this record. *)
}

val default_criterion : Testability.Detect.criterion
(** [Process_envelope { component_tol = 0.04; floor = 0.02 }] — the
    calibrated criterion under which our simulated biquad lands in the
    paper's regime (low functional coverage, 100 % with DFT, two
    2-configuration optima; see DESIGN.md §5). Pass
    [Fixed_tolerance 0.10] for the paper's literal Definition 1. *)

val run :
  ?criterion:Testability.Detect.criterion ->
  ?points_per_decade:int ->
  ?faults:Fault.t list ->
  ?follower_model:Circuit.Element.opamp_model ->
  ?jobs:int ->
  ?backend:Testability.Fastsim.backend ->
  ?prune:bool ->
  ?certify:bool ->
  ?adaptive:bool ->
  Circuits.Benchmark.t ->
  t
(** Defaults: {!default_criterion}, the paper's +20 % deviation fault
    per passive component, and a grid spanning two decades either side
    of the benchmark's centre frequency with [points_per_decade]
    (default 30) points per decade. [follower_model] emulates
    follower-mode opamps as finite-GBW unity buffers instead of ideal
    ones (see {!Multiconfig.Transform.emulate}); [jobs] parallelizes
    the campaign across domains; [backend] selects the factorization
    ({!Testability.Fastsim.backend}, default [Auto]) of the base
    system and of every per-view engine.

    Every view where the test input cannot structurally reach the
    output ({!Circuit.Influence}, lint C003) gets an all-undetectable
    row with ω 0 before any simulation, on either path: its
    transfer function is identically zero.

    The CLI runs every campaign with the defaults of [backend],
    [prune], [certify] and [adaptive]. The non-default values select
    reference paths for tests, the conformance oracles and the
    measurement tools: [~prune:false ~adaptive:false] is the exhaustive
    per-view reference the campaign benchmark checks against, and a
    forced [backend] compares the dense and sparse engines.

    [adaptive] (default [true]) chooses the default campaign,
    {!Testability.Lowrank.build}: one factorization of the functional
    configuration per frequency serves every test configuration, and
    any view its error bound cannot decide goes through the per-view
    engine. [~adaptive:false] runs the per-view reference,
    {!Testability.Matrix.build}, on every live representative. The
    matrices are bitwise identical either way on every circuit tested;
    the low-rank error bound is a first-order model, not a proof
    (DESIGN §16). (The name predates the
    low-rank campaign; {!Adaptive.build} is no longer on this path.)

    [prune] (default [true]) simulates one representative per class of
    live configurations whose assembled systems are value-identical up
    to row sign with every fault-touched row locked
    ({!Analysis.Lint.equivalence_groups}) and replicates the
    representative's verdict rows — the resulting matrix is exactly
    the unpruned one. The skipped work is counted in
    {!field:pruned_configs} and in the [campaign.pruned_configs]
    metric; pass [~prune:false] to force every row through the
    solver.

    [certify] (default [false]) runs {!Analysis.Certify} over the
    representative views when the criterion is a [Fixed_tolerance] and
    stores the result in {!field:certify}. Neither path consumes the
    certificates, so the matrices do not depend on it. It is off by
    default because it does not pay: on the twelve small registry
    circuits at fixed:0.1 (2-core x86-64 container) the interval pass
    took ~2.4 s of a ~3.4 s campaign. The argument stays for callers
    that want the certificates alongside the matrices, among them the
    campaign benchmark ([perfbench/]); [mcdft certify] and lint
    F002/P002 call {!Analysis.Certify} directly. *)

type campaign_stats = {
  dead_views : string list;
      (** labels of the structurally dead views, in view order *)
  lowrank : Testability.Lowrank.stats option;
      (** the low-rank campaign's accounting; [None] with
          [~adaptive:false] *)
}

val run_with_stats :
  ?criterion:Testability.Detect.criterion ->
  ?points_per_decade:int ->
  ?faults:Fault.t list ->
  ?follower_model:Circuit.Element.opamp_model ->
  ?jobs:int ->
  ?backend:Testability.Fastsim.backend ->
  ?prune:bool ->
  ?certify:bool ->
  ?adaptive:bool ->
  Circuits.Benchmark.t ->
  t * campaign_stats
(** {!run}, with the campaign's accounting — what [mcdft matrix] and
    [mcdft optimize --json] summarize. *)

val optimize : ?petrick_limit:int -> ?n_detect:int -> t -> Optimizer.report

val functional_results : t -> Testability.Detect.result list
(** Per-fault results in the functional configuration C₀ alone —
    the paper's Section 2 analysis (Graph 1). *)
