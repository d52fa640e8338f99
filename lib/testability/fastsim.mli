module Netlist := Circuit.Netlist

(** The fault-simulation campaign engine.

    A campaign evaluates one circuit view against many faults on a
    shared frequency grid. The naive cost is a full assembly and an
    O(n³) factorization per (fault, frequency); this engine removes
    both levels of redundancy:

    - the fault-free system is split-assembled once ({!Mna.Stamps})
      and LU-factorized once per frequency, yielding the nominal
      response as a by-product;
    - a single-element deviation (or open/short replacement) of a
      passive R, C or L perturbs the MNA matrix by a rank-1 term
      α(ω)·uvᵀ with u, v sparse ±1 patterns, so each faulty solve is
      a Sherman–Morrison update against a cached A⁻¹u back-solve w —
      O(nnz + n) per point, where nnz counts the stored entries of
      A(jω) — polished when needed by one step of iterative
      refinement (an O(n²) back-solve); the A⁻¹u back-solves are
      cached across faults sharing a stamp pattern (e.g. the ±20 %
      pair on one component), and {!warm_cache} stores all of one
      frequency's in a single contiguous slab;
    - every update is verified by a residual check, b − A_f x_f,
      computed over the stored entries only (a compressed-row copy of
      A(jω) on the dense back-end, bitwise equal to the dense product
      for the finite candidates the check admits); a non-finite or
      ill-conditioned update falls back to a full refactorization of
      the perturbed matrix, and a structural fault (e.g. an inductor
      open, which changes the system dimension) falls back to a fresh
      split assembly. Either way the result matches the naive path to
      round-off.

    The engine state is planar and off-heap ({!Linalg.Cmat.Big}: re/im
    planes in Bigarray storage the GC never scans), and the rank-1 hot
    path allocates zero GC-visible words proportional to the system:
    solve buffers live in a per-domain scratch workspace (domain-local
    storage), so an engine may be shared by several workers — stats
    counters are atomic and cached back-solves are read under a
    freshness CAS. Under OCaml 5's stop-the-world minor GC this is
    what lets campaign domains scale: a warmed campaign's numeric
    state contributes nothing to any collection. The one mutating
    operation is the w-cache insertion on a cache miss, which is only
    safe while the engine is confined to a single domain; parallel
    analysis must call {!warm_cache} with its fault list first so that
    every lookup during the parallel phase is read-only. *)

type t

type backend = Dense | Sparse | Auto
(** Which factorization serves the fault-free system. [Dense]: the
    planar off-heap LU ({!Linalg.Cmat.Big}) — O(n²) state and O(n³)
    factorization per frequency. [Sparse]: Markowitz-ordered sparse LU
    ({!Linalg.Csparse}) — one symbolic analysis per netlist, a numeric
    refactorization per frequency, state proportional to the stamped
    entries plus fill. [Auto] (the default) picks sparse only when the
    dimension reaches the crossover (n ≥ 64) {e and} the stamped
    density stays below n²/8 — in particular every circuit below the
    crossover keeps the dense path and its exact bitwise behaviour.
    Either way results agree to solver rounding: the Sherman–Morrison
    update, its residual gate and the full-refactorization fallback
    are backend-independent. *)

val auto_picks_sparse : n:int -> nnz:int -> bool
(** [Auto]'s choice for a system of dimension [n] with [nnz] stamped
    entries: [true] for the sparse back-end. *)

val create :
  ?backend:backend ->
  source:string ->
  output:string ->
  freqs_hz:float array ->
  Netlist.t ->
  t
(** Build the engine for one view: index, split stamps, and one
    factorization + nominal solve per frequency. Raises
    {!Mna.Ac.Singular_circuit} if the fault-free system is singular at
    some grid frequency, like {!Mna.Ac.sweep}. *)

val uses_sparse : t -> bool
(** Whether the engine factored through the sparse back-end (resolves
    [Auto]); for benches, metrics and tests. *)

val nominal : t -> Complex.t array
(** The fault-free transfer at every grid frequency (equal to
    {!Mna.Ac.sweep} on the same grid). *)

val warm_cache : t -> Fault.t list -> unit
(** Precompute the cached A⁻¹u back-solve for every rank-1 fault in
    the list at every grid frequency, so subsequent {!response} calls
    never insert into the cache and the engine can be shared across
    domains. Warmed entries do not disturb the [wcache_hits/misses]
    accounting: each warmed entry books exactly one miss when it is
    first read, just as the lazy path books one at insertion — totals
    are identical to single-domain lazy operation and invariant under
    the parallel schedule. Unknown elements are skipped (the matching
    {!response} call still raises). *)

val cached_w : t -> Fault.t -> int -> Complex.t array option
(** [cached_w t fault i] is the cached A⁻¹u back-solve a rank-1
    [fault] reads at grid index [i], whether {!warm_cache} stored it
    or a lazy cache miss did; [None] when the cache holds none or the
    fault is not rank-1. Books no hit or miss — for tests that pin
    the cache contents. *)

val response : t -> Fault.t -> Complex.t option array
(** The faulty transfer at every grid frequency; [None] where the
    faulty system is singular (the naive path's
    [Singular_circuit]-per-point outcome). Raises
    {!Fault.Unknown_element} when the fault's element is absent from
    the netlist, like {!Fault.inject}. Equivalent to {!plan_of} + a
    full-range {!response_range_into}. *)

val dim : t -> int
(** The MNA system dimension — for callers sizing work estimates. *)

val n_freqs : t -> int
(** Number of grid frequencies (the length of {!nominal} and of
    response rows). *)

type plan
(** A fault prepared for simulation: classification (unchanged /
    rank-1 / structural) plus any per-fault state (a structural
    fault's split-assembled stamps). Plans are immutable and safe to
    share across domains; all mutable solve state is per-domain. *)

val plan_of : t -> Fault.t -> plan
(** Classify and prepare one fault. Structural faults book their
    [fastsim.structural_faults] increment (and their assembly) here,
    once per plan — so build each (engine, fault) plan once. Raises
    {!Fault.Unknown_element} like {!response}. *)

type update =
  | No_change  (** the fault leaves the system as it is *)
  | Rank_one_update of { u : (int * float) list; alpha_g : float; alpha_c : float }
      (** ΔA(s) = (alpha_g + s·alpha_c)·u·uᵀ, with [u] a sparse ±1
          pattern of (row, sign) pairs *)
  | Restamp  (** anything else: the system must be assembled afresh *)

val classify_update : Mna.Index.t -> Netlist.t -> Fault.t -> update
(** How a fault changes the MNA system of [netlist] over [index] — the
    same classification {!plan_of} makes, without building any state.
    Raises {!Fault.Unknown_element} like {!plan_of}. *)

val smw_tolerance : float
(** 1e-9 — the normwise relative residual up to which a rank-1 update
    is accepted (after at most one refinement step) before the engine
    refactorizes the perturbed matrix instead. *)

val response_range_into :
  t ->
  plan ->
  lo:int ->
  hi:int ->
  re:float array ->
  im:float array ->
  ok:Bytes.t ->
  unit
(** [response_range_into t plan ~lo ~hi ~re ~im ~ok] writes the faulty
    transfer for grid indices [lo .. hi-1] into slots [lo .. hi-1] of
    the planar row buffers: [re]/[im] hold the response, [ok.(i)] is
    ['\001'] for a valid point and ['\000'] where the faulty system is
    singular ({!response}'s [None]). Buffers must extend to at least
    [hi]; slots outside the range are untouched, so campaign workers
    can fill disjoint frequency blocks of one row concurrently. Values
    are bitwise-identical to {!response} — this is the same solver
    walked over a sub-range, writing planar output instead of boxing
    per-point [Complex.t option]s. *)

val set_chaos : [ `None | `Smw_denominator of float ] -> unit
(** Conformance-testing hook. [`Smw_denominator k] multiplies the
    Sherman–Morrison update denominator by [k] {e and} bypasses the
    residual guard, simulating the silent-wrong-answer bug class the
    differential oracles must catch (see {!Conformance.Oracle}).
    [`None] — the default — restores correct behaviour. Tests that
    enable it must restore [`None] before returning. *)

val stats : t -> int * int
(** [(smw, full)]: faulty point-solves served by the rank-1 update vs
    by a full assembly/refactorization (fallbacks and structural
    faults). For benches and tests.

    When {!Obs.Metrics} is enabled the same events are mirrored into
    the global registry — [fastsim.smw_solves] and
    [fastsim.full_solves] totals across all engines equal the
    per-engine [stats] sums exactly — alongside
    [fastsim.refine_steps], [fastsim.structural_faults],
    [fastsim.wcache_hits] and [fastsim.wcache_misses]. Increments are
    batched in per-domain locals and flushed (into the atomics and the
    registry together) when each {!response} /
    {!response_range_into} / {!warm_cache} call returns, so totals are
    exact at every call boundary without paying one sharded-counter
    operation per solve. *)
