module Netlist := Circuit.Netlist

(** The fault detectability matrix (paper Figure 5) and its
    ω-detectability companion (paper Table 2).

    Rows are circuit {e views} — in the paper, the DFT test
    configurations C₀…C₆ — and columns are faults. The module is
    deliberately independent of how views are produced: the
    multi-configuration transform supplies them, but any family of
    netlists sharing the faulty elements works (e.g. different probe
    points). *)

type view = { label : string; netlist : Netlist.t; probe : Detect.probe }

type t = {
  views : view array;
  faults : Fault.t array;
  detect : bool array array;  (** [detect.(i).(j)]: fault j detectable in view i. *)
  omega : float array array;  (** ω-detectability of fault j in view i. *)
}

val build :
  ?backend:Fastsim.backend ->
  ?criterion:Detect.criterion -> ?jobs:int -> Grid.t -> view list -> Fault.t list -> t
(** Run the full fault simulation campaign: one nominal sweep plus one
    faulty sweep per (view, fault) pair. Views stream through
    {!stream}; each window's rows are scored over (view × fault-chunk
    × frequency-block) tasks and reduced before the next window is
    prepared. [jobs] > 1 distributes the work across that many domains;
    results are identical to a sequential run. [backend]
    selects the per-view factorization ({!Fastsim.backend}, default
    [Auto]). Every (view, fault, frequency) point is solved. *)

type prepared = {
  index : int;  (** the view's position in the campaign's view array *)
  pv : Detect.prepared_view;
      (** engine, thresholds and back-solve cache, warmed for every
          fault the view still has to score *)
  cert : Bytes.t option array;
      (** the view's row of the certified verdict cube, one per fault
          (all [None] without a cube) *)
  plans : Fastsim.plan option array;
      (** one per fault; [None] for a fully certified cell, which is
          never scored *)
  point_ns : float;
      (** rough cost of one warmed rank-1 point solve on this view —
          an order of magnitude for the scheduler's work estimates *)
}
(** One view readied for scoring: everything a campaign driver needs,
    immutable from here on, so any number of domains may score its
    rows concurrently. *)

val stream :
  ?backend:Fastsim.backend ->
  ?certified:Bytes.t option array array ->
  ?criterion:Detect.criterion ->
  jobs:int ->
  Grid.t ->
  view array ->
  Fault.t array ->
  (prepared array -> unit) ->
  int
(** The per-view preparation both campaign drivers ({!build} and
    [Core.Adaptive.build]) share. Views are walked in order, in windows
    of [Util.Parallel.effective_jobs jobs] views: each window's views
    are prepared in parallel ({!Detect.prepare_view} warmed for the
    faults left to score, then the plans) and handed to the scoring
    callback, after which the window is dropped. A view therefore
    lives from preparation through the scoring of all its rows, and
    peak memory is bounded by the worker count, not the number of
    views. The callback runs on the calling domain, once per window,
    in view order; it may fan out itself.

    [certified] is a per-[view][fault] cube of statically certified
    verdict bytes (['d' | 'u' | '?'] per grid point, see
    [Analysis.Certify.verdict_cube]), computed by the caller against
    the same views, faults, grid and criterion. A fully certified
    (view, fault) cell gets neither a warmed cache nor a plan, and
    the cube's certified points are booked as
    [certify.solves_skipped] (plus [certify.cells_proved] per fully
    certified cell), sequentially before any preparation so the
    counters are jobs-invariant; the callback must take those
    verdicts from the cube instead of scoring them. Returns the number
    of certified grid points in the cube (0 without one). Raises
    [Invalid_argument] on a cube shape mismatch, and like
    {!Detect.prepare_view}. *)

val n_views : t -> int
val n_faults : t -> int

val detectable_anywhere : t -> int -> bool
(** Whether fault [j] is detectable in at least one view. *)

val max_fault_coverage : t -> float
(** Fraction of faults detectable in at least one view — the maximum
    fault coverage achievable by any configuration set. *)

val coverage_of_view : t -> int -> float
(** Fault coverage of a single view. *)

val best_omega_det : t -> int -> float
(** Max over views of the ω-detectability of fault [j]. *)

val best_omega_det_over : t -> int list -> int -> float
(** Max over the given view subset. *)

val average_best_omega_det : ?views:int list -> t -> float
(** The paper's ⟨ω-det⟩ figure of merit: each fault tested in its best
    view among [views] (default: all), averaged over faults. *)

val column : t -> int -> bool array
val row : t -> int -> bool array
