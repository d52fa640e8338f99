(** Structural fault-simulation pruning — the paper's future-work
    proposal, implemented.

    Fault simulation of all 2ⁿ−1 test configurations is the flow's
    bottleneck. {!Circuit.Influence} gives, per configuration, a sound
    over-approximation of the elements that can affect the output
    there; a fault on an element outside that set is {e guaranteed}
    undetectable in that configuration, so its faulty sweep can be
    skipped with a free "0" entry. Unlike dropping whole
    configurations (structural reachability does not imply
    detectability!), pair-level pruning never changes the resulting
    matrix — verified by tests. *)

type t = {
  predicted : (int * string list) list;
      (** Per test configuration: the passive elements that could
          possibly affect the output there. *)
  total_pairs : int;  (** (configuration, fault) sweeps without pruning. *)
  pruned_pairs : int;  (** Sweeps skipped as structurally impossible. *)
}

val analyse :
  ?follower_model:Circuit.Element.opamp_model ->
  ?faults:Fault.t list ->
  Multiconfig.Transform.t ->
  t
(** Run the structural pass over every test configuration. [faults]
    defaults to one +20 % deviation per passive. *)

val run :
  ?criterion:Testability.Detect.criterion ->
  ?points_per_decade:int ->
  ?faults:Fault.t list ->
  ?adaptive:bool ->
  ?solve_budget:int ->
  Circuits.Benchmark.t ->
  t * Testability.Matrix.t
(** The economical campaign: the same matrix {!Pipeline.run} would
    produce (same criterion default, same grid), but with structurally
    impossible (configuration, fault) pairs skipped instead of
    simulated. No interval certification runs here: the structural
    pass is the only static filter (see {!Pipeline.run} for why
    certification stays out of campaigns). [adaptive] (default
    [true]) solves the surviving rows through {!Adaptive.build}
    (flip-driven refinement, [solve_budget] per-row cap) instead of
    the exhaustive per-fault sweep. *)
