(** Configuration → opamp mapping for the partial-DFT optimization
    (paper §4.3, Table 3).

    Configuration index [i] puts opamp [k] (0-based) in follower mode
    iff bit [k] of [i] is set; a configuration therefore {e requires}
    exactly the configurable opamps named by its set bits. Substituting
    each configuration of a ξ product term by its opamp set turns ξ
    into ξ*, whose terms count configurable opamps instead of test
    configurations. *)

val opamps_of_config : int -> Clause.IntSet.t
(** The 0-based opamp positions a configuration requires — the set bits
    of its index. C₀ needs none. *)

val opamps_of_term : Clause.IntSet.t -> Clause.IntSet.t
(** Union over the configurations of a product term — computed as the
    set bits of the [lor] of its configuration indices. Raises
    [Invalid_argument] on a negative index, like {!opamps_of_config}. *)

val xi_star : Clause.IntSet.t list -> Clause.IntSet.t list
(** Map every ξ term, keeping duplicates — the paper's raw ξ*
    expression. *)

val minimal_opamp_sets : Clause.IntSet.t list -> Clause.IntSet.t list
(** The distinct opamp sets of minimum cardinality among the mapped
    terms — the partial-DFT optima. *)
