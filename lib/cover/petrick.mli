(** Petrick's method: expand the product-of-sums ξ into a sum of
    products. Every product term is a configuration set satisfying the
    fundamental requirement (maximum fault coverage).

    Multiplicity clauses (need > 1) distribute over their
    [need]-element literal subsets: any solution contains at least one
    such subset in full. An unsatisfiable clause ([cardinal lits <
    need]) has no subsets, so both expansions return [] — ξ ≡ 0;
    feasibility should be checked up front via
    {!Clause.infeasible_tags} where that matters.

    Two variants are exposed because the paper's worked example (§4.1)
    develops ξ applying idempotence but {e not} absorption — its five
    product terms include absorbable ones like C1·C2·C5 ⊃ C1·C2.

    Representation: when every literal is in [0, Sys.int_size - 2]
    (0 … 61 on 64-bit hosts) a term is packed into one [int], bit i
    standing for candidate i. Distribution is then [lor], deduplication
    a hash table on ints keeping first occurrences, and the absorption
    test [a land lnot b = 0]; terms become {!Clause.IntSet.t} once, at
    the end. This always holds on the optimizer's path, which only
    expands ξ for at most [petrick_limit] (5) opamps, i.e. 31
    candidates. Other inputs run the same algorithm on
    {!Clause.IntSet.t} terms ({!Sets}). Both give equal lists, in
    order and content. *)

val expand_raw : Clause.t -> Clause.IntSet.t list
(** Distribute, apply idempotence (x·x = x) and drop duplicate terms,
    but keep absorbable terms — reproduces the paper's ξ expression
    verbatim. Terms are ordered by the derivation (clause order), then
    deduplicated keeping first occurrences. Exponential in the worst
    case; intended for paper-scale instances. *)

val expand : Clause.t -> Clause.IntSet.t list
(** Full Petrick expansion with absorption: the result is the antichain
    of all minimal (irredundant) covers, sorted by cardinality then
    lexicographically. *)

val cheapest : ?cost:(int -> float) -> Clause.IntSet.t list -> Clause.IntSet.t list
(** The terms of minimum total cost (default cost: 1 per candidate,
    i.e. cardinality) — the paper's 2nd-order selection. Returns all
    ties. *)

(** The {!Clause.IntSet.t}-term implementation, for systems with a
    literal outside the bitmask range and as the reference the bitmask
    one is tested against. *)
module Sets : sig
  val expand_raw : Clause.t -> Clause.IntSet.t list
  val expand : Clause.t -> Clause.IntSet.t list
end
