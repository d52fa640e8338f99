module Netlist := Circuit.Netlist
module Element := Circuit.Element
(** Unknown-vector indexing for Modified Nodal Analysis.

    The MNA unknown vector stacks one voltage per non-ground node and
    one branch current per "group-2" element (independent and
    controlled voltage sources, inductors, opamp outputs). The index is
    built once per netlist and shared by the numeric and symbolic
    assemblers. *)

type t

val build : Netlist.t -> t

val size : t -> int
(** Total number of unknowns. *)

val node : t -> string -> int option
(** Index of a node voltage; [None] for ground. Raises
    [Invalid_argument] for a node absent from the netlist. *)

val branch : t -> string -> int
(** Index of the branch current of element [name]; raises [Not_found]
    when the element carries no branch-current unknown. *)

val has_branch : t -> string -> bool
val node_names : t -> string array
(** Node names in index order (indices [0 .. n_nodes-1]). *)

val n_nodes : t -> int

val needs_branch : Element.t -> bool
(** Whether this element type contributes a branch-current unknown. *)

val equal : t -> t -> bool
(** Whether two indices order the same unknowns identically: the same
    node names at the same positions and the same branch-current
    unknowns at the same positions. Systems over equal indices can be
    compared entry by entry. *)
