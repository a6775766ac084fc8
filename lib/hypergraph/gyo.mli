(** GYO reduction: α-acyclicity test and join-tree construction.

    A hypergraph is α-acyclic iff repeated application of (1) removing vertices
    occurring in a single edge and (2) removing edges contained in other edges
    empties it. α-acyclicity coincides with generalized hypertreewidth 1 (the
    class [HW(1) = AC] of the paper). *)


(** A join forest over the original edge indices: [parents] maps each
    non-root edge index to its parent edge index; [roots] are the roots (one
    per connected component). The join-tree property holds: for any two edges
    sharing a vertex, the path between them carries the shared vertices. *)
type join_forest = {
  parents : (int * int) list;
  roots : int list;
}

val is_acyclic : Hypergraph.t -> bool

(** [join_forest hg] is [Some jf] iff [hg] is α-acyclic. Edges are indexed by
    their position in [Hypergraph.edges hg]. *)
val join_forest : Hypergraph.t -> join_forest option

(** [is_join_forest hg jf] validates the running-intersection property. *)
val is_join_forest : Hypergraph.t -> join_forest -> bool

