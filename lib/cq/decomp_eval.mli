(** Decomposition-based CQ evaluation (the tractable evaluator behind
    Theorems 2, 3, 7, 8, 9 of the paper).

    The decomposition tree is a bag tree for the shared reducer
    {!Bag_tree}: each bag joins the atoms assigned to it, and bag variables
    no assigned atom covers range over the active domain. {!Bag_tree}'s
    upward semijoin pass decides satisfiability; its full reducer plus
    upward join–project computes the answer set. For a query of treewidth
    k the bag relations have at most |adom|^(k+1) rows, giving the
    polynomial bound; on acyclic queries the GYO join forest is used
    directly ({!Yannakakis}), so bags are single atoms. *)

open Relational

(** [satisfiable ?td db q ~init]: is [q] (instantiated by [init]) satisfiable
    in [db]? A tree decomposition of the *instantiated* query may be supplied;
    otherwise the heuristic one is computed. *)
val satisfiable : ?td:Hypergraphs.Tree_decomposition.t -> Database.t -> Query.t -> init:Mapping.t -> bool

(** [answers ?td db q]: the evaluation q(D) via full Yannakakis. *)
val answers : ?td:Hypergraphs.Tree_decomposition.t -> Database.t -> Query.t -> Mapping.Set.t

(** [decision db q h]: is [h ∈ q(D)]? *)
val decision : ?td:Hypergraphs.Tree_decomposition.t -> Database.t -> Query.t -> Mapping.t -> bool
