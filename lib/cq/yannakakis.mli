(** Yannakakis' algorithm over GYO join forests — the classical evaluation
    of acyclic CQs [21], and the LOGCFL witness behind HW(1) (Theorem 3).

    The join forest is the bag tree the shared reducer {!Bag_tree} runs
    on. Unlike the tree-decomposition evaluator, bags here are single
    atoms, so queries like Example 5's guarded cliques (acyclic but of
    unbounded treewidth) are evaluated without materializing |adom|^tw
    bags. *)

open Relational

(** [satisfiable db q ~init]: [Some b] when the query instantiated by [init]
    is acyclic; [None] otherwise. *)
val satisfiable : Database.t -> Query.t -> init:Mapping.t -> bool option

(** [answers db q]: [Some q(D)] when acyclic, [None] otherwise. *)
val answers : Database.t -> Query.t -> Mapping.Set.t option
