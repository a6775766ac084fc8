(** CQ evaluation guided by a generalized hypertree decomposition — the
    HW(k) evaluation of Theorem 3 for k ≥ 2 (k = 1 is {!Yannakakis}).

    Each decomposition node materializes the join of its ≤ k guard edges'
    atoms and its assigned atoms, projected onto its bag, so the
    materialization cost is bounded by the guards' join sizes instead of
    |adom|^treewidth; the bag relations then form a bag tree evaluated by
    the shared reducer {!Bag_tree}. A guard edge takes every atom whose
    variables lie inside it, so a decomposition of the uninstantiated
    query stays usable under [~init]. *)

open Relational

(** [satisfiable db q ~htd ~init]. The decomposition must be valid for the
    query instantiated by [init] (bags may mention dead variables; they are
    trimmed). *)
val satisfiable :
  Database.t -> Query.t -> htd:Hypergraphs.Hypertree.t -> init:Mapping.t -> bool

(** [answers db q ~htd]. *)
val answers : Database.t -> Query.t -> htd:Hypergraphs.Hypertree.t -> Mapping.Set.t

(** [auto db q ~k ~init]: find a width ≤ k decomposition and evaluate;
    [None] when the query's hypertreewidth exceeds [k]. *)
val auto : Database.t -> Query.t -> k:int -> init:Mapping.t -> bool option
