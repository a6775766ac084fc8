(** Static cost model: worst-case output bounds for a conjunctive body over a
    concrete database, computed from stored statistics only — relation
    cardinalities, per-position distinct counts ({!Database.distinct_count})
    and the active-domain size. No tuple is enumerated.

    Bounds are kept in log10 ([neg_infinity] = provably empty). Four
    independent sound bounds on the number of homomorphisms are combined by
    minimum:

    - the relation product [Π_a |R_a|] (each homomorphism picks one matching
      fact per atom);
    - the variable-domain product [Π_x dom(x)], where [dom(x)] is the least
      distinct-count over the positions [x] occupies;
    - the per-bag guard product over a generalized hypertree decomposition
      ({!Hypergraphs.Hypertree.guard_weight}), searched for width <= 2 on
      small hypergraphs;
    - the trivial [|adom|^nvars].

    The answer bound additionally projects onto the free variables.

    This module is the CQ-level core consumed by {!Wdpt.Optimizer} for
    per-instance strategy selection; [Analysis.Cost] re-exports it and adds
    the WDPT tree classification and JSON rendering. *)

open Relational

type growth =
  | Polynomial of int  (** degree bound in the database size *)
  | Exponential  (** saturated regime: width does not beat [|adom|^nvars] *)

type t = {
  natoms : int;
  nvars : int;
  nfree : int;
  adom : int;
  treewidth : int;
  acyclic : bool;
  ghw_le : int option;  (** least k <= 2 with ghw <= k, when searched *)
  product_bound : float;
  vardom_bound : float;
  decomp_bound : float option;
  adom_bound : float;
  hom_bound : float;
  answer_bound : float;
  growth : growth;
}

(** [analyze db atoms ~free]: statistics are read from [db]; [free] names the
    projection variables (answers are projections of homomorphisms, so
    [answer_bound <= hom_bound]). *)
val analyze : Database.t -> Atom.t list -> free:string list -> t

(** The answer bound as an integer ceiling ([max_int] beyond 10^18),
    comparable against a measured answer count. *)
val bound_count : t -> int

(** log10 of the per-bag materialization cost [(treewidth+1) · log10 |adom|]
    a tree-decomposition evaluation pays — the quantity strategy selection
    compares against the backtracking bounds. *)
val decomp_eval_bound : t -> float
