(** WB(k)-approximations of WDPTs (Section 5.2).

    An approximation of [p] is a WDPT [p' ∈ WB(k)] with [p' ⊑ p] such that no
    [p'' ∈ WB(k)] satisfies [p' ⊏ p'' ⊑ p]. Theorem 14 shows approximations
    always exist and may be exponentially larger than [p] (Figure 2 /
    Theorem 15).

    This module implements the constructive search used in practice: starting
    from [p], apply ⊑-decreasing moves — merging two variables (fixing free
    ones), dropping a leaf node, collapsing a node into its parent — each of
    which yields a WDPT subsumed by the previous one; collect the in-class
    results and keep the ⊑-maximal ones. On single-node WDPTs this coincides
    with the complete quotient search for CQ approximations [4]. For general
    WDPTs the paper's Figure 2 shows that optimal approximations can require
    *growing* the tree (copying instantiated atoms into a node), which no
    size-decreasing search reaches; such cases are covered by the explicit
    Figure-2 construction in the workload library and quantified in the
    benchmarks. *)

(** One ⊑-decreasing move applied to a WDPT. *)
type move =
  | Merge of string * string  (** rename first variable to second *)
  | Drop_leaf of int
  | Collapse of int           (** merge node into its parent *)

(** All applicable moves. *)
val moves : Pattern_tree.t -> move list

(** [apply p m] performs the move; [None] if the result would not be
    well-designed. *)
val apply : Pattern_tree.t -> move -> Pattern_tree.t option

(** [candidates ~in_class p]: in-class WDPTs reachable by moves, pruned below
    in-class results (sound for maximality because moves are ⊑-decreasing). *)
val candidates : in_class:(Pattern_tree.t -> bool) -> Pattern_tree.t -> Pattern_tree.t list

(** [select cands]: the ⊑-maximal members of [cands] in their order, each
    kept only when no member kept before it is ≡ₛ to it. Each candidate is
    frozen at most once ({!Subsumption.canon}) and each ordered pair decided
    at most once, shared by the maximality filter and the deduplication. *)
val select : Pattern_tree.t list -> Pattern_tree.t list

(** [approximations ~in_class p = select (candidates ~in_class p)]: the
    ⊑-maximal candidates, deduplicated up to ≡ₛ. *)
val approximations :
  in_class:(Pattern_tree.t -> bool) -> Pattern_tree.t -> Pattern_tree.t list

(** [wb_approximations ~width ~k p] with [width ∈ {Tw, Hw'}]. *)
val wb_approximations :
  width:Classes.width -> k:int -> Pattern_tree.t -> Pattern_tree.t list

(** [is_approximation ~in_class p' p]: the WB(k)-APPROXIMATION decision
    problem of Proposition 8, relative to the candidate space: checks
    [p' ∈ class], [p' ⊑ p], and that no candidate strictly between them
    exists. *)
val is_approximation :
  in_class:(Pattern_tree.t -> bool) -> Pattern_tree.t -> Pattern_tree.t -> bool

(** Lemma 1 normalization, first phase: restrict to nodes on paths to
    free-variable-introducing nodes and merge free-variable-less only
    children into their parents. Preserves ≡ₛ. *)
val normalize : Pattern_tree.t -> Pattern_tree.t
