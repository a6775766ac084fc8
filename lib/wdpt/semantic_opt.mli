(** Semantic optimization: membership in M(WB(k)) (Section 5.1) and the
    fixed-parameter-tractable evaluation it enables (Corollary 2).

    The paper's upper bound (Theorem 13) is a NEXPTIME^NP guess-and-check; as
    documented in DESIGN.md we implement (a) the exact core-based decision for
    single-node WDPTs — [q ∈ M(C(k))] iff [core q ∈ C(k)] — and (b) a
    constructive search over the ≡ₛ-preserving Lemma-1 normalization and the
    ⊑-decreasing candidate space, verifying candidates with the exact ≡ₛ
    test. A [Some _] answer is always correct; [None] means no witness was
    found within the candidate space. *)

(** [wb_witness ~width ~k p]: a WDPT in WB(k) subsumption-equivalent to [p],
    if one is found. For single-node WDPTs the answer is exact. *)
val wb_witness :
  width:Classes.width -> k:int -> Pattern_tree.t -> Pattern_tree.t option

(** {2 The steps of [wb_witness]}

    [wb_witness ~width ~k p] is [w] when [first_step ~width ~k p] is
    [Decided w], and otherwise [search_candidates cands p] over
    [cands = Approximation.candidates ~in_class:(Classes.in_wb ~width ~k) p].
    A caller that needs those candidates anyway ({!Optimizer.plan}, for
    the approximations) enumerates them once and searches the same list. *)

type step =
  | Decided of Pattern_tree.t option
      (** [p] itself, its Lemma-1 normalization, or (single node) the exact
          core answer *)
  | Search_candidates
      (** a multi-node [p] outside the class even after normalization *)

val first_step : width:Classes.width -> k:int -> Pattern_tree.t -> step

(** [search_candidates cands p]: the first of [cands] subsumption-equivalent
    to [p]. [p] is frozen once for the whole list. *)
val search_candidates :
  Pattern_tree.t list -> Pattern_tree.t -> Pattern_tree.t option

(** [in_m_wb ~width ~k p] for single-node WDPTs (CQs): exact decision via the
    core.
    @raise Invalid_argument on multi-node WDPTs (use [wb_witness]). *)
val in_m_wb_cq : width:Classes.width -> k:int -> Pattern_tree.t -> bool

(** Corollary 2: an evaluator that pays an up-front query-only cost to find a
    WB(k) witness and then answers PARTIAL-EVAL / MAX-EVAL queries in
    polynomial time in the database. Falls back to the general algorithms
    when no witness is found. *)
type fpt

val prepare : width:Classes.width -> k:int -> Pattern_tree.t -> fpt
val used_witness : fpt -> Pattern_tree.t option
val partial_decision : fpt -> Relational.Database.t -> Relational.Mapping.t -> bool
val max_decision : fpt -> Relational.Database.t -> Relational.Mapping.t -> bool
