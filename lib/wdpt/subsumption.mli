(** Subsumption and subsumption-equivalence of WDPTs (Section 4).

    Decision procedure (the Π₂^P algorithm of [17], realizing the asymmetric
    coNP bound of Theorem 11): [p₁ ⊑ p₂] iff for *every* rooted subtree [T′]
    of [p₁], the freeze of the free variables of [p₁] occurring in [T′] is a
    partial answer of [p₂] over the canonical database of [q_{T′}].

    Soundness: given [h ∈ p₁(D)] with maximal homomorphism [ĥ] on subtree
    [T′], [ĥ] is a database homomorphism from the canonical database of [T′]
    to [D]; composing it with the witness answer of [p₂] over the canonical
    database and extending maximally yields an answer of [p₂] over [D]
    subsuming [h]. Necessity: instantiate the definition on the canonical
    database itself. Only [p₂]'s global tractability affects the cost of the
    inner check; [p₁] may be arbitrary, and the subtree enumeration of [p₁]
    accounts for the coNP part. *)

(** [subsumes p1 p2]: does [p₁ ⊑ p₂] hold (for every database)? It is
    [subsumes_canon (canon p1) p2]. *)
val subsumes : Pattern_tree.t -> Pattern_tree.t -> bool

(** {2 Reusing the canonical databases of one tree}

    The canonical databases depend on [p₁] alone, so a caller deciding
    [p₁ ⊑ p₂] for many [p₂] freezes [p₁] once. *)

(** The canonical database of each rooted subtree of [p₁] (in
    {!Pattern_tree.subtrees} order) with its frozen target mapping, built
    on first use and kept: a check that fails at the first subtree freezes
    no more than a plain {!subsumes} does, and a later check reuses every
    store already built, together with the compiled store and plan cores
    its evaluation cached on it. *)
type canon

val canon : Pattern_tree.t -> canon

(** [subsumes_canon (canon p1) p2 = subsumes p1 p2], for any number of
    calls against any [p2], in any order, including after a [false]. *)
val subsumes_canon : canon -> Pattern_tree.t -> bool

(** [equivalent p1 p2]: subsumption-equivalence [p₁ ≡ₛ p₂]. *)
val equivalent : Pattern_tree.t -> Pattern_tree.t -> bool

(** [max_equivalent p1 p2]: equivalence under the maximal-mappings semantics
    [≡_max]; coincides with [≡ₛ] by Proposition 5. *)
val max_equivalent : Pattern_tree.t -> Pattern_tree.t -> bool
