(** Semantics-preserving syntactic rewrites of WDPTs.

    These are the rewrite opportunities surfaced by the static analyzer
    ([Analysis.Lint], codes W004/W006) and consumed by {!Optimizer.plan}:
    every rewrite preserves the evaluation [p(D)] (hence also the maximal
    evaluation and the three decision problems of Section 3) on every
    database.

    Soundness arguments, in terms of Definition 2's maximal homomorphisms:
    - a {e duplicate atom} — repeated inside its node, or already present in
      an ancestor node — occurs in every subtree CQ that contains its node,
      so removing the copy changes no [q_T'];
    - a {e foldable atom} [a] of node [t] can be dropped when the node's CQ
      with head [H = vars(t) ∩ (free ∪ vars(rest of tree))] is equivalent
      (Chandra–Merlin) to the CQ without [a]: the set of [H]-bindings the
      node admits is unchanged under every context, children only depend on
      [H]-variables (well-designedness), and answers project to free
      variables, which lie in [H]. Only the homomorphism from the node's
      body into the frozen body without [a] is searched; the other one is
      the identity, the smaller body being a subset of the larger;
    - a {e dead branch} is a non-root node whose entire subtree mentions only
      variables of its ancestors: extending a homomorphism into it never
      enlarges the domain, so it contributes no answers and can be removed.

    A rewrite is only reported when applying it yields a valid (still
    well-designed) tree. *)

open Relational

type reason =
  | Duplicate_in_node  (** the atom occurs twice in the same node *)
  | Duplicate_in_ancestor of int  (** … already required by ancestor node [i] *)
  | Foldable  (** node-CQ equivalence witnessed by a homomorphism *)

type rewrite =
  | Drop_atom of { node : int; atom : Atom.t; reason : reason }
  | Drop_subtree of { node : int }  (** drop a dead OPT branch *)

(** Atoms whose removal provably preserves the semantics, with the rule that
    fired. At most one rewrite is reported per (node, atom) pair. *)
val redundant_atoms : Pattern_tree.t -> (int * Atom.t * reason) list

(** Topmost dead branches: non-root nodes whose subtree introduces no
    variable beyond those of its ancestors. *)
val dead_branches : Pattern_tree.t -> int list

(** All applicable rewrites (dead branches first). *)
val rewrites : Pattern_tree.t -> rewrite list

(** [apply p r]: the rewritten tree, or [None] if [r] no longer applies
    (stale node index, missing atom, or a result that is not a valid tree —
    the rewrites returned by {!rewrites} always apply to the tree they were
    computed from). *)
val apply : Pattern_tree.t -> rewrite -> Pattern_tree.t option

(** Fixpoint: repeatedly apply the first of {!rewrites} until none remains;
    returns the simplified tree and the rewrites applied, in order. Each
    step computes rewrites only up to the first one. *)
val simplify : Pattern_tree.t -> Pattern_tree.t * rewrite list

val describe_rewrite : rewrite -> string
val pp_rewrite : Format.formatter -> rewrite -> unit
