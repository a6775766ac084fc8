(** Per-instance cost budgets for the randomized differentials (the
    [wdpt_fuzz] harness and the qcheck properties that compare against
    brute force). Each predicate bounds the log of a worst-case cost
    estimate over [nvars = |vars(p)|] and [adom = max 2 |adom(D)|], so a
    pinned-seed run is bounded per instance, not only between instances.
    Draws over a budget are not wrong, only too expensive for the oracle
    the budget guards. *)

open Relational

(** [brute_force_feasible p db]: the reference oracle
    [Semantics.eval_naive] enumerates the homomorphisms of every subtree of
    [p], then keeps the subsumption-maximal ones, so it costs up to
    [(nsubtrees * adom^nvars)^2]. Holds when
    [nsubtrees * adom^nvars <= 3e4]. *)
val brute_force_feasible : Wdpt.Pattern_tree.t -> Database.t -> bool

(** [engine_feasible p db]: the production evaluators enumerate once per
    subtree, worst-case [adom^nvars] rows each, without a quadratic step.
    Holds when [adom^nvars <= 1e6]; beyond it an unlucky draw eats
    gigabytes. *)
val engine_feasible : Wdpt.Pattern_tree.t -> Database.t -> bool

(** [delta_feasible p db]: a standing-view stream re-evaluates from scratch
    after each of its 6 batches and audits the view in time quadratic in
    its answers, and the batches add up to 24 fresh edges. Holds when
    [(adom + 6)^nvars <= 3e4]. *)
val delta_feasible : Wdpt.Pattern_tree.t -> Database.t -> bool
