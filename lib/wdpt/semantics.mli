(** Semantics of WDPTs (Definition 2) and the three evaluation problems of
    Section 3 in their general (unrestricted, hence exponential) form.

    Two independent implementations are provided and cross-validated in the
    test suite: a reference one that literally follows Definition 2, and a
    procedural top-down one (the pt-evaluation of Letelier et al. [17]) that
    exploits well-designedness to extend homomorphisms branch by branch.

    The procedural walk evaluates every non-root node's CQ once per distinct
    interface binding: it memoises the node's homomorphisms, as deltas over
    the incoming mapping, keyed by the incoming mapping's values on the
    node's variables, and extends every parent that agrees on them from the
    one shared list. The memo lives as long as one {!extender} value (one
    call of the enumerations below, or every run of one shared extender)
    and holds one delta list per distinct key and node. The root is never
    memoised: its homomorphisms are streamed. *)

open Relational

(** All maximal homomorphisms from [p] to [db] (procedural algorithm). *)
val maximal_homomorphisms : Database.t -> Pattern_tree.t -> Mapping.t list

(** Streaming enumeration of the maximal homomorphisms (no duplicate
    suppression: distinct branch extensions can project to equal answers). *)
val iter_maximal_homomorphisms :
  Database.t -> Pattern_tree.t -> (Mapping.t -> unit) -> unit

(** [extender db p] is the procedural walk with a fresh, empty memo:
    [extender db p ~init yield] enumerates the maximal homomorphisms
    extending the partial mapping [init] ({!iter_maximal_homomorphisms} is
    one run with the empty mapping). With [init] binding all root-node
    variables this enumerates exactly the maximal homomorphisms whose root
    restriction equals [init] — the per-root-key scoped re-run {!Standing}
    is built on.

    Partial application builds the memo once, so one extender run on many
    [init]s (the dirty root keys of a {!Standing} refresh) evaluates each
    OPT child once per distinct interface binding across all the runs. The
    memo reflects [db] as it is while the extender runs: build a new
    extender after [db] changes.

    Order: the root's homomorphisms come in engine enumeration order; below
    each, the children are extended in tree order, and every child's
    extensions in engine enumeration order, depth first. The memo does not
    change this order. *)
val extender :
  Database.t -> Pattern_tree.t -> init:Mapping.t -> (Mapping.t -> unit) -> unit

(** [stream_eval db p ~offset ~limit yield]: stream the answers of p(D) —
    deduplicated projections of the maximal homomorphisms — skipping the
    first [offset] and yielding at most [limit] (all when [None]); returns
    the number yielded. Enumeration short-circuits once the page is full:
    every procedurally enumerated homomorphism is already maximal, so an
    answer can be emitted the moment it is first seen and the working set is
    a bounded dedup buffer of at most [offset + limit] (or all-distinct)
    answers, never the full materialized answer set. Works for arbitrary
    tree-shaped (OPT) queries at {!eval} semantics; {!eval_max} semantics
    inherently needs the frontier of the whole answer set, so it cannot
    stream this way. *)
val stream_eval :
  Database.t ->
  Pattern_tree.t ->
  offset:int ->
  limit:int option ->
  (Mapping.t -> unit) ->
  int

(** Reference implementation: enumerate rooted subtrees, evaluate their CQs,
    keep the ⊑-maximal mappings. *)
val maximal_homomorphisms_naive : Database.t -> Pattern_tree.t -> Mapping.t list

(** One maximal homomorphism, computed greedily without enumerating the
    answer set ([None] iff the root pattern has no match). *)
val any_maximal_homomorphism : Database.t -> Pattern_tree.t -> Mapping.t option

(** The evaluation p(D): projections of the maximal homomorphisms to the free
    variables. *)
val eval : Database.t -> Pattern_tree.t -> Mapping.Set.t

val eval_naive : Database.t -> Pattern_tree.t -> Mapping.Set.t

(** The maximal-mappings evaluation p_m(D) (Section 3.4): the ⊑-maximal
    elements of p(D). *)
val eval_max : Database.t -> Pattern_tree.t -> Mapping.Set.t

(** EVAL(C): is [h ∈ p(D)]? *)
val decision : Database.t -> Pattern_tree.t -> Mapping.t -> bool

(** PARTIAL-EVAL(C): is there [h' ∈ p(D)] with [h ⊑ h']? *)
val partial_decision : Database.t -> Pattern_tree.t -> Mapping.t -> bool

(** MAX-EVAL(C): is [h ∈ p_m(D)]? *)
val max_decision : Database.t -> Pattern_tree.t -> Mapping.t -> bool
