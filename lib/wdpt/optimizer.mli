(** The paper's program as a single entry point: given a WDPT and a width
    budget [k], decide how to evaluate it.

    The plan mirrors Sections 3–5: if the query is in a tractable fragment,
    use the corresponding algorithm directly; otherwise look for an
    ≡ₛ-equivalent well-behaved query (semantic optimization, Theorem 13 /
    Corollary 2); otherwise fall back to a sound WB(k)-approximation
    (Section 5.2) or to the exact exponential algorithms. *)

open Relational

type strategy =
  | Exact_tractable
      (** already in ℓ-TW(k) ∩ BI(c) (for EVAL) / g-TW(k) (for partial and
          maximal evaluation): run the Theorems 6–9 algorithms directly *)
  | Via_witness of Pattern_tree.t
      (** ≡ₛ-equivalent WB(k) query found: evaluate partial/maximal answers
          through it (Corollary 2) *)
  | Via_approximation of Pattern_tree.t list
      (** sound under-approximations in WB(k); answers are a subset of the
          exact ones (up to ⊑) *)
  | Exact_exponential
      (** no optimization found: exponential general algorithms *)

(** Per-instance execution engine, chosen from the {!Cq.Cost} bounds of the
    full-tree query when a database is supplied to {!plan}. *)
type exec =
  | Backtracking  (** plain backtracking search (also the no-database default) *)
  | Yannakakis  (** acyclic instance: GYO join forest, no bag materialization *)
  | Decomposition
      (** cyclic, but the [|adom|^(tw+1)] bag bound undercuts the
          backtracking bounds *)

type plan = private {
  query : Pattern_tree.t;
      (** the simplified query the strategy applies to *)
  source : Pattern_tree.t;  (** the query as given *)
  rewrites : Simplify.rewrite list;
      (** semantics-preserving rewrites applied ({!Simplify}): the analyzer's
          redundant-atom / dead-branch findings, consumed as optimizations *)
  k : int;
  bounded_interface : int;
  strategy : strategy;
  exec : exec;
  cost : Cq.Cost.t option;
      (** the bounds behind the [exec] choice; [None] without a database *)
}

(** [plan ?db ~k p] first applies {!Simplify.simplify} (evaluation-preserving,
    so all answers below are still those of [p]), then classifies the result
    and picks a strategy. With [?db] it additionally analyzes the full-tree
    query's cost against that database's statistics and selects the execution
    engine ([exec]) per instance. That cost analysis is memoized per (body,
    database, version): a version bump ([Database.add]) misses the memo
    rather than serving stale statistics. *)
val plan : ?db:Database.t -> k:int -> Pattern_tree.t -> plan

val describe : plan -> string

(** EVAL through the plan (always exact: EVAL is answered with the general
    algorithm unless the query is tractable; approximations do not preserve
    exact answers). *)
val decision : plan -> Database.t -> Mapping.t -> bool

(** PARTIAL-EVAL through the plan. For [Via_approximation] the answer is
    sound but possibly incomplete (a [true] is definitive, a [false] is not);
    [complete] reports whether the strategy is exact. *)
val partial_decision : plan -> Database.t -> Mapping.t -> bool

val complete : plan -> bool

(** Full evaluation through the plan (for [Via_approximation]: the union of
    the approximations' answers — a sound subset, every returned mapping
    subsumed by an exact answer). Single-node trees — plain CQs, where the
    SPARQL and CQ semantics coincide — are routed through the cost-selected
    [exec] engine. *)
val eval : plan -> Database.t -> Mapping.Set.t

(** One-line description of an execution engine choice. *)
val describe_exec : exec -> string
