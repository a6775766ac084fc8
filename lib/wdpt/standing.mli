(** Standing WDPT queries: incremental answer maintenance over a fact
    stream.

    [register db p] evaluates [p] once and stores the view — the maximal
    homomorphisms partitioned by *rootkey* (their restriction to the
    root-node variables) and the answers with support counts and subsumption
    frontiers partitioned by *root-free-key* (the rootkey restricted to the
    free variables; only answers agreeing there can ever be ⊑-comparable).
    After any sequence of {!Database.add} / {!Database.remove} on [db],
    {!refresh} nets the modification-log window ({!Engine.Delta.batch}),
    marks the dirty rootkeys (deletion lookups driven by the removed facts
    + insertion path probes with delta-constrained pivots), recomputes
    exactly those partitions via scoped re-runs [extend ~init:rootkey] of one
    {!Semantics.extender} built for the refresh (dirty partitions that
    share an OPT child's interface binding evaluate it once), and reports the
    answer change set as events — including OPT-specific [Demoted] /
    [Promoted] transitions of the maximal-answer frontier that full
    re-evaluation would silently absorb.

    The view also materialises p(D) and p_m(D) as two sets, kept in step
    with the events of every frontier update (groups are disjoint, so the
    group events are exactly the changes of the unions); {!answers} and
    {!maximal_answers} return them in O(1).

    Cost per refresh is O(window + deletion candidates + probe hits + dirty
    partitions re-run + touched frontier groups · log |p(D)|), not
    O(database). Each net-removed fact is unified with the tree atoms; a
    unifier binding every root variable names its one candidate rootkey, one
    binding some is looked up in a (root variable, value) → rootkeys posting
    kept as partitions appear and vanish, and only unifiers binding no root
    variable (atoms of nodes sharing none with the root) fall back to one
    pass over the stored homs per batch. Each candidate costs one
    subsumption test per stored hom of its partition. The compiled engine
    store absorbs the window in place (appends for insertions, a compaction
    of the touched relations for removals) instead of being rebuilt. The
    differential guarantee (events applied to the old answer sets reproduce
    full re-evaluation at both semantics levels) is fuzz-tested by
    [wdpt_fuzz] against a freshly built copy of the database,
    and audited by [Analysis.Delta_audit]. *)

open Relational

type t

(** Alias of {!Frontier.event}; answers are projections to the free
    variables. [Added]/[Removed] are eval-level changes (with their
    frontier status); [Demoted]/[Promoted] are frontier-only changes: the
    answer remains in p(D) but left / re-entered p_m(D). *)
type event = Frontier.event =
  | Added of { answer : Mapping.t; maximal : bool }
  | Removed of { answer : Mapping.t; was_maximal : bool }
  | Promoted of Mapping.t
  | Demoted of Mapping.t

(** [register db p] evaluates [p] on [db] and returns the maintained view,
    stamped with the database version. *)
val register : Database.t -> Pattern_tree.t -> t

(** [refresh t] catches the view up to the live database version and
    returns the change events, sorted by root-free-key group and answer.
    Returns [[]] when nothing changed (including windows that net to
    nothing). *)
val refresh : t -> event list

(** Current p(D): the maintained eval-level answer set, the union of the
    group answers. Materialised: each refresh updates it from its own
    events, so reading it is O(1). *)
val answers : t -> Mapping.Set.t

(** Current p_m(D): the union of the group frontiers. Materialised like
    {!answers} (the two share one tree while every answer is maximal);
    O(1). *)
val maximal_answers : t -> Mapping.Set.t

val query : t -> Pattern_tree.t
val database : t -> Database.t

(** The database version the view is synced at. *)
val version : t -> int

(** Counters from the last {!refresh} (for benchmarks and audits). *)
type stats = {
  refreshes : int;
  last_batch_added : int;
  last_batch_removed : int;
  last_dirty : int;
  last_recomputed : int;
  last_events : int;
}

val stats : t -> stats

(** {2 Plain-data view}

    The audited surface: [Analysis.Delta_audit] checks it without access to
    the internals, and tests corrupt it to prove the auditor catches each
    defect class. *)

type view = {
  v_version : int;
  v_rootkeys : (Mapping.t * Mapping.t list) list;
      (** rootkey -> stored maximal homomorphisms, both sorted *)
  v_groups : (Mapping.t * (Mapping.t * int) list * Mapping.t list) list;
      (** root-free-key -> (answer, support) list -> frontier *)
  v_answers : Mapping.t list;
      (** the materialised p(D) ({!answers}), sorted *)
  v_maximal : Mapping.t list;
      (** the materialised p_m(D) ({!maximal_answers}), sorted *)
}

val view : t -> view
