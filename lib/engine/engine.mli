(** Compiled evaluation engine.

    Queries are compiled once — values interned to dense ints ({!Interner}),
    facts stored as immutable {!Tuple.t}s, variables assigned slots of a flat
    [int array] environment, atoms lowered to per-position check/slot
    instructions — and then matched by a tight backtracking loop that ranks
    candidate atoms from stored index counts instead of materialized lists.
    The compiled form of a database is cached on the database itself and
    kept in sync in place: the next compile after [Database.add] /
    [Database.remove] nets the log window since the store's version
    ([Database.net_changes]), compacts the net-removed rows out of the
    relations they touch (fresh arrays, so a running enumeration keeps its
    snapshot) and appends the net-added facts (interned tuples and counted
    index cells are growable arrays with live prefixes). The synced store
    holds exactly the live facts, with exact row and distinct counts; its
    row order is first insertion, except that a fact removed in one window
    and re-added in a later one sits at the end. Plan cores (instruction
    selection, slot assignment) are additionally cached per atom list, and
    prepared plans ({!prepare}) per atom list and set of bound variables,
    so re-evaluating one body under many [~init] bindings compiles and
    optimizes once and only binds per call.

    Every primitive runs sequentially on the calling domain: enumeration,
    counting, first-match and {!Rel.semijoin} alike.

    [Mapping.t] appears only at the boundaries: [~init] is interned at
    compile time and solutions are read back out of the slot environment. *)

open Relational

(** A compiled query plan: instructions over a slot environment, bound to the
    compiled form of one database. *)
type t

(** One per-position instruction of an atom's matching sequence: [Check id]
    requires the argument to equal the interned constant [id]; [Slot s] reads
    environment slot [s] when bound and writes it otherwise. *)
type op =
  | Check of int
  | Slot of int

(** A plan prepared for one compiled store, atom list and set of bound
    variables, waiting for their values. *)
type prepared

(** [prepare db atoms ~bound] runs the plan pipeline once for the
    homomorphisms of [atoms] into [db] that extend some binding of the
    (distinct) variables [bound]: the base plan, then the optimization pass
    pipeline ({!optimize}) over a base whose bound slots hold parameters
    instead of values. The pipeline has no switch: it only reorders or
    prunes the plan, never changes its answer set. Everything the passes
    decide from the set of bound variables alone is fixed here: fold
    positions, the (ground, selectivity) keys, the static and hoisted
    order, dead slots and the read-back table.

    The result is cached beside the plan core of [atoms] on [db]'s compiled
    store, keyed by [bound] as given. [Database.add] / [Database.remove]
    drop it with the cores at the next sync, so a later [prepare] is never
    served stale. *)
val prepare : Database.t -> Atom.t list -> bound:string list -> prepared

(** [bind pr values] is the plan of [pr] under [bound] = [values] (same
    order and length, else [Invalid_argument]), in O(plan): the interned
    values fill the parameter checks, and what only the values decide is
    done here: an all-[Check] atom a stored row matches is dropped, so is
    an atom that equals an earlier one only once the values are in, and a
    value the store never interned makes the plan infeasible. No
    certificate is allocated; {!Inspect.trail} re-derives one on demand.
    [bind] first re-prepares when [pr]'s store has synced changes since.
    Each bound plan accumulates its own feedback counters. *)
val bind : prepared -> Value.t list -> t

(** [compile db atoms ~init] is [prepare db atoms ~bound |> bind] with
    [bound] and the values taken from [init]: the one compile path. *)
val compile : Database.t -> Atom.t list -> init:Mapping.t -> t

(** {2 Selectivity scoring}

    The static atom order of every plan sorts by the lexicographic key
    [(ground?, score)]: fully-ground atoms (only [Check] instructions) first,
    then ascending {!selectivity} score. [Analysis.Plan_audit] E005 and the
    checked mode verify exactly this invariant. *)

(** [selectivity ~rows ~dcounts ops] is log10 of the estimated candidate rows
    left after the [Check] instructions filter: log10 [rows] minus log10 of
    the distinct count of each checked position (uniformity assumption).
    [neg_infinity] when [rows = 0]. *)
val selectivity : rows:int -> dcounts:int array -> op array -> float

(** [ground ops]: the sequence contains no [Slot] instruction. *)
val ground : op array -> bool

(** The static-order sort key: [(0 if ground else 1, selectivity)]. *)
val order_key : rows:int -> dcounts:int array -> op array -> int * float

(** {2 Optimization passes and translation-validation certificates}

    The pipeline runs five passes over every feasible plan: [constant-fold]
    (init-bound [Slot]s become [Check]s), [dead-instruction] (exact-duplicate
    atoms and stored-row-matched ground atoms are dropped), [dead-slot]
    (untouched slots dropped, survivors renumbered), [check-hoist] (ground
    atoms stable-partitioned to the front of the static order) and
    [selectivity-reorder] (full static-order invariant re-established).
    Every pass emits a {!cert}, built only when it is asked for. The
    pipeline runs in {!prepare}, once per prepared plan, which keeps no
    certificate; [compile] and {!bind} run the optimized plan without
    verifying it, and [Analysis.Equiv.verify_trail] re-verifies the whole
    trail of a bound plan in O(plan) on demand ([explain --opt],
    [wdpt_fuzz] on every instance, the test suite). *)

(** Why a pass dropped an atom: exact duplicate of a kept before-atom, or an
    all-[Check] atom satisfied by the named stored row. *)
type drop =
  | Duplicate_of of int
  | Ground_matched of int

(** Plain-data certificate emitted by each pass: before → after mappings of
    slots and atoms ([-1] = dropped) plus the facts justifying each rewrite.
    Nothing in it is trusted; the checker re-derives everything. *)
type cert = {
  cert_pass : string;
  cert_reorders : bool;
  cert_slot_map : int array;
  cert_atom_map : int array;
  cert_folds : (int * int) array;
  cert_drops : (int * drop) array;
  cert_scores : float array;
}

(** Run the pass pipeline on a plan (no-op on infeasible, already-optimized
    or bound plans). {!prepare} always applies it; it is exposed so benches
    can time the pipeline in isolation on {!Inspect.base}. *)
val optimize : t -> t

(** {2 Batched (vectorized) execution}

    Every enumeration ({!iter_envs}, {!count_envs}, the projections)
    executes each compiled instruction over a vector of candidate
    environments at once: the environment vector is columnar
    (one flat [int array] per stage-bound slot, batch-row indexed), checks
    narrow a survivor bitmask in place, and index probes sort/group the
    batch by probe key so counted-cell lookups become sequential runs. The
    pipeline runs the atoms in a fixed order, which makes slot boundness
    uniform across a batch: the top-level choice (fewest candidates in the
    index cells of its bound positions) first, then greedily the atom with
    the most already-bound positions. A tie goes to the atom with the
    smaller top-level candidate count, read off the same index cells as
    the top-level choice, then to the static order; so an atom whose
    constant selects a hot key runs after an equally bound join partner,
    as a filter, instead of expanding the hot cell once per earlier row.
    Enumeration order is the depth-first order of that fixed-order
    recursion, and validated env-for-env against a scalar fixed-order twin
    in checked mode. Top-level candidates are processed in
    groups of {!morsel_rows} rows, bounding the columnar footprint.

    First-match ({!sat}, {!first_homomorphism}) runs on that scalar
    fixed-order twin instead: one environment at a time over the same stage
    order, so it stops at the first witness without materializing a morsel
    group, and it finds the first solution the batched enumeration would
    yield. *)

(** Largest morsel size, [2^20] rows. *)
val morsel_cap : int

(** Morsel size: the batch group size of the vectorized interpreter
    (default 1024, clamped to [1 .. ]{!morsel_cap}). Initialized from
    [WDPT_ENGINE_MORSEL]. *)
val set_morsel_rows : int -> unit

val morsel_rows : unit -> int

(** High-water marks of the batched pipeline's memory consumers, in the
    units the certified resource envelope ({!Analysis.Resource}) is stated
    in. Each mark is the peak of one slice (column/dense scratch) or of one
    group (replay buffering), so a per-slice envelope can be checked sound
    against it directly ([measured <= certified], E021 otherwise). Bumped
    once per slice or group, never per row. *)
type batch_stats = {
  bm_column_words : int;
      (** peak columnar scratch words (slot columns, parent pointers, probe
          scratch, survivor mask, candidate arrays) of any one slice *)
  bm_dense_words : int;
      (** peak dense probe-table words (the per-stage count/rows top arrays;
          row arrays alias the counted index) of any one build: one per
          run, shared by a checked-mode replay's groups *)
  bm_replay_rows : int;
      (** peak buffered environment rows of any one checked-mode morsel
          group *)
}

val batch_stats : unit -> batch_stats

(** Reset all marks to 0 (before a measured run). *)
val reset_batch_stats : unit -> unit

(** [slot_of p x] is the environment slot of variable [x], if it occurs. *)
val slot_of : t -> string -> int option

(** [value_of p id] resolves an interned value id from the plan's pool. *)
val value_of : t -> int -> Value.t

(** [iter_envs p f] calls [f env] for every satisfying slot assignment. The
    environment is borrowed: it is mutated (or dropped) after [f] returns, so
    callers must copy whatever they keep. Raising inside [f] aborts the
    enumeration. Runs on the calling domain, so the order of calls is fixed
    and [f] never runs concurrently. *)
val iter_envs : t -> (int array -> unit) -> unit

(** [count_envs p] is the number of satisfying slot assignments, counted
    off the same run as {!iter_envs}. *)
val count_envs : t -> int

(** [sat p]: some satisfying assignment exists. Runs on the scalar
    fixed-order runner, tuple at a time, and commits no feedback
    counters. *)
val sat : t -> bool

(** [mapping_of_env p env] converts a satisfying environment back to a
    mapping extending the plan's [init]. *)
val mapping_of_env : t -> int array -> Mapping.t

(** Drop-in equivalents of the [Cq.Eval] entry points, running compiled. *)

val iter_homomorphisms :
  Database.t -> Atom.t list -> init:Mapping.t -> (Mapping.t -> unit) -> unit

val homomorphisms : Database.t -> Atom.t list -> init:Mapping.t -> Mapping.t list

(** [first_homomorphism db atoms ~init] is the first mapping
    [iter_homomorphisms] would yield, found sequentially on the scalar
    fixed-order runner, which stops at the first witness. *)
val first_homomorphism :
  Database.t -> Atom.t list -> init:Mapping.t -> Mapping.t option

val satisfiable : Database.t -> Atom.t list -> init:Mapping.t -> bool

(** [distinct_projections db atoms ~init ~onto] is the set (no duplicates) of
    restrictions to [onto] of the homomorphisms of [atoms] extending [init].
    Deduplication happens on raw slot tuples, before any [Mapping.t] is
    built. Variables of [onto] bound by [init] but absent from the atoms are
    preserved; unbound absent ones are dropped (restriction semantics). *)
val distinct_projections :
  Database.t -> Atom.t list -> init:Mapping.t -> onto:string list -> Mapping.t list

(** [stream_projections db atoms ~init ~onto ~offset ~limit f] emits distinct
    projections in first-seen enumeration order, skipping the first [offset]
    and stopping after [limit] (no cap when [None]); returns the number
    emitted. Pagination without materializing the answer set: enumeration
    runs on the sequential path (early exit is the point) and stops as soon
    as the page is full. *)
val stream_projections :
  Database.t ->
  Atom.t list ->
  init:Mapping.t ->
  onto:string list ->
  offset:int ->
  limit:int option ->
  (Mapping.t -> unit) ->
  int

(** No domain pool remains; [set_domains] ignores its argument and holds no
    state. It has no effect and goes with the next change to the benchmark
    driver, its last caller. *)
module Parallel : sig
  val set_domains : int -> unit
end

(** Interned relations: sorted variable arrays over deduplicated id-tuples,
    with hash-based semijoin/join/project. This is the representation the
    Yannakakis passes run on. *)
module Rel : sig
  type t

  val unit : t
  val vars : t -> string list
  val var_set : t -> String_set.t
  val cardinal : t -> int
  val is_empty : t -> bool

  (** [make vars rows] builds a relation (rows deduplicated); [vars] must be
      sorted and each row indexed in that order.
      @raise Invalid_argument if a row's width differs from [vars]'s length. *)
  val make : string array -> Tuple.t list -> t

  (** [of_atoms db atoms ~onto] is the set of restrictions to [onto] of the
      homomorphisms of [atoms] ({!distinct_projections} with interned rows);
      its variables are those of [onto] that occur in [atoms]. *)
  val of_atoms : Database.t -> Atom.t list -> onto:String_set.t -> t

  val semijoin : t -> t -> t
  val join : t -> t -> t
  val project : String_set.t -> t -> t

  (** [extend_adom db xs r] extends [r] to every variable of [xs]: each one
      missing from [r] ranges over the active domain of [db]. *)
  val extend_adom : Database.t -> String_set.t -> t -> t

  (** Boundary conversion of every row to a [Mapping.t]. *)
  val to_mappings : Database.t -> t -> Mapping.t list
end

(** Structural view of a compiled plan, for static verification
    ({!Analysis.Plan_audit}) and the [explain] CLI. The view is plain data:
    corrupting a copy (tests do) cannot corrupt the plan itself. *)
module Inspect : sig
  type atom_view = {
    a_index : int;  (** position in plan (= source atom list) order *)
    a_atom : Atom.t;  (** the source atom this plan entry compiles *)
    a_rel : string;  (** stored relation name *)
    a_arity : int;  (** stored relation arity *)
    a_index_arity : int;  (** number of per-position indexes *)
    a_rows : int;  (** stored tuple count *)
    a_dcounts : int array;  (** per position: distinct stored value ids *)
    a_ranges : (int * int) array;
        (** per position: (min, max) stored id, (0, -1) when empty *)
    a_ops : op array;  (** per-position instructions *)
    a_current : bool;
        (** the store still reads the relation record this atom was compiled
            against; [false] once a removal synced after compile replaced it
            by a compacted copy (the plan then reads a stale snapshot) *)
  }

  type view = {
    i_feasible : bool;
    i_slots : string array;  (** slot -> variable name *)
    i_pool : int;  (** interner pool size; valid ids are [0 .. i_pool-1] *)
    i_env : int array;  (** initial environment (slot -> id, -1 unbound) *)
    i_atoms : atom_view array;  (** empty when infeasible *)
    i_order : int array;
        (** static atom order: indices into [i_atoms], ground atoms first
            then ascending selectivity score (see {!Engine.order_key}) *)
    i_compiled_version : int;  (** database version the plan was built at *)
    i_store_version : int;
        (** version of the compiled store backing the plan: equal to
            [i_compiled_version] when untouched since compilation, ahead of
            it when the store synced later changes in place (see
            [a_current] for whether a removal replaced an atom's relation) *)
    i_live_version : int;  (** database version at inspection time *)
  }

  (** Snapshot the IR of a compiled plan. *)
  val plan : t -> view

  (** {2 The cardinality-feedback view}

      Plain-data snapshot of the per-atom runtime counters beside the
      static estimates that chose the plan — what [Analysis.Feedback]
      audits (E022, E023, E026) and [explain --drift] prints. Every
      completed, unchecked enumeration adds to the counters; nothing reads
      them back into planning. All counters are zero for a plan that never
      ran. *)

  type feedback_atom = {
    f_atom : int;  (** plan atom index *)
    f_contexts : int;  (** probe contexts this atom was selected in *)
    f_probed : int;  (** candidate rows probed across those contexts *)
    f_survived : int;  (** rows surviving all checks (matches) *)
    f_rows : int;  (** stored relation rows (sound E026 probe bound) *)
    f_score : float;  (** static selectivity estimate, log10 *)
  }

  type feedback_view = {
    f_atoms : feedback_atom array;  (** empty when infeasible/atomless *)
    f_runs : int;  (** completed enumerations folded in *)
    f_top : int option;
        (** the top-level atom the first dynamic selection would choose *)
    f_threshold : float;
        (** E022 drift threshold, log10 decades: 2.0 in every genuine view
            (tests lower it on a copy) *)
    f_min_probed : int;
        (** probed rows an atom needs before its drift counts: 64 in every
            genuine view *)
    f_compiled_version : int;
    f_store_version : int;
    f_live_version : int;
  }

  val feedback : t -> feedback_view

  (** {2 The batched execution layout}

      Plain-data view of the vectorized interpreter's stage pipeline and
      columnar layout for this plan — re-derived from the same pure stage
      compiler the runtime uses, so what [explain] prints is what runs. *)

  (** One pipeline stage: the instruction vector of one atom, split by
      role. [(pos, v)] pairs are argument positions of the atom's stored
      relation. *)
  type batch_stage_view = {
    bv_atom : int;  (** plan atom index this stage matches *)
    bv_checks : (int * int) array;
        (** (pos, interned id): constant equality, including init-bound
            slots folded to constants at stage-compile time *)
    bv_cols : (int * int) array;
        (** (pos, slot): compare against a column bound by an earlier
            stage — these positions form the batched probe key *)
    bv_binds : (int * int) array;
        (** (pos, slot): first occurrence — writes the slot's column *)
    bv_dups : (int * int) array;
        (** (pos, earlier pos): repeated variable within the atom *)
    bv_filter : bool;
        (** no binds: the stage only narrows the survivor mask
            (existence semantics — stored facts are deduplicated) *)
  }

  type batch_view = {
    b_morsel_rows : int;  (** batch group size ({!morsel_rows}) *)
    b_stages : batch_stage_view array;
        (** fixed stage order: top-level choice first, then by bound
            positions, top-level candidate count and static order — empty
            for infeasible or atomless plans *)
    b_columns : (int * string) array;
        (** the columnar environment: (slot, variable name) per
            stage-bound slot, one flat [int array] each at run time *)
    b_rows : int;  (** top-level candidate rows *)
    b_groups : int;
        (** morsel groups the top-level candidate range splits into *)
  }

  val batch : t -> batch_view

  (** The optimization trail: one [(view of the plan before the pass,
      certificate)] pair per pass, plus the final view of the plan itself.
      [([], plan p)] for unoptimized plans. A bound plan carries no
      certificates: its trail is built on demand by running the five
      passes over its prepared base under its binding ({!base}), and ends
      at the bound plan, so a verified trail also checks that {!bind}
      produced what the passes produce. *)
  val trail : t -> (view * cert) list * view

  (** The plans before each pass, aligned with [trail]'s stage list (for
      building {!row_matches} probes per stage). *)
  val stage_plans : t -> t list

  (** The unoptimized original of an optimized plan (itself otherwise): the
      reference the optimized plan is tested against. *)
  val base : t -> t

  (** The prepared plan a plan was bound from ([None] for an infeasible
      binding, whose plan is unoptimized): every bind of one prepared plan
      returns it, and shares its one run of the pass pipeline. *)
  val prepared : t -> prepared option

  (** [row_matches p ~atom ~row]: stored tuple [row] of [atom]'s relation
      satisfies the atom's instructions, which must be all-[Check]. O(arity),
      false on any out-of-range input. Probe for [Ground_matched] claims. *)
  val row_matches : t -> atom:int -> row:int -> bool
end

(** {2 Checked execution (sanitizer mode)}

    When enabled — [WDPT_ENGINE_CHECKED=1] in the environment, or
    {!set_checked} — every run validates the plan invariants on entry (the
    runtime twin of [Analysis.Plan_audit]: slot ranges, interner ids, arity
    coherence, order, staleness). Enumeration replays every morsel group of
    the batched pipeline on the scalar fixed-order twin and compares the
    two env for env; first-match runs on that same twin. The twin checks
    stored tuple widths and index cell counts as it probes, re-verifies
    every solution it reports against the stored relations, and checks
    that the trail and environment are restored on exit. Answers and
    their order are those of the unchecked run; no feedback counters are
    committed. *)

(** Raised by checked execution on any invariant violation. *)
exception Check_failure of string

val set_checked : bool -> unit
val checked_enabled : unit -> bool

(** {2 Delta evaluation}

    Net change batches read off the database's stamped modification log,
    plus the two scoped-probe primitives incremental view maintenance is
    built from: dirty-range derivation (which (atom, position) probe ranges
    a batch touches — plain data, auditable by [Analysis.Delta_audit]) and
    pivot-constrained enumeration (homomorphisms forced to use at least one
    net-added fact). [Wdpt.Standing] drives both to maintain standing-query
    answers incrementally. *)
module Delta : sig
  (** The net effect of the log window [(from_version, to_version]]: facts
      live now but not at [from_version] ([added]) and facts live at
      [from_version] but not now ([removed]), each in first-touch order. A
      fact inserted and deleted inside the window appears in neither. *)
  type batch = {
    from_version : int;
    to_version : int;
    added : Fact.t list;
    removed : Fact.t list;
  }

  (** [batch db ~since] nets the log window since version [since]
      ([Database.net_changes]). For [since >= version db] the batch is
      empty. O(window). *)
  val batch : Database.t -> since:int -> batch

  val is_empty : batch -> bool

  (** Per-relation view of a batch's net-added facts, built once per
      refresh. *)
  type index

  val index : batch -> index

  (** One touched probe range: matching the atom at index [dr_atom] of the
      probed atom list, position [dr_pos] can only have gained or lost
      matches at the listed values. *)
  type dirty_range = {
    dr_atom : int;
    dr_rel : string;
    dr_pos : int;
    dr_values : Value.t list;  (** distinct, ascending *)
  }

  (** [dirty_ranges atoms b]: every (atom, position) range of [atoms] that
      batch [b] touches. Complete by construction: any batch fact unifiable
      with an atom of the list lands in that atom's ranges at every
      position. *)
  val dirty_ranges : Atom.t list -> batch -> dirty_range list

  (** [iter_pivot_homs db atoms ~pivot idx ~init yield]: all homomorphisms
      of [atoms] extending [init] whose atom [pivot] maps onto a net-added
      fact of the batch behind [idx]; the other atoms match against the full
      current database. Ranging [pivot] over the atom list enumerates (a
      superset of) the genuinely new homomorphisms of the pattern, since
      each must use at least one added fact.
      @raise Invalid_argument if [pivot] is out of range. *)
  val iter_pivot_homs :
    Database.t ->
    Atom.t list ->
    pivot:int ->
    index ->
    init:Mapping.t ->
    (Mapping.t -> unit) ->
    unit
end
