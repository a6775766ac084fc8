(** Compiled evaluation engine.

    Queries are compiled once — values interned to dense ints ({!Interner}),
    facts stored as immutable {!Tuple.t}s, variables assigned slots of a flat
    [int array] environment, atoms lowered to per-position check/slot
    instructions — and then matched by a tight backtracking loop that ranks
    candidate atoms from stored index counts instead of materialized lists.
    The compiled form of a database is cached on the database itself and
    maintained incrementally: [Database.add] appends to the insertion log,
    and the next compile catches the cached form up in place (interned
    tuples and counted index cells are growable arrays with live prefixes)
    instead of rebuilding — extending from version [v] replays exactly
    [Database.facts_since db v], so the extended form is structurally
    identical to a fresh rebuild. Plan cores (instruction selection, slot
    assignment) are additionally cached per atom list, so re-evaluating one
    body under many [~init] bindings compiles once.

    Counting can run domain-parallel (see {!Parallel}): the top-level
    candidate row range is partitioned into contiguous chunks drained by a
    pool of OCaml 5 domains and the chunk counts are summed; {!Rel.semijoin}
    filters its input rows the same way. Enumeration and first-match run
    on the calling domain at every pool size.

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

(** [compile db atoms ~init] builds a plan for the homomorphisms of [atoms]
    into [db] extending [init]. When optimization is enabled (the default,
    see {!set_optimize}) the plan is additionally run through the
    optimization pass pipeline; every pass records a certificate in the
    plan's provenance ({!Inspect.trail}). *)
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
    Every pass emits a {!cert}; [Analysis.Equiv] re-verifies the whole trail
    in O(plan) and rejects the optimized plan ({!Inspect.base} is the
    fallback) if any certificate fails. *)

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

(** Run the pass pipeline on a plan (no-op on infeasible or already-optimized
    plans). [compile] applies this automatically when enabled; it is exposed
    so benches can time the pipeline in isolation. *)
val optimize : t -> t

(** Toggle the pipeline for subsequent [compile] calls (differential
    testing). Defaults to enabled; [WDPT_ENGINE_OPT=0] disables. *)
val set_optimize : bool -> unit

val optimize_enabled : unit -> bool

(** {2 Verified adaptive re-planning}

    Every completed (uncancelled) enumeration accumulates cheap per-atom
    counters into its plan — probe contexts entered, candidate rows probed,
    rows surviving all checks — exposed as plain data by
    {!Inspect.feedback}. When adaptation is enabled ([WDPT_ENGINE_ADAPT=1]
    or {!set_adapt}) and an atom's observed log10 selectivity drifts more
    than {!drift_threshold} decades above its calibrated estimate (with at
    least {!drift_min_probed} rows of evidence), the engine recalibrates:
    the drift is folded into a per-atom calibration term, the static order
    re-sorted by the calibrated key, and the result cached keyed by the
    source atom list and the stats epoch (store version) it was costed at.
    The next [compile] of the same atom list picks the calibration up —
    entries from an older epoch are evicted, never applied (the E024
    discipline). Every swap emits a {!swap_cert} that [Analysis.Feedback]
    independently re-verifies (E025); an invalid certificate keeps the old
    plan. Calibration only reorders the static atom order — the answer set
    is order-independent, so adaptive and non-adaptive runs agree
    answer-for-answer ([wdpt_fuzz --drift-diff] checks this). *)

val set_adapt : bool -> unit
val adapt_enabled : unit -> bool

(** Drift threshold in log10 decades (default 2.0, clamped to [>= 0.1]):
    re-calibration (and the E022 diagnostic) trigger when the observed
    per-context survival exceeds the calibrated estimate by more than
    this. One-sided — overestimates never force a swap. *)
val set_drift_threshold : float -> unit

val drift_threshold : unit -> float

(** Minimum probed rows before drift evidence is acted on (default 64,
    clamped to [>= 1]). *)
val set_drift_min_probed : int -> unit

val drift_min_probed : unit -> int

(** Plain-data certificate of one adaptive plan swap: enough to recompute
    the calibration from the drift evidence and re-verify the re-sorted
    order, without trusting the loop that produced it. *)
type swap_cert = {
  sw_epoch : int;
      (** stats epoch (store version) the swap was costed at *)
  sw_runs : int;  (** completed runs the evidence covers *)
  sw_drift : (int * float * float) array;
      (** per drifted atom: (index, calibrated estimate, observed log10
          selectivity) — the E022-level evidence justifying the swap *)
  sw_calib : float array;  (** full per-atom calibration after the swap *)
}

(** [replan p]: examine [p]'s accumulated counters; on E022-level drift
    return the recalibrated plan and its certificate, [None] otherwise
    (no evidence, no drift, or infeasible). Pure with respect to the
    adapt cache — [compile] + the commit hook drive the cache itself. *)
val replan : t -> (t * swap_cert) option

(** The cached swap certificate for [p]'s atom list, if an adaptive swap
    has been stored for it on [p]'s compiled store ([None] otherwise) —
    what [Analysis.Feedback] re-verifies as E025. *)
val cached_swap : t -> swap_cert option

(** {2 Batched (vectorized) execution}

    Every enumeration ({!iter_envs}, {!count_envs} and its parallel chunks,
    the projections) executes each compiled instruction over a vector
    of candidate environments at once: the environment vector is columnar
    (one flat [int array] per stage-bound slot, batch-row indexed), checks
    narrow a survivor bitmask in place, and index probes sort/group the
    batch by probe key so counted-cell lookups become sequential runs. The
    pipeline runs the atoms in a fixed order — the pre-computed top-level
    choice, then the static order — which makes slot boundness uniform
    across a batch; enumeration order is the depth-first order of that
    fixed-order recursion, identical at every pool size, and validated
    env-for-env against a scalar fixed-order twin in checked mode. Top-level candidates are processed in groups of
    {!Parallel.morsel_rows} rows, bounding the columnar footprint.

    First-match ({!sat}, {!first_homomorphism}) runs on that scalar
    fixed-order twin instead: one environment at a time over the same stage
    order, so it stops at the first witness without materializing a morsel
    group, and it finds the first solution the batched enumeration would
    yield. *)

(** High-water marks of the batched pipeline's memory consumers, in the
    units the certified resource envelope ({!Analysis.Resource}) is stated
    in. Each mark is the peak of one slice (column/dense scratch) or of one
    group/chunk (replay buffering) — never a cross-domain sum — so a
    per-slice envelope can be checked sound against it directly
    ([measured <= certified], E021 otherwise). Bumped once per slice or
    group, never per row. *)
type batch_stats = {
  bm_column_words : int;
      (** peak columnar scratch words (slot columns, parent pointers, probe
          scratch, survivor mask, candidate arrays) of any one slice *)
  bm_dense_words : int;
      (** peak dense probe-table words (the per-stage count/rows top arrays;
          row arrays alias the counted index) of any one build: one per
          sequential run, one per parallel region, shared by its chunks *)
  bm_replay_rows : int;
      (** peak buffered environment rows of any one checked-mode morsel
          group *)
}

val batch_stats : unit -> batch_stats

(** Reset all marks to 0 (before a measured run). *)
val reset_batch_stats : unit -> unit

(** Number of environment slots (distinct variables occurring in the atoms). *)
val slot_count : t -> int

(** [slot_of p x] is the environment slot of variable [x], if it occurs. *)
val slot_of : t -> string -> int option

(** [value_of p id] resolves an interned value id from the plan's pool. *)
val value_of : t -> int -> Value.t

(** [iter_envs p f] calls [f env] for every satisfying slot assignment. The
    environment is borrowed: it is mutated (or dropped) after [f] returns, so
    callers must copy whatever they keep. Raising inside [f] aborts the
    enumeration. Runs on the calling domain at every pool size
    ({!Parallel.set_domains}) and opens no region, so the order of calls is
    fixed and [f] never runs concurrently. *)
val iter_envs : t -> (int array -> unit) -> unit

(** [count_envs p] is the number of satisfying slot assignments. With a
    pool and a row threshold it opens a region (see {!Parallel}): per-chunk
    counts, summed. *)
val count_envs : t -> int

(** [sat p]: some satisfying assignment exists. Runs on the scalar
    fixed-order runner, tuple at a time, on the calling domain at every
    pool size, and commits no feedback counters. *)
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

(** {2 Domain-parallel regions}

    Regions serve two primitives, both through one region driver:
    {!count_envs}, whose top level iterates the candidate rows of one
    statically chosen atom — a pure function of the plan, replicated outside
    the loop — so the row range partitions into contiguous chunks that
    domains drain from a shared atomic counter and whose counts are summed;
    and {!Rel.semijoin}, which filters its input rows chunk by chunk and
    concatenates the kept rows in chunk order. Checked mode composes: every
    count chunk runs the checked replay with the full per-run validation.
    Enumeration ({!iter_envs}, the projections) and first-match ({!sat},
    {!first_homomorphism}) open no region: they run on the calling domain
    at every pool size.
    A region falls back to sequential when the pool size is 1, the row
    count is under {!Parallel.min_rows} (always, until a threshold is set),
    or a region is already running (nested engine calls from an
    enumeration callback). *)
module Parallel : sig
  (** Set the domain pool size for count and semijoin regions (clamped to
      [1..64]). 1 = sequential. Initialized from [WDPT_ENGINE_DOMAINS].
      Enumeration and first-match ignore it. *)
  val set_domains : int -> unit

  val domains : unit -> int

  (** Minimum rows (top-level candidates of a count, input rows of a
      semijoin) before a region pays its dispatch cost: spawning and joining
      the helper domains and merging their results. Regions are opt-in:
      until this is set, {!min_rows} is [max_int] and a pool of any size
      runs sequentially. On a 2-core VM [count] won or lost by query shape
      rather than by row count, so no default was measurable. Tests set 1
      to exercise the parallel path on small instances. *)
  val set_min_rows : int -> unit

  (** The current threshold; [max_int] when none was set. *)
  val min_rows : unit -> int

  (** Morsel size: the maximum rows per parallel chunk and the batch group
      size of the vectorized interpreter (default 1024, clamped to
      [1 .. 2^20]). Initialized from [WDPT_ENGINE_MORSEL]. Capping chunk
      size at the morsel fixes the single-huge-chunk skew: one fat
      top-level range now splits into many morsels drained from the shared
      counter instead of [4 × pool] static slices. *)
  val set_morsel_rows : int -> unit

  val morsel_rows : unit -> int

  (** [chunk_size_for nd count]: rows per chunk for a pool of [nd] over
      [count] candidate rows — [ceil (count / (4 * nd))] capped at
      {!morsel_rows}, at least 1. *)
  val chunk_size_for : int -> int -> int

  (** [chunk_bounds count nchunks]: the [nchunks] fixed-stride contiguous
      morsel slices of [0, count) as [(lo, hi)] pairs (uniform stride,
      ragged last chunk) — the exact partition a region uses (and the one
      [Analysis.Par_audit] E011/E016 re-check). *)
  val chunk_bounds : int -> int -> (int * int) array

  (** [nchunks_for nd count = ceil (count / chunk_size_for nd count)]:
      chunks per region for a pool of [nd] over [count] candidate rows. *)
  val nchunks_for : int -> int -> int

  (** {2 Data-race sanitizer}

      When enabled — [WDPT_ENGINE_TSAN=1] in the environment, or
      {!set_race_check} — every parallel region logs its shared-location
      accesses (dispatch counter, error slot, per-chunk working state and
      result cells) into per-chunk event buffers with per-chunk logical clocks, and
      validates after the join that no two unordered conflicting accesses
      occurred: chunks have no happens-before edges between each other (only
      fork and join), so any two accesses to the same non-atomic location
      from different chunks with at least one write constitute a race —
      reported by raising {!Race_failure}. Atomic locations are exempt.
      Logging is deduplicated per (location, access kind, chunk), so the
      overhead is O(distinct locations) per chunk plus one lookup per
      logged access. *)

  val set_race_check : bool -> unit
  val race_check_enabled : unit -> bool

  (** Cumulative sanitizer counters: regions validated, access records
      logged, races found (a found race also raises). *)
  type race_stats = { rs_regions : int; rs_events : int; rs_races : int }

  val race_stats : unit -> race_stats
  val reset_race_stats : unit -> unit

  (** Test-only seeded fault: while enabled, each region chunk (count or
      semijoin) additionally performs a value-neutral store into a peer chunk's result
      cell — a deliberately corrupted reducer the sanitizer must catch (and
      {!Inspect.par} declares, so [Analysis.Par_audit] E014 flags it too). *)
  val set_fault_injection : bool -> unit

  val fault_injection_enabled : unit -> bool

  (** The {!count_envs} partitioning decision for a plan under the current
      configuration, as plain data (reported by [explain] and
      {!Analysis.Cost}). A chunked decision's reason names the count region
      and says that enumeration and first-match run sequentially; it never
      describes an enumeration as parallel. *)
  type decision = {
    d_domains : int;  (** configured pool size *)
    d_atom : int option;  (** top-level atom (plan index), if any *)
    d_rows : int;  (** top-level candidate rows *)
    d_chunks : int;  (** 1 = sequential *)
    d_chunk_rows : int;  (** estimated rows per chunk *)
    d_reason : string;  (** why a count region / why sequential *)
  }

  val decision : t -> decision
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
      sorted and each row indexed in that order. *)
  val make : string array -> Tuple.t list -> t

  (** [of_atom db a] is the distinct projections of the facts matching [a]
      onto the sorted variables of [a]. *)
  val of_atom : Database.t -> Atom.t -> t

  val semijoin : t -> t -> t
  val join : t -> t -> t
  val project : String_set.t -> t -> t

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
    a_calib : float;
        (** feedback calibration applied to this atom's selectivity score
            (log10 decades); [0.] on fresh or non-adapted plans *)
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
            it when the store was incrementally extended by later inserts *)
    i_live_version : int;  (** database version at inspection time *)
  }

  (** Snapshot the IR of a compiled plan. *)
  val plan : t -> view

  (** {2 The cardinality-feedback view}

      Plain-data snapshot of the per-atom runtime counters beside the
      static estimates that chose the plan — what [Analysis.Feedback]
      audits (E022–E026) and [explain --drift] prints. All counters are
      zero for a plan that never ran. *)

  type feedback_atom = {
    f_atom : int;  (** plan atom index *)
    f_contexts : int;  (** probe contexts this atom was selected in *)
    f_probed : int;  (** candidate rows probed across those contexts *)
    f_survived : int;  (** rows surviving all checks (matches) *)
    f_rows : int;  (** stored relation rows (sound E026 probe bound) *)
    f_score : float;  (** static selectivity estimate, log10 *)
    f_calib : float;  (** feedback calibration applied on top, log10 *)
  }

  type feedback_view = {
    f_atoms : feedback_atom array;  (** empty when infeasible/atomless *)
    f_runs : int;  (** completed enumerations folded in *)
    f_top : int option;
        (** the top-level atom the first dynamic selection would choose *)
    f_threshold : float;  (** {!Engine.drift_threshold} in force *)
    f_min_probed : int;  (** {!Engine.drift_min_probed} in force *)
    f_costed_at : int;
        (** stats epoch the plan's calibration was costed at; older than
            [f_store_version] is the E024 stale-epoch shape *)
    f_compiled_version : int;
    f_store_version : int;
    f_live_version : int;
  }

  val feedback : t -> feedback_view

  (** {2 The parallel execution plan}

      Plain-data view of the partitioning decision a {!count_envs} region
      would take for this plan under the current configuration, re-derived
      from the same pure functions the runtime uses ({!Parallel.decision},
      {!Parallel.nchunks_for}, {!Parallel.chunk_bounds}) — what
      [Analysis.Par_audit] verifies (E011, E014–E016). Enumeration and
      first-match open no region. *)

  (** How a declared shared location is protected: a hardware-ordered atomic
      cell, or chunk-local state only its owning chunk may write. *)
  type shared_kind =
    | Atomic_cell
    | Chunk_local

  type shared_view = { s_name : string; s_kind : shared_kind }

  (** One shared-state write site of the region: where it writes, what it
      targets, and whether only the owning chunk performs it. *)
  type write_view = { w_site : string; w_target : string; w_owner_only : bool }

  (** The region's reducer: how chunk results merge. The plan's one region
      primitive is [count], merged by [sum]. *)
  type reducer_view = {
    r_primitive : string;  (** ["count"] *)
    r_merge : string;  (** ["sum"] *)
  }

  type par_view = {
    pv_domains : int;  (** configured pool size *)
    pv_min_rows : int;  (** parallelism threshold ({!Parallel.min_rows}) *)
    pv_morsel_rows : int;  (** morsel cap ({!Parallel.morsel_rows}); no
            chunk may exceed it (E016) *)
    pv_atom : int option;  (** re-derived top-level atom (plan index) *)
    pv_rows : int;  (** top-level candidate rows *)
    pv_sequential : bool;  (** true when the region falls back to one chunk *)
    pv_reason : string;  (** why parallel / why sequential *)
    pv_chunks : (int * int) array;
        (** the [(lo, hi)] slices; must partition [0, pv_rows) exactly
            (E011). [[|(0, 0)|]] for a rowless plan. *)
    pv_reducers : reducer_view array;
    pv_shared : shared_view array;  (** declared shared-state inventory *)
    pv_writes : write_view array;
        (** every write must target a declared location, and cross-chunk
            writes only atomic ones (E014) *)
    pv_snapshots : (int * int * int) array;
        (** per domain: (compiled, store, live) version triple; all domains
            share one plan so skew is a defect (E015) *)
  }

  val par : t -> par_view

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
    b_morsel_rows : int;  (** batch group size ({!Parallel.morsel_rows}) *)
    b_stages : batch_stage_view array;
        (** fixed stage order: top-level choice first, then the static
            order — empty for infeasible or atomless plans *)
    b_columns : (int * string) array;
        (** the columnar environment: (slot, variable name) per
            stage-bound slot, one flat [int array] each at run time *)
    b_groups : int;
        (** morsel groups the top-level candidate range splits into *)
  }

  val batch : t -> batch_view

  (** The optimization trail: one [(view of the plan before the pass,
      certificate)] pair per pass, plus the final view. [([], plan p)] for
      unoptimized plans. *)
  val trail : t -> (view * cert) list * view

  (** The plans before each pass, aligned with [trail]'s stage list (for
      building {!row_matches} probes per stage). *)
  val stage_plans : t -> t list

  (** The unoptimized original of an optimized plan (itself otherwise) —
      the fallback when certificate verification rejects the trail. *)
  val base : t -> t

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

(** Raised by the data-race sanitizer ({!Parallel.set_race_check} /
    [WDPT_ENGINE_TSAN=1]) when a parallel region performed two unordered
    conflicting accesses to the same non-atomic shared location. *)
exception Race_failure of string

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

  (** [batch db ~since] nets the log window since version [since]. For
      [since >= version db] the batch is empty. O(window). *)
  val batch : Database.t -> since:int -> batch

  val is_empty : batch -> bool

  (** Membership/per-relation view of a batch, built once per refresh. *)
  type index

  val index : batch -> index
  val mem_added : index -> Fact.t -> bool
  val mem_removed : index -> Fact.t -> bool

  (** Net-added facts of a relation, oldest first. *)
  val added_of : index -> string -> Fact.t list

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
