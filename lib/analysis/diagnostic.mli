(** Structured findings of the static analyzer ({!Lint}).

    Every diagnostic carries a stable code, a severity, an optional source
    span (when the query came with position information), a human-readable
    message, a machine-checkable witness, and — where one exists — a
    suggested fix. The codes:

    - [S001 parse-error] — the input does not parse (error);
    - [W001 not-well-designed] — Definition 1 connectedness fails, or the
      SPARQL pattern violates the Pérez-et-al. condition (error);
    - [W002 unsafe-free-variable] — a declared free variable is missing from
      the pattern, or declared twice (error);
    - [W003 unsatisfiable] — a relation is used at two different arities, so
      no database over a fixed-arity schema satisfies both uses (warning);
    - [W004 redundant-atom] — an atom whose removal provably preserves the
      semantics ({!Wdpt.Simplify}) (warning);
    - [W005 cartesian-product] — a node joins groups of atoms that share no
      variable beyond those bound by ancestor nodes (warning);
    - [W006 dead-branch] — an OPT branch that binds no new variable and
      therefore never extends any answer (warning);
    - [W007 class-membership] — the least widths placing the query in the
      paper's tractable fragments (hint).

    The E-series codes are findings of the plan auditor ({!Plan_audit}) over
    the compiled engine IR ({!Engine.Inspect.view}):

    - [E001 uninitialized-slot-read] — an instruction references an
      environment slot outside the initialized environment (error);
    - [E002 interner-id-out-of-range] — a [Check] constant or an initial
      binding carries an id outside the interner pool (error);
    - [E003 plan-arity-mismatch] — an atom's instruction count, its
      relation's stored arity and its per-position index count disagree
      (error);
    - [E004 dead-slot] — a slot in the slot table that no instruction reads
      or writes and that carries no initial binding (warning);
    - [E005 atom-order-inversion] — the static atom order contradicts the
      (ground, selectivity) key it was derived from (warning);
    - [E006 stale-plan-cache] — the plan's compiled database snapshot is
      older than the live database's version counter (error).

    The E007–E010 codes are findings of the translation-validation checker
    ({!Equiv}) over optimization-pass certificates:

    - [E007 unjustified-slot-renaming] — the certificate's slot map renames a
      slot to a different variable, changes its initial binding, or drops a
      slot some instruction still touches (error);
    - [E008 dropped-check] — a [Check] constant changed or vanished without a
      fold justification, or an atom was dropped without a surviving
      duplicate or a confirmed stored-row witness (error);
    - [E009 reorder-violates-dependency] — a pass not flagged as reordering
      changed the static order, or a reordering pass broke the (ground,
      selectivity) discipline (error);
    - [E010 certificate-plan-mismatch] — the certificate is structurally
      inconsistent with the before/after plans: wrong map lengths, targets
      out of range, non-injective maps, invented atoms or slots, changed
      pool or feasibility, or claimed scores that do not recompute (error).

    E011–E016 are retired. E011 and E014–E016 audited the partition, the
    shared-state discipline and the snapshots of the domain-parallel count
    and semijoin regions; E012 and E013 audited the parallel enumeration
    and [sat] reducers. None of these runtimes exists any more, and the
    numbers are not reused.

    The E017–E021 codes are findings of the batch-pipeline auditor
    ({!Batch_audit}) over the vectorized execution plan
    ({!Engine.Inspect.batch_view}) and the certified resource envelope
    ({!Resource}):

    - [E017 stage-read-before-bind] — a probe column references a slot no
      earlier stage bound and that carries no init-time constant, so the
      probe would chase garbage values (error);
    - [E018 column-aliasing] — two stages bind the same slot column, or a
      bind overwrites an init-bound slot: the later writer silently clobbers
      the earlier one's column (error);
    - [E019 incomplete-position-cover] — a stage's checks ∪ probe columns ∪
      binds ∪ duplicate ties do not cover its stored relation's arity, so
      the probe over-matches rows the scalar semantics would reject (error);
    - [E020 filter-stage-binds] — a stage flagged as a pure filter that
      nonetheless binds columns, or a streamed final stage whose output some
      later consumer reads as a materialized column (error);
    - [E021 unsound-resource-envelope] — a certified peak-memory envelope
      component ({!Resource}) smaller than a measured high-water mark, i.e.
      the admission-control bound under-promised (error).

    The E022, E023 and E026 codes are findings of the cardinality-feedback
    auditor ({!Feedback}) over the runtime counter view
    ({!Engine.Inspect.feedback_view}):

    - [E022 estimate-drift] — an atom's observed log10 selectivity exceeds
      its static estimate by more than the view's threshold (warning: the
      estimates were off, nothing computed wrongly);
    - [E023 counter-coverage] — the counter vector does not cover the
      plan's instruction list, or the counters are internally impossible
      (negative, or more survivors than probes) (error);
    - [E026 inconsistent-collector] — an observed survivor count exceeding
      the sound per-run ceiling (runs × the stored relation rows reachable
      per context), i.e. the collector itself is broken (error).

    E024 and E025 are retired. E024 flagged a plan served with a learned
    calibration under a newer stats epoch than it was learned at, and E025
    a plan-swap certificate of the adaptive re-planning loop that did not
    re-verify. The engine learns no calibration and swaps no plan any
    more, and the numbers are not reused.

    The E027–E030 codes are findings of the delta-maintenance auditor
    ({!Delta_audit}) over standing-query views ([Wdpt.Standing.view]),
    dirty-range derivations ([Engine.Delta.dirty_ranges]) and refresh event
    streams:

    - [E027 delta-dirty-coverage] — a batch fact unifiable with a probed
      atom whose value at some position is missing from that atom's derived
      dirty range: the scoped re-run could skip a touched candidate range
      (error);
    - [E028 frontier-nonmaximal] — a maintained subsumption frontier that
      is not the set of ⊑-maximal answers of its group: a frontier member
      strictly subsumed by another answer, a maximal answer missing from
      the frontier, or a frontier member that is not an answer at all
      (error);
    - [E029 delta-support-mismatch] — an answer's stored support count
      disagrees with the count derived from the stored homomorphisms, a
      stored homomorphism filed under the wrong rootkey, or a partition
      projecting into a group that does not hold it (error);
    - [E030 delta-event-mismatch] — a refresh's emitted change events,
      applied to the pre-batch answer sets, fail to reproduce full
      re-evaluation at one of the two semantics levels (error). *)

open Relational

type severity = Error | Warning | Hint

type code =
  | Parse_error  (** S001 *)
  | Not_well_designed  (** W001 *)
  | Unsafe_free  (** W002 *)
  | Unsatisfiable  (** W003 *)
  | Redundant_atom  (** W004 *)
  | Cartesian_product  (** W005 *)
  | Dead_branch  (** W006 *)
  | Class_membership  (** W007 *)
  | Uninit_slot_read  (** E001 *)
  | Interner_range  (** E002 *)
  | Plan_arity_mismatch  (** E003 *)
  | Dead_slot  (** E004 *)
  | Order_inversion  (** E005 *)
  | Stale_plan  (** E006 *)
  | Slot_renaming  (** E007 *)
  | Dropped_check  (** E008 *)
  | Reorder_violation  (** E009 *)
  | Cert_mismatch  (** E010 *)
  | Stage_read_before_bind  (** E017 *)
  | Column_aliasing  (** E018 *)
  | Position_cover  (** E019 *)
  | Filter_binds  (** E020 *)
  | Resource_envelope  (** E021 *)
  | Drift  (** E022 *)
  | Counter_coverage  (** E023 *)
  | Collector_inconsistent  (** E026 *)
  | Delta_dirty  (** E027 *)
  | Frontier_nonmaximal  (** E028 *)
  | Support_mismatch  (** E029 *)
  | Event_mismatch  (** E030 *)

(** ["W001"] *)
val code_id : code -> string

(** ["not-well-designed"] *)
val code_name : code -> string

(** Machine-checkable evidence, one constructor per kind of defect. Node
    indices refer to {!Wdpt.Pattern_tree} preorder numbering. *)
type witness =
  | Disconnected of {
      variable : string;
      top : int;  (** a mentioning node outside [stray]'s subtree *)
      stray : int;  (** a mentioning node whose parent does not mention it *)
      broken_at : int;
          (** [stray]'s parent: on the path between the two, not mentioning *)
    }
  | Escaping of {
      variable : string;
      subpattern : string;  (** the [e1 OPT e2] it escapes, printed *)
    }  (** SPARQL-level Pérez-et-al. violation *)
  | Missing_free of string
  | Duplicate_free of string
  | Arity_clash of {
      relation : string;
      node_a : int;
      arity_a : int;
      node_b : int;
      arity_b : int;
    }
  | Redundant of { node : int; atom : Atom.t; rule : Wdpt.Simplify.reason }
  | Cartesian of {
      node : int;
      components : string list list;
          (** per independent group: its variables not bound by ancestors *)
    }
  | Dead of { node : int }
  | Membership of {
      local_tw : int;  (** least k with p ∈ ℓ-TW(k) *)
      interface : int;  (** least c with p ∈ BI(c) *)
      wb_tw : int;  (** least k with p ∈ WB(k) = g-TW(k) *)
    }
  | Slot_range of { atom : int; op : int; slot : int; env : int }
      (** E001: instruction [op] of [atom] touches [slot], environment has
          [env] slots *)
  | Id_range of { site : string; id : int; pool : int }
      (** E002: [site] ("atom i op j" / "init slot s") carries [id], pool has
          [pool] ids *)
  | Plan_arity of {
      atom : int;
      relation : string;
      ops : int;  (** instruction count *)
      arity : int;  (** stored relation arity *)
      index : int;  (** per-position index count *)
    }  (** E003 *)
  | Dead_slot_of of { slot : int; variable : string }  (** E004 *)
  | Inversion of {
      first : int;  (** plan index of the earlier atom *)
      rows_first : int;
      score_first : float;  (** its selectivity score ({!Engine.selectivity}) *)
      ground_first : bool;
      second : int;  (** plan index of the later atom with the smaller key *)
      rows_second : int;
      score_second : float;
      ground_second : bool;
    }  (** E005 *)
  | Stale of { compiled : int; live : int }
      (** E006 (error form): the plan's compiled store is detached — the live
          database moved past it and the store was not caught up — or a
          removal the store synced after compile replaced the relation
          record one of the plan's atoms reads *)
  | Extended of { compiled : int; store : int; live : int }
      (** E006 (note form): the plan was compiled at [compiled] but its store
          was incrementally extended to [store] = [live]; existing rows are
          untouched and candidate sets only grow, so the plan stays sound *)
  | Renamed of {
      pass : string;
      slot : int;  (** before-plan slot *)
      variable : string;  (** its variable name in the before plan *)
      target : int;  (** mapped after-plan slot, [-1] = dropped *)
    }  (** E007 *)
  | Dropped of {
      pass : string;
      atom : int;  (** before-plan atom index *)
      pos : int;  (** instruction position, [-1] = the whole atom *)
      before : string;  (** rendered before state *)
      after : string;  (** rendered after state / drop claim *)
    }  (** E008 *)
  | Reordered of {
      pass : string;
      position : int;  (** index into the after static order *)
      atom : int;  (** after-plan atom at that position *)
      detail : string;
    }  (** E009 *)
  | Cert of { pass : string; field : string; detail : string }  (** E010 *)
  | Read_before_bind of {
      stage : int;  (** the reading stage (fixed-order index) *)
      atom : int;  (** its plan atom index *)
      pos : int;  (** the probing position within the atom *)
      slot : int;  (** the slot the probe chases *)
      binder : int;
          (** the stage the view claims bound it, [-1] = init / unbound *)
    }  (** E017 *)
  | Aliased of {
      slot : int;
      first_stage : int;  (** earlier binder, [-1] = bound at init *)
      second_stage : int;  (** the stage that binds it again *)
      init : bool;  (** the clobbered binding is an init-time constant *)
    }  (** E018 *)
  | Cover of {
      stage : int;
      atom : int;
      arity : int;  (** the stored relation's arity *)
      covered : int;  (** positions the stage accounts for *)
      missing : int;  (** first uncovered position *)
    }  (** E019 *)
  | Filter_bind of {
      stage : int;
      atom : int;
      binds : int;  (** how many columns the "filter" binds *)
      streamed : bool;
          (** true: the streamed final stage's output is read as a column *)
    }  (** E020 *)
  | Envelope of {
      component : string;
          (** ["column-words"] / ["probe-table-words"] / ["replay-rows"] *)
      certified : int;  (** the envelope's claimed bound *)
      measured : int;  (** the high-water mark that exceeded it *)
    }  (** E021 *)
  | Drifted of {
      atom : int;  (** plan atom index *)
      estimated : float;  (** static log10 selectivity estimate *)
      observed : float;  (** log10 (survived / contexts) *)
      threshold : float;  (** the threshold in force at audit time *)
      contexts : int;
      probed : int;
      survived : int;
    }  (** E022 *)
  | Counter_of of {
      atom : int;  (** offending atom index, [-1] = the vector itself *)
      detail : string;
    }  (** E023 *)
  | Collector_of of {
      atom : int;
      survived : int;  (** the impossible observed count *)
      runs : int;
      bound : float;  (** sound log10 ceiling on survivors *)
    }  (** E026 *)
  | Dirty_of of {
      atom : int;  (** index into the probed atom list *)
      pos : int;  (** the uncovered position *)
      value : string;  (** the batch value missing from the range *)
      fact : string;  (** the batch fact that carries it *)
    }  (** E027 *)
  | Frontier_of of {
      group : string;  (** the root-free-key, printed *)
      answer : string;  (** the offending answer *)
      against : string;  (** the answer witnessing the violation *)
      detail : string;
          (** ["dominated-on-frontier"] / ["missing-from-frontier"] /
              ["frontier-not-answer"] *)
    }  (** E028 *)
  | Support_of of {
      group : string;
      answer : string;
      stored : int;  (** the support count the view claims *)
      derived : int;  (** the count recomputed from the stored homs *)
      detail : string;
    }  (** E029 *)
  | Event_of of {
      answer : string;
      level : string;  (** ["eval"] / ["max"] *)
      detail : string;
    }  (** E030 *)

type fix =
  | Apply_rewrite of Wdpt.Simplify.rewrite
      (** consumable by {!Wdpt.Simplify.apply} / {!Wdpt.Optimizer.plan} *)
  | Remove_free of string  (** drop the variable from the free list *)

type t = {
  code : code;
  severity : severity;
  span : Wdpt.Loc.span option;
  message : string;
  witness : witness option;
  fix : fix option;
}

(** [make code message] with the code's fixed severity. *)
val make : ?span:Wdpt.Loc.span -> ?witness:witness -> ?fix:fix -> code -> string -> t

(** [2] if any error, else [1] if any warning, else [0]. *)
val exit_code : t list -> int

(** [count severity ds]. *)
val count : severity -> t list -> int

(** One line: ["W001 error 1:10-1:18: variable ?x ..."]. *)
val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t

(** The full report: [{"diagnostics": [...], "summary": {...},
    "exit-code": n}]. *)
val report_json : t list -> Json.t
