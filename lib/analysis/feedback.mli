(** Cardinality-feedback auditor: static verification of the engine's
    runtime counter view ({!Engine.Inspect.feedback_view}) and of adaptive
    plan-swap certificates ({!Engine.swap_cert}). Diagnostics E022–E026;
    every check is O(plan size), no stored tuple is inspected and no query
    is re-executed.

    - [E022 estimate-drift] (warning) — an atom's observed log10
      selectivity (survivors per probe context) exceeds its calibrated
      estimate by more than the view's threshold, with at least the probe
      floor of evidence. One-sided: overestimates never fire. This is the
      same predicate {!Engine.replan} adapts on, so an E022 finding is
      exactly "the adaptive loop would (or should) re-plan here".
    - [E023 counter-coverage] (error) — the counter vector does not cover
      the plan's instruction list (wrong indices), a counter is negative,
      an atom reports more survivors than probed rows or probes without a
      probe context, or a completed run failed to credit the top-level
      atom's context (checked only while the store is untouched since
      compilation — extension can legitimately move the top choice).
    - [E024 stale-stats-epoch] (error) — a {e calibrated} plan served under
      a store version newer than the stats epoch its calibration was costed
      at: the learned conclusions predate the statistics. Extends the E006
      three-way version story to the feedback cache; uncalibrated plans are
      exempt (their costing epoch is vacuous, extension is the E006 note
      form).
    - [E025 unjustified-replan] (error) — a swap certificate that does not
      re-verify; see {!verify_swap}.
    - [E026 inconsistent-collector] (error) — an atom's survivor count
      exceeds the sound ceiling [runs × Π_a max(1, |R_a|)] derived from
      the stored row counts alone: the collector itself is broken. *)

(** Audit a feedback view (tests corrupt copies of it). Findings in check
    order: E023, E026, E024, E022. *)
val audit_view : Engine.Inspect.feedback_view -> Diagnostic.t list

(** [audit p] = {!audit_view} of [p]'s genuine view; clean on any view the
    engine actually produced. *)
val audit : Engine.t -> Diagnostic.t list

(** Re-verify an adaptive plan swap from its certificate and the
    before/after plan views, trusting neither. Valid iff the certificate is
    costed at the before-plan's store epoch over at least one run; names at
    least one in-range drifted atom whose claimed estimate recomputes from
    the before-view's statistics and calibration and whose drift genuinely
    exceeds {!Engine.drift_threshold}; its calibration vector recomputes
    (before-calibration plus the drift surplus on drifted atoms); and the
    after-plan differs from the before-plan only in calibration (the
    certificate's) and order (sorted by the calibrated key). Empty list =
    valid; every finding is E025. *)
val verify_swap :
  before:Engine.Inspect.view ->
  after:Engine.Inspect.view ->
  Engine.swap_cert ->
  Diagnostic.t list

(** The estimate-vs-actual table as JSON (the [explain --drift]
    ["feedback"] key). *)
val view_json : Engine.Inspect.feedback_view -> Json.t

(** The estimate-vs-actual table, one atom per row, drifted atoms marked. *)
val pp_view : Format.formatter -> Engine.Inspect.feedback_view -> unit

(** ["feedback audit: clean"] or the findings, one per line. *)
val pp_report : Format.formatter -> Diagnostic.t list -> unit
