(** Cardinality-feedback auditor: static verification of the engine's
    runtime counter view ({!Engine.Inspect.feedback_view}), the per-atom
    actuals of completed runs beside the static estimates that chose the
    plan. Diagnostics E022, E023 and E026 (E024 and E025 are retired with
    the adaptive re-planning loop they audited); every check is O(plan
    size), no stored tuple is inspected and no query is re-executed.

    - [E022 estimate-drift] (warning) — an atom's observed log10
      selectivity (survivors per probe context) exceeds its static
      estimate by more than the view's threshold, with at least the probe
      floor of evidence. One-sided: overestimates never fire. A finding
      says the uniformity estimate was off, not that an answer is wrong.
    - [E023 counter-coverage] (error) — the counter vector does not cover
      the plan's instruction list (wrong indices), a counter is negative,
      an atom reports more survivors than probed rows or probes without a
      probe context, or a completed run failed to credit the top-level
      atom's context (checked only while the store is untouched since
      compilation — extension can legitimately move the top choice).
    - [E026 inconsistent-collector] (error) — an atom's survivor count
      exceeds the sound ceiling [runs × Π_a max(1, |R_a|)] derived from
      the stored row counts alone: the collector itself is broken. *)

(** Audit a feedback view (tests corrupt copies of it, or lower its
    threshold). Findings in check order: E023, E026, E022. *)
val audit_view : Engine.Inspect.feedback_view -> Diagnostic.t list

(** [audit p] = {!audit_view} of [p]'s genuine view. A view the engine
    actually produced carries no error; E022 warnings can fire on it. *)
val audit : Engine.t -> Diagnostic.t list

(** The estimate-vs-actual table as JSON (the [explain --drift]
    ["feedback"] key). *)
val view_json : Engine.Inspect.feedback_view -> Json.t

(** The estimate-vs-actual table, one atom per row, drifted atoms marked. *)
val pp_view : Format.formatter -> Engine.Inspect.feedback_view -> unit

(** ["feedback audit: clean"] or the findings, one per line. *)
val pp_report : Format.formatter -> Diagnostic.t list -> unit
