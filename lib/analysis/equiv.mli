(** Translation validation of the engine's optimization passes.

    Every pass of {!Engine.optimize} emits a plain-data certificate
    ({!Engine.cert}); this checker re-derives each claim from the before and
    after IR views in O(plan) and reports anything it cannot justify as an
    E-series diagnostic:

    - [E007 unjustified-slot-renaming] — a mapped slot changes variable name
      or initial binding, a dropped slot is still touched by an instruction,
      or a slot use is rewritten against the slot map;
    - [E008 dropped-check] — a [Check] constant changed, vanished or was
      weakened to a [Slot]; a [Slot → Check] fold has no matching initial
      binding; an atom was dropped without a surviving exact duplicate or a
      probe-confirmed stored-row witness;
    - [E009 reorder-violates-dependency] — a non-reordering pass changed the
      static order, [check-hoist] deviated from the stable ground-first
      partition, or a reordering pass left the order unsorted by the
      (ground, selectivity) key;
    - [E010 certificate-plan-mismatch] — the certificate is structurally
      inconsistent with the plans (map lengths, ranges, injectivity and
      surjectivity; pool, feasibility or version drift; unrecorded or bogus
      folds and drops; claimed scores that do not recompute).

    [Engine.compile] and [Engine.bind] run the optimized plan without
    verifying it; the trail is checked only where a caller asks
    ([explain --opt], [wdpt_fuzz], the tests). A bound plan's trail is
    re-derived on demand and ends at the bound plan itself, so it also
    checks [Engine.bind] against the passes. A rejected trail is always an
    optimizer bug, so the diagnostics are errors. *)

(** Verify one pass step. [probe] confirms [Ground_matched] drop claims
    against the stored relation (use
    [Engine.Inspect.row_matches] of the plan the pass ran on); without it
    such drops are conservatively rejected. Diagnostics come back in check
    order; a structurally broken certificate (E010) short-circuits the
    deeper checks. An empty list means the step is justified. *)
val verify_step :
  ?probe:(atom:int -> row:int -> bool) ->
  before:Engine.Inspect.view ->
  after:Engine.Inspect.view ->
  Engine.cert ->
  Diagnostic.t list

type step_report = {
  sr_pass : string;
  sr_cert : Engine.cert;
  sr_before : Engine.Inspect.view;
  sr_after : Engine.Inspect.view;
  sr_diagnostics : Diagnostic.t list;  (** empty = verified *)
}

type report = {
  r_steps : step_report list;  (** in pass order; empty for unoptimized plans *)
  r_verified : bool;  (** every step verified *)
}

(** Verify the whole optimization trail of a plan, with probes supplied
    automatically from the plan's provenance. Unoptimized plans verify
    trivially ([r_steps = []]). *)
val verify_trail : Engine.t -> report

(** All diagnostics of a report, in pass order. *)
val diagnostics : report -> Diagnostic.t list

val report_json : report -> Json.t

(** Multi-line; boxed by the caller. *)
val pp_report : Format.formatter -> report -> unit
