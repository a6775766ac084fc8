(** Static verification of the batched (vectorized) execution layout
    ({!Engine.Inspect.batch_view}).

    The batch-pipeline auditor checks the soundness conditions the
    vectorized interpreter relies on and reports violations as E-series
    {!Diagnostic}s, each with a machine-checkable witness:

    - [E017 stage-read-before-bind] — a probe column ([bv_cols]) references
      a slot no earlier stage's [bv_binds] wrote and that carries no
      init-bound constant: the probe would chase garbage column values;
    - [E018 column-aliasing] — two stages bind the same slot column, or a
      bind overwrites an init-bound slot (the compiler folds init slots
      into constant checks, so a genuine layout never writes one);
    - [E019 incomplete-position-cover] — a stage's
      [bv_checks ∪ bv_cols ∪ bv_binds ∪ bv_dups] does not cover its stored
      relation's arity: the probe admits tuples the scalar semantics would
      reject at the uncovered position;
    - [E020 filter-stage-binds] — the [bv_filter] flag contradicts the bind
      list: a stage flagged as a mask-only filter that nonetheless binds
      (its writes would be skipped), or a stage claiming new columns that
      binds none — on the final stage that means its streamed output would
      be consumed through the materialized-column read-back path;
    - [E021 unsound-resource-envelope] — a certified {!Resource} envelope
      component smaller than the matching measured
      {!Engine.batch_stats} high-water mark ({!check_envelope}).

    All checks are O(plan). The genuine view is re-derived from the same
    pure stage compiler the batched interpreter runs
    ([Engine.batch_stages]), so a clean audit certifies the layout an
    actual run uses. *)

(** Audit a layout. Diagnostics come back in check order (E017 … E020). A
    view produced by {!Engine.Inspect.batch} on a freshly compiled plan
    audits clean at every morsel size. The plan view supplies the
    init environment (E017/E018 init-bound slots) and per-atom arities
    (E019). *)
val audit_view :
  Engine.Inspect.view -> Engine.Inspect.batch_view -> Diagnostic.t list

(** [audit p = audit_view (Engine.Inspect.plan p) (Engine.Inspect.batch p)]. *)
val audit : Engine.t -> Diagnostic.t list

(** [check_envelope env stats]: one E021 per envelope component a measured
    high-water mark exceeds ([column-words], [probe-table-words],
    [replay-rows]). Empty on every genuine run — the soundness property the
    fuzzer's [--batch-audit-diff] mode holds over random instances. *)
val check_envelope : Resource.t -> Engine.batch_stats -> Diagnostic.t list

(** JSON rendering of the batched execution layout
    ({!Engine.Inspect.batch_view}) for [wdpt explain --format json]. *)
val batch_json : Engine.Inspect.batch_view -> Json.t

(** Text rendering of the batch layout (morsel geometry, stage pipeline)
    for [wdpt explain]. Multi-line; boxed by the caller. *)
val pp_batch : Format.formatter -> Engine.Inspect.batch_view -> unit
