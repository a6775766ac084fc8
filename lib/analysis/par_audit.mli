(** Static verification of the parallel execution plan
    ({!Engine.Inspect.par_view}).

    The concurrency auditor checks the soundness conditions the
    domain-parallel runtime relies on and reports violations as E-series
    {!Diagnostic}s, each with a machine-checkable witness:

    - [E011 chunk-coverage] — the chunk slices must partition the top-level
      candidate range [0, rows) exactly: no gap (a missing answer), no
      overlap (a duplicate, and an order violation for enumeration), no
      negative-width chunk, and a last chunk ending at [rows];
    - [E012 order-unsound-reducer] — an order-sensitive primitive
      (enumeration) whose merge is not chunk-order-preserving;
    - [E013 cancellation-drops-answers] — a cancelling reducer reachable
      from a primitive that needs every chunk's full answer set
      (enumeration, count); only single-witness primitives (sat) may cancel;
    - [E014 undeclared-shared-write] — a write site targeting state outside
      the declared shared inventory, or a cross-chunk write targeting a
      non-atomic (chunk-local) location;
    - [E015 cross-domain-version-skew] — domains observing different
      (compiled, store, live) snapshot triples of the one shared plan;
    - [E016 morsel-coverage] — a parallel partition that is not the
      fixed-stride morsel geometry the runtime promises: a chunk wider than
      the configured morsel cap ({!Engine.Parallel.morsel_rows}), a
      non-uniform stride before the last chunk, or an overlong tail.
      Generalizes E011 and only runs once E011 certified the slices;
      vacuous for sequential regions.

    All checks are O(plan): O(chunks) + O(reducers + writes + inventory) +
    O(domains). The genuine view is re-derived from the same pure functions
    the runtime partitions with ({!Engine.Parallel.decision},
    {!Engine.Parallel.chunk_bounds}), so a clean audit certifies the
    decision an actual region takes — the static complement of the dynamic
    race sanitizer ([WDPT_ENGINE_TSAN]). *)

(** Audit a view. Diagnostics come back in check order (E011 … E015). A view
    produced by {!Engine.Inspect.par} on a freshly compiled plan audits
    clean at every pool size — unless fault injection is enabled, which the
    genuine view declares and E014 flags. *)
val audit_view : Engine.Inspect.par_view -> Diagnostic.t list

(** [audit p = audit_view (Engine.Inspect.par p)]. *)
val audit : Engine.t -> Diagnostic.t list

(** JSON rendering of the parallel plan (decision, chunks, reducers, shared
    state, snapshots) for [wdpt explain --format json]. *)
val par_json : Engine.Inspect.par_view -> Json.t

(** Text rendering for [wdpt explain]. Multi-line; boxed by the caller. *)
val pp_par : Format.formatter -> Engine.Inspect.par_view -> unit

(** JSON rendering of the batched execution layout
    ({!Engine.Inspect.batch_view}) for [wdpt explain --format json]. *)
val batch_json : Engine.Inspect.batch_view -> Json.t

(** Text rendering of the batch layout (morsel geometry, stage pipeline)
    for [wdpt explain]. *)
val pp_batch : Format.formatter -> Engine.Inspect.batch_view -> unit
