(** Certified resource envelopes for the batched pipeline — the
    admission-control gate.

    The pass composes the batch geometry ({!Engine.Inspect.batch_view}:
    columns per stage, morsel group width, group count, probe-table gating
    thresholds) with {!Dataflow} per-step candidate-row bounds — re-run
    along the batched pipeline's fixed stage order, not the plan's static
    order, so the per-stage bounds are sound for the order that actually
    executes — into a certified peak-bytes/peak-rows envelope per plan.
    Every run is one sequential slice, so the envelope is the scratch of
    one run plus, in checked mode, one morsel group's replay buffer.

    Soundness contract, exercised by tests, [wdpt_fuzz]
    and the RESOURCE bench experiment: after any run of the plan under the
    configuration the envelope was computed for, every
    {!Engine.batch_stats} high-water mark is dominated by the matching
    envelope component ([measured <= certified]); a violation is exactly
    what {!Batch_audit.check_envelope} reports as E021. All arithmetic
    saturates at {!cap} instead of overflowing, so an exponential
    {!Dataflow.t.search_bound} turns into a saturated [r_peak_bytes] that
    any finite [--max-mem] budget rejects.

    O(plan): only view summary statistics are read, never a stored tuple. *)

(** Saturation cap for envelope arithmetic ([max_int / 16]: headroom for the
    final words-to-bytes multiply). *)
val cap : int

type t = {
  r_checked : bool;  (** checked mode (per-group replay buffering) is armed *)
  r_rows : int;  (** top-level candidate rows *)
  r_group_rows : int;  (** morsel group width bound (min morsel rows) *)
  r_groups : int;  (** morsel groups over the top-level range *)
  r_nslots : int;  (** environment width, for buffered-row byte costs *)
  r_stage_rows : int array;
      (** per fixed-order stage: sound candidate-row bound (0 = provably
          empty), from {!Dataflow} re-run along the fixed order *)
  r_peak_rows : int;  (** widest materialized level of any one slice *)
  r_column_words : int;
      (** certified columnar scratch words per slice (dominates
          {!Engine.batch_stats.bm_column_words}) *)
  r_dense_words : int;
      (** certified dense probe-table words per build (dominates
          {!Engine.batch_stats.bm_dense_words}) *)
  r_replay_rows : int;
      (** certified buffered rows per checked-mode group (dominates
          {!Engine.batch_stats.bm_replay_rows}) *)
  r_peak_bytes : int;
      (** the admission number: scratch bytes + checked-mode replay bytes *)
  r_infeasible : bool;  (** some stage provably matches nothing *)
  r_saturated : bool;  (** some product hit {!cap} — treat as unbounded *)
}

(** [analyze ?checked view batch_view]. [checked] defaults to
    [Engine.checked_enabled ()]. *)
val analyze :
  ?checked:bool -> Engine.Inspect.view -> Engine.Inspect.batch_view -> t

(** [of_plan p] under the ambient engine configuration. *)
val of_plan : Engine.t -> t

(** [admits t ~budget]: the certified peak stays within [budget] bytes (a
    saturated envelope never admits). *)
val admits : t -> budget:int -> bool

val to_json : t -> Json.t

(** Multi-line; boxed by the caller (same convention as {!Dataflow.pp}). *)
val pp : Format.formatter -> t -> unit
