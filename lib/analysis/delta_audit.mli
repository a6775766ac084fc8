(** Delta-maintenance auditor: codes E027–E030.

    Verifies the incremental-evaluation machinery from the outside, on plain
    data: that derived dirty ranges cover every probe position a batch
    touches (E027), that a standing-query view's subsumption frontiers are
    exactly the ⊑-maximal answers of their groups and its materialised
    p_m(D) is their union (E028), that its support counts recompute from
    the stored homomorphisms and its materialised p(D) is the union of the
    group answers (E029), and that a
    refresh's event stream replays the pre-batch answer sets onto full
    re-evaluation at both semantics levels (E030). All checks are
    O(batch × atoms) or O(view) — never O(database). *)

open Relational

(** [audit_ranges atoms b ranges]: E027. Every value of every batch fact
    unifiable with an atom of [atoms] must appear in that atom's dirty range
    at the fact's position. Pass the output of
    [Engine.Delta.dirty_ranges atoms b] as [ranges] (the check exists so a
    corrupted or hand-rolled derivation is caught). *)
val audit_ranges :
  Atom.t list ->
  Engine.Delta.batch ->
  Engine.Delta.dirty_range list ->
  Diagnostic.t list

(** [audit_view p v]: E028 + E029 over a standing-query view for query [p]:
    rootkey filing, support counts against the stored homomorphisms (both
    directions) and the materialised p(D) against the union of the group
    answers (E029); frontier maximality per group and the materialised
    p_m(D) against the union of the group frontiers (E028). *)
val audit_view : Wdpt.Pattern_tree.t -> Wdpt.Standing.view -> Diagnostic.t list

(** [audit t] = [audit_view (Standing.query t) (Standing.view t)]. *)
val audit : Wdpt.Standing.t -> Diagnostic.t list

(** [check_events ~before_eval ~before_max ~after_eval ~after_max events]:
    E030. Replays [events] over the pre-batch answer sets and diffs the
    result against the post-batch sets (full re-evaluation) at both
    levels; also flags internally inconsistent events (adding an existing
    answer, demoting a non-frontier answer, ...). *)
val check_events :
  before_eval:Mapping.Set.t ->
  before_max:Mapping.Set.t ->
  after_eval:Mapping.Set.t ->
  after_max:Mapping.Set.t ->
  Wdpt.Standing.event list ->
  Diagnostic.t list
