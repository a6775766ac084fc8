(** Support-counted answer sets with their subsumption frontier.

    One [Frontier.t] holds the answers of a single comparability group — in
    WDPT maintenance, the answers sharing a root-free-key, since only those
    can ever be ⊑-comparable — as a multiset (each answer's *support* is the
    number of maximal homomorphisms projecting to it) together with the
    ⊑-maximal answers. {!apply} shifts the supports by a delta and reports
    the induced status changes as {!event}s: this is the unit of work
    standing-query refresh ({!Standing.refresh}) of a projected view
    performs per touched group, and the structure that makes OPT demotion
    observable — an insertion can push a new answer above an existing
    maximal one, which then leaves the frontier while remaining an answer. *)

open Relational

type t

(** One answer's status change, at the two semantics levels. [Added]: the
    answer is new (support went 0 → positive); [maximal] tells whether it
    entered the frontier too. [Removed]: the answer is gone (support hit 0);
    [was_maximal] tells whether it was on the frontier. [Demoted]: still an
    answer, but a new strictly-subsuming answer pushed it off the frontier.
    [Promoted]: already an answer, re-entered the frontier (its dominators
    disappeared). *)
type event =
  | Added of { answer : Mapping.t; maximal : bool }
  | Removed of { answer : Mapping.t; was_maximal : bool }
  | Promoted of Mapping.t
  | Demoted of Mapping.t

val answer_of : event -> Mapping.t

val empty : t
val is_empty : t -> bool

(** [of_answers l] builds the group from a list of projections (with
    multiplicity: equal projections accumulate support). *)
val of_answers : Mapping.t list -> t

(** The distinct answers (support > 0). *)
val answers : t -> Mapping.Set.t

(** The ⊑-maximal answers. *)
val maximal : t -> Mapping.Set.t

val support : t -> Mapping.t -> int

(** [apply t ~add ~remove] shifts supports by the two multisets (projections
    of appearing / disappearing maximal homomorphisms), recomputes the
    frontier, and returns the new group with the status-change events,
    sorted by answer.
    @raise Invalid_argument if [remove] takes some answer below support 0. *)
val apply : t -> add:Mapping.t list -> remove:Mapping.t list -> t * event list
