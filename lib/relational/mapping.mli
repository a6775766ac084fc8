(** Partial mappings [h : X -> U] and the subsumption order [⊑].

    These are the objects the whole paper quantifies over: answers to CQs and
    WDPTs are partial mappings, compared by subsumption ([subsumes]). *)

type t

val empty : t
val is_empty : t -> bool

val singleton : string -> Value.t -> t
val add : string -> Value.t -> t -> t

(** [of_list bs] builds a mapping from bindings; later bindings win. *)
val of_list : (string * Value.t) list -> t

val find : string -> t -> Value.t option
val mem : string -> t -> bool
val bindings : t -> (string * Value.t) list
val domain : t -> String_set.t
val cardinal : t -> int

(** [term x h] is [h(x)] as a term: the bound constant, or [Var x] when
    [x ∉ dom(h)]. *)
val term : string -> t -> Term.t

(** [subsumes h h'] holds iff [h ⊑ h']: [dom(h) ⊆ dom(h')] and they agree on
    [dom(h)]. *)
val subsumes : t -> t -> bool

(** [strictly_subsumes h h'] holds iff [h ⊏ h']. *)
val strictly_subsumes : t -> t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

(** [compatible h h'] holds iff they agree on the intersection of their
    domains (so their union is a mapping). *)
val compatible : t -> t -> bool

(** [union h h'] joins two mappings.
    @raise Invalid_argument if they are not compatible. *)
val union : t -> t -> t

(** [restrict vars h] is [h] restricted to [vars]. *)
val restrict : String_set.t -> t -> t

(** [restrict_list xs h] restricts to the listed variables. *)
val restrict_list : string list -> t -> t

(** [apply_atom h a] substitutes bound variables of [a] by their values. *)
val apply_atom : t -> Atom.t -> Atom.t

(** [matches_fact h a f] checks that atom [a] can be mapped onto fact [f]
    consistently with [h], returning the extension of [h] binding the
    remaining variables of [a]. *)
val matches_fact : t -> Atom.t -> Fact.t -> t option

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t

(** [maximal_set s] keeps the elements of [s] that no other element strictly
    subsumes: the [⊑]-maximal mappings of a set of mappings built
    elsewhere (a standing view's frontier, the answers of a union or of the
    algebraic evaluator, the reference oracle). [Semantics.eval_max] does
    not call it: it filters its answers as interned rows before any mapping
    exists.

    One call indexes every binding [x ↦ v] to the elements holding it, then
    tests each [h] only against the elements of larger domain in the
    shortest posting list of [h]'s bindings (a strict subsumer holds all of
    them). Building the index is O(Σ|h|) hashtable operations; the filter
    costs one [subsumes] per entry of each scanned list, so it is quadratic
    only when every binding of many mappings is shared by many others. *)
val maximal_set : Set.t -> Set.t

(** [maximal_elements hs] is [maximal_set] over the distinct elements of
    [hs], sorted by [compare]. *)
val maximal_elements : t list -> t list
