(** Databases: finite sets of facts, with hash indexes per relation and per
    (relation, position, value) for efficient candidate retrieval during
    homomorphism search. *)

type t

val create : unit -> t
val of_list : Fact.t list -> t
val of_atoms : Atom.t list -> t

(** [add db f] inserts a fact (idempotent). Re-adding a fact that was
    {!remove}d resurrects it in place: the tombstone is cleared and the live
    counts restored without touching the physical index cells. *)
val add : t -> Fact.t -> unit

(** [remove db f] deletes a live fact (no-op otherwise). Deletion is by
    tombstone: the fact is dropped from the live set and every counted cell's
    live count is decremented, but the physical cell lists keep the fact
    until the next {!compact} (automatic once tombstones outnumber a third of
    the live facts, or explicit). Reads ({!facts_of}, {!candidates}) filter
    tombstones lazily, so in-flight enumerations over previously obtained
    candidate lists keep a consistent snapshot. Between a remove and the next
    compaction, {!active_domain}/{!adom_size} may overapproximate. *)
val remove : t -> Fact.t -> unit

(** [compact db] physically erases tombstoned facts from every index cell and
    recomputes the active domain and distinct-value statistics exactly.
    No-op when there are no tombstones; never changes the live fact set,
    {!version} or {!deletions}. *)
val compact : t -> unit

val mem : t -> Fact.t -> bool
val size : t -> int
val facts : t -> Fact.t list
val facts_of : t -> string -> Fact.t list

(** [count_of db rel] is [List.length (facts_of db rel)], read from the
    counted relation cell in O(1). *)
val count_of : t -> string -> int

(** [index_count db rel pos v] is the number of facts of [rel] whose argument
    at [pos] equals [v], read from the counted index cell in O(1). *)
val index_count : t -> string -> int -> Value.t -> int

(** [distinct_count db rel pos] is the number of distinct values occurring at
    argument position [pos] of [rel], maintained incrementally (O(1) read).
    Bounds the image of any variable at that position — the per-variable
    domain statistics the static cost model ({!Analysis.Cost}) reads. *)
val distinct_count : t -> string -> int -> int

(** [|active_domain db|] in O(1). *)
val adom_size : t -> int

val relations : t -> string list
val schema : t -> Schema.t

(** Monotone modification counter: bumped on every successful {!add} and
    every successful {!remove}. Lets derived structures (e.g. the compiled
    engine form) detect staleness. *)
val version : t -> int

(** Monotone deletion epoch: bumped on every successful {!remove}, never by
    {!add} or {!compact}. Tells whether any deletion happened since a
    reading was taken; derived structures catch up through {!net_changes},
    which sees insertions and deletions alike. *)
val deletions : t -> int

(** One entry of the modification log: the stamped insertion log and deletion
    log, interleaved in modification order. *)
type change =
  | Add of Fact.t
  | Remove of Fact.t

(** [changes_since db v] lists the log entries recorded after the database
    was at version [v], oldest first. Per fact, the entries of any such
    window strictly alternate [Add]/[Remove] starting from the fact's state
    at version [v] ({!add} only logs when the fact is absent, {!remove} only
    when it is live) — so the net effect on a fact is read off the first and
    last entry alone. Returns [[]] when [v >= version db]. O(version - v). *)
val changes_since : t -> int -> change list

(** [net_changes db v] nets the log window after version [v] into
    [(added, removed)]: the facts live now but not at [v], and the facts
    live at [v] but not now, each in order of first appearance in the
    window. Facts added and removed again inside the window (or removed and
    re-added) appear in neither list. This is the one netting function of
    the log: {!facts_since}, [Engine.Delta.batch] and the compiled engine
    store's sync all read it. Returns [([], [])] when [v >= version db],
    including versions *ahead* of the current one (a caller holding a stamp
    from a different database simply gets no catch-up feed, never garbage).
    O(version - v); an insert-only window is read off without hashing. *)
val net_changes : t -> int -> Fact.t list * Fact.t list

(** [facts_since db v] = [fst (net_changes db v)]: the *net-new* facts since
    version [v], in order of first insertion. [facts_since db 0] replays the
    whole live database. When no deletion touched the window this is exactly
    the slice of the insertion log. Net removals are invisible to this
    function; use {!net_changes} or {!changes_since} to see them. *)
val facts_since : t -> int -> Fact.t list

(** One cache slot for a derived structure. The slot survives {!add} and
    {!remove} — the structure is expected to compare its stored version
    against {!version} and catch up via {!net_changes} (the compiled engine
    form does exactly this). Extend [cache] with your constructor. *)
type cache = ..

val get_cache : t -> cache option
val set_cache : t -> cache -> unit

(** Drop the cached derived structure, forcing the next consumer to rebuild
    from scratch (benchmark baseline and differential tests). *)
val clear_cache : t -> unit

(** Active domain: every constant occurring in some fact. *)
val active_domain : t -> Value.Set.t

(** [candidates db a h] returns the facts that atom [a] could match under the
    partial mapping [h], using the most selective available index (any
    position of [a] that is a constant or bound by [h]). *)
val candidates : t -> Atom.t -> Mapping.t -> Fact.t list

(** [matches db a h] extends [h] in all ways that map atom [a] into [db]. *)
val matches : t -> Atom.t -> Mapping.t -> Mapping.t list

val copy : t -> t
val union : t -> t -> t
val pp : Format.formatter -> t -> unit
