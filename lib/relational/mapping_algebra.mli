(** Set-at-a-time algebra on solution mappings: the compatible-union join,
    the "no compatible partner" difference, and the left outer join that
    interprets OPT (Pérez et al. [18]). Unlike the fixed-variable relations
    of the bag-tree evaluators ([Engine.Rel]), rows may have heterogeneous
    domains, as OPT results do. *)

(** [join a b] = { m1 ∪ m2 | m1 ∈ a, m2 ∈ b, compatible }. *)
val join : Mapping.Set.t -> Mapping.Set.t -> Mapping.Set.t

(** [diff a b] = { m1 ∈ a | no compatible m2 ∈ b }. *)
val diff : Mapping.Set.t -> Mapping.Set.t -> Mapping.Set.t

(** [left_outer_join a b] = join a b ∪ diff a b. *)
val left_outer_join : Mapping.Set.t -> Mapping.Set.t -> Mapping.Set.t

(** [project vars s] restricts every mapping. *)
val project : String_set.t -> Mapping.Set.t -> Mapping.Set.t
