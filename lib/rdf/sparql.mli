(** The {AND, OPT} fragment of SPARQL (Section 1), with the well-designedness
    condition of Pérez et al. [18], the OPT-normal-form translation to WDPTs
    of Letelier et al. [17], and a small concrete syntax.

    Concrete syntax (algebraic style, as in the paper's Example 1):
    {v
      SELECT ?y ?z WHERE {
        { ?x recorded_by ?y . ?x published "after 2010" }
        OPT { ?x NME_rating ?z }
        OPT { ?y formed_in ?z2 }
      }
    v}
    [.] and [AND] both denote conjunction; [OPT]/[OPTIONAL] is left
    associative with the same precedence, so [a OPT b OPT c] reads
    [(a OPT b) OPT c]; braces group. [SELECT *] keeps every variable
    (projection-free). *)

type expr =
  | Bgp of Triple.pattern list
  | And of expr * expr
  | Opt of expr * expr

type query = {
  select : string list option;  (** [None] = SELECT * *)
  where : expr;
}

val vars_of_expr : expr -> Relational.String_set.t

(** Well-designedness of Pérez et al.: for every subpattern [e1 OPT e2],
    every variable of [e2] occurring outside the subpattern also occurs in
    [e1]. *)
val is_well_designed : expr -> bool

(** A witness of non-well-designedness: the escaping variable and the
    [e1 OPT e2] subpattern it escapes from (the variable occurs in [e2] and
    outside the subpattern but not in [e1]). [None] iff well-designed. *)
val well_designed_witness : expr -> (string * expr) option

(** Structural translation to a tree description (free variables, spec),
    without the well-designedness check: the OPT-normal-form rewriting is
    only a semantics-preserving translation for well-designed patterns, but
    the analyzer uses this to locate defects in arbitrary ones. *)
val to_spec : query -> string list * Wdpt.Pattern_tree.spec

(** Translation to a WDPT over the {!Triple.relation} schema.
    @raise Invalid_argument if the expression is not well-designed. *)
val to_pattern_tree : query -> Wdpt.Pattern_tree.t

(** Inverse translation (WDPT over the triple schema only).
    @raise Invalid_argument on non-triple atoms. *)
val of_pattern_tree : Wdpt.Pattern_tree.t -> query

(** Parse the concrete syntax; errors report line and column. *)
val parse : string -> (query, string) result

(** Like {!parse}, but also returns the source span of every triple pattern
    (keyed structurally — repeated identical triples share their first
    occurrence's span), and a structured failure. Feeds diagnostic spans in
    [Analysis.Lint]. *)
val parse_located :
  string ->
  (query * (Triple.pattern * Wdpt.Loc.span) list, Wdpt.Syntax.parse_failure) result

(** [parse_and_translate s] — convenience composition. *)
val parse_and_translate : string -> (Wdpt.Pattern_tree.t, string) result

val pp_expr : Format.formatter -> expr -> unit
val pp_query : Format.formatter -> query -> unit
