(** Bag trees: rooted forests of interned relations ({!Engine.Rel}) and the
    one semijoin reducer that evaluates them.

    Every tractable CQ evaluator runs the same algorithm — Yannakakis' [21]
    over a join tree, which is also how Gottlob–Leone–Scarcello evaluate a
    hypertree decomposition: materialise one relation per node, run an
    upward semijoin pass to decide satisfiability, then downward semijoins
    and an upward join–project for the answers. {!Yannakakis},
    {!Decomp_eval} and {!Hyper_eval} differ only in how they build the
    node relations. *)

open Relational

(** A rooted forest: [children.(i)] are the children of node [i], every
    node lies below exactly one of [roots], and the nodes satisfy the
    running-intersection property. *)
type 'a t = {
  nodes : 'a array;
  children : int list array;
  roots : int list;
}

(** [instantiate db q ~init] is the query instantiated by [init] and its
    non-ground atoms; [None] when one of its ground atoms is not a fact of
    [db]. *)
val instantiate : Database.t -> Query.t -> init:Mapping.t -> (Query.t * Atom.t list) option

(** [of_decomposition ~bags ~tree atoms] roots a (tree or hypertree)
    decomposition: each connected part of [tree] is rooted at its
    lowest-numbered bag by depth-first search. Node [i] carries bag [i]
    trimmed to the variables of [atoms] (instantiation can remove variables;
    trimming keeps the decomposition valid) and the atoms assigned to it,
    each atom to the first bag covering its variables.
    @raise Invalid_argument when no bag covers some atom. *)
val of_decomposition :
  bags:String_set.t array -> tree:(int * int) list -> Atom.t list ->
  (String_set.t * Atom.t list) t

(** The upward semijoin pass, then "every root is non-empty". Reduces the
    node relations in place. *)
val satisfiable : Engine.Rel.t t -> bool

(** [answers db t ~head]: the full reducer (upward, then downward semijoins),
    then the upward join–project onto node variables ∪ [head]. After the
    reduction every row of every node extends to a homomorphism of the
    whole forest, so the join–project skips subtrees without head variables
    and starts at the top of the subtree that spans the head. Reduces the
    node relations in place. *)
val answers : Database.t -> Engine.Rel.t t -> head:String_set.t -> Mapping.Set.t
