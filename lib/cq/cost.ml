(* Static cost model for a conjunctive body over a concrete database,
   computed from stored statistics only (relation counts, per-position
   distinct counts, active-domain size) — no enumeration.

   This lives at the CQ layer (rather than in lib/analysis) so that
   Wdpt.Optimizer can consume the bounds for per-instance strategy selection
   without a dependency cycle; Analysis.Cost re-exports everything and adds
   the WDPT-level classification and rendering on top.

   All cardinality bounds live in log10 so products become sums and the
   numbers stay printable; [neg_infinity] encodes a provably empty result
   (some relation or domain is empty). *)

open Relational
module Hg = Hypergraphs.Hypergraph
module Td = Hypergraphs.Tree_decomposition
module Ht = Hypergraphs.Hypertree
module Gyo = Hypergraphs.Gyo

type growth = Polynomial of int | Exponential

type t = {
  natoms : int;
  nvars : int;
  nfree : int;
  adom : int;
  treewidth : int;
  acyclic : bool;
  ghw_le : int option;  (* least k <= ghw_cap with ghw <= k, when searched *)
  product_bound : float;  (* log10 Π_atoms |R_a| *)
  vardom_bound : float;  (* log10 Π_vars (tightest per-position domain) *)
  decomp_bound : float option;  (* log10 per-bag guard product over a GHW decomposition *)
  adom_bound : float;  (* nvars · log10 |adom| *)
  hom_bound : float;  (* min of the four: bound on homomorphism count *)
  answer_bound : float;  (* bound on answers = projections onto the free variables *)
  growth : growth;
}

(* ghw_at_most is exponential in the number of edges; keep the search tiny. *)
let ghw_cap = 2
let ghw_max_edges = 10

let log_count n = if n <= 0 then neg_infinity else log10 (float_of_int n)

(* The tightest statically known domain of [x]: the least distinct-count over
   the positions where [x] occurs, falling back to the active domain for a
   variable with no occurrence (a free variable outside the body). *)
let var_domain db atoms adom x =
  let best = ref max_int in
  List.iter
    (fun a ->
      let args = Atom.args a in
      List.iteri
        (fun i t ->
          match t with
          | Term.Var y when String.equal x y ->
              let d = Database.distinct_count db (Atom.rel a) i in
              if d < !best then best := d
          | _ -> ())
        args)
    atoms;
  if !best = max_int then adom else !best

let classify ~nvars ~acyclic ~treewidth =
  if nvars = 0 then Polynomial 0
  else if acyclic then Polynomial 1
  else
    let w = treewidth + 1 in
    (* A width-k decomposition yields O(|D|^(k+1)) evaluation; when every bag
       already holds all variables the "polynomial" degree equals the trivial
       |adom|^nvars exponent — that is the saturated, exponential-in-query
       regime (cliques, grids at full width). *)
    if w < nvars || nvars <= 2 then Polynomial (min w nvars) else Exponential

let analyze db atoms ~free =
  let natoms = List.length atoms in
  let vars =
    List.fold_left
      (fun acc a -> String_set.union acc (Atom.var_set a))
      String_set.empty atoms
  in
  let nvars = String_set.cardinal vars in
  let adom = Database.adom_size db in
  let product_bound =
    List.fold_left
      (fun acc a -> acc +. log_count (Database.count_of db (Atom.rel a)))
      0. atoms
  in
  let vardom_bound =
    String_set.fold
      (fun x acc -> acc +. log_count (var_domain db atoms adom x))
      vars 0.
  in
  let adom_bound = float_of_int nvars *. log_count adom in
  let adom_bound = if nvars = 0 then 0. else adom_bound in
  let edges =
    List.filter_map
      (fun a ->
        let vs = Atom.var_set a in
        if String_set.is_empty vs then None else Some vs)
      atoms
  in
  let hg = Hg.of_edges edges in
  let acyclic = edges = [] || Gyo.is_acyclic hg in
  let treewidth = if edges = [] then 0 else max 0 (Td.treewidth hg) in
  (* Guard weight: a guard is an edge of the hypergraph, i.e. the variable
     set of some atom; weigh it by the smallest relation realizing it. *)
  let edge_weight g =
    List.fold_left
      (fun acc a ->
        if String_set.equal g (Atom.var_set a) then
          Float.min acc (log_count (Database.count_of db (Atom.rel a)))
        else acc)
      infinity atoms
    |> fun w -> if w = infinity then 0. else w
  in
  let ghw_le, decomp_bound =
    if edges = [] || List.length edges > ghw_max_edges then (None, None)
    else
      let rec search k =
        if k > ghw_cap then (None, None)
        else
          match Ht.ghw_at_most hg k with
          | Some htd -> (Some k, Some (Ht.guard_weight htd ~weight:edge_weight))
          | None -> search (k + 1)
      in
      search 1
  in
  let hom_bound =
    List.fold_left Float.min product_bound
      (vardom_bound :: adom_bound
      :: (match decomp_bound with Some b -> [ b ] | None -> []))
  in
  let free_in = List.sort_uniq String.compare free in
  let free_dom_bound =
    List.fold_left
      (fun acc x -> acc +. log_count (var_domain db atoms adom x))
      0. free_in
  in
  let answer_bound = Float.min hom_bound free_dom_bound in
  {
    natoms;
    nvars;
    nfree = List.length free_in;
    adom;
    treewidth;
    acyclic;
    ghw_le;
    product_bound;
    vardom_bound;
    decomp_bound;
    adom_bound;
    hom_bound;
    answer_bound;
    growth = classify ~nvars ~acyclic ~treewidth;
  }

(* [bound_count c] turns a log10 bound back into an integer ceiling (capped at
   max_int) for direct comparison against measured answer counts. *)
let bound_count c =
  if c.answer_bound = neg_infinity then 0
  else if c.answer_bound > 18. then max_int
  else int_of_float (Float.ceil (10. ** c.answer_bound))

(* [decomp_eval_bound c]: log10 of the per-bag materialization cost a
   width-(treewidth) tree-decomposition evaluation pays, |adom|^(tw+1) — the
   quantity per-instance strategy selection compares against the
   backtracking bounds. *)
let decomp_eval_bound c =
  float_of_int (c.treewidth + 1) *. log_count (max 1 c.adom)
