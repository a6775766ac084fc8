open Relational
module Gyo = Hypergraphs.Gyo

(* The bag tree is the GYO join forest itself: one node per atom, holding
   the atom's distinct matches as an interned relation (Engine.Rel).
   [None]: the instantiated query is cyclic; [Some None]: one of its ground
   atoms is not a fact. *)
let bag_tree db q ~init =
  match Bag_tree.instantiate db q ~init with
  | None -> Some None
  | Some (q, atoms) -> (
      let hg = Hypergraphs.Hypergraph.of_edges (List.map Atom.var_set atoms) in
      match Gyo.join_forest hg with
      | None -> None
      | Some jf ->
          let nodes =
            Array.of_list
              (List.map
                 (fun a -> Engine.Rel.of_atoms db [ a ] ~onto:(Atom.var_set a))
                 atoms)
          in
          let children = Array.make (Array.length nodes) [] in
          List.iter
            (fun (child, parent) -> children.(parent) <- child :: children.(parent))
            jf.Gyo.parents;
          Some (Some (q, { Bag_tree.nodes; children; roots = jf.Gyo.roots })))

let satisfiable db q ~init =
  Option.map
    (function None -> false | Some (_, t) -> Bag_tree.satisfiable t)
    (bag_tree db q ~init)

let answers db q =
  Option.map
    (function
      | None -> Mapping.Set.empty
      | Some (q, t) -> Bag_tree.answers db t ~head:(Query.head_set q))
    (bag_tree db q ~init:Mapping.empty)
