open Relational
module Ht = Hypergraphs.Hypertree

(* Each bag is the join of its guard atoms and assigned atoms, projected
   onto the bag. A guard edge takes every atom whose variables lie inside
   it: instantiation shrinks an atom's variable set below the edge it was
   drawn from. *)
let bag_tree db q ~htd ~init =
  Option.map
    (fun (q, atoms) ->
      let t = Bag_tree.of_decomposition ~bags:htd.Ht.bags ~tree:htd.Ht.tree atoms in
      let bag_rel i (bag, assigned) =
        let guard_atoms =
          List.filter
            (fun a ->
              List.exists (String_set.subset (Atom.var_set a)) htd.Ht.guards.(i))
            atoms
        in
        let all = List.sort_uniq Atom.compare (guard_atoms @ assigned) in
        let rel = Engine.Rel.of_atoms db all ~onto:bag in
        if not (String_set.equal (Engine.Rel.var_set rel) bag) then
          invalid_arg "Hyper_eval: bag not covered by its guards";
        rel
      in
      (q, { t with Bag_tree.nodes = Array.mapi bag_rel t.Bag_tree.nodes }))
    (Bag_tree.instantiate db q ~init)

let satisfiable db q ~htd ~init =
  match bag_tree db q ~htd ~init with
  | None -> false
  | Some (_, t) -> Bag_tree.satisfiable t

let answers db q ~htd =
  match bag_tree db q ~htd ~init:Mapping.empty with
  | None -> Mapping.Set.empty
  | Some (q, t) -> Bag_tree.answers db t ~head:(Query.head_set q)

let auto db q ~k ~init =
  let q' = Query.substitute init q in
  match Hypergraphs.Hypertree.ghw_at_most (Query.hypergraph q') k with
  | None -> None
  | Some htd -> Some (satisfiable db q' ~htd ~init:Mapping.empty)
