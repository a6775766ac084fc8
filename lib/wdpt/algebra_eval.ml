open Relational

let solutions db p =
  let rec sols node =
    let local =
      Mapping.Set.of_list
        (Cq.Eval.homomorphisms db (Pattern_tree.atoms p node) ~init:Mapping.empty)
    in
    List.fold_left
      (fun acc child -> Mapping_algebra.left_outer_join acc (sols child))
      local (Pattern_tree.children p node)
  in
  sols (Pattern_tree.root p)

let eval db p = Mapping_algebra.project (Pattern_tree.free_set p) (solutions db p)

let eval_max db p = Mapping.maximal_set (eval db p)
