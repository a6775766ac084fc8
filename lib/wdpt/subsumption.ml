open Relational

type canon = (Database.t * Mapping.t) Seq.t

let canon p1 =
  let free1 = Pattern_tree.free_set p1 in
  Seq.memoize
    (Seq.map
       (fun s ->
         let q = Pattern_tree.q_of_subtree p1 s in
         let db, frozen = Cq.Query.freeze q in
         (db, Mapping.restrict (String_set.inter free1 (Cq.Query.vars q)) frozen))
       (Pattern_tree.subtrees p1))

let subsumes_canon c p2 =
  Seq.for_all (fun (db, target) -> Partial_eval.decision db p2 target) c

let subsumes p1 p2 = subsumes_canon (canon p1) p2
let equivalent p1 p2 = subsumes p1 p2 && subsumes p2 p1
let max_equivalent = equivalent
