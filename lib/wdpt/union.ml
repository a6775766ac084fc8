open Relational

type t = Pattern_tree.t list

let eval db u =
  List.fold_left
    (fun acc p -> Mapping.Set.union acc (Semantics.eval db p))
    Mapping.Set.empty u

let eval_max db u = Mapping.maximal_set (eval db u)

let decision db u h = List.exists (fun p -> Eval_tractable.decision db p h) u
let partial_decision db u h = List.exists (fun p -> Partial_eval.decision db p h) u

let max_decision db u h =
  List.exists (fun p -> Max_eval.in_projection_closure db p h) u
  && not (List.exists (fun p -> Max_eval.extends_strictly db p h) u)

let subsumes u1 u2 =
  List.for_all
    (fun p1 ->
      let free1 = Pattern_tree.free_set p1 in
      Seq.for_all
        (fun s ->
          let q = Pattern_tree.q_of_subtree p1 s in
          let db, frozen = Cq.Query.freeze q in
          let target =
            Mapping.restrict (String_set.inter free1 (Cq.Query.vars q)) frozen
          in
          partial_decision db u2 target)
        (Pattern_tree.subtrees p1))
    u1

let equivalent u1 u2 = subsumes u1 u2 && subsumes u2 u1

let phi_cq u =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun p ->
      Seq.fold_left
        (fun acc s ->
          let q = Pattern_tree.r_of_subtree p s in
          let key = Cq.Query.canonical_key q in
          if Hashtbl.mem seen key then acc
          else begin
            Hashtbl.add seen key ();
            q :: acc
          end)
        [] (Pattern_tree.subtrees p))
    u

let reduce_cqs qs =
  List.fold_left
    (fun acc q ->
      if List.exists (fun r -> Cq.Containment.contained q r) acc then acc
      else q :: List.filter (fun r -> not (Cq.Containment.contained r q)) acc)
    [] qs

let in_m_uwb ~width ~k u =
  let in_class = Classes.cq_in_class ~width ~k in
  List.for_all
    (fun q -> Cq.Core_q.equivalent_to_class q ~in_class)
    (reduce_cqs (phi_cq u))

let uwb_witness ~width ~k u =
  if in_m_uwb ~width ~k u then
    Some
      (List.map
         (fun q -> Pattern_tree.of_cq (Cq.Core_q.core q))
         (reduce_cqs (phi_cq u)))
  else None

let uwb_approximation ~width ~k u =
  let in_class = Classes.cq_in_class ~width ~k in
  let apps =
    List.concat_map (Cq.Approx.approximations ~in_class) (phi_cq u)
  in
  List.map Pattern_tree.of_cq (reduce_cqs apps)

let is_uwb_approximation ~width ~k u' u =
  List.for_all (Classes.in_wb ~width ~k) u'
  && subsumes u' u
  && subsumes (uwb_approximation ~width ~k u) u'
