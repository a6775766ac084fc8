open Relational

let homomorphism q q' =
  (* hom from q to q': map body of q into the frozen body of q', requiring
     each free variable of q that is also free in q' to map to itself *)
  let db, frozen = Query.freeze q' in
  let init =
    List.fold_left
      (fun acc x ->
        match Mapping.find x frozen with
        | Some v when List.mem x (Query.head q') -> Mapping.add x v acc
        | _ -> acc)
      Mapping.empty (Query.head q)
  in
  if not (String_set.subset (Query.head_set q) (String_set.of_list (Query.head q')))
  then None
  else Eval.first_homomorphism db (Query.body q) ~init

let contained q q' =
  String_set.equal (Query.head_set q) (Query.head_set q')
  && Option.is_some (homomorphism q' q)

let equivalent q q' = contained q q' && contained q' q

let subsumed q q' =
  (* every answer of q extends to an answer of q': freeze q, evaluate q' over
     the frozen body, and check that the frozen head of q is subsumed by some
     answer. For CQs (single databases of interest: the canonical one) this
     is sound and complete by the same argument as Chandra–Merlin. *)
  let db, frozen = Query.freeze q in
  let target = Mapping.restrict (Query.head_set q) frozen in
  let ans = Eval.answers db q' in
  Mapping.Set.exists (fun h -> Mapping.subsumes target h) ans
