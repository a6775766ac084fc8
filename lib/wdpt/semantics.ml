open Relational

(* Procedural evaluation: for every homomorphism of the root pattern, extend
   it maximally and independently into each child branch.  Independence is
   justified by well-designedness: a variable occurring in two sibling
   branches also occurs in their common ancestors, hence is already bound
   when the branches are processed. *)
let iter_maximal_extensions db p ~init yield =
  (* stream maximal extensions of [h] into the subtree at [node]; nothing is
     yielded iff the node's pattern cannot be matched at all, so a child that
     yielded nothing leaves the extension as it was *)
  let rec iter_ext node h k =
    Cq.Eval.iter_homomorphisms db (Pattern_tree.atoms p node) ~init:h (fun g ->
        let rec kids acc = function
          | [] -> k acc
          | c :: rest ->
              let matched = ref false in
              iter_ext c acc (fun e ->
                  matched := true;
                  kids e rest);
              if not !matched then kids acc rest
        in
        kids g (Pattern_tree.children p node))
  in
  iter_ext (Pattern_tree.root p) init yield

let iter_maximal_homomorphisms db p yield =
  iter_maximal_extensions db p ~init:Mapping.empty yield

let maximal_homomorphisms db p =
  let out = ref [] in
  iter_maximal_homomorphisms db p (fun h -> out := h :: !out);
  !out

let maximal_homomorphisms_naive db p =
  let all = ref [] in
  Seq.iter
    (fun s ->
      let atoms = Pattern_tree.atoms_of_subtree p s in
      let homs = Cq.Eval.homomorphisms db atoms ~init:Mapping.empty in
      all := homs @ !all)
    (Pattern_tree.subtrees p);
  Mapping.maximal_elements !all

let any_maximal_homomorphism db p =
  (* greedy: any root match extends to a maximal homomorphism by extending
     each branch with the first available match *)
  let rec extend node h =
    match Cq.Eval.first_homomorphism db (Pattern_tree.atoms p node) ~init:h with
    | None -> None
    | Some g ->
        Some
          (List.fold_left
             (fun acc child ->
               match extend child acc with
               | Some acc' -> acc'
               | None -> acc)
             g (Pattern_tree.children p node))
  in
  extend (Pattern_tree.root p) Mapping.empty

let project_set p homs =
  let free = Pattern_tree.free_set p in
  List.fold_left
    (fun acc h -> Mapping.Set.add (Mapping.restrict free h) acc)
    Mapping.Set.empty homs

let eval db p = project_set p (maximal_homomorphisms db p)
let eval_naive db p = project_set p (maximal_homomorphisms_naive db p)

let eval_max db p = Mapping.maximal_set (eval db p)

exception Stream_done

let stream_eval db p ~offset ~limit yield =
  (* Bounded-buffer streaming of p(D): every hom the procedural enumeration
     yields is already maximal, so its projection is a *bona fide* answer the
     moment it appears — streaming only has to deduplicate, never to retract.
     The buffer holds the distinct answers seen so far and is therefore
     bounded by [offset + limit]; enumeration stops as soon as the page is
     full, without materializing the rest of the answer set. *)
  let free = Pattern_tree.free_set p in
  let seen = ref Mapping.Set.empty in
  let emitted = ref 0 in
  let want = match limit with None -> max_int | Some n -> n in
  (try
     iter_maximal_homomorphisms db p (fun h ->
         let a = Mapping.restrict free h in
         if not (Mapping.Set.mem a !seen) then begin
           seen := Mapping.Set.add a !seen;
           let rank = Mapping.Set.cardinal !seen in
           if rank > offset then begin
             yield a;
             incr emitted;
             if !emitted >= want then raise Stream_done
           end
         end)
   with Stream_done -> ());
  !emitted

let decision db p h = Mapping.Set.mem h (eval db p)

let partial_decision db p h =
  Mapping.Set.exists (fun h' -> Mapping.subsumes h h') (eval db p)

let max_decision db p h = Mapping.Set.mem h (eval_max db p)
