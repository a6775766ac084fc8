(* Semantics-preserving rewrites (Simplify): the fixpoint against the plain
   "first rewrite, apply, repeat" fold, the one-way foldability test against
   the two-way Chandra–Merlin equivalence, and p(D) preserved. *)

open Relational
open Helpers
module Pt = Wdpt.Pattern_tree
module S = Wdpt.Simplify

let reference_simplify p =
  let rec go p applied =
    match S.rewrites p with
    | [] -> (p, List.rev applied)
    | r :: _ -> (
        match S.apply p r with
        | Some p' -> go p' (r :: applied)
        | None -> (p, List.rev applied))
  in
  go p []

let prop_simplify_reference =
  qtest ~count:150 "simplify is the first-rewrite fold" arbitrary_wdpt (fun p ->
      let q, rs = S.simplify p in
      let q', rs' = reference_simplify p in
      Pt.equal_syntactic q q'
      && List.map S.describe_rewrite rs = List.map S.describe_rewrite rs')

(* the variables of node [i] visible outside it: free, or shared with
   another node *)
let shared_head p i =
  let others =
    List.fold_left
      (fun acc j -> if j = i then acc else String_set.union acc (Pt.node_vars p j))
      String_set.empty (Pt.all_nodes p)
  in
  String_set.inter (Pt.node_vars p i) (String_set.union (Pt.free_set p) others)

let rec remove_once a = function
  | [] -> []
  | b :: rest -> if Atom.equal a b then rest else b :: remove_once a rest

(* the two-way test: the node CQ with and without one copy of [a] are
   equivalent, both directions searched *)
let two_way p i a =
  let head = String_set.elements (shared_head p i) in
  let body = Pt.atoms p i in
  let body' = remove_once a body in
  body' <> []
  && String_set.subset (String_set.of_list head)
       (List.fold_left (fun acc b -> String_set.union acc (Atom.var_set b))
          String_set.empty body')
  && Cq.Containment.equivalent
       (Cq.Query.make ~head ~body)
       (Cq.Query.make ~head ~body:body')

let rec ancestors p i =
  let j = Pt.parent p i in
  if j < 0 then [] else j :: ancestors p j

(* an atom occurring in no ancestor is reported Foldable exactly when the
   two-way test holds and dropping it leaves a valid tree (of a repeated
   atom, the first copy is tested, with the other still in the body) *)
let prop_foldable_two_way =
  qtest ~count:150 "Foldable agrees with two-way equivalence" arbitrary_wdpt (fun p ->
      let reported = S.redundant_atoms p in
      List.for_all
        (fun i ->
          let atoms = Pt.atoms p i in
          List.for_all
            (fun a ->
              let in_ancestor =
                List.exists
                  (fun j -> List.exists (Atom.equal a) (Pt.atoms p j))
                  (ancestors p i)
              in
              let foldable =
                List.exists
                  (fun (n, b, r) -> n = i && Atom.equal a b && r = S.Foldable)
                  reported
              in
              if in_ancestor then not foldable
              else
                let applies =
                  Option.is_some
                    (S.apply p (Drop_atom { node = i; atom = a; reason = Foldable }))
                in
                foldable = (two_way p i a && applies))
            atoms)
        (Pt.all_nodes p))

(* p(D) by Definition 2 over Cq.Eval.Naive: the homomorphisms of each rooted
   subtree that no missing child extends, projected onto the free
   variables *)
let naive_eval db p =
  let free = Pt.free_set p in
  Seq.fold_left
    (fun acc s ->
      let outside =
        List.filter
          (fun c -> not (List.mem c s))
          (List.concat_map (Pt.children p) s)
      in
      List.fold_left
        (fun acc h ->
          if
            List.exists
              (fun c -> Cq.Eval.Naive.satisfiable db (Pt.atoms p c) ~init:h)
              outside
          then acc
          else Mapping.Set.add (Mapping.restrict free h) acc)
        acc
        (Cq.Eval.Naive.homomorphisms db (Pt.atoms_of_subtree p s)
           ~init:Mapping.empty))
    Mapping.Set.empty (Pt.subtrees p)

let prop_simplify_preserves_eval =
  qtest ~count:100 "simplify preserves p(D)" (QCheck.pair arbitrary_wdpt arbitrary_db)
    (fun (p, db) ->
      let q, _ = S.simplify p in
      Mapping.Set.equal (naive_eval db q) (naive_eval db p))

let suite =
  [ prop_simplify_reference; prop_foldable_two_way; prop_simplify_preserves_eval ]
