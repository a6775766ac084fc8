(* Subsumption and subsumption-equivalence (Section 4): knowns plus
   cross-validation of the canonical-database procedure against the semantic
   definition on random databases. *)

open Relational
open Helpers
module Pt = Wdpt.Pattern_tree
module Sub = Wdpt.Subsumption

let test_reflexive () =
  let p = Workload.Datasets.figure1_wdpt ~free:[ "x"; "y"; "z" ] in
  check_bool "p ⊑ p" true (Sub.subsumes p p);
  check_bool "p ≡ₛ p" true (Sub.equivalent p p)

let test_optional_weakening () =
  (* removing an optional branch gives a subsumed query *)
  let p_full = Workload.Datasets.figure1_wdpt ~free:[ "x"; "y"; "z" ] in
  let p_small =
    Pt.make ~free:[ "x"; "y" ]
      (Node
         ( [ Rdf.Triple.pattern_to_atom (v "x", Term.str "recorded_by", v "y");
             Rdf.Triple.pattern_to_atom (v "x", Term.str "published", Term.str "after_2010") ],
           [] ))
  in
  check_bool "smaller ⊑ bigger" true (Sub.subsumes p_small p_full);
  check_bool "bigger not ⊑ smaller" false (Sub.subsumes p_full p_small)

let test_cq_subsumption_is_containment () =
  (* on single-node WDPTs with equal heads, ⊑ coincides with CQ containment *)
  let q4 = Pt.of_cq (Workload.Gen_cq.cycle 4) in
  let q2 = Pt.of_cq (Workload.Gen_cq.cycle 2) in
  (* a 2-cycle carries a closed 4-walk, so C2 ⊑ C4; not conversely *)
  check_bool "C2 ⊑ C4" true (Sub.subsumes q2 q4);
  check_bool "C4 ⊑ C2" false (Sub.subsumes q4 q2);
  let q3 = Pt.of_cq (Workload.Gen_cq.cycle 3) in
  check_bool "C3 ⊑ C2" false (Sub.subsumes q3 q2);
  (* no homomorphism from the odd cycle C3 into C2, so C2 is not ⊑ C3 *)
  check_bool "C2 ⊑ C3" false (Sub.subsumes q2 q3)

let test_figure2 () =
  let p1, p2 = Workload.Hard_instances.figure2 ~n:2 ~k:2 in
  check_bool "p2 ⊑ p1" true (Sub.subsumes p2 p1);
  check_bool "p1 not ⊑ p2" false (Sub.subsumes p1 p2)

let test_max_equivalence_via_prop5 () =
  let p = Workload.Datasets.figure1_wdpt ~free:[ "y"; "z" ] in
  check_bool "≡ₛ = ≡max (Prop 5)" true (Sub.max_equivalent p p)

(* semantic soundness of the decision procedure: if subsumes p1 p2, then on
   every random database every answer of p1 is subsumed by an answer of p2;
   if not subsumes, the canonical database construction itself provides a
   semantic counterexample, which we re-verify *)
let prop_subsumption_semantics =
  qtest ~count:60 "canonical-db subsumption matches semantics"
    (QCheck.triple arbitrary_small_wdpt arbitrary_small_wdpt arbitrary_db)
    (fun (p1, p2, db) ->
      if Sub.subsumes p1 p2 then begin
        let a1 = Wdpt.Semantics.eval db p1 in
        let a2 = Wdpt.Semantics.eval db p2 in
        Mapping.Set.for_all
          (fun h -> Mapping.Set.exists (Mapping.subsumes h) a2)
          a1
      end
      else begin
        (* completeness: some canonical database witnesses the failure *)
        Seq.exists
          (fun s ->
            let q = Pt.q_of_subtree p1 s in
            let cdb, _ = Cq.Query.freeze q in
            let a1 = Wdpt.Semantics.eval cdb p1 in
            let a2 = Wdpt.Semantics.eval cdb p2 in
            Mapping.Set.exists
              (fun h -> not (Mapping.Set.exists (Mapping.subsumes h) a2))
              a1)
          (Pt.subtrees p1)
      end)

let prop_equivalence_preserves_partial_and_max =
  qtest ~count:40 "≡ₛ preserves partial and maximal answers"
    (QCheck.triple arbitrary_small_wdpt arbitrary_small_wdpt arbitrary_db)
    (fun (p1, p2, db) ->
      if not (Sub.equivalent p1 p2) then true
      else begin
        (* same maximal answers (Prop 5) *)
        Mapping.Set.equal
          (Wdpt.Semantics.eval_max db p1)
          (Wdpt.Semantics.eval_max db p2)
      end)

let prop_subsumption_preorder =
  qtest ~count:30 "⊑ is reflexive and transitive"
    (QCheck.triple arbitrary_small_wdpt arbitrary_small_wdpt arbitrary_small_wdpt)
    (fun (p1, p2, p3) ->
      Sub.subsumes p1 p1
      && ((not (Sub.subsumes p1 p2 && Sub.subsumes p2 p3)) || Sub.subsumes p1 p3))

let prop_dropping_branch_subsumed =
  qtest ~count:50 "dropping a leaf yields a ⊑-smaller query" arbitrary_wdpt
    (fun p ->
      let leaves =
        List.filter
          (fun i -> i <> 0 && Pt.children p i = [])
          (Pt.all_nodes p)
      in
      match leaves with
      | [] -> true
      | leaf :: _ -> Sub.subsumes (Pt.drop_leaf p leaf) p)

(* one canon of p1 reused against many partners, in an order that puts
   checks after failed ones, must answer as a fresh [subsumes] does each
   time; so must the canon of every move result, which is ⊑ p1 *)
let prop_canon_reuse =
  qtest ~count:40 "a reused canon agrees with subsumes"
    (QCheck.pair arbitrary_wdpt_2_3
       (QCheck.list_of_size (QCheck.Gen.return 3) arbitrary_wdpt_2_3))
    (fun (p1, others) ->
      let agrees p partners =
        let c = Sub.canon p in
        List.for_all (fun p2 -> Sub.subsumes_canon c p2 = Sub.subsumes p p2) partners
      in
      let moved =
        List.filter_map (Wdpt.Approximation.apply p1) (Wdpt.Approximation.moves p1)
      in
      let moved = List.filteri (fun i _ -> i < 4) moved in
      agrees p1 (others @ [ p1 ] @ moved @ others @ [ p1 ])
      && List.for_all (fun p' -> agrees p' (others @ [ p1; p' ] @ others @ [ p1 ])) moved)

let suite =
  [ Alcotest.test_case "reflexivity" `Quick test_reflexive;
    prop_subsumption_preorder;
    prop_dropping_branch_subsumed;
    Alcotest.test_case "optional weakening" `Quick test_optional_weakening;
    Alcotest.test_case "CQ subsumption vs containment" `Quick test_cq_subsumption_is_containment;
    Alcotest.test_case "Figure 2 subsumption" `Quick test_figure2;
    Alcotest.test_case "max-equivalence (Prop 5)" `Quick test_max_equivalence_via_prop5;
    prop_subsumption_semantics;
    prop_equivalence_preserves_partial_and_max;
    prop_canon_reuse ]
