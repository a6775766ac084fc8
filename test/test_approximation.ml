(* WDPT approximation (Section 5.2) and the Lemma-1 normalization. *)

open Helpers
module Pt = Wdpt.Pattern_tree
module App = Wdpt.Approximation
module Sub = Wdpt.Subsumption

let triangle_with_optional () =
  Pt.make ~free:[ "x"; "w" ]
    (Node ([ e "x" "y"; e "y" "z"; e "z" "x" ], [ Node ([ e "x" "w" ], []) ]))

let test_moves_sound () =
  let p = triangle_with_optional () in
  List.iter
    (fun m ->
      match App.apply p m with
      | Some p' -> check_bool "move is ⊑-decreasing" true (Sub.subsumes p' p)
      | None -> ())
    (App.moves p)

let test_approximations_triangle_tree () =
  let p = triangle_with_optional () in
  let apps = App.wb_approximations ~width:Tw ~k:1 p in
  check_bool "found approximations" true (apps <> []);
  List.iter
    (fun a ->
      check_bool "in WB(1)" true (Wdpt.Classes.in_wb ~width:Tw ~k:1 a);
      check_bool "sound" true (Sub.subsumes a p))
    apps

let test_in_class_identity () =
  let p = Workload.Datasets.figure1_wdpt ~free:[ "x"; "y" ] in
  let apps = App.wb_approximations ~width:Tw ~k:1 p in
  check_int "in-class query is its own approximation" 1 (List.length apps);
  check_bool "equivalent" true (Sub.equivalent (List.hd apps) p)

let test_is_approximation () =
  let p = triangle_with_optional () in
  let in_class = Wdpt.Classes.in_wb ~width:Tw ~k:1 in
  match App.wb_approximations ~width:Tw ~k:1 p with
  | a :: _ ->
      check_bool "approximation recognized" true (App.is_approximation ~in_class a p);
      check_bool "p itself not (not in class)" false (App.is_approximation ~in_class p p)
  | [] -> Alcotest.fail "expected an approximation"

let test_normalize_prunes () =
  (* a leaf without free variables is pruned; a chain without free vars is
     merged below the root *)
  let p =
    Pt.make ~free:[ "x" ]
      (Node
         ( [ e "x" "x" ],
           [ Node ([ e "x" "a" ], [ Node ([ e "a" "b" ], []) ]) ] ))
  in
  let n = App.normalize p in
  check_int "all non-free branches pruned" 1 (Pt.node_count n);
  check_bool "still equivalent" true (Sub.equivalent n p)

let test_normalize_keeps_free_paths () =
  let p =
    Pt.make ~free:[ "x"; "b" ]
      (Node
         ( [ e "x" "x" ],
           [ Node ([ e "a" "a" ], [ Node ([ e "a" "b" ], []) ]) ] ))
  in
  let n = App.normalize p in
  (* the middle node has no free variable and a single child: merged *)
  check_int "chain merged" 2 (Pt.node_count n);
  check_bool "equivalent" true (Sub.equivalent n p)

let prop_normalize_equivalent =
  qtest ~count:60 "Lemma-1 normalization preserves ≡ₛ" arbitrary_small_wdpt
    (fun p -> Sub.equivalent (App.normalize p) p)

let prop_candidates_sound =
  qtest ~count:25 "candidates are subsumed and in class" arbitrary_small_wdpt
    (fun p ->
      let in_class = Wdpt.Classes.in_wb ~width:Tw ~k:1 in
      let cands = App.candidates ~in_class p in
      List.for_all (fun c -> in_class c && Sub.subsumes c p) cands)

(* the pairwise filter as it reads in Section 5.2's terms: keep the
   ⊑-maximal candidates, then drop each one ≡ₛ to one kept before it *)
let reference_select cands =
  let maximal =
    List.filter
      (fun c ->
        not
          (List.exists
             (fun c' -> Sub.subsumes c c' && not (Sub.subsumes c' c))
             cands))
      cands
  in
  let rec dedup acc = function
    | [] -> List.rev acc
    | c :: rest ->
        if List.exists (Sub.equivalent c) acc then dedup acc rest
        else dedup (c :: acc) rest
  in
  dedup [] maximal

let prop_select_reference =
  qtest ~count:30 "approximations match the plain pairwise filter"
    arbitrary_wdpt_2_3
    (fun p ->
      let in_class = Wdpt.Classes.in_wb ~width:Tw ~k:1 in
      let keys = List.map Pt.canonical_key in
      keys (App.approximations ~in_class p)
      = keys (reference_select (App.candidates ~in_class p)))

(* Optimizer.plan enumerates the candidates once for the witness search and
   the approximations; its strategy must be the one the two separate entry
   points give *)
let prop_plan_reference =
  qtest ~count:30 "plan strategy matches wb_witness, then wb_approximations"
    arbitrary_wdpt_2_3
    (fun p ->
      let pl = Wdpt.Optimizer.plan ~k:1 p in
      let q = pl.Wdpt.Optimizer.query in
      let key = Pt.canonical_key in
      match pl.Wdpt.Optimizer.strategy with
      | Exact_tractable -> true
      | Via_witness w ->
          Option.map key (Wdpt.Semantic_opt.wb_witness ~width:Tw ~k:1 q) = Some (key w)
      | Via_approximation apps ->
          Wdpt.Semantic_opt.wb_witness ~width:Tw ~k:1 q = None
          && List.map key (App.wb_approximations ~width:Tw ~k:1 q) = List.map key apps
      | Exact_exponential ->
          Wdpt.Semantic_opt.wb_witness ~width:Tw ~k:1 q = None
          && App.wb_approximations ~width:Tw ~k:1 q = [])

(* Figure 2 / Theorem 15 *)
let test_figure2_blowup () =
  List.iter
    (fun n ->
      let p1, p2 = Workload.Hard_instances.figure2 ~n ~k:2 in
      check_bool "p1 quadratic" true
        (Pt.size p1 <= 25 * (n + 3) * (n + 3));
      check_bool "p2 exponential" true (Pt.size p2 >= (1 lsl n));
      check_bool "p2 in WB(2)" true (Wdpt.Classes.in_wb ~width:Tw ~k:2 p2);
      check_bool "p1 not in WB(2)" false (Wdpt.Classes.in_wb ~width:Tw ~k:2 p1))
    [ 1; 2; 3; 4 ];
  let p1, p2 = Workload.Hard_instances.figure2 ~n:2 ~k:2 in
  check_bool "p2 ⊑ p1" true (Sub.subsumes p2 p1)

let suite =
  [ Alcotest.test_case "moves are ⊑-decreasing" `Quick test_moves_sound;
    Alcotest.test_case "approximations of triangle tree" `Quick
      test_approximations_triangle_tree;
    Alcotest.test_case "in-class identity" `Quick test_in_class_identity;
    Alcotest.test_case "is_approximation decision" `Quick test_is_approximation;
    Alcotest.test_case "normalization prunes dead branches" `Quick test_normalize_prunes;
    Alcotest.test_case "normalization merges chains" `Quick test_normalize_keeps_free_paths;
    Alcotest.test_case "Figure 2 blow-up" `Quick test_figure2_blowup;
    prop_normalize_equivalent;
    prop_candidates_sound;
    prop_select_reference;
    prop_plan_reference ]
