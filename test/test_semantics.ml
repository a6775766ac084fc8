(* WDPT semantics: the paper's running example, cross-validation of the
   procedural and reference implementations, and of the three tractable
   algorithms (Theorems 6/7, 8, 9) against brute force. *)

open Relational
open Helpers
module Pt = Wdpt.Pattern_tree
module Sem = Wdpt.Semantics

let fig1 free = Workload.Datasets.figure1_wdpt ~free
let db2 () = Workload.Datasets.example2_db ()

let test_example2 () =
  let p = fig1 [ "x"; "y"; "z"; "z'" ] in
  let ans = Sem.eval (db2 ()) p in
  let mu1 =
    Mapping.of_list [ ("x", Value.str "Our_love"); ("y", Value.str "Caribou") ]
  in
  let mu2 =
    Mapping.of_list
      [ ("x", Value.str "Swim"); ("y", Value.str "Caribou"); ("z", Value.str "2") ]
  in
  Alcotest.check mapping_set_testable "Example 2"
    (Mapping.Set.of_list [ mu1; mu2 ])
    ans

let test_example3 () =
  let p = fig1 [ "y"; "z" ] in
  let ans = Sem.eval (db2 ()) p in
  let mu1 = Mapping.of_list [ ("y", Value.str "Caribou") ] in
  let mu2 = Mapping.of_list [ ("y", Value.str "Caribou"); ("z", Value.str "2") ] in
  Alcotest.check mapping_set_testable "Example 3"
    (Mapping.Set.of_list [ mu1; mu2 ])
    ans;
  (* Example 7: maximal-mappings semantics *)
  Alcotest.check mapping_set_testable "Example 7"
    (Mapping.Set.singleton mu2)
    (Sem.eval_max (db2 ()) p)

let test_cq_as_wdpt () =
  (* single-node WDPTs coincide with CQs (Section 2) *)
  let q = Cq.Query.make ~head:[ "x" ] ~body:[ e "x" "y" ] in
  let p = Pt.of_cq q in
  let db = db_of_edges [ (1, 2); (3, 4) ] in
  check_bool "same answers" true
    (Mapping.Set.equal (Sem.eval db p) (Cq.Eval.answers db q))

let test_unmatchable_root () =
  let p = Pt.make ~free:[ "x" ] (Node ([ atom "Z" [ v "x" ] ], [])) in
  let db = db_of_edges [ (1, 2) ] in
  check_int "empty evaluation" 0 (Mapping.Set.cardinal (Sem.eval db p));
  check_bool "EVAL false" false (Wdpt.Eval_tractable.decision db p (mapping [ ("x", 1) ]));
  check_bool "PARTIAL false" false (Wdpt.Partial_eval.decision db p Mapping.empty);
  check_bool "MAX false" false (Wdpt.Max_eval.decision db p Mapping.empty)

let test_empty_mapping_answer () =
  (* root matches but no free variable can be bound: the empty mapping is the
     answer *)
  let p =
    Pt.make ~free:[ "z" ]
      (Node ([ e "x" "y" ], [ Node ([ atom "U" [ v "z" ] ], []) ]))
  in
  let db = db_of_edges [ (1, 2) ] in
  Alcotest.check mapping_set_testable "empty mapping"
    (Mapping.Set.singleton Mapping.empty)
    (Sem.eval db p);
  check_bool "EVAL empty" true (Wdpt.Eval_tractable.decision db p Mapping.empty);
  check_bool "MAX empty" true (Wdpt.Max_eval.decision db p Mapping.empty)

(* brute-force decision helpers *)
let brute_eval db p h = Mapping.Set.mem h (Sem.eval_naive db p)

let brute_partial db p h =
  Mapping.Set.exists (Mapping.subsumes h) (Sem.eval_naive db p)

let brute_max db p h =
  let ans = Sem.eval_naive db p in
  Mapping.Set.mem h ans
  && not (Mapping.Set.exists (fun h' -> Mapping.strictly_subsumes h h') ans)

(* candidate mappings to probe: all answers, their restrictions, plus some
   perturbations *)
let probes db p =
  let ans = Mapping.Set.elements (Sem.eval_naive db p) in
  let restrictions =
    List.concat_map
      (fun h ->
        let dom = String_set.elements (Mapping.domain h) in
        List.map (fun x -> Mapping.restrict (String_set.remove x (Mapping.domain h)) h) dom)
      ans
  in
  let perturbed =
    List.filteri (fun i _ -> i < 3) ans
    |> List.map (fun h ->
           match Mapping.bindings h with
           | (x, _) :: _ -> Mapping.add x (Value.int 999) h
           | [] -> Mapping.singleton "zz" (Value.int 0))
  in
  Mapping.empty :: (ans @ restrictions @ perturbed)

let prop_iterator_matches_list =
  qtest ~count:100 "streaming enumeration = materialized maximal homs"
    (QCheck.pair arbitrary_wdpt arbitrary_db) (fun (p, db) ->
      let streamed = ref [] in
      Sem.iter_maximal_homomorphisms db p (fun h -> streamed := h :: !streamed);
      let a = Mapping.Set.of_list !streamed in
      let b = Mapping.Set.of_list (Sem.maximal_homomorphisms db p) in
      Mapping.Set.equal a b)

let prop_any_maximal_is_maximal =
  qtest ~count:100 "greedy maximal hom is a maximal hom"
    (QCheck.pair arbitrary_small_wdpt arbitrary_db) (fun (p, db) ->
      match Sem.any_maximal_homomorphism db p with
      | None ->
          Cq.Eval.first_homomorphism db (Pt.atoms p 0) ~init:Mapping.empty = None
      | Some m ->
          List.exists (Mapping.equal m) (Sem.maximal_homomorphisms db p))

(* The brute-force reference costs up to (nsubtrees * |adom|^|vars|)^2, so
   draws over Workload.Budget's brute-force budget are checked against the
   bottom-up algebraic evaluator instead. *)
let prop_procedural_eq_naive =
  qtest ~count:150 "procedural = reference semantics"
    (QCheck.pair arbitrary_wdpt arbitrary_db) (fun (p, db) ->
      let reference =
        if Workload.Budget.brute_force_feasible p db then Sem.eval_naive db p
        else Wdpt.Algebra_eval.eval db p
      in
      Mapping.Set.equal (Sem.eval db p) reference)

let prop_tractable_eval_correct =
  qtest ~count:100 "Theorem 6/7 EVAL agrees with brute force"
    (QCheck.pair arbitrary_small_wdpt arbitrary_db) (fun (p, db) ->
      List.for_all
        (fun h -> Wdpt.Eval_tractable.decision db p h = brute_eval db p h)
        (probes db p))

let prop_partial_eval_correct =
  qtest ~count:100 "Theorem 8 PARTIAL-EVAL agrees with brute force"
    (QCheck.pair arbitrary_small_wdpt arbitrary_db) (fun (p, db) ->
      List.for_all
        (fun h -> Wdpt.Partial_eval.decision db p h = brute_partial db p h)
        (probes db p))

let prop_max_eval_correct =
  qtest ~count:100 "Theorem 9 MAX-EVAL agrees with brute force"
    (QCheck.pair arbitrary_small_wdpt arbitrary_db) (fun (p, db) ->
      List.for_all
        (fun h -> Wdpt.Max_eval.decision db p h = brute_max db p h)
        (probes db p))

(* No answer strictly subsumes another. h ⊏ h' holds iff dom h ⊊ dom h'
   and h is h' restricted to dom h, so it suffices to look up, for every
   answer h' and every strictly smaller answer domain d, whether h'
   restricted to d is an answer. Exact, engine-free, and linear in the
   answers times their distinct domains instead of quadratic in the
   answers. *)
let is_antichain ans =
  let domains =
    List.sort_uniq String_set.compare
      (List.map Mapping.domain (Mapping.Set.elements ans))
  in
  Mapping.Set.for_all
    (fun h' ->
      let dom' = Mapping.domain h' in
      List.for_all
        (fun d ->
          String_set.equal d dom'
          || (not (String_set.subset d dom'))
          || not (Mapping.Set.mem (Mapping.restrict d h') ans))
        domains)
    ans

let prop_answers_incomparable_under_max =
  qtest ~count:100 "p_m(D) is an antichain" (QCheck.pair arbitrary_wdpt arbitrary_db)
    (fun (p, db) ->
      is_antichain (Sem.eval_max db p))

let prop_projection_free_antichain =
  (* without projection, p(D) itself consists of maximal mappings only *)
  qtest ~count:100 "projection-free evaluation is an antichain"
    (QCheck.pair arbitrary_wdpt arbitrary_db) (fun (p, db) ->
      let pf =
        Pt.make ~free:(String_set.elements (Pt.vars p)) (Pt.to_spec p)
      in
      is_antichain (Sem.eval db pf))

(* ---- the shared tree walk --------------------------------------------- *)

(* Every non-root node's CQ is evaluated once per distinct binding of its
   variables and the result shared by every parent that agrees on them. The
   fixed instances below pin the exact enumeration order (engine order at
   the root, then each child's extensions in engine order, depth first) and
   make the memo key matter: the interface variable sorts first in one node
   and last in another, so a key that loses a variable conflates parents. *)

let fact r args = Fact.make r (List.map Value.int args)

let check_walk name db p expected =
  let seq = ref [] in
  Sem.iter_maximal_homomorphisms db p (fun h -> seq := h :: !seq);
  Alcotest.(check (list mapping_testable))
    (name ^ ": enumeration order") (List.map mapping expected) (List.rev !seq);
  Alcotest.check mapping_set_testable (name ^ ": = reference semantics")
    (Sem.eval_naive db p) (Sem.eval db p)

(* a star: parents x = 1, 2, 3 share the interface binding c = 0 of the
   child F(c, y); x = 4 reaches it with c = 9, which has no match *)
let test_walk_shared_star () =
  let db =
    Database.of_list
      [ fact "E" [ 1; 0 ]; fact "E" [ 2; 0 ]; fact "E" [ 3; 0 ]; fact "E" [ 4; 9 ];
        fact "F" [ 0; 7 ]; fact "F" [ 0; 8 ] ]
  in
  let p =
    Pt.make ~free:[ "x"; "c"; "y" ]
      (Node ([ atom "E" [ v "x"; v "c" ] ], [ Node ([ atom "F" [ v "c"; v "y" ] ], []) ]))
  in
  check_walk "star" db p
    [ [ ("c", 0); ("x", 1); ("y", 7) ];
      [ ("c", 0); ("x", 1); ("y", 8) ];
      [ ("c", 0); ("x", 2); ("y", 7) ];
      [ ("c", 0); ("x", 2); ("y", 8) ];
      [ ("c", 0); ("x", 3); ("y", 7) ];
      [ ("c", 0); ("x", 3); ("y", 8) ];
      [ ("c", 9); ("x", 4) ] ]

(* G(a, c) matches for c = 0 and not for c = 5; the second parent with
   c = 5 hits the cached empty entry and must still fall through to the
   sibling H(x, w) *)
let test_walk_cached_miss () =
  let db =
    Database.of_list
      [ fact "E" [ 1; 0 ]; fact "E" [ 2; 5 ]; fact "E" [ 3; 0 ]; fact "E" [ 4; 5 ];
        fact "G" [ 7; 0 ]; fact "H" [ 1; 20 ]; fact "H" [ 4; 40 ]; fact "H" [ 4; 41 ] ]
  in
  let p =
    Pt.make ~free:[ "x"; "c"; "a"; "w" ]
      (Node
         ( [ atom "E" [ v "x"; v "c" ] ],
           [ Node ([ atom "G" [ v "a"; v "c" ] ], []);
             Node ([ atom "H" [ v "x"; v "w" ] ], []) ] ))
  in
  check_walk "cached miss" db p
    [ [ ("a", 7); ("c", 0); ("w", 20); ("x", 1) ];
      [ ("c", 5); ("x", 2) ];
      [ ("a", 7); ("c", 0); ("x", 3) ];
      [ ("c", 5); ("w", 40); ("x", 4) ];
      [ ("c", 5); ("w", 41); ("x", 4) ] ]

(* nested OPT: the child K(p, q) is keyed by p, the grandchild L(q, c) by q,
   so p = 1 and p = 2 share the grandchild's entry for q = 10 under
   different child entries; q = 12 and p = 4 fall through *)
let test_walk_nested () =
  let db =
    Database.of_list
      [ fact "P" [ 1 ]; fact "P" [ 2 ]; fact "P" [ 3 ]; fact "P" [ 4 ];
        fact "K" [ 1; 10 ]; fact "K" [ 2; 10 ]; fact "K" [ 2; 11 ]; fact "K" [ 3; 12 ];
        fact "L" [ 10; 100 ]; fact "L" [ 10; 101 ]; fact "L" [ 11; 102 ] ]
  in
  let p =
    Pt.make ~free:[ "p"; "q"; "c" ]
      (Node
         ( [ atom "P" [ v "p" ] ],
           [ Node
               ( [ atom "K" [ v "p"; v "q" ] ],
                 [ Node ([ atom "L" [ v "q"; v "c" ] ], []) ] ) ] ))
  in
  check_walk "nested" db p
    [ [ ("c", 100); ("p", 1); ("q", 10) ];
      [ ("c", 101); ("p", 1); ("q", 10) ];
      [ ("c", 100); ("p", 2); ("q", 10) ];
      [ ("c", 101); ("p", 2); ("q", 10) ];
      [ ("c", 102); ("p", 2); ("q", 11) ];
      [ ("p", 3); ("q", 12) ];
      [ ("p", 4) ] ]

(* Standing's use: one extender run on every root key (in reverse order, so
   the memo is filled differently than by a single run) enumerates exactly
   the maximal homomorphisms *)
let prop_shared_extender_rootkeys =
  qtest ~count:100 "one extender over every root key = maximal homs"
    (QCheck.pair arbitrary_wdpt arbitrary_db) (fun (p, db) ->
      let root = Pt.root p in
      let rootkeys =
        List.sort_uniq Mapping.compare
          (List.map
             (Mapping.restrict (Pt.node_vars p root))
             (Cq.Eval.homomorphisms db (Pt.atoms p root) ~init:Mapping.empty))
      in
      let extend = Sem.extender db p in
      let out = ref [] in
      List.iter
        (fun rk -> extend ~init:rk (fun h -> out := h :: !out))
        (List.rev rootkeys);
      List.equal Mapping.equal
        (List.sort Mapping.compare !out)
        (List.sort Mapping.compare (Sem.maximal_homomorphisms db p)))

let suite =
  [ Alcotest.test_case "Example 2" `Quick test_example2;
    Alcotest.test_case "Examples 3 and 7" `Quick test_example3;
    Alcotest.test_case "CQs as single-node WDPTs" `Quick test_cq_as_wdpt;
    Alcotest.test_case "unmatchable root" `Quick test_unmatchable_root;
    Alcotest.test_case "empty-mapping answer" `Quick test_empty_mapping_answer;
    prop_iterator_matches_list;
    prop_any_maximal_is_maximal;
    prop_procedural_eq_naive;
    prop_tractable_eval_correct;
    prop_partial_eval_correct;
    prop_max_eval_correct;
    prop_answers_incomparable_under_max;
    prop_projection_free_antichain;
    Alcotest.test_case "shared walk: star" `Quick test_walk_shared_star;
    Alcotest.test_case "shared walk: cached miss falls through" `Quick
      test_walk_cached_miss;
    Alcotest.test_case "shared walk: nested interfaces" `Quick test_walk_nested;
    prop_shared_extender_rootkeys ]
