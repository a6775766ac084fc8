(* Edge cases and additional behaviours across all modules, complementing the
   per-module suites. *)

open Relational
open Helpers
module Pt = Wdpt.Pattern_tree

(* ---- relational -------------------------------------------------------- *)

let test_term_and_value () =
  check_bool "as_var" true (Term.as_var (Term.var "x") = Some "x");
  check_bool "as_var const" true (Term.as_var (Term.int 3) = None);
  check_bool "term order var<const" true (Term.compare (Term.var "z") (Term.int 0) < 0);
  check_bool "fresh tags differ" false
    (Value.equal (Value.fresh ~tag:"a" ()) (Value.fresh ~tag:"a" ()));
  check_bool "to_string int" true (Value.to_string (Value.int 7) = "7")

let test_mapping_extras () =
  let h = mapping [ ("x", 1) ] in
  check_bool "term bound" true (Term.equal (Mapping.term "x" h) (Term.int 1));
  check_bool "term unbound" true (Term.equal (Mapping.term "y" h) (Term.var "y"));
  check_bool "of_list later wins" true
    (Mapping.find "x" (mapping [ ("x", 1); ("x", 2) ]) = Some (Value.int 2));
  check_bool "empty maximal" true (Mapping.maximal_elements [] = []);
  check_int "restrict_list" 1
    (Mapping.cardinal (Mapping.restrict_list [ "x"; "zz" ] (mapping [ ("x", 1); ("y", 2) ])));
  check_bool "union incompatible raises" true
    (try
       ignore (Mapping.union (mapping [ ("x", 1) ]) (mapping [ ("x", 2) ]));
       false
     with Invalid_argument _ -> true)

let test_database_extras () =
  let db = db_of_edges [ (1, 2) ] in
  check_int "missing relation" 0 (List.length (Database.facts_of db "ZZZ"));
  let a = atom "E" [ c 1; v "t" ] in
  check_int "constant-guided candidates" 1 (List.length (Database.candidates db a Mapping.empty));
  let db2 = Database.copy db in
  Database.add db2 (Fact.make "E" [ Value.int 9; Value.int 9 ]);
  check_int "copy is independent" 1 (Database.size db);
  check_int "copy grew" 2 (Database.size db2);
  let u = Database.union db db2 in
  check_int "union" 2 (Database.size u);
  check_bool "schema inferred" true (Schema.mem "E" (Database.schema db))

let test_matches_arity_mismatch () =
  let a = atom "E" [ v "x" ] in
  let f = Fact.make "E" [ Value.int 1; Value.int 2 ] in
  check_bool "arity mismatch" true (Mapping.matches_fact Mapping.empty a f = None)

(* ---- relation algebra --------------------------------------------------- *)

(* interned relations (Engine.Rel): the algebra every bag tree runs on *)
let test_relation_algebra () =
  let db =
    Database.of_list
      [ Fact.make "R" [ Value.int 1; Value.int 2 ];
        Fact.make "R" [ Value.int 3; Value.int 4 ];
        Fact.make "S" [ Value.int 2; Value.int 5 ];
        Fact.make "T" [ Value.int 7 ];
        Fact.make "T" [ Value.int 8 ] ]
  in
  let rel a = Engine.Rel.of_atoms db [ a ] ~onto:(Atom.var_set a) in
  let r = rel (atom "R" [ v "a"; v "b" ]) in
  let s = rel (atom "S" [ v "b"; v "c" ]) in
  let rows r = Engine.Rel.to_mappings db r in
  let j = Engine.Rel.join r s in
  check_int "join rows" 1 (Engine.Rel.cardinal j);
  check_int "join vars" 3 (String_set.cardinal (Engine.Rel.var_set j));
  let sj = Engine.Rel.semijoin r s in
  check_int "semijoin rows" 1 (Engine.Rel.cardinal sj);
  check_bool "semijoin subset" true
    (List.for_all (fun row -> List.exists (Mapping.equal row) (rows r)) (rows sj));
  let p = Engine.Rel.project (String_set.singleton "a") r in
  check_int "project keeps rows" 2 (Engine.Rel.cardinal p);
  check_bool "unit is join identity" true
    (Engine.Rel.cardinal (Engine.Rel.join r Engine.Rel.unit)
     = Engine.Rel.cardinal r);
  let ext = Engine.Rel.extend_adom db (String_set.of_list [ "a"; "z" ]) p in
  check_int "extend over the active domain" (2 * Database.adom_size db)
    (Engine.Rel.cardinal ext);
  check_bool "make validates row widths" true
    (try
       ignore (Engine.Rel.make [| "a" |] [ [| 0; 1 |] ]);
       false
     with Invalid_argument _ -> true);
  (* disjoint join = cross product *)
  let t = rel (atom "T" [ v "z" ]) in
  check_int "cross product" 4 (Engine.Rel.cardinal (Engine.Rel.join r t))

let test_mapping_algebra () =
  let s1 = Mapping.Set.of_list [ mapping [ ("x", 1) ]; mapping [ ("x", 2) ] ] in
  let s2 = Mapping.Set.of_list [ mapping [ ("x", 1); ("y", 5) ]; mapping [ ("z", 9) ] ] in
  (* join: {x1} joins with both rows of s2 where compatible *)
  let j = Mapping_algebra.join s1 s2 in
  check_int "compatible join" 3 (Mapping.Set.cardinal j);
  let d = Mapping_algebra.diff s1 s2 in
  (* every s1 row is compatible with {z↦9}: diff is empty *)
  check_int "diff" 0 (Mapping.Set.cardinal d);
  let loj = Mapping_algebra.left_outer_join s1 s2 in
  check_bool "loj = join here" true (Mapping.Set.equal loj j)

(* ---- CQ layer ----------------------------------------------------------- *)

let test_query_validation () =
  check_bool "duplicate head" true
    (try
       ignore (Cq.Query.make ~head:[ "x"; "x" ] ~body:[ e "x" "y" ]);
       false
     with Invalid_argument _ -> true);
  check_bool "head not in body" true
    (try
       ignore (Cq.Query.make ~head:[ "q" ] ~body:[ e "x" "y" ]);
       false
     with Invalid_argument _ -> true);
  check_bool "quotient must fix head" true
    (try
       ignore
         (Cq.Query.quotient
            (fun x -> if x = "x" then "y" else x)
            (Cq.Query.make ~head:[ "x" ] ~body:[ e "x" "y" ]));
       false
     with Invalid_argument _ -> true);
  check_bool "rename must be injective" true
    (try
       ignore (Cq.Query.rename (fun _ -> "same") (Cq.Query.boolean [ e "x" "y" ]));
       false
     with Invalid_argument _ -> true);
  (* canonical_key is stable under atom order *)
  let q1 = Cq.Query.boolean [ e "a" "b"; e "b" "c" ] in
  let q2 = Cq.Query.boolean [ e "b" "c"; e "a" "b" ] in
  check_bool "canonical key stable" true
    (Cq.Query.canonical_key q1 = Cq.Query.canonical_key q2)

let test_alpha_renaming_semantics () =
  (* renaming existential variables preserves equivalence; renaming a head
     variable does not (answers are mappings on names) *)
  let q = Cq.Query.make ~head:[ "x" ] ~body:[ e "x" "y" ] in
  let q_exist = Cq.Query.rename (fun v -> if v = "y" then "fresh" else v) q in
  check_bool "existential rename equivalent" true (Cq.Containment.equivalent q q_exist);
  let q_head = Cq.Query.rename (fun v -> if v = "x" then "x2" else v) q in
  check_bool "head rename not equivalent" false (Cq.Containment.equivalent q q_head)

let test_eval_first_and_iter () =
  let db = db_of_edges [ (1, 2); (2, 3) ] in
  check_bool "first hom exists" true
    (Option.is_some (Cq.Eval.first_homomorphism db [ e "a" "b" ] ~init:Mapping.empty));
  check_bool "first hom none" true
    (Cq.Eval.first_homomorphism db [ atom "Z" [ v "a" ] ] ~init:Mapping.empty = None);
  (* iteration visits every hom exactly once *)
  let n = ref 0 in
  Cq.Eval.iter_homomorphisms db [ e "a" "b" ] ~init:Mapping.empty (fun _ -> incr n);
  check_int "two homs" 2 !n

let test_decomp_with_explicit_td () =
  let q = Workload.Gen_cq.cycle 4 in
  let db = db_of_edges [ (1, 2); (2, 1) ] in
  let hg = Cq.Query.hypergraph q in
  match Hypergraphs.Tree_decomposition.at_most hg 2 with
  | None -> Alcotest.fail "C4 has treewidth 2"
  | Some td ->
      check_bool "explicit decomposition used" true
        (Cq.Decomp_eval.satisfiable ~td db q ~init:Mapping.empty);
      check_bool "matches backtracking" true
        (Mapping.Set.equal (Cq.Decomp_eval.answers ~td db q) (Cq.Eval.answers db q))

let test_core_with_constants () =
  let q =
    Cq.Query.boolean [ atom "E" [ v "x"; c 1 ]; atom "E" [ v "y"; c 1 ] ]
  in
  let core = Cq.Core_q.core q in
  check_int "constant-anchored atoms merge" 1 (Cq.Query.size core)

let test_approx_no_candidates () =
  (* all head variables in one wide atom: nothing in TW(1) is contained *)
  let q =
    Cq.Query.make ~head:[ "a"; "b"; "c" ] ~body:[ atom "R" [ v "a"; v "b"; v "c" ] ]
  in
  check_bool "no TW(1) approximation" true (Cq.Approx.tw_approximations ~k:1 q = [])

let test_hw'_approximation () =
  (* guarded clique: HW(1) but not HW'(1); HW'(1)-approximations exist *)
  let q = Workload.Gen_cq.guarded_clique 3 in
  let apps = Cq.Approx.hw'_approximations ~k:1 q in
  check_bool "exists" true (apps <> []);
  List.iter
    (fun a ->
      check_bool "in HW'(1)" true (Cq.Query.in_hw' ~k:1 a);
      check_bool "sound" true (Cq.Containment.contained a q))
    apps

(* ---- pattern trees ------------------------------------------------------ *)

let test_empty_node_patterns () =
  (* nodes with empty atom sets are legal and always match *)
  let p = Pt.make ~free:[ "x" ] (Node ([], [ Node ([ e "x" "x" ], []) ])) in
  let db = db_of_edges [ (5, 5) ] in
  check_int "answers" 1 (Mapping.Set.cardinal (Wdpt.Semantics.eval db p));
  let db2 = db_of_edges [ (1, 2) ] in
  (* root always matches; child cannot: the empty mapping is the answer *)
  Alcotest.check mapping_set_testable "empty-root answer"
    (Mapping.Set.singleton Mapping.empty)
    (Wdpt.Semantics.eval db2 p)

let test_constants_in_wdpt () =
  let p =
    Pt.make ~free:[ "x" ]
      (Node ([ atom "E" [ v "x"; c 2 ] ], [ Node ([ atom "E" [ c 2; v "y" ] ], []) ]))
  in
  let db = db_of_edges [ (1, 2); (2, 3) ] in
  let ans = Wdpt.Semantics.eval db p in
  check_int "constant patterns" 1 (Mapping.Set.cardinal ans);
  check_bool "agrees with tractable" true
    (Wdpt.Eval_tractable.decision db p (mapping [ ("x", 1) ]))

let test_quotient_breaking_wd () =
  (* merging variables from sibling branches breaks well-designedness *)
  let p =
    Pt.make ~free:[]
      (Node ([ e "r" "r" ], [ Node ([ e "a" "a" ], []); Node ([ e "b" "b" ], []) ]))
  in
  check_bool "sibling merge rejected" true
    (Pt.quotient (fun x -> if x = "a" then "b" else x) p = None)

let test_deep_chain_tree () =
  let p = Workload.Gen_wdpt.chain_tree ~nodes:12 ~rel:"E" in
  check_int "twelve nodes" 12 (Pt.node_count p);
  check_int "subtree count linear for chains" 12 (Pt.subtree_count p);
  check_bool "BI(1)" true (Wdpt.Classes.bounded_interface ~c:1 p)

(* ---- semantics ---------------------------------------------------------- *)

let test_empty_database () =
  let p = Workload.Datasets.figure1_wdpt ~free:[ "x"; "y" ] in
  let db = Database.create () in
  check_int "no answers on empty db" 0 (Mapping.Set.cardinal (Wdpt.Semantics.eval db p));
  check_bool "partial false" false (Wdpt.Partial_eval.decision db p Mapping.empty)

let test_max_eval_three_level () =
  (* three answers ordered by ⊑: only the longest survives p_m *)
  let p =
    Pt.make ~free:[ "a"; "b"; "c" ]
      (Node
         ( [ atom "U" [ v "a" ] ],
           [ Node ([ e "a" "b" ], [ Node ([ e "b" "c" ], []) ]) ] ))
  in
  let db =
    Database.of_list
      [ Fact.make "U" [ Value.int 1 ];
        Fact.make "E" [ Value.int 1; Value.int 2 ];
        Fact.make "E" [ Value.int 2; Value.int 3 ] ]
  in
  check_int "p(D) has one (total) answer" 1
    (Mapping.Set.cardinal (Wdpt.Semantics.eval db p));
  check_bool "it is maximal" true
    (Wdpt.Max_eval.decision db p (mapping [ ("a", 1); ("b", 2); ("c", 3) ]));
  check_bool "prefix not in p(D)" false
    (Wdpt.Eval_tractable.decision db p (mapping [ ("a", 1) ]))

(* ---- WDPT containment (undecidable; sound tooling) ---------------------- *)

let test_containment_tools () =
  let p_big = Workload.Datasets.figure1_wdpt ~free:[ "x"; "y"; "z" ] in
  let p_small =
    Pt.make ~free:[ "x"; "y" ]
      (Node
         ( [ Rdf.Triple.pattern_to_atom (v "x", Term.str "recorded_by", v "y");
             Rdf.Triple.pattern_to_atom (v "x", Term.str "published", Term.str "after_2010") ],
           [] ))
  in
  (* p_big's answers bind z when possible: on the canonical db of the full
     tree, p_small's answer doesn't cover it, and indeed sets differ *)
  (match Wdpt.Containment_w.refute p_big p_small with
  | Some db -> check_bool "witness is real" false
      (Wdpt.Containment_w.contained_on db p_big p_small)
  | None -> Alcotest.fail "expected refutation");
  (* reflexive containment is never refuted *)
  check_bool "self containment not refuted" true
    (Wdpt.Containment_w.refute p_big p_big = None)

(* ---- workload determinism ----------------------------------------------- *)

let test_generators_deterministic () =
  let g1 = Wdpt.Reductions.random_graph ~seed:5 ~n:6 ~edge_prob:0.5 in
  let g2 = Wdpt.Reductions.random_graph ~seed:5 ~n:6 ~edge_prob:0.5 in
  check_bool "same seed same graph" true (g1.Wdpt.Reductions.edges = g2.Wdpt.Reductions.edges);
  let d1 = Workload.Gen_db.random ~seed:3 ~schema:[ ("R", 2) ] ~domain:5 ~facts:20 in
  let d2 = Workload.Gen_db.random ~seed:3 ~schema:[ ("R", 2) ] ~domain:5 ~facts:20 in
  check_bool "same seed same db" true
    (Fact.Set.equal
       (Fact.Set.of_list (Database.facts d1))
       (Fact.Set.of_list (Database.facts d2)))

let test_grid_and_chain_dbs () =
  let g = Workload.Gen_db.grid_db ~rel:"E" ~side:3 in
  check_int "grid edges" 12 (Database.size g);
  let ch = Workload.Gen_db.chain_db ~rel:"E" ~length:5 in
  check_int "chain facts" 5 (Database.size ch)

let suite =
  [ Alcotest.test_case "terms and values" `Quick test_term_and_value;
    Alcotest.test_case "mapping extras" `Quick test_mapping_extras;
    Alcotest.test_case "database extras" `Quick test_database_extras;
    Alcotest.test_case "arity mismatch" `Quick test_matches_arity_mismatch;
    Alcotest.test_case "relation algebra" `Quick test_relation_algebra;
    Alcotest.test_case "mapping-set algebra" `Quick test_mapping_algebra;
    Alcotest.test_case "query validation" `Quick test_query_validation;
    Alcotest.test_case "alpha renaming semantics" `Quick test_alpha_renaming_semantics;
    Alcotest.test_case "first/iter homomorphisms" `Quick test_eval_first_and_iter;
    Alcotest.test_case "explicit decomposition" `Quick test_decomp_with_explicit_td;
    Alcotest.test_case "core with constants" `Quick test_core_with_constants;
    Alcotest.test_case "approximation nonexistence" `Quick test_approx_no_candidates;
    Alcotest.test_case "HW'(1) approximations" `Quick test_hw'_approximation;
    Alcotest.test_case "empty node patterns" `Quick test_empty_node_patterns;
    Alcotest.test_case "constants in WDPTs" `Quick test_constants_in_wdpt;
    Alcotest.test_case "quotient breaking wd" `Quick test_quotient_breaking_wd;
    Alcotest.test_case "deep chain tree" `Quick test_deep_chain_tree;
    Alcotest.test_case "empty database" `Quick test_empty_database;
    Alcotest.test_case "three-level max eval" `Quick test_max_eval_three_level;
    Alcotest.test_case "containment tooling" `Quick test_containment_tools;
    Alcotest.test_case "generator determinism" `Quick test_generators_deterministic;
    Alcotest.test_case "grid/chain databases" `Quick test_grid_and_chain_dbs ]
