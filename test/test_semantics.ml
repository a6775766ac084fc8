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

(* The lemma [Semantics.eval_max] skips its filter on (the argument is next
   to it): without projection, no answer strictly subsumes another, checked
   here pair by pair, so p_m(D) = p(D). *)
let prop_projection_free_max_is_eval =
  qtest ~count:150 "projection-free: no strictly subsumed pair, eval_max = eval"
    (QCheck.pair arbitrary_projection_free_wdpt arbitrary_db) (fun (p, db) ->
      QCheck.assume (Workload.Budget.brute_force_feasible p db);
      let ans = Sem.eval db p in
      let l = Mapping.Set.elements ans in
      List.for_all (fun h -> not (List.exists (Mapping.strictly_subsumes h) l)) l
      && Mapping.Set.equal (Sem.eval_max db p) ans)

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

(* ---- the row walk's edge cases ---------------------------------------- *)

(* Literal sequences: the order in which [extender] yields, and the order in
   which [stream_eval] emits a page, are part of the contract, so each case
   pins them exactly. *)

let check_seq name expected got =
  Alcotest.(check (list mapping_testable)) name (List.map mapping expected) got

let run_extender db p init =
  let out = ref [] in
  Sem.extender db p ~init:(mapping init) (fun h -> out := h :: !out);
  List.rev !out

let stream_page db p ~offset ~limit =
  let out = ref [] in
  let n = Sem.stream_eval db p ~offset ~limit (fun h -> out := h :: !out) in
  check_int "stream_eval count" (List.length !out) n;
  List.rev !out

(* [~init] may bind a value the store never interned (99 occurs in no
   fact) and a variable outside the tree ([w]): the first leaves its node
   unmatched, the second rides along into every answer *)
let test_walk_init_edges () =
  let db =
    Database.of_list
      [ fact "E" [ 1; 2 ]; fact "E" [ 1; 3 ]; fact "E" [ 2; 3 ];
        fact "F" [ 2; 5 ]; fact "F" [ 3; 6 ]; fact "F" [ 3; 7 ] ]
  in
  let p =
    Pt.make ~free:[ "x"; "y"; "z" ]
      (Node ([ atom "E" [ v "x"; v "y" ] ], [ Node ([ atom "F" [ v "y"; v "z" ] ], []) ]))
  in
  let run = run_extender db p in
  check_seq "init x"
    [ [ ("x", 1); ("y", 2); ("z", 5) ];
      [ ("x", 1); ("y", 3); ("z", 6) ];
      [ ("x", 1); ("y", 3); ("z", 7) ] ]
    (run [ ("x", 1) ]);
  check_seq "init root variable never interned" [] (run [ ("x", 99) ]);
  check_seq "init child variable never interned"
    [ [ ("x", 1); ("y", 2); ("z", 99) ]; [ ("x", 1); ("y", 3); ("z", 99) ] ]
    (run [ ("x", 1); ("z", 99) ]);
  check_seq "init child variable"
    [ [ ("x", 1); ("y", 2); ("z", 6) ]; [ ("x", 1); ("y", 3); ("z", 6) ] ]
    (run [ ("x", 1); ("z", 6) ]);
  check_seq "init outside the tree"
    [ [ ("w", 42); ("x", 1); ("y", 2); ("z", 5) ];
      [ ("w", 42); ("x", 1); ("y", 3); ("z", 6) ];
      [ ("w", 42); ("x", 1); ("y", 3); ("z", 7) ] ]
    (run [ ("x", 1); ("w", 42) ]);
  check_seq "init outside the tree, never interned"
    [ [ ("w", 99); ("x", 1); ("y", 2); ("z", 5) ];
      [ ("w", 99); ("x", 1); ("y", 3); ("z", 6) ];
      [ ("w", 99); ("x", 1); ("y", 3); ("z", 7) ];
      [ ("w", 99); ("x", 2); ("y", 3); ("z", 6) ];
      [ ("w", 99); ("x", 2); ("y", 3); ("z", 7) ] ]
    (run [ ("w", 99) ]);
  check_seq "init second root variable"
    [ [ ("x", 1); ("y", 3); ("z", 6) ];
      [ ("x", 1); ("y", 3); ("z", 7) ];
      [ ("x", 2); ("y", 3); ("z", 6) ];
      [ ("x", 2); ("y", 3); ("z", 7) ] ]
    (run [ ("y", 3) ])

(* the child E(y, x) adds no variable: it only decides whether its own
   child F(x, u) is reached *)
let test_walk_no_new_vars () =
  let db =
    Database.of_list
      [ fact "E" [ 1; 2 ]; fact "E" [ 2; 1 ]; fact "E" [ 2; 3 ]; fact "E" [ 3; 3 ];
        fact "F" [ 1; 4 ]; fact "F" [ 3; 5 ]; fact "F" [ 3; 6 ] ]
  in
  let p =
    Pt.make ~free:[ "x"; "y"; "z"; "u" ]
      (Node
         ( [ atom "E" [ v "x"; v "y" ] ],
           [ Node
               ( [ atom "E" [ v "y"; v "x" ] ],
                 [ Node ([ atom "F" [ v "x"; v "u" ] ], []) ] );
             Node ([ atom "F" [ v "y"; v "z" ] ], []) ] ))
  in
  check_walk "no new variables" db p
    [ [ ("u", 4); ("x", 1); ("y", 2) ];
      [ ("x", 2); ("y", 1); ("z", 4) ];
      [ ("x", 2); ("y", 3); ("z", 5) ];
      [ ("x", 2); ("y", 3); ("z", 6) ];
      [ ("u", 5); ("x", 3); ("y", 3); ("z", 5) ];
      [ ("u", 5); ("x", 3); ("y", 3); ("z", 6) ];
      [ ("u", 6); ("x", 3); ("y", 3); ("z", 5) ];
      [ ("u", 6); ("x", 3); ("y", 3); ("z", 6) ] ]

(* y is projected away and shared by the branches F(y, a) and G(y, b): x = 1
   reaches the answer {a 10, b 20} twice, and x = 8's bare answer is
   strictly subsumed by its other one *)
let test_walk_projected_shared () =
  let db =
    Database.of_list
      [ fact "E" [ 1; 2 ]; fact "E" [ 1; 3 ]; fact "E" [ 4; 5 ]; fact "E" [ 6; 7 ];
        fact "E" [ 8; 9 ]; fact "E" [ 1; 4 ]; fact "E" [ 8; 2 ];
        fact "F" [ 4; 10 ]; fact "G" [ 4; 20 ]; fact "F" [ 2; 10 ]; fact "F" [ 3; 10 ];
        fact "F" [ 5; 11 ]; fact "G" [ 2; 20 ]; fact "G" [ 3; 21 ]; fact "G" [ 7; 22 ] ]
  in
  let p =
    Pt.make ~free:[ "x"; "a"; "b" ]
      (Node
         ( [ atom "E" [ v "x"; v "y" ] ],
           [ Node ([ atom "F" [ v "y"; v "a" ] ], []);
             Node ([ atom "G" [ v "y"; v "b" ] ], []) ] ))
  in
  check_walk "projected shared" db p
    [ [ ("a", 10); ("b", 20); ("x", 1); ("y", 2) ];
      [ ("a", 10); ("b", 21); ("x", 1); ("y", 3) ];
      [ ("a", 11); ("x", 4); ("y", 5) ];
      [ ("b", 22); ("x", 6); ("y", 7) ];
      [ ("x", 8); ("y", 9) ];
      [ ("a", 10); ("b", 20); ("x", 1); ("y", 4) ];
      [ ("a", 10); ("b", 20); ("x", 8); ("y", 2) ] ];
  let answers =
    [ [ ("a", 10); ("b", 20); ("x", 1) ];
      [ ("a", 10); ("b", 21); ("x", 1) ];
      [ ("a", 11); ("x", 4) ];
      [ ("b", 22); ("x", 6) ];
      [ ("x", 8) ];
      [ ("a", 10); ("b", 20); ("x", 8) ] ]
  in
  check_seq "eval"
    (List.sort
       (fun a b -> Mapping.compare (mapping a) (mapping b))
       answers)
    (Mapping.Set.elements (Sem.eval db p));
  check_seq "eval_max"
    [ [ ("a", 10); ("b", 20); ("x", 1) ];
      [ ("a", 10); ("b", 20); ("x", 8) ];
      [ ("a", 10); ("b", 21); ("x", 1) ];
      [ ("a", 11); ("x", 4) ];
      [ ("b", 22); ("x", 6) ] ]
    (Mapping.Set.elements (Sem.eval_max db p));
  (* pages keep first-seen order *)
  check_seq "stream_eval, all" answers (stream_page db p ~offset:0 ~limit:None);
  check_seq "stream_eval, page 2 of size 2"
    [ [ ("a", 11); ("x", 4) ]; [ ("b", 22); ("x", 6) ] ]
    (stream_page db p ~offset:2 ~limit:(Some 2));
  check_seq "stream_eval, last page"
    [ [ ("x", 8) ]; [ ("a", 10); ("b", 20); ("x", 8) ] ]
    (stream_page db p ~offset:4 ~limit:(Some 3));
  check_seq "stream_eval, past the end" [] (stream_page db p ~offset:6 ~limit:(Some 3));
  check_seq "stream_eval, empty page" [] (stream_page db p ~offset:0 ~limit:(Some 0))

(* constants and a repeated variable inside node atoms: H(y, 7, u) with
   E(y, y), H(y, w, w), and the variable-free-but-y K(7, y) *)
let test_walk_constants_repeats () =
  let db =
    Database.of_list
      [ fact "E" [ 1; 2 ]; fact "E" [ 2; 2 ]; fact "E" [ 3; 4 ]; fact "E" [ 4; 4 ];
        fact "H" [ 2; 7; 8 ]; fact "H" [ 2; 9; 9 ]; fact "H" [ 4; 7; 7 ];
        fact "H" [ 4; 7; 5 ]; fact "K" [ 7; 2 ] ]
  in
  let p =
    Pt.make ~free:[ "x"; "y"; "u"; "w" ]
      (Node
         ( [ atom "E" [ v "x"; v "y" ] ],
           [ Node ([ atom "H" [ v "y"; c 7; v "u" ]; atom "E" [ v "y"; v "y" ] ], []);
             Node ([ atom "H" [ v "y"; v "w"; v "w" ] ], []);
             Node ([ atom "K" [ c 7; v "y" ] ], []) ] ))
  in
  let homs =
    [ [ ("u", 8); ("w", 9); ("x", 1); ("y", 2) ];
      [ ("u", 8); ("w", 9); ("x", 2); ("y", 2) ];
      [ ("u", 7); ("w", 7); ("x", 3); ("y", 4) ];
      [ ("u", 5); ("w", 7); ("x", 3); ("y", 4) ];
      [ ("u", 7); ("w", 7); ("x", 4); ("y", 4) ];
      [ ("u", 5); ("w", 7); ("x", 4); ("y", 4) ] ]
  in
  check_walk "constants and repeats" db p homs;
  check_seq "eval_max"
    (List.sort (fun a b -> Mapping.compare (mapping a) (mapping b)) homs)
    (Mapping.Set.elements (Sem.eval_max db p));
  check_seq "stream_eval" homs (stream_page db p ~offset:0 ~limit:None)

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
    prop_projection_free_max_is_eval;
    Alcotest.test_case "shared walk: star" `Quick test_walk_shared_star;
    Alcotest.test_case "shared walk: cached miss falls through" `Quick
      test_walk_cached_miss;
    Alcotest.test_case "shared walk: nested interfaces" `Quick test_walk_nested;
    Alcotest.test_case "row walk: init edges" `Quick test_walk_init_edges;
    Alcotest.test_case "row walk: node with no new variables" `Quick
      test_walk_no_new_vars;
    Alcotest.test_case "row walk: projected variable shared by branches" `Quick
      test_walk_projected_shared;
    Alcotest.test_case "row walk: constants and repeated variables" `Quick
      test_walk_constants_repeats;
    prop_shared_extender_rootkeys ]
