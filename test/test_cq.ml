(* CQ engine: evaluation (both engines), containment, cores, approximations. *)

open Relational
open Helpers

let q_path2 = Cq.Query.make ~head:[ "x" ] ~body:[ e "x" "y"; e "y" "z" ]

let test_eval_basic () =
  let db = db_of_edges [ (1, 2); (2, 3); (3, 1) ] in
  check_int "answers" 3 (Mapping.Set.cardinal (Cq.Eval.answers db q_path2));
  check_bool "decision yes" true (Cq.Eval.decision db q_path2 (mapping [ ("x", 1) ]));
  check_bool "decision needs exact domain" false
    (Cq.Eval.decision db q_path2 (mapping [ ("x", 1); ("y", 2) ]));
  check_bool "decision no" false
    (Cq.Eval.decision db q_path2 (mapping [ ("x", 99) ]))

let test_eval_constants () =
  let db = db_of_edges [ (1, 2); (2, 3) ] in
  let q = Cq.Query.make ~head:[ "x" ] ~body:[ atom "E" [ v "x"; c 3 ] ] in
  check_int "constant filter" 1 (Mapping.Set.cardinal (Cq.Eval.answers db q))

let test_eval_empty_and_ground () =
  let db = db_of_edges [ (1, 2) ] in
  let q_true = Cq.Query.boolean [ atom "E" [ c 1; c 2 ] ] in
  let q_false = Cq.Query.boolean [ atom "E" [ c 2; c 1 ] ] in
  check_int "ground true" 1 (Mapping.Set.cardinal (Cq.Eval.answers db q_true));
  check_int "ground false" 0 (Mapping.Set.cardinal (Cq.Eval.answers db q_false));
  check_int "decomp ground true" 1
    (Mapping.Set.cardinal (Cq.Decomp_eval.answers db q_true));
  check_int "decomp ground false" 0
    (Mapping.Set.cardinal (Cq.Decomp_eval.answers db q_false))

let test_containment () =
  let p1 = Cq.Query.make ~head:[ "x" ] ~body:[ e "x" "y" ] in
  check_bool "path2 <= path1" true (Cq.Containment.contained q_path2 p1);
  check_bool "path1 </= path2" false (Cq.Containment.contained p1 q_path2);
  check_bool "reflexive" true (Cq.Containment.contained q_path2 q_path2);
  (* different heads are incomparable *)
  let p1' = Cq.Query.make ~head:[ "y" ] ~body:[ e "x" "y" ] in
  check_bool "different heads" false (Cq.Containment.contained p1 p1');
  (* subsumption allows head extension *)
  let big = Cq.Query.make ~head:[ "x"; "y" ] ~body:[ e "x" "y" ] in
  check_bool "subsumed with wider head" true (Cq.Containment.subsumed p1 big);
  check_bool "not contained though" false (Cq.Containment.contained p1 big)

(* two parallel directed paths x->.->z: primal graph is a 4-cycle (tw 2) but
   the query folds onto a single path (tw 1) *)
let parallel_paths =
  Cq.Query.boolean [ e "x" "y"; e "y" "z"; e "x" "y2"; e "y2" "z" ]

let single_path = Cq.Query.boolean [ e "x" "y"; e "y" "z" ]

let test_equivalence () =
  check_bool "parallel paths ≡ path" true
    (Cq.Containment.equivalent parallel_paths single_path);
  (* directed C4 is a core: NOT equivalent to C2 *)
  let c4 = Workload.Gen_cq.cycle 4 in
  let c2 = Workload.Gen_cq.cycle 2 in
  check_bool "C2 ⊆ C4" true (Cq.Containment.contained c2 c4);
  check_bool "C4 ⊄ C2" false (Cq.Containment.contained c4 c2);
  let c3 = Workload.Gen_cq.cycle 3 in
  check_bool "C3 not ≡ C2" false (Cq.Containment.equivalent c3 c2)

let test_core () =
  (* triangle + pendant path: core is the triangle *)
  let q =
    Cq.Query.boolean
      [ e "u" "v"; e "v" "w"; e "w" "u"; e "p" "q"; e "q" "r" ]
  in
  let core = Cq.Core_q.core q in
  check_int "core size" 3 (Cq.Query.size core);
  check_bool "core equivalent" true (Cq.Containment.equivalent q core);
  check_bool "core is core" true (Cq.Core_q.is_core core);
  (* head variables are kept *)
  let q2 = Cq.Query.make ~head:[ "p" ] ~body:[ e "p" "q"; e "p" "r" ] in
  let core2 = Cq.Core_q.core q2 in
  check_bool "head kept" true (List.mem "p" (Cq.Query.head core2));
  check_int "pendant merged" 1 (Cq.Query.size core2)

let test_semantic_width () =
  (* parallel paths: treewidth 2 syntactically, but the core is a path *)
  check_bool "parallel paths not syntactically TW(1)" false
    (Cq.Query.in_tw ~k:1 parallel_paths);
  check_bool "parallel paths semantically TW(1)" true
    (Cq.Core_q.equivalent_to_class parallel_paths ~in_class:(Cq.Query.in_tw ~k:1));
  let c3 = Workload.Gen_cq.cycle 3 in
  check_bool "C3 not semantically TW(1)" false
    (Cq.Core_q.equivalent_to_class c3 ~in_class:(Cq.Query.in_tw ~k:1));
  (* directed C4 is a core, so it stays at treewidth 2 semantically *)
  check_bool "C4 is a core" true (Cq.Core_q.is_core (Workload.Gen_cq.cycle 4));
  check_bool "C4 not semantically TW(1)" false
    (Cq.Core_q.equivalent_to_class (Workload.Gen_cq.cycle 4)
       ~in_class:(Cq.Query.in_tw ~k:1))

let test_widths_of_families () =
  check_bool "chain in TW(1)" true (Cq.Query.in_tw ~k:1 (Workload.Gen_cq.chain 5));
  check_bool "clique 4 tw 3" true
    (Cq.Query.treewidth (Workload.Gen_cq.clique 4) = 3);
  (* Example 5: guarded clique is acyclic but of large treewidth *)
  let gc = Workload.Gen_cq.guarded_clique 5 in
  check_bool "guarded clique acyclic" true (Cq.Query.is_acyclic gc);
  check_bool "guarded clique in HW(1)" true (Cq.Query.in_hw ~k:1 gc);
  check_int "guarded clique treewidth" 4 (Cq.Query.treewidth gc);
  (* but not beta: HW'(1) fails since the clique subquery is cyclic *)
  check_bool "guarded clique not in HW'(1)" false (Cq.Query.in_hw' ~k:1 gc)

let test_approximations_triangle () =
  let c3 = Workload.Gen_cq.cycle 3 in
  let apps = Cq.Approx.tw_approximations ~k:1 c3 in
  check_bool "some approximation" true (apps <> []);
  List.iter
    (fun a ->
      check_bool "in class" true (Cq.Query.in_tw ~k:1 a);
      check_bool "sound" true (Cq.Containment.contained a c3))
    apps;
  (* every in-class quotient is dominated by an approximation *)
  let quotients = Cq.Approx.quotients_in_class ~in_class:(Cq.Query.in_tw ~k:1) c3 in
  List.iter
    (fun qq ->
      check_bool "dominated" true
        (List.exists (fun a -> Cq.Containment.contained qq a) apps))
    quotients

let test_approximation_in_class_identity () =
  let chain = Workload.Gen_cq.chain 3 in
  let apps = Cq.Approx.tw_approximations ~k:1 chain in
  check_int "in-class query approximates itself" 1 (List.length apps);
  check_bool "identity" true (Cq.Containment.equivalent (List.hd apps) chain)

let test_substitute_freeze () =
  let q = q_path2 in
  let q' = Cq.Query.substitute (mapping [ ("x", 1) ]) q in
  check_bool "head shrinks" true (Cq.Query.head q' = []);
  let db, frozen = Cq.Query.freeze q in
  check_int "canonical db size" 2 (Database.size db);
  check_int "freeze covers vars" 3 (Mapping.cardinal frozen)

(* properties *)

let test_yannakakis_known () =
  let db = db_of_edges [ (1, 2); (2, 3); (3, 4) ] in
  let q = Workload.Gen_cq.chain 2 in
  (match Cq.Yannakakis.answers db q with
  | None -> Alcotest.fail "chain is acyclic"
  | Some ans ->
      check_bool "agrees with backtracking" true
        (Mapping.Set.equal ans (Cq.Eval.answers db q)));
  (* cyclic queries are refused *)
  check_bool "triangle refused" true
    (Cq.Yannakakis.answers db (Workload.Gen_cq.cycle 3) = None);
  (* instantiation can break the cycle *)
  check_bool "instantiated triangle accepted" true
    (Cq.Yannakakis.satisfiable db (Workload.Gen_cq.cycle 3)
       ~init:(mapping [ ("x0", 1) ])
    <> None)

let test_yannakakis_guarded_clique () =
  (* Example 5: acyclic but of unbounded treewidth; Yannakakis evaluates it
     directly over the guard *)
  let n = 6 in
  let q = Workload.Gen_cq.guarded_clique n in
  let vals = List.init n (fun i -> Value.int i) in
  let db = Database.create () in
  (* a complete digraph plus its guard tuple *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (Value.equal a b) then Database.add db (Fact.make "E" [ a; b ]))
        vals)
    vals;
  Database.add db (Fact.make ("T" ^ string_of_int n) vals);
  (match Cq.Yannakakis.satisfiable db q ~init:Mapping.empty with
  | Some true -> ()
  | _ -> Alcotest.fail "guarded clique should be satisfied");
  (* remove the guard: unsatisfiable *)
  let db2 =
    Database.of_list
      (List.filter (fun f -> Fact.rel f = "E") (Database.facts db))
  in
  match Cq.Yannakakis.satisfiable db2 q ~init:Mapping.empty with
  | Some false -> ()
  | _ -> Alcotest.fail "missing guard should fail"

let test_hyper_eval () =
  (* cycle of 6: hypertreewidth 2; evaluate through a width-2 decomposition *)
  let q = Workload.Gen_cq.cycle 6 in
  let db = db_of_edges [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0); (9, 9) ] in
  (match Hypergraphs.Hypertree.ghw_at_most (Cq.Query.hypergraph q) 2 with
  | None -> Alcotest.fail "C6 has ghw 2"
  | Some htd ->
      check_bool "agrees with backtracking" true
        (Mapping.Set.equal (Cq.Hyper_eval.answers db q ~htd) (Cq.Eval.answers db q));
      check_bool "satisfiable" true
        (Cq.Hyper_eval.satisfiable db q ~htd ~init:Mapping.empty));
  (* auto mode *)
  check_bool "auto finds width 2" true
    (Cq.Hyper_eval.auto db q ~k:2 ~init:Mapping.empty = Some true);
  check_bool "auto refuses width 1" true
    (Cq.Hyper_eval.auto db q ~k:1 ~init:Mapping.empty = None)

(* a width-2 decomposition of the uninstantiated C6 stays valid under any
   binding: its guard edges must pick up the atoms instantiation shrank *)
let test_hyper_eval_bound () =
  let q = Workload.Gen_cq.cycle 6 in
  let db = db_of_edges [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0); (9, 9) ] in
  match Hypergraphs.Hypertree.ghw_at_most (Cq.Query.hypergraph q) 2 with
  | None -> Alcotest.fail "C6 has ghw 2"
  | Some htd ->
      List.iter
        (fun x ->
          List.iter
            (fun n ->
              let init = mapping [ (x, n) ] in
              check_bool
                (Printf.sprintf "%s = %d" x n)
                (Cq.Eval.satisfiable db (Cq.Query.body q) ~init)
                (Cq.Hyper_eval.satisfiable db q ~htd ~init))
            [ 0; 1; 2; 3; 9 ])
        (String_set.elements (Cq.Query.vars q))

(* projections onto one variable: the join-project starts below the root,
   so rows the downward semijoins remove must not reach the answers *)
let test_bag_tree_projections () =
  let agree name got q db =
    check_bool name true (Mapping.Set.equal got (Cq.Eval.answers db q))
  in
  let path = [ e "x" "y"; e "y" "z"; e "z" "w" ] in
  let db = db_of_edges [ (0, 1); (1, 2); (2, 3); (5, 6); (6, 7); (8, 9) ] in
  List.iter
    (fun x ->
      let q = Cq.Query.make ~head:[ x ] ~body:path in
      match Cq.Yannakakis.answers db q with
      | None -> Alcotest.fail "a path is acyclic"
      | Some a -> agree ("Yannakakis onto " ^ x) a q db)
    [ "x"; "y"; "z"; "w" ];
  let c6 = Workload.Gen_cq.cycle 6 in
  let db =
    db_of_edges
      [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0); (6, 7); (7, 8); (8, 10);
        (10, 11); (11, 12) ]
  in
  List.iter
    (fun x ->
      let q = Cq.Query.make ~head:[ x ] ~body:(Cq.Query.body c6) in
      agree ("tree decomposition onto " ^ x) (Cq.Decomp_eval.answers db q) q db;
      match Hypergraphs.Hypertree.ghw_at_most (Cq.Query.hypergraph q) 2 with
      | None -> Alcotest.fail "C6 has ghw 2"
      | Some htd -> agree ("hypertree onto " ^ x) (Cq.Hyper_eval.answers db q ~htd) q db)
    (String_set.elements (Cq.Query.vars c6))

(* a CQ, a database and one variable of the CQ bound to an active-domain
   value of the database *)
let arbitrary_bound_cq =
  QCheck.make
    ~print:(fun (q, db, init) ->
      Format.asprintf "%a@.%a@.init %a" Cq.Query.pp q Database.pp db Mapping.pp init)
    QCheck.Gen.(
      let* q = gen_cq in
      let* db = gen_db in
      let* x = oneofl (String_set.elements (Cq.Query.vars q)) in
      let* value = oneofl (Value.Set.elements (Database.active_domain db)) in
      return (q, db, Mapping.of_list [ (x, value) ]))

let prop_hyper_eval_agrees =
  qtest ~count:80 "hypertree-guided evaluation agrees with backtracking"
    arbitrary_bound_cq (fun (q, db, init) ->
      match Hypergraphs.Hypertree.ghw_at_most (Cq.Query.hypergraph q) 2 with
      | None -> true
      | Some htd ->
          Mapping.Set.equal (Cq.Hyper_eval.answers db q ~htd) (Cq.Eval.answers db q)
          && Cq.Hyper_eval.satisfiable db q ~htd ~init
             = Cq.Eval.satisfiable db (Cq.Query.body q) ~init)

let prop_yannakakis_agrees =
  qtest ~count:200 "Yannakakis agrees with backtracking on acyclic queries"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      match Cq.Yannakakis.answers db q with
      | None -> true
      | Some ans -> Mapping.Set.equal ans (Cq.Eval.answers db q))

let prop_engines_agree =
  qtest ~count:200 "backtracking and decomposition evaluation agree"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      Mapping.Set.equal (Cq.Eval.answers db q) (Cq.Decomp_eval.answers db q))

let prop_satisfiable_agree =
  qtest ~count:200 "satisfiability agreement" arbitrary_bound_cq
    (fun (q, db, init) ->
      let _, td = Hypergraphs.Tree_decomposition.upper_bound (Cq.Query.hypergraph q) in
      List.for_all
        (fun init ->
          let expected = Cq.Eval.satisfiable db (Cq.Query.body q) ~init in
          Cq.Decomp_eval.satisfiable db q ~init = expected
          && Cq.Decomp_eval.satisfiable ~td db q ~init = expected
          && Option.fold ~none:true ~some:(Bool.equal expected)
               (Cq.Yannakakis.satisfiable db q ~init))
        [ Mapping.empty; init ])

let prop_containment_sound =
  qtest ~count:100 "containment is sound on random instances"
    (QCheck.triple arbitrary_cq arbitrary_cq arbitrary_db) (fun (q1, q2, db) ->
      if Cq.Containment.contained q1 q2 then
        Mapping.Set.subset (Cq.Eval.answers db q1) (Cq.Eval.answers db q2)
      else true)

let prop_core_equivalent =
  qtest ~count:100 "core is equivalent and no larger" arbitrary_cq (fun q ->
      let core = Cq.Core_q.core q in
      Cq.Containment.equivalent q core && Cq.Query.size core <= Cq.Query.size q)

(* exhaustive validation of the quotient-BFS approximation search: for tiny
   queries, enumerate EVERY variable map fixing the head, keep the in-class
   images, and check that the BFS-produced approximations are exactly the
   ⊆-maximal ones (up to equivalence) *)
let all_quotients q =
  let head = Cq.Query.head_set q in
  let vars = String_set.elements (Cq.Query.vars q) in
  let targets = vars in
  let rec assignments = function
    | [] -> [ [] ]
    | x :: rest ->
        let rests = assignments rest in
        if String_set.mem x head then List.map (fun a -> (x, x) :: a) rests
        else
          List.concat_map
            (fun t -> List.map (fun a -> (x, t) :: a) rests)
            targets
  in
  List.filter_map
    (fun assoc ->
      let f x = List.assoc x assoc in
      try Some (Cq.Query.quotient f q) with Invalid_argument _ -> None)
    (assignments vars)

let prop_approx_complete_on_tiny =
  qtest ~count:40 "BFS approximations = maximal in-class quotients (exhaustive)"
    (QCheck.make
       QCheck.Gen.(
         let var i = "x" ^ string_of_int i in
         let* nvars = int_range 2 4 in
         let* natoms = int_range 2 4 in
         let* atoms =
           list_size (return natoms)
             (let* a = int_range 0 (nvars - 1) in
              let* b = int_range 0 (nvars - 1) in
              return (e (var a) (var b)))
         in
         return (Cq.Query.boolean atoms)))
    (fun q ->
      let in_class = Cq.Query.in_tw ~k:1 in
      let exhaustive = List.filter in_class (all_quotients q) in
      let maximal =
        List.filter
          (fun c ->
            not
              (List.exists
                 (fun c' ->
                   Cq.Containment.contained c c' && not (Cq.Containment.contained c' c))
                 exhaustive))
          exhaustive
      in
      let bfs = Cq.Approx.tw_approximations ~k:1 q in
      (* same set up to equivalence *)
      List.for_all (fun m -> List.exists (Cq.Containment.equivalent m) bfs) maximal
      && List.for_all (fun b -> List.exists (Cq.Containment.equivalent b) maximal) bfs)

let prop_approx_sound_and_in_class =
  qtest ~count:40 "TW(1)-approximations are sound and in class" arbitrary_cq
    (fun q ->
      let apps = Cq.Approx.tw_approximations ~k:1 q in
      List.for_all
        (fun a -> Cq.Query.in_tw ~k:1 a && Cq.Containment.contained a q)
        apps)

let suite =
  [ Alcotest.test_case "basic evaluation" `Quick test_eval_basic;
    Alcotest.test_case "constants" `Quick test_eval_constants;
    Alcotest.test_case "ground atoms" `Quick test_eval_empty_and_ground;
    Alcotest.test_case "containment" `Quick test_containment;
    Alcotest.test_case "equivalence C4/C2" `Quick test_equivalence;
    Alcotest.test_case "cores" `Quick test_core;
    Alcotest.test_case "semantic width via core" `Quick test_semantic_width;
    Alcotest.test_case "width families (Examples 4, 5)" `Quick test_widths_of_families;
    Alcotest.test_case "approximations of a triangle" `Quick test_approximations_triangle;
    Alcotest.test_case "approximation of in-class query" `Quick test_approximation_in_class_identity;
    Alcotest.test_case "substitute and freeze" `Quick test_substitute_freeze;
    Alcotest.test_case "Yannakakis knowns" `Quick test_yannakakis_known;
    Alcotest.test_case "Yannakakis on guarded cliques" `Quick
      test_yannakakis_guarded_clique;
    Alcotest.test_case "hypertree-guided evaluation" `Quick test_hyper_eval;
    Alcotest.test_case "hypertree evaluation under a binding" `Quick
      test_hyper_eval_bound;
    Alcotest.test_case "bag-tree projections" `Quick test_bag_tree_projections;
    prop_hyper_eval_agrees;
    prop_yannakakis_agrees;
    prop_engines_agree;
    prop_satisfiable_agree;
    prop_containment_sound;
    prop_core_equivalent;
    prop_approx_complete_on_tiny;
    prop_approx_sound_and_in_class ]
