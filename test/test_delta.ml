(* Incremental answer maintenance: tombstone deletes, delta batches,
   standing queries with subsumption frontiers, and the E027–E030 auditor. *)

open Relational
open Helpers

let fact r vs = Fact.make r (List.map Value.int vs)
let e2 a b = fact "E" [ a; b ]
let u1 a = fact "U" [ a ]

let set_testable = mapping_set_testable
let check_set = Alcotest.check set_testable

(* ---- tombstone deletes ------------------------------------------------ *)

let test_remove_basic () =
  let db = Database.of_list [ e2 1 2; e2 2 3; e2 1 3; u1 2 ] in
  Database.remove db (e2 2 3);
  check_int "size" 3 (Database.size db);
  check_bool "mem gone" false (Database.mem db (e2 2 3));
  check_int "count_of E" 2 (Database.count_of db "E");
  check_int "index_count E.0=2" 0 (Database.index_count db "E" 0 (Value.int 2));
  check_int "distinct E.0" 1 (Database.distinct_count db "E" 0);
  check_int "facts_of filters" 2 (List.length (Database.facts_of db "E"));
  let h = Mapping.empty in
  let ms = Database.matches db (atom "E" [ v "x"; v "y" ]) h in
  check_int "matches filter tombstones" 2 (List.length ms);
  (* remove is idempotent on dead facts *)
  let ver = Database.version db in
  Database.remove db (e2 2 3);
  check_int "remove of dead fact is a no-op" ver (Database.version db)

let test_version_and_deletions () =
  let db = Database.of_list [ e2 1 2 ] in
  check_int "deletions start at 0" 0 (Database.deletions db);
  let v0 = Database.version db in
  Database.remove db (e2 1 2);
  check_int "remove bumps version" (v0 + 1) (Database.version db);
  check_int "remove bumps deletions" 1 (Database.deletions db);
  Database.add db (e2 1 2);
  check_int "re-add bumps version, not deletions" 1 (Database.deletions db);
  Database.compact db;
  check_int "compact bumps neither (version)" (v0 + 2) (Database.version db);
  check_int "compact bumps neither (deletions)" 1 (Database.deletions db)

let test_delete_then_reinsert () =
  let db = Database.of_list [ e2 1 2; e2 2 3 ] in
  Database.remove db (e2 1 2);
  Database.add db (e2 1 2);
  check_bool "resurrected" true (Database.mem db (e2 1 2));
  check_int "size restored" 2 (Database.size db);
  check_int "count restored" 2 (Database.count_of db "E");
  check_int "index restored" 1 (Database.index_count db "E" 0 (Value.int 1));
  check_int "distinct restored" 2 (Database.distinct_count db "E" 0);
  (* the physical cell must not have been re-appended: candidates sees the
     fact exactly once *)
  let cands = Database.candidates db (atom "E" [ v "x"; v "y" ]) Mapping.empty in
  check_int "no duplicate physical entry" 2 (List.length cands);
  (* same again but with a compaction between delete and re-insert *)
  Database.remove db (e2 1 2);
  Database.compact db;
  Database.add db (e2 1 2);
  let cands = Database.candidates db (atom "E" [ v "x"; v "y" ]) Mapping.empty in
  check_int "re-add after compaction appends once" 2 (List.length cands)

let test_compaction_mid_enumeration () =
  let facts = List.init 20 (fun i -> e2 i (i + 1)) in
  let db = Database.of_list facts in
  (* a candidate list obtained before the deletes is an immutable snapshot *)
  let before = Database.candidates db (atom "E" [ v "x"; v "y" ]) Mapping.empty in
  List.iteri (fun i f -> if i mod 2 = 0 then Database.remove db f) facts;
  Database.compact db;
  check_int "snapshot list survives compaction" 20 (List.length before);
  check_int "post-compaction candidates are live only" 10
    (List.length (Database.candidates db (atom "E" [ v "x"; v "y" ]) Mapping.empty));
  (* adom/distinct recomputed exactly *)
  check_int "distinct E.0 recomputed" 10 (Database.distinct_count db "E" 0);
  let expect_adom =
    List.length
      (List.sort_uniq compare
         (List.concat_map
            (fun f -> List.map (fun v -> v) (Fact.tuple f))
            (Database.facts db)))
  in
  check_int "adom recomputed exactly" expect_adom (Database.adom_size db)

let test_auto_compaction () =
  let facts = List.init 200 (fun i -> e2 i (i + 1)) in
  let db = Database.of_list facts in
  List.iteri (fun i f -> if i mod 2 = 0 then Database.remove db f) facts;
  (* 100 tombstones against 100 live facts crosses the auto threshold *)
  check_int "live size" 100 (Database.size db);
  check_int "adom tight after auto-compaction" (Database.adom_size db)
    (List.length
       (List.sort_uniq compare (List.concat_map Fact.tuple (Database.facts db))))

(* ---- log contracts ---------------------------------------------------- *)

let test_facts_since_future_version () =
  let db = Database.of_list [ e2 1 2; e2 2 3 ] in
  let now = Database.version db in
  check_bool "future version yields []" true (Database.facts_since db (now + 1) = []);
  check_bool "far future yields []" true (Database.facts_since db (now + 1000) = []);
  check_bool "current version yields []" true (Database.facts_since db now = []);
  Database.remove db (e2 1 2);
  let now = Database.version db in
  check_bool "future version after deletes yields []" true
    (Database.facts_since db (now + 1) = [])

let test_facts_since_nets_deletions () =
  let db = Database.of_list [ e2 1 2 ] in
  let v0 = Database.version db in
  Database.add db (e2 2 3);
  Database.remove db (e2 2 3);
  check_bool "add then remove nets to nothing" true (Database.facts_since db v0 = []);
  Database.remove db (e2 1 2);
  Database.add db (e2 1 2);
  check_bool "remove then re-add nets to nothing" true
    (Database.facts_since db v0 = []);
  Database.add db (e2 3 4);
  check_bool "net-new fact survives the netting" true
    (Database.facts_since db v0 = [ e2 3 4 ]);
  (* full replay lists exactly the live facts *)
  check_bool "facts_since 0 = live replay" true
    (List.sort Fact.compare (Database.facts_since db 0)
    = List.sort Fact.compare (Database.facts db))

let test_changes_since () =
  let db = Database.of_list [ e2 1 2 ] in
  let v0 = Database.version db in
  Database.remove db (e2 1 2);
  Database.add db (e2 1 2);
  Database.add db (e2 2 3);
  (match Database.changes_since db v0 with
  | [ Database.Remove a; Database.Add b; Database.Add c ] ->
      check_bool "entry order" true
        (Fact.equal a (e2 1 2) && Fact.equal b (e2 1 2) && Fact.equal c (e2 2 3))
  | _ -> Alcotest.fail "unexpected changes_since shape");
  check_bool "changes_since at current version" true
    (Database.changes_since db (Database.version db) = [])

let test_delta_batch_netting () =
  let db = Database.of_list [ e2 1 2; e2 2 3 ] in
  let v0 = Database.version db in
  Database.add db (e2 3 4);
  Database.remove db (e2 3 4);
  Database.remove db (e2 1 2);
  Database.add db (e2 1 2);
  Database.remove db (e2 2 3);
  Database.add db (e2 4 5);
  let b = Engine.Delta.batch db ~since:v0 in
  check_bool "added nets transients away" true (b.added = [ e2 4 5 ]);
  check_bool "removed nets resurrections away" true (b.removed = [ e2 2 3 ]);
  let b' = Engine.Delta.batch db ~since:(Database.version db + 5) in
  check_bool "future-version batch is empty" true (Engine.Delta.is_empty b')

(* ---- engine store sync after deletes ----------------------------------- *)

let q_xy = Cq.Query.make ~head:[ "x"; "y" ] ~body:[ atom "E" [ v "x"; v "y" ] ]

let test_engine_sync_after_delete () =
  let db = Database.of_list [ e2 1 2; e2 2 3 ] in
  ignore (Cq.Eval.answers db q_xy);
  check_bool "compiled form cached" true (Database.get_cache db <> None);
  let cached = Option.get (Database.get_cache db) in
  Database.remove db (e2 2 3);
  let a = Cq.Eval.answers db q_xy in
  check_int "no ghost rows after delete" 1 (Mapping.Set.cardinal a);
  (* the delete was absorbed in place: no rebuild, the same compiled form *)
  check_bool "compiled form synced in place" true
    (Option.get (Database.get_cache db) == cached);
  (* incremental extension still works on the synced form *)
  Database.add db (e2 5 6);
  let a = Cq.Eval.answers db q_xy in
  check_int "extend after in-place delete" 2 (Mapping.Set.cardinal a);
  (* clear_cache after deletes: rebuild from scratch replays live facts *)
  Database.remove db (e2 1 2);
  Database.clear_cache db;
  let a = Cq.Eval.answers db q_xy in
  check_int "clear_cache + rebuild sees live facts only" 1
    (Mapping.Set.cardinal a)

let test_version_triple_after_delete () =
  (* E006 interaction: a plan compiled before a delete is stale (its store
     version is behind the live version) and the auditor says so; a plan
     compiled after the in-place sync is clean. *)
  let db = Database.of_list [ e2 1 2; e2 2 3 ] in
  let p0 = Engine.compile db [ atom "E" [ v "x"; v "y" ] ] ~init:Mapping.empty in
  Database.remove db (e2 2 3);
  let stale =
    List.filter
      (fun d -> d.Analysis.Diagnostic.code = Analysis.Diagnostic.Stale_plan)
      (Analysis.Plan_audit.audit p0)
  in
  check_bool "old plan trips E006 after a delete" true
    (List.exists (fun d -> d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error) stale);
  let p1 = Engine.compile db [ atom "E" [ v "x"; v "y" ] ] ~init:Mapping.empty in
  (* once the store has synced the delete, the old plan still reads the
     relation's pre-delete rows: an error, not the "extended" warning *)
  let stale0 =
    List.filter
      (fun d -> d.Analysis.Diagnostic.code = Analysis.Diagnostic.Stale_plan)
      (Analysis.Plan_audit.audit p0)
  in
  check_bool "old plan still trips E006 after the store synced" true
    (List.exists (fun d -> d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error) stale0);
  let stale1 =
    List.filter
      (fun d ->
        d.Analysis.Diagnostic.code = Analysis.Diagnostic.Stale_plan
        && d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error)
      (Analysis.Plan_audit.audit p1)
  in
  check_int "fresh plan is clean" 0 (List.length stale1)

(* ---- streaming eval (bounded-buffer maximality) ----------------------- *)

let tree_p =
  (* root E(x,y) OPT child U(y), free x y — tree-shaped, projections differ *)
  Wdpt.Pattern_tree.make ~free:[ "x"; "y" ]
    (Wdpt.Pattern_tree.Node
       ([ atom "E" [ v "x"; v "y" ] ],
        [ Wdpt.Pattern_tree.Node ([ atom "U" [ v "y" ] ], []) ]))

let test_stream_eval_tree () =
  let db = Database.of_list [ e2 1 2; e2 2 3; e2 3 4; u1 2; u1 4 ] in
  let reference = Wdpt.Semantics.eval db tree_p in
  let all = ref [] in
  let n =
    Wdpt.Semantics.stream_eval db tree_p ~offset:0 ~limit:None (fun a ->
        all := a :: !all)
  in
  check_int "stream count" (Mapping.Set.cardinal reference) n;
  check_set "stream = eval" reference (Mapping.Set.of_list !all);
  (* paging: offset/limit slice the same enumeration order *)
  let order = List.rev !all in
  let page = ref [] in
  let k =
    Wdpt.Semantics.stream_eval db tree_p ~offset:1 ~limit:(Some 2) (fun a ->
        page := a :: !page)
  in
  check_int "page size" 2 k;
  check_bool "page = slice of stream order" true
    (List.rev !page = [ List.nth order 1; List.nth order 2 ]);
  (* offset beyond the answer set *)
  let k = Wdpt.Semantics.stream_eval db tree_p ~offset:100 ~limit:None (fun _ -> ()) in
  check_int "offset past the end" 0 k

(* ---- standing queries ------------------------------------------------- *)

let check_against_full st =
  let db = Wdpt.Standing.database st and p = Wdpt.Standing.query st in
  check_set "standing eval = full eval" (Wdpt.Semantics.eval db p)
    (Wdpt.Standing.answers st);
  check_set "standing max = full eval_max" (Wdpt.Semantics.eval_max db p)
    (Wdpt.Standing.maximal_answers st)

let refresh_checked st =
  let before_eval = Wdpt.Standing.answers st
  and before_max = Wdpt.Standing.maximal_answers st in
  let events = Wdpt.Standing.refresh st in
  check_against_full st;
  let ds =
    Analysis.Delta_audit.check_events ~before_eval ~before_max
      ~after_eval:(Wdpt.Standing.answers st)
      ~after_max:(Wdpt.Standing.maximal_answers st)
      events
  in
  check_int "E030 clean" 0 (List.length ds);
  check_int "view audit clean" 0 (List.length (Analysis.Delta_audit.audit st));
  events

let test_standing_insert_extends () =
  let db = Database.of_list [ e2 1 2 ] in
  let st = Wdpt.Standing.register db tree_p in
  check_against_full st;
  Database.add db (e2 3 4);
  let evs = refresh_checked st in
  check_int "one added answer" 1 (List.length evs);
  (match evs with
  | [ Wdpt.Standing.Added { maximal; _ } ] ->
      check_bool "new answer is maximal" true maximal
  | _ -> Alcotest.fail "expected a single Added event");
  (* no-op refresh *)
  check_int "idle refresh is silent" 0 (List.length (refresh_checked st))

let test_standing_demotion () =
  (* Two root homs share x=1: E(1,2) and E(1,5). Neither extends into the
     OPT child, so the bare answer {x=1} is maximal with support 2. Adding
     E(2,3) extends only the y=2 hom — the y=5 one still supports {x=1},
     which therefore stays an answer but is *demoted* by the strictly
     larger {x=1,z=3}. (With a single root hom the bare answer would leave
     the eval set entirely: Removed, not Demoted.) *)
  let p =
    Wdpt.Pattern_tree.make ~free:[ "x"; "z" ]
      (Wdpt.Pattern_tree.Node
         ([ atom "E" [ v "x"; v "y" ] ],
          [ Wdpt.Pattern_tree.Node ([ atom "E" [ v "y"; v "z" ] ], []) ]))
  in
  let db = Database.of_list [ e2 1 2; e2 1 5 ] in
  let st = Wdpt.Standing.register db p in
  check_set "initially the bare answer is maximal"
    (Mapping.Set.singleton (mapping [ ("x", 1) ]))
    (Wdpt.Standing.maximal_answers st);
  Database.add db (e2 2 3);
  let evs = refresh_checked st in
  (* the answer {x=1} is demoted by the new {x=1,z=3} *)
  check_bool "insertion demotes the bare answer" true
    (List.exists
       (function
         | Wdpt.Standing.Demoted a -> Mapping.equal a (mapping [ ("x", 1) ])
         | _ -> false)
       evs);
  check_bool "the subsuming answer arrives maximal" true
    (List.exists
       (function
         | Wdpt.Standing.Added { answer; maximal } ->
             maximal && Mapping.equal answer (mapping [ ("x", 1); ("z", 3) ])
         | _ -> false)
       evs);
  (* deleting the extension promotes the bare answer back *)
  Database.remove db (e2 2 3);
  let evs = refresh_checked st in
  check_bool "deletion promotes the bare answer back" true
    (List.exists
       (function
         | Wdpt.Standing.Promoted a -> Mapping.equal a (mapping [ ("x", 1) ])
         | _ -> false)
       evs);
  check_bool "the subsuming answer is removed as maximal" true
    (List.exists
       (function
         | Wdpt.Standing.Removed { answer; was_maximal } ->
             was_maximal && Mapping.equal answer (mapping [ ("x", 1); ("z", 3) ])
         | _ -> false)
       evs)

let test_standing_mixed_batches () =
  let p =
    Wdpt.Pattern_tree.make ~free:[ "x"; "z" ]
      (Wdpt.Pattern_tree.Node
         ([ atom "E" [ v "x"; v "y" ] ],
          [ Wdpt.Pattern_tree.Node ([ atom "E" [ v "y"; v "z" ] ], []);
            Wdpt.Pattern_tree.Node ([ atom "U" [ v "x" ] ], []) ]))
  in
  let db = Database.of_list [ e2 1 2; e2 2 3; u1 1 ] in
  let st = Wdpt.Standing.register db p in
  check_against_full st;
  (* one batch mixing inserts, deletes and a transient *)
  Database.add db (e2 3 4);
  Database.remove db (e2 2 3);
  Database.add db (u1 9);
  Database.remove db (u1 9);
  Database.add db (e2 9 1);
  ignore (refresh_checked st);
  (* root binding deleted outright *)
  Database.remove db (e2 1 2);
  ignore (refresh_checked st);
  (* resurrect it *)
  Database.add db (e2 1 2);
  ignore (refresh_checked st);
  (* many-step churn against a compaction *)
  List.iter (fun f -> Database.remove db f) (Database.facts db);
  Database.compact db;
  ignore (refresh_checked st);
  check_set "empty database, empty answers" Mapping.Set.empty
    (Wdpt.Standing.answers st)

(* Deletion marking against a brute-force oracle: the rootkeys of the
   pre-refresh view holding a stored hom that grounds some tree atom into
   the removed set. The tree covers every way a removed fact can reach a
   partition: the root atom E(x,y) binds every root variable; the root atom
   U(x) and the OPT atoms G(y,z) and K(x,x,3) (a repeated variable and a
   constant) bind only some; H(z,w), nested under G, binds none. *)
let test_standing_deletion_marking () =
  let p =
    Wdpt.Pattern_tree.make ~free:[ "x"; "y"; "z"; "w" ]
      (Wdpt.Pattern_tree.Node
         ( [ atom "E" [ v "x"; v "y" ]; atom "U" [ v "x" ] ],
           [ Wdpt.Pattern_tree.Node
               ( [ atom "G" [ v "y"; v "z" ] ],
                 [ Wdpt.Pattern_tree.Node ([ atom "H" [ v "z"; v "w" ] ], []) ] );
             Wdpt.Pattern_tree.Node ([ atom "K" [ v "x"; v "x"; c 3 ] ], []) ] ))
  in
  let atoms =
    List.concat_map (Wdpt.Pattern_tree.atoms p)
      (List.init (Wdpt.Pattern_tree.node_count p) Fun.id)
  in
  let db =
    Database.of_list
      [ e2 1 2; e2 1 3; e2 2 3; u1 1; u1 2;
        fact "G" [ 2; 5 ]; fact "G" [ 3; 5 ]; fact "G" [ 3; 6 ];
        fact "H" [ 5; 8 ]; fact "H" [ 6; 9 ];
        fact "K" [ 1; 1; 3 ]; fact "K" [ 2; 2; 4 ] ]
  in
  let st = Wdpt.Standing.register db p in
  check_against_full st;
  let oracle removed =
    List.length
      (List.filter
         (fun (_, hs) ->
           List.exists
             (fun h ->
               List.exists
                 (fun a ->
                   let ga = Mapping.apply_atom h a in
                   Atom.is_ground ga
                   && List.exists (Fact.equal (Atom.to_fact ga)) removed)
                 atoms)
             hs)
         (Wdpt.Standing.view st).Wdpt.Standing.v_rootkeys)
  in
  let delete name removed expected =
    let want = oracle removed in
    check_int (name ^ ": oracle") expected want;
    List.iter (Database.remove db) removed;
    ignore (refresh_checked st);
    check_int (name ^ ": dirty = oracle") want
      (Wdpt.Standing.stats st).Wdpt.Standing.last_dirty
  in
  (* H(7,7) unifies with H(z,w) but no hom binds z to 7; K(2,2,4) misses
     K's constant *)
  delete "unused facts" [ fact "H" [ 7; 7 ]; fact "K" [ 2; 2; 4 ] ] 0;
  (* binds no root variable: every partition with a hom using z = 5 *)
  delete "nested node, no root variable" [ fact "H" [ 5; 8 ] ] 3;
  delete "OPT atom binding y" [ fact "G" [ 3; 6 ] ] 2;
  delete "repeated variable and constant" [ fact "K" [ 1; 1; 3 ] ] 2;
  (* the second root atom; partition (2,3) vanishes *)
  delete "root atom binding x" [ u1 2 ] 1;
  delete "two facts of one hom" [ e2 1 2; fact "G" [ 2; 5 ] ] 1;
  (* the vanished partition reappears and must be found again *)
  Database.add db (u1 2);
  ignore (refresh_checked st);
  delete "reappeared partition" [ u1 2 ] 1;
  delete "root atom binding every root variable" [ e2 1 3 ] 1;
  check_set "no answers left" Mapping.Set.empty (Wdpt.Standing.answers st)

(* ---- frontier unit behavior ------------------------------------------- *)

let test_frontier_apply () =
  let a = mapping [ ("x", 1) ] in
  let ab = mapping [ ("x", 1); ("z", 3) ] in
  let g = Wdpt.Frontier.of_answers [ a ] in
  check_bool "singleton frontier" true
    (Mapping.Set.mem a (Wdpt.Frontier.maximal g));
  let g, evs = Wdpt.Frontier.apply g ~add:[ ab ] ~remove:[] in
  check_bool "dominator demotes" true
    (List.exists (function Wdpt.Frontier.Demoted x -> Mapping.equal x a | _ -> false) evs);
  check_bool "dominator is the frontier" true
    (Mapping.Set.equal (Wdpt.Frontier.maximal g) (Mapping.Set.singleton ab));
  (* support accumulates; removal of one copy keeps the answer *)
  let g, evs = Wdpt.Frontier.apply g ~add:[ a ] ~remove:[] in
  check_int "re-adding a dominated answer is silent" 0 (List.length evs);
  check_int "support 2" 2 (Wdpt.Frontier.support g a);
  let g, evs = Wdpt.Frontier.apply g ~add:[] ~remove:[ a ] in
  check_int "support drop to 1 is silent" 0 (List.length evs);
  let g, evs = Wdpt.Frontier.apply g ~add:[] ~remove:[ a; ab ] in
  check_bool "dropping the dominator promotes nothing (both gone)" true
    (List.for_all
       (function
         | Wdpt.Frontier.Removed _ -> true
         | _ -> false)
       evs);
  check_bool "group empty" true (Wdpt.Frontier.is_empty g);
  Alcotest.check_raises "underflow rejected"
    (Invalid_argument "Frontier.apply: removing an unsupported answer")
    (fun () -> ignore (Wdpt.Frontier.apply g ~add:[] ~remove:[ a ]))

(* ---- auditor corruption tests ----------------------------------------- *)

let code_count c ds =
  List.length (List.filter (fun d -> d.Analysis.Diagnostic.code = c) ds)

let test_audit_dirty_ranges () =
  let db = Database.of_list [ e2 1 2 ] in
  let since = Database.version db in
  Database.add db (e2 3 4);
  Database.remove db (e2 1 2);
  let b = Engine.Delta.batch db ~since in
  let atoms = [ atom "E" [ v "x"; v "y" ]; atom "U" [ v "x" ] ] in
  let ranges = Engine.Delta.dirty_ranges atoms b in
  check_int "derived ranges are E027-clean" 0
    (List.length (Analysis.Delta_audit.audit_ranges atoms b ranges));
  (* corrupt: drop one range *)
  let corrupted = List.tl ranges in
  let ds = Analysis.Delta_audit.audit_ranges atoms b corrupted in
  check_bool "dropped range trips E027" true
    (code_count Analysis.Diagnostic.Delta_dirty ds > 0);
  (* corrupt: drop one value from a range *)
  let corrupted =
    List.map
      (fun (r : Engine.Delta.dirty_range) ->
        { r with Engine.Delta.dr_values = List.tl r.dr_values })
      ranges
  in
  let ds = Analysis.Delta_audit.audit_ranges atoms b corrupted in
  check_bool "dropped value trips E027" true
    (code_count Analysis.Diagnostic.Delta_dirty ds > 0)

let test_audit_view_corruptions () =
  let db = Database.of_list [ e2 1 2; e2 2 3; u1 2 ] in
  let st = Wdpt.Standing.register db tree_p in
  let view = Wdpt.Standing.view st in
  check_int "honest view is clean" 0
    (List.length (Analysis.Delta_audit.audit_view tree_p view));
  (* E028: swap a frontier for a dominated answer *)
  let fake_sub = mapping [ ("x", 1) ] in
  let corrupted =
    { view with
      Wdpt.Standing.v_groups =
        List.map
          (fun (gk, answers, frontier) ->
            (gk, (fake_sub, 1) :: answers, fake_sub :: frontier))
          view.Wdpt.Standing.v_groups }
  in
  let ds = Analysis.Delta_audit.audit_view tree_p corrupted in
  check_bool "dominated frontier member trips E028" true
    (code_count Analysis.Diagnostic.Frontier_nonmaximal ds > 0);
  (* E028: empty out a frontier *)
  let corrupted =
    { view with
      Wdpt.Standing.v_groups =
        List.map (fun (gk, answers, _) -> (gk, answers, [])) view.Wdpt.Standing.v_groups }
  in
  let ds = Analysis.Delta_audit.audit_view tree_p corrupted in
  check_bool "missing frontier member trips E028" true
    (code_count Analysis.Diagnostic.Frontier_nonmaximal ds > 0);
  (* E029: inflate a support count *)
  let corrupted =
    { view with
      Wdpt.Standing.v_groups =
        List.map
          (fun (gk, answers, frontier) ->
            (gk, List.map (fun (a, n) -> (a, n + 1)) answers, frontier))
          view.Wdpt.Standing.v_groups }
  in
  let ds = Analysis.Delta_audit.audit_view tree_p corrupted in
  check_bool "inflated support trips E029" true
    (code_count Analysis.Diagnostic.Support_mismatch ds > 0);
  (* E029: drop a hom partition the groups still reference *)
  let corrupted = { view with Wdpt.Standing.v_rootkeys = [] } in
  let ds = Analysis.Delta_audit.audit_view tree_p corrupted in
  check_bool "orphaned answers trip E029" true
    (code_count Analysis.Diagnostic.Support_mismatch ds > 0);
  (* E029: file a hom under the wrong rootkey *)
  let corrupted =
    { view with
      Wdpt.Standing.v_rootkeys =
        (match view.Wdpt.Standing.v_rootkeys with
        | (_, homs) :: rest -> (mapping [ ("x", 77); ("y", 77) ], homs) :: rest
        | [] -> []) }
  in
  let ds = Analysis.Delta_audit.audit_view tree_p corrupted in
  check_bool "misfiled hom trips E029" true
    (code_count Analysis.Diagnostic.Support_mismatch ds > 0);
  (* E029: the materialised p(D) loses an answer the groups still hold *)
  let corrupted =
    { view with Wdpt.Standing.v_answers = List.tl view.Wdpt.Standing.v_answers }
  in
  let ds = Analysis.Delta_audit.audit_view tree_p corrupted in
  check_bool "materialised answers missing one trip E029" true
    (code_count Analysis.Diagnostic.Support_mismatch ds > 0);
  (* E028: the materialised p_m(D) lists an answer on no group frontier *)
  let corrupted =
    { view with
      Wdpt.Standing.v_maximal = mapping [ ("x", 99) ] :: view.Wdpt.Standing.v_maximal }
  in
  let ds = Analysis.Delta_audit.audit_view tree_p corrupted in
  check_bool "materialised maximal answers with an extra trip E028" true
    (code_count Analysis.Diagnostic.Frontier_nonmaximal ds > 0)

let test_audit_events () =
  let db = Database.of_list [ e2 1 2 ] in
  let st = Wdpt.Standing.register db tree_p in
  let before_eval = Wdpt.Standing.answers st
  and before_max = Wdpt.Standing.maximal_answers st in
  Database.add db (e2 3 4);
  let events = Wdpt.Standing.refresh st in
  let after_eval = Wdpt.Standing.answers st
  and after_max = Wdpt.Standing.maximal_answers st in
  check_int "honest events are E030-clean" 0
    (List.length
       (Analysis.Delta_audit.check_events ~before_eval ~before_max ~after_eval
          ~after_max events));
  (* drop an event *)
  let ds =
    Analysis.Delta_audit.check_events ~before_eval ~before_max ~after_eval
      ~after_max []
  in
  check_bool "dropped event trips E030" true
    (code_count Analysis.Diagnostic.Event_mismatch ds > 0);
  (* flip an event's frontier flag *)
  let flipped =
    List.map
      (function
        | Wdpt.Standing.Added { answer; maximal } ->
            Wdpt.Standing.Added { answer; maximal = not maximal }
        | e -> e)
      events
  in
  let ds =
    Analysis.Delta_audit.check_events ~before_eval ~before_max ~after_eval
      ~after_max flipped
  in
  check_bool "flipped flag trips E030" true
    (code_count Analysis.Diagnostic.Event_mismatch ds > 0)

(* ---- randomized differential ------------------------------------------ *)

let test_qcheck_standing_diff () =
  let gen =
    QCheck.Gen.(
      let* dbseed = int_range 0 10000 in
      let* delete_heavy = bool in
      let* steps =
        list_size (int_range 1 12)
          (pair (int_range 0 6) (pair (int_range 0 5) (int_range 0 5)))
      in
      return (dbseed, delete_heavy, steps))
  in
  let arb = QCheck.make gen in
  (* half the streams are delete-heavy (4 in 7 steps delete instead of 3 in
     7), leaning on tombstones and removal-induced promotions *)
  let prop (dbseed, delete_heavy, steps) =
    let db = Workload.Gen_db.random_graph_db ~seed:dbseed ~nodes:5 ~edges:8 in
    let p =
      Wdpt.Pattern_tree.make ~free:[ "x"; "z" ]
        (Wdpt.Pattern_tree.Node
           ([ atom "E" [ v "x"; v "y" ] ],
            [ Wdpt.Pattern_tree.Node ([ atom "E" [ v "y"; v "z" ] ], []) ]))
    in
    let st = Wdpt.Standing.register db p in
    (* facts an earlier step removed; kind 6 re-adds one, so the compiled
       store appends a fact it compacted away before *)
    let removed = ref [] in
    List.for_all
      (fun (kind, (a, b)) ->
        (if kind = 6 then (
           match !removed with
           | [] -> ()
           | l -> Database.add db (List.nth l ((a + b) mod List.length l)))
         else
           let is_add = if delete_heavy then kind < 2 else kind mod 2 = 0 in
           if is_add then Database.add db (e2 a b)
           else if Database.mem db (e2 a b) then begin
             Database.remove db (e2 a b);
             removed := e2 a b :: !removed
           end);
        let before_eval = Wdpt.Standing.answers st
        and before_max = Wdpt.Standing.maximal_answers st in
        let events = Wdpt.Standing.refresh st in
        (* the oracle runs on a copy, whose compiled store is built from
           scratch rather than synced in place *)
        let fresh = Database.copy db in
        let after_eval = Wdpt.Semantics.eval fresh p
        and after_max = Wdpt.Semantics.eval_max fresh p in
        Mapping.Set.equal (Wdpt.Standing.answers st) after_eval
        && Mapping.Set.equal (Wdpt.Standing.maximal_answers st) after_max
        && Analysis.Delta_audit.check_events ~before_eval ~before_max ~after_eval
             ~after_max events
           = []
        && Analysis.Delta_audit.audit st = [])
      steps
  in
  let cell = QCheck.Test.make ~count:120 ~name:"standing refresh = full re-eval" arb prop in
  QCheck.Test.check_exn cell

let suite =
  [ Alcotest.test_case "remove: counts and filters" `Quick test_remove_basic;
    Alcotest.test_case "version and deletion epochs" `Quick test_version_and_deletions;
    Alcotest.test_case "delete then reinsert" `Quick test_delete_then_reinsert;
    Alcotest.test_case "compaction mid-enumeration" `Quick test_compaction_mid_enumeration;
    Alcotest.test_case "auto-compaction" `Quick test_auto_compaction;
    Alcotest.test_case "facts_since: future versions" `Quick test_facts_since_future_version;
    Alcotest.test_case "facts_since nets deletions" `Quick test_facts_since_nets_deletions;
    Alcotest.test_case "changes_since log shape" `Quick test_changes_since;
    Alcotest.test_case "Delta.batch netting" `Quick test_delta_batch_netting;
    Alcotest.test_case "engine syncs deletes in place" `Quick test_engine_sync_after_delete;
    Alcotest.test_case "E006 version triple after delete" `Quick test_version_triple_after_delete;
    Alcotest.test_case "stream_eval: tree-shaped paging" `Quick test_stream_eval_tree;
    Alcotest.test_case "standing: inserts" `Quick test_standing_insert_extends;
    Alcotest.test_case "standing: demotion and promotion" `Quick test_standing_demotion;
    Alcotest.test_case "standing: mixed batches" `Quick test_standing_mixed_batches;
    Alcotest.test_case "standing: deletion marking" `Quick test_standing_deletion_marking;
    Alcotest.test_case "frontier apply" `Quick test_frontier_apply;
    Alcotest.test_case "E027 dirty-range corruption" `Quick test_audit_dirty_ranges;
    Alcotest.test_case "E028/E029 view corruption" `Quick test_audit_view_corruptions;
    Alcotest.test_case "E030 event corruption" `Quick test_audit_events;
    Alcotest.test_case "qcheck: standing differential" `Slow test_qcheck_standing_diff ]
