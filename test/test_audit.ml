(* The plan auditor (Analysis.Plan_audit), the static cost model
   (Analysis.Cost) and the checked execution mode: every genuine plan audits
   clean, every deliberately corrupted IR view is rejected with the right
   E-code and witness, static bounds dominate measured counts, checked
   execution agrees with unchecked execution answer-for-answer, and it
   rejects a plan whose compiled store fell behind its database. *)

open Relational
open Helpers
module D = Analysis.Diagnostic
module I = Engine.Inspect
module Audit = Analysis.Plan_audit

let db3 () = db_of_edges [ (1, 2); (2, 3); (3, 4) ]

let compile_view atoms =
  let db = db3 () in
  Database.add db (Fact.make "U" [ Value.int 1 ]);
  let p = Engine.compile db atoms ~init:Mapping.empty in
  Engine.Inspect.plan p

let codes ds = List.map (fun d -> d.D.code) ds

let check_codes name expected ds =
  Alcotest.(check (list string))
    name
    (List.map D.code_id expected)
    (List.map D.code_id (codes ds))

(* ---- clean plans -------------------------------------------------------- *)

let test_clean () =
  let view = compile_view [ e "x" "y"; e "y" "z"; atom "U" [ v "x" ] ] in
  check_codes "fresh plan audits clean" [] (Audit.audit_view view);
  (* infeasible plan (constant missing from the database): no instructions,
     so only the staleness check applies — and passes *)
  let infeasible = compile_view [ atom "E" [ c 99; v "y" ] ] in
  check_bool "infeasible" false infeasible.I.i_feasible;
  check_codes "infeasible plan audits clean" [] (Audit.audit_view infeasible)

(* ---- one corruption per E-code ----------------------------------------- *)

let corrupt_atom view i f =
  let atoms = Array.copy view.I.i_atoms in
  atoms.(i) <- f atoms.(i);
  { view with I.i_atoms = atoms }

let test_e001 () =
  (* both variables also occur in the second atom, so rewriting one op of the
     first cannot additionally orphan a slot (which would add an E004) *)
  let view = compile_view [ e "x" "y"; e "y" "x" ] in
  let bad =
    corrupt_atom view 0 (fun av ->
        let ops = Array.copy av.I.a_ops in
        ops.(0) <- Engine.Slot 99;
        { av with I.a_ops = ops })
  in
  match Audit.audit_view bad with
  | [ { D.code = D.Uninit_slot_read;
        witness = Some (D.Slot_range { atom = 0; op = 0; slot = 99; env });
        _ } ] ->
      check_int "environment size in witness" (Array.length view.I.i_env) env
  | ds -> Alcotest.failf "expected one E001, got %d: %s" (List.length ds)
            (String.concat "," (List.map (fun d -> D.code_id d.D.code) ds))

let test_e002 () =
  let view = compile_view [ atom "E" [ c 1; v "y" ] ] in
  (* corrupt the Check constant *)
  let bad =
    corrupt_atom view 0 (fun av ->
        let ops = Array.copy av.I.a_ops in
        ops.(0) <- Engine.Check 9999;
        { av with I.a_ops = ops })
  in
  (match Audit.audit_view bad with
  | [ { D.code = D.Interner_range; witness = Some (D.Id_range { id = 9999; pool; _ }); _ } ] ->
      check_int "pool size in witness" view.I.i_pool pool
  | ds -> check_codes "check-op corruption" [ D.Interner_range ] ds);
  (* corrupt an initial binding *)
  let env = Array.copy view.I.i_env in
  env.(0) <- view.I.i_pool + 7;
  check_codes "init-binding corruption" [ D.Interner_range ]
    (Audit.audit_view { view with I.i_env = env })

let test_e003 () =
  let view = compile_view [ e "x" "y" ] in
  let bad = corrupt_atom view 0 (fun av -> { av with I.a_index_arity = 5 }) in
  match Audit.audit_view bad with
  | [ { D.code = D.Plan_arity_mismatch;
        witness = Some (D.Plan_arity { relation = "E"; ops = 2; arity = 2; index = 5; _ });
        _ } ] -> ()
  | ds -> check_codes "index-arity corruption" [ D.Plan_arity_mismatch ] ds

let test_e004 () =
  let view = compile_view [ e "x" "y" ] in
  let bad =
    { view with
      I.i_slots = Array.append view.I.i_slots [| "dead" |];
      I.i_env = Array.append view.I.i_env [| -1 |] }
  in
  match Audit.audit_view bad with
  | [ { D.code = D.Dead_slot;
        witness = Some (D.Dead_slot_of { slot; variable = "dead" }); _ } ] ->
      check_int "dead slot index" (Array.length view.I.i_slots) slot
  | ds -> check_codes "dead-slot corruption" [ D.Dead_slot ] ds

let test_e005 () =
  (* U has 1 row, E has 3: the order must put the U atom first *)
  let view = compile_view [ e "x" "y"; atom "U" [ v "x" ] ] in
  check_bool "compiler orders ascending" true (view.I.i_order = [| 1; 0 |]);
  let bad = { view with I.i_order = [| 0; 1 |] } in
  (match Audit.audit_view bad with
  | [ { D.code = D.Order_inversion;
        witness =
          Some
            (D.Inversion
               { first = 0; rows_first = 3; second = 1; rows_second = 1; _ });
        _ } ] -> ()
  | ds -> check_codes "reversed order" [ D.Order_inversion ] ds);
  check_codes "non-permutation order" [ D.Order_inversion ]
    (Audit.audit_view { view with I.i_order = [| 0; 0 |] })

let test_e005_selectivity () =
  (* F has MORE rows than E (4 > 3), but its checked first position has 4
     distinct values, so the distinct-count discount drives its score to 0 —
     below E's log10 3. The selectivity-aware order puts F first where a
     pure row-count order would put it last. *)
  let db = db3 () in
  List.iter
    (fun i -> Database.add db (Fact.make "F" [ Value.int i; Value.int 0 ]))
    [ 1; 2; 3; 4 ];
  let p =
    Engine.compile db [ e "x" "y"; atom "F" [ c 2; v "z" ] ] ~init:Mapping.empty
  in
  let view = Engine.Inspect.plan p in
  check_bool "selective atom ordered first despite more rows" true
    (view.I.i_order = [| 1; 0 |]);
  check_codes "selectivity order audits clean" [] (Audit.audit_view view);
  match Audit.audit_view { view with I.i_order = [| 0; 1 |] } with
  | [ { D.code = D.Order_inversion;
        witness =
          Some
            (D.Inversion
               { first = 0; rows_first = 3; second = 1; rows_second = 4;
                 score_first; score_second; _ });
        _ } ] ->
      (* the witness carries the scores that justify the inversion: the
         later atom has the smaller key even though it has more rows *)
      check_bool "second score below first" true (score_second < score_first)
  | ds -> check_codes "row-count order trips E005" [ D.Order_inversion ] ds

let test_e006 () =
  let db = db3 () in
  let p = Engine.compile db [ e "x" "y" ] ~init:Mapping.empty in
  check_codes "fresh plan not stale" [] (Audit.audit p);
  Database.add db (Fact.make "E" [ Value.int 7; Value.int 8 ]);
  match Audit.audit p with
  | [ { D.code = D.Stale_plan; witness = Some (D.Stale { compiled; live }); _ } ] ->
      check_bool "live version moved past compiled" true (live > compiled)
  | ds -> check_codes "stale plan" [ D.Stale_plan ] ds

(* ---- cost model sanity -------------------------------------------------- *)

let test_cost_basic () =
  let db = db3 () in
  let atoms = [ e "x" "y"; e "y" "z" ] in
  let cost = Analysis.Cost.analyze db atoms ~free:[ "x"; "z" ] in
  check_int "atoms" 2 cost.Analysis.Cost.natoms;
  check_int "vars" 3 cost.Analysis.Cost.nvars;
  check_bool "path query is acyclic" true cost.Analysis.Cost.acyclic;
  check_bool "acyclic classified polynomial" true
    (cost.Analysis.Cost.growth = Analysis.Cost.Polynomial 1);
  (* 2 length-2 paths (1-2-3, 2-3-4); the bound must dominate the count *)
  check_bool "bound dominates measured" true
    (Analysis.Cost.bound_count cost >= 2);
  (* product bound: 3 * 3 = 9 *)
  check_bool "relation product" true
    (abs_float (cost.Analysis.Cost.product_bound -. log10 9.) < 1e-9)

let test_cost_empty_relation () =
  let db = db3 () in
  let cost = Analysis.Cost.analyze db [ atom "Z" [ v "x" ] ] ~free:[ "x" ] in
  check_bool "empty relation gives -inf bound" true
    (cost.Analysis.Cost.answer_bound = neg_infinity);
  check_int "integer ceiling is zero" 0 (Analysis.Cost.bound_count cost)

let test_tree_class () =
  let chain =
    Wdpt.Pattern_tree.make ~free:[ "x" ]
      (Wdpt.Pattern_tree.Node
         ( [ e "x" "y" ],
           [ Wdpt.Pattern_tree.Node ([ e "y" "z" ], []) ] ))
  in
  (match Analysis.Cost.tree_class chain with
  | Some (k, c) ->
      check_int "chain local treewidth" 1 k;
      check_int "chain interface" 1 c
  | None -> Alcotest.fail "chain tree must classify");
  check_bool "chain polynomial" true
    (match Analysis.Cost.tree_growth chain with
    | Analysis.Cost.Polynomial _ -> true
    | Analysis.Cost.Exponential -> false)

(* ---- qcheck properties -------------------------------------------------- *)

(* (a) every plan compiled from a valid query audits clean *)
let prop_compiled_plans_audit_clean =
  qtest ~count:300 "compiled plans pass the audit with zero diagnostics"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let p = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
      Audit.audit p = [])

(* (b) the static bounds dominate the measured counts *)
let prop_bound_dominates =
  qtest ~count:300 "static output bound >= measured answer count"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let body = Cq.Query.body q in
      let free = Cq.Query.head q in
      let cost = Analysis.Cost.analyze db body ~free in
      let homs =
        List.sort_uniq Mapping.compare
          (Cq.Eval.homomorphisms db body ~init:Mapping.empty)
      in
      let answers = Mapping.Set.cardinal (Cq.Eval.answers db q) in
      let dominates measured bound =
        measured = 0 || log10 (float_of_int measured) <= bound +. 1e-9
      in
      dominates (List.length homs) cost.Analysis.Cost.hom_bound
      && dominates answers cost.Analysis.Cost.answer_bound
      && answers <= Analysis.Cost.bound_count cost)

(* (c) checked execution agrees with unchecked execution, env for env *)
let prop_checked_agrees =
  qtest ~count:200 "checked execution = fast execution (order and content)"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let p = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
      let collect () =
        let out = ref [] in
        Engine.iter_envs p (fun env -> out := Array.copy env :: !out);
        List.rev !out
      in
      let was = Engine.checked_enabled () in
      Engine.set_checked false;
      let fast = collect () in
      Engine.set_checked true;
      let checked = collect () in
      Engine.set_checked was;
      List.length fast = List.length checked
      && List.for_all2 (fun a b -> a = b) fast checked)

(* (d) the sanitizer runs on every entry point: a plan compiled before a
   Database.add holds a store behind the live database, and checked mode
   refuses to run it *)
let test_detached_plan () =
  let was = Engine.checked_enabled () in
  Fun.protect
    ~finally:(fun () -> Engine.set_checked was)
    (fun () ->
      Engine.set_checked true;
      let db = db3 () in
      let p = Engine.compile db [ e "x" "y"; e "y" "z" ] ~init:Mapping.empty in
      Database.add db (Fact.make "E" [ Value.int 4; Value.int 5 ]);
      let raises name run =
        match run () with
        | () -> Alcotest.failf "%s: no Check_failure" name
        | exception Engine.Check_failure _ -> ()
      in
      raises "sat" (fun () -> ignore (Engine.sat p));
      raises "count_envs" (fun () -> ignore (Engine.count_envs p));
      raises "iter_envs" (fun () -> Engine.iter_envs p (fun _ -> ())))

let suite =
  [ Alcotest.test_case "clean plans audit clean" `Quick test_clean;
    Alcotest.test_case "E001 uninitialized slot read" `Quick test_e001;
    Alcotest.test_case "E002 interner id out of range" `Quick test_e002;
    Alcotest.test_case "E003 plan arity mismatch" `Quick test_e003;
    Alcotest.test_case "E004 dead slot" `Quick test_e004;
    Alcotest.test_case "E005 atom order inversion" `Quick test_e005;
    Alcotest.test_case "E005 is selectivity-aware" `Quick test_e005_selectivity;
    Alcotest.test_case "E006 stale plan cache" `Quick test_e006;
    Alcotest.test_case "cost model basics" `Quick test_cost_basic;
    Alcotest.test_case "cost of empty relation" `Quick test_cost_empty_relation;
    Alcotest.test_case "tree classification" `Quick test_tree_class;
    prop_compiled_plans_audit_clean;
    prop_bound_dominates;
    prop_checked_agrees;
    Alcotest.test_case "checked mode rejects a detached plan" `Quick
      test_detached_plan ]
