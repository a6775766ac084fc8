(* Translation validation (Analysis.Equiv) and the dataflow analyzer
   (Analysis.Dataflow): every genuine optimization trail verifies with zero
   diagnostics, each corrupted certificate is rejected with the right E-code
   and witness, the optimized engine answers exactly as the unoptimized one,
   and the dataflow facts are sound for every enumerated environment. *)

open Relational
open Helpers
module D = Analysis.Diagnostic
module I = Engine.Inspect
module Equiv = Analysis.Equiv
module Df = Analysis.Dataflow

let db3u () =
  let db = db_of_edges [ (1, 2); (2, 3); (3, 4) ] in
  Database.add db (Fact.make "U" [ Value.int 1 ]);
  db

(* A plan whose pipeline exercises every pass: the init binding x=1 folds the
   x-slot uses to Checks (constant-fold), which makes U(?x) ground and
   matched by the stored U(1) (dead-instruction drop), orphans the x slot
   (dead-slot) and leaves an order for the reorder passes to re-establish. *)
let opt_plan () =
  let db = db3u () in
  Engine.compile db
    [ e "x" "y"; e "y" "z"; atom "U" [ v "x" ] ]
    ~init:(mapping [ ("x", 1) ])

(* The verification inputs of each pass step: before view, after view,
   certificate, and the stored-row probe of the plan the pass ran on. *)
let steps p =
  let stages, final = I.trail p in
  let plans = I.stage_plans p in
  let arr = Array.of_list stages in
  let n = Array.length arr in
  List.mapi
    (fun i plan ->
      let before, cert = arr.(i) in
      let after = if i + 1 < n then fst arr.(i + 1) else final in
      (before, after, cert, fun ~atom ~row -> I.row_matches plan ~atom ~row))
    plans

let find_step name p =
  match
    List.find_opt (fun (_, _, c, _) -> c.Engine.cert_pass = name) (steps p)
  with
  | Some s -> s
  | None -> Alcotest.failf "no %s step in the trail" name

let codes ds = List.map (fun d -> D.code_id d.D.code) ds

(* ---- clean trails ------------------------------------------------------- *)

let test_clean () =
  let p = opt_plan () in
  let r = Equiv.verify_trail p in
  check_bool "trail verifies" true r.Equiv.r_verified;
  check_int "five passes" 5 (List.length r.Equiv.r_steps);
  Alcotest.(check (list string)) "no diagnostics" []
    (codes (Equiv.diagnostics r));
  (* the verified trail ends at the plan itself, and re-verifies *)
  let _, final = I.trail p in
  check_bool "trail ends at the optimized plan" true (final = I.plan p);
  check_bool "trail re-verifies" true (Equiv.verify_trail p).Equiv.r_verified;
  (* the unoptimized original is still reachable and has no trail *)
  let base = I.base p in
  let base_stages, _ = I.trail base in
  check_int "base plan has an empty trail" 0 (List.length base_stages)

(* The corruption tests below only mean something if the pipeline actually
   transformed this instance; pin the effects down. *)
let test_effects () =
  let p = opt_plan () in
  let all = steps p in
  let count f = List.length (List.filter f all) in
  check_bool "some pass folded" true
    (count (fun (_, _, c, _) -> Array.length c.Engine.cert_folds > 0) > 0);
  check_bool "some pass dropped an atom" true
    (count (fun (_, _, c, _) -> Array.length c.Engine.cert_drops > 0) > 0);
  check_bool "some pass dropped a slot" true
    (count
       (fun (_, _, c, _) ->
         Array.exists (fun t -> t = -1) c.Engine.cert_slot_map)
       > 0);
  check_bool "some pass reorders" true
    (count (fun (_, _, c, _) -> c.Engine.cert_reorders) > 0);
  (* and the optimized plan still runs: same answers as the base plan *)
  let collect q =
    let out = ref [] in
    Engine.iter_envs q (fun env -> out := Array.copy env :: !out);
    List.rev !out
  in
  check_int "optimized and base plans agree"
    (List.length (collect (I.base p)))
    (List.length (collect p))

(* ---- one corruption per E-code ------------------------------------------ *)

let test_e007 () =
  (* constant-fold maps three slots identically; claiming x and y swapped
     renames both slots without justification *)
  let before, after, cert, probe = find_step "constant-fold" (opt_plan ()) in
  let m = Array.copy cert.Engine.cert_slot_map in
  let t = m.(0) in
  m.(0) <- m.(1);
  m.(1) <- t;
  let bad = { cert with Engine.cert_slot_map = m } in
  match Equiv.verify_step ~probe ~before ~after bad with
  | { D.code = D.Slot_renaming;
      witness = Some (D.Renamed { pass = "constant-fold"; slot; variable; _ });
      _ }
    :: _ ->
      check_int "witness names slot 0" 0 slot;
      Alcotest.(check string) "witness names its variable" "x" variable
  | ds -> Alcotest.failf "expected E007 first, got [%s]"
            (String.concat "," (codes ds))

let test_e008 () =
  (* dead-instruction dropped the ground U atom; erase the justification *)
  let before, after, cert, probe = find_step "dead-instruction" (opt_plan ()) in
  check_bool "the pass recorded a drop" true
    (Array.length cert.Engine.cert_drops > 0);
  let bad = { cert with Engine.cert_drops = [||] } in
  match Equiv.verify_step ~probe ~before ~after bad with
  | { D.code = D.Dropped_check;
      witness = Some (D.Dropped { pass = "dead-instruction"; atom; pos = -1; _ });
      _ }
    :: _ ->
      check_int "witness names the dropped atom"
        (fst cert.Engine.cert_drops.(0)) atom
  | ds -> Alcotest.failf "expected E008 first, got [%s]"
            (String.concat "," (codes ds))

let test_e009 () =
  (* a reordering pass must leave the order sorted by the (ground, score)
     key; reversing the after order breaks that *)
  let before, after, cert, probe =
    find_step "selectivity-reorder" (opt_plan ())
  in
  let n = Array.length after.I.i_order in
  check_bool "at least two atoms survive" true (n >= 2);
  let rev = Array.init n (fun i -> after.I.i_order.(n - 1 - i)) in
  let bad_after = { after with I.i_order = rev } in
  (match Equiv.verify_step ~probe ~before ~after:bad_after cert with
  | { D.code = D.Reorder_violation;
      witness = Some (D.Reordered { pass = "selectivity-reorder"; _ });
      _ }
    :: _ -> ()
  | ds -> Alcotest.failf "expected E009 first, got [%s]"
            (String.concat "," (codes ds)));
  (* a non-reordering pass must not touch the order at all *)
  let before, after, cert, probe = find_step "constant-fold" (opt_plan ()) in
  let swapped = Array.copy after.I.i_order in
  let t = swapped.(0) in
  swapped.(0) <- swapped.(1);
  swapped.(1) <- t;
  match
    Equiv.verify_step ~probe ~before ~after:{ after with I.i_order = swapped }
      cert
  with
  | { D.code = D.Reorder_violation;
      witness = Some (D.Reordered { pass = "constant-fold"; _ }); _ }
    :: _ -> ()
  | ds -> Alcotest.failf "expected E009 first, got [%s]"
            (String.concat "," (codes ds))

let test_e010 () =
  let before, after, cert, probe = find_step "constant-fold" (opt_plan ()) in
  let scores = Array.copy cert.Engine.cert_scores in
  scores.(0) <- scores.(0) +. 1.0;
  let bad = { cert with Engine.cert_scores = scores } in
  (match Equiv.verify_step ~probe ~before ~after bad with
  | [ { D.code = D.Cert_mismatch;
        witness = Some (D.Cert { pass = "constant-fold"; field = "scores"; _ });
        _ } ] -> ()
  | ds -> Alcotest.failf "expected exactly one E010, got [%s]"
            (String.concat "," (codes ds)));
  (* a structurally broken map also lands on E010 (and short-circuits) *)
  let bad_map =
    { cert with
      Engine.cert_slot_map = Array.make (Array.length cert.Engine.cert_slot_map) 0 }
  in
  match Equiv.verify_step ~probe ~before ~after bad_map with
  | { D.code = D.Cert_mismatch;
      witness = Some (D.Cert { field = "slot-map"; _ }); _ }
    :: _ -> ()
  | ds -> Alcotest.failf "expected E010 first, got [%s]"
            (String.concat "," (codes ds))

(* ---- dataflow ----------------------------------------------------------- *)

let test_dataflow_basic () =
  let p = opt_plan () in
  let view = I.plan p in
  let df = Df.analyze view in
  check_bool "feasible" false df.Df.infeasible;
  check_bool "all slots bound at exit" true df.Df.all_bound;
  Alcotest.(check (list int)) "optimized plan has no dead slots" []
    df.Df.dead_slots;
  check_int "one step per order position"
    (Array.length view.I.i_order)
    (Array.length df.Df.steps);
  (* the base (unoptimized) plan still carries the init-bound x slot, which
     the fold would orphan: dataflow flags it as dead there after folding,
     but in the base plan every slot is touched *)
  let base_df = Df.analyze (I.plan (I.base p)) in
  Alcotest.(check (list int)) "base plan has no dead slots either" []
    base_df.Df.dead_slots

let test_dataflow_infeasible () =
  (* 9 occurs only in U, so the stored-id range of E's first position
     excludes it: the analyzer proves E(9, ?y) matches nothing *)
  let db = db_of_edges [ (1, 2); (2, 3); (3, 4) ] in
  Database.add db (Fact.make "U" [ Value.int 9 ]);
  let p = Engine.compile db [ atom "E" [ c 9; v "y" ] ] ~init:Mapping.empty in
  let view = I.plan p in
  if view.I.i_feasible then begin
    let df = Df.analyze view in
    check_bool "proved empty" true df.Df.infeasible;
    check_bool "search bound collapses" true
      (df.Df.search_bound = neg_infinity)
  end;
  (* and the engine agrees: nothing is enumerated *)
  let n = ref 0 in
  Engine.iter_envs p (fun _ -> incr n);
  check_int "no solutions" 0 !n

(* ---- qcheck properties -------------------------------------------------- *)

(* (a) the optimized plan enumerates exactly the answers of its unoptimized
   original *)
let prop_opt_preserves_answers =
  qtest ~count:300 "optimized plans answer exactly like unoptimized ones"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let collect p =
        let out = ref [] in
        Engine.iter_envs p (fun env ->
            out := Engine.mapping_of_env p env :: !out);
        List.sort_uniq Mapping.compare !out
      in
      let p = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
      let plain = collect (I.base p) in
      let opt = collect p in
      List.length plain = List.length opt
      && List.for_all2 (fun a b -> Mapping.equal a b) plain opt)

(* (b) every optimization trail translation-validates *)
let prop_trails_verify =
  qtest ~count:300 "every pass certificate verifies on random plans"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let p = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
      (Equiv.verify_trail p).Equiv.r_verified)

(* (c) dataflow facts are sound: every enumerated environment lies inside
   them, and the solution count respects the search bound *)
let prop_dataflow_sound =
  qtest ~count:300 "dataflow facts admit every enumerated environment"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let p = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
      let view = Engine.Inspect.plan p in
      let df = Df.analyze view in
      let sound = ref true in
      let count = ref 0 in
      Engine.iter_envs p (fun env ->
          incr count;
          Array.iteri
            (fun s id ->
              if id >= 0 && not (Df.admits (Df.fact_of_slot df s) id) then
                sound := false)
            env);
      !sound
      && (!count = 0 || not df.Df.infeasible)
      && (!count = 0
         || log10 (float_of_int !count) <= df.Df.search_bound +. 1e-9))

let suite =
  [ Alcotest.test_case "clean trails verify" `Quick test_clean;
    Alcotest.test_case "the pipeline transforms the pinned instance" `Quick
      test_effects;
    Alcotest.test_case "E007 unjustified slot renaming" `Quick test_e007;
    Alcotest.test_case "E008 dropped check" `Quick test_e008;
    Alcotest.test_case "E009 reorder violates dependency" `Quick test_e009;
    Alcotest.test_case "E010 certificate/plan mismatch" `Quick test_e010;
    Alcotest.test_case "dataflow on the pinned instance" `Quick
      test_dataflow_basic;
    Alcotest.test_case "dataflow proves emptiness" `Quick
      test_dataflow_infeasible;
    prop_opt_preserves_answers;
    prop_trails_verify;
    prop_dataflow_sound ]
