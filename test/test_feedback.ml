(* The cardinality-feedback auditor (Analysis.Feedback): genuine counter
   views audit clean, a genuine drift is reported once the threshold is
   lowered on a copy of the view, every deliberately corrupted view is
   rejected with the right E-code and witness (E023, E026), counters do not
   depend on how the candidate range splits into morsel groups, and the
   JSON key set is locked. *)

open Relational
open Helpers
module D = Analysis.Diagnostic
module I = Engine.Inspect
module F = Analysis.Feedback

(* every test restores the ambient engine configuration. Checked runs
   commit no counters — their per-group replay would double-count the
   genuine run's probes — so every test here runs unchecked, also in the
   WDPT_ENGINE_CHECKED=1 leg. *)
let with_config ?morsel () f =
  let morsel0 = Engine.morsel_rows () in
  let checked0 = Engine.checked_enabled () in
  Engine.set_checked false;
  Option.iter Engine.set_morsel_rows morsel;
  Fun.protect
    ~finally:(fun () ->
      Engine.set_morsel_rows morsel0;
      Engine.set_checked checked0)
    f

(* A skewed instance the static cost model underestimates. R's key 1 is hot
   (50 of 70 rows) while the per-key average is 70/21 < 4 rows, so the
   mid-pipeline stage R(1, ?y) — estimated 10^0.52 survivors per context —
   actually yields 10^1.70, a drift of ~1.18 decades: after the top-level
   S(?x), R has the only bound position (C(?y, ?z) shares no variable with
   S), so the batched pipeline probes the hot key for every S row. *)
let s_rows = 10
let hot = 50
let tail = 20
let c_rows = 30

let skew_db () =
  Database.of_list
    (List.concat
       [ List.init s_rows (fun i -> Fact.make "S" [ Value.int (i + 1) ]);
         List.init hot (fun j -> Fact.make "R" [ Value.int 1; Value.int (j + 1) ]);
         List.init tail
           (fun k -> Fact.make "R" [ Value.int (k + 2); Value.int 0 ]);
         List.init c_rows
           (fun j -> Fact.make "C" [ Value.int (j + 1); Value.int (j + 1) ])
       ])

let skew_atoms =
  [ atom "S" [ v "x" ]; atom "R" [ c 1; v "y" ]; atom "C" [ v "y"; v "z" ] ]

(* compile and run once so the plan carries genuine counters *)
let ran_plan db atoms =
  let p = Engine.compile db atoms ~init:Mapping.empty in
  ignore (Engine.count_envs p);
  p

let codes ds = List.map (fun d -> D.code_id d.D.code) ds

let check_codes name expected ds =
  Alcotest.(check (list string)) name (List.map D.code_id expected) (codes ds)

(* ---- clean genuine views ------------------------------------------------ *)

let test_clean () =
  with_config () (fun () ->
      let p = ran_plan (db_of_edges [ (1, 2); (2, 3); (3, 4) ]) [ e "x" "y"; e "y" "z" ] in
      check_codes "genuine view audits clean" [] (F.audit p);
      (* a never-run plan has no evidence and audits clean too *)
      let fresh =
        Engine.compile (db_of_edges [ (1, 2) ]) [ e "x" "y" ] ~init:Mapping.empty
      in
      check_codes "fresh plan audits clean" [] (F.audit fresh);
      (* the genuinely skewed instance below the default threshold is also
         clean: drift of ~1.15 decades, threshold 2.0 *)
      let p = ran_plan (skew_db ()) skew_atoms in
      check_codes "sub-threshold skew audits clean" [] (F.audit p))

(* ---- one corruption (or genuine trigger) per E-code --------------------- *)

let corrupt_atom (v : I.feedback_view) i f =
  let atoms = Array.copy v.I.f_atoms in
  atoms.(i) <- f atoms.(i);
  { v with I.f_atoms = atoms }

let test_e022 () =
  (* E022 needs no corrupted counter: lower the threshold of a copy of the
     genuine view below the skewed instance's drift and the auditor fires
     on the real counters *)
  with_config () (fun () ->
      let p = ran_plan (skew_db ()) skew_atoms in
      let view = { (I.feedback p) with I.f_threshold = 0.5; f_min_probed = 1 } in
      match F.audit_view view with
      | [ { D.code = D.Drift;
            witness =
              Some
                (D.Drifted
                   { atom = 1; estimated; observed; threshold; contexts;
                     probed; survived });
            _ } ] ->
          check_int "one context per S row" s_rows contexts;
          check_int "hot rows probed per context" (s_rows * hot) probed;
          check_int "hot rows survived" (s_rows * hot) survived;
          Alcotest.(check (float 1e-9)) "threshold in witness" 0.5 threshold;
          Alcotest.(check (float 1e-6)) "observed = log10(hot)"
            (log10 (float_of_int hot)) observed;
          Alcotest.(check (float 1e-6)) "estimated = log10(rows/dcount)"
            (log10 (float_of_int (hot + tail) /. float_of_int (tail + 1)))
            estimated
      | ds -> Alcotest.failf "expected one E022, got: %s" (String.concat "," (codes ds)))

let test_e023 () =
  with_config () (fun () ->
      let p = ran_plan (skew_db ()) skew_atoms in
      let view = I.feedback p in
      (* negative counter *)
      let bad = corrupt_atom view 1 (fun fa -> { fa with I.f_contexts = -1 }) in
      (match F.audit_view bad with
      | [ { D.code = D.Counter_coverage;
            witness = Some (D.Counter_of { atom = 1; detail = "negative-counter" });
            _ } ] -> ()
      | ds -> Alcotest.failf "negative counter: got %s" (String.concat "," (codes ds)));
      (* more survivors than probed rows *)
      let bad =
        corrupt_atom view 1 (fun fa ->
            { fa with I.f_survived = fa.I.f_probed + 5 })
      in
      (match F.audit_view bad with
      | [ { D.code = D.Counter_coverage;
            witness =
              Some (D.Counter_of { atom = 1; detail = "survivors-exceed-probes" });
            _ } ] -> ()
      | ds -> Alcotest.failf "survivors: got %s" (String.concat "," (codes ds)));
      (* probes without a probe context *)
      let bad = corrupt_atom view 1 (fun fa -> { fa with I.f_contexts = 0 }) in
      check_codes "probes without context" [ D.Counter_coverage ]
        (F.audit_view bad);
      (* the vector does not cover the instruction list *)
      let bad = corrupt_atom view 1 (fun fa -> { fa with I.f_atom = 7 }) in
      (match F.audit_view bad with
      | [ { D.code = D.Counter_coverage;
            witness = Some (D.Counter_of { atom = 1; detail = "index-mismatch" });
            _ } ] -> ()
      | ds -> Alcotest.failf "index mismatch: got %s" (String.concat "," (codes ds)));
      (* a completed run that never credited the top-level atom's context *)
      let bad =
        corrupt_atom view 0 (fun fa ->
            { fa with I.f_contexts = 0; f_probed = 0; f_survived = 0 })
      in
      (match F.audit_view bad with
      | [ { D.code = D.Counter_coverage;
            witness = Some (D.Counter_of { atom = 0; detail = "missing-top-context" });
            _ } ] -> ()
      | ds -> Alcotest.failf "missing top context: got %s" (String.concat "," (codes ds)));
      (* negative run counter: the vector-level witness uses atom -1 *)
      let bad = { view with I.f_runs = -1 } in
      (match F.audit_view bad with
      | [ { D.code = D.Counter_coverage;
            witness = Some (D.Counter_of { atom = -1; detail = "negative-runs" });
            _ } ] -> ()
      | ds -> Alcotest.failf "negative runs: got %s" (String.concat "," (codes ds))))

let test_e026 () =
  with_config () (fun () ->
      let p = ran_plan (skew_db ()) skew_atoms in
      let view = I.feedback p in
      (* survivors far above runs x the product of stored row counts, with
         contexts/probed inflated alongside so no E022/E023 fires: only the
         collector-soundness ceiling catches it *)
      let impossible = 10_000_000 in
      let bad =
        corrupt_atom view 0 (fun fa ->
            { fa with
              I.f_contexts = impossible;
              f_probed = impossible;
              f_survived = impossible })
      in
      match F.audit_view bad with
      | [ { D.code = D.Collector_inconsistent;
            witness = Some (D.Collector_of { atom = 0; survived; runs; bound }); _ } ] ->
          check_int "impossible survivors" impossible survived;
          check_int "runs in witness" view.I.f_runs runs;
          check_bool "ceiling below the claim" true
            (log10 (float_of_int impossible) > bound)
      | ds -> Alcotest.failf "expected one E026, got %s" (String.concat "," (codes ds)))

(* ---- counters across morsel groupings ------------------------------------ *)

(* every counter counts a per-live-row property, so a run cut into 7-row
   morsel groups must count exactly what one 1024-row group counts *)
let test_morsel_grouping () =
  let db =
    Database.of_list
      (List.concat
         [ List.init 300 (fun i -> Fact.make "E" [ Value.int i; Value.int (i + 1) ]);
           List.init 50 (fun i -> Fact.make "E" [ Value.int (i * 7) ; Value.int 1 ]) ])
  in
  let atoms = [ e "x" "y"; e "y" "z" ] in
  let counters morsel =
    with_config ~morsel () (fun () ->
        let p = ran_plan db atoms in
        Engine.iter_envs p (fun _ -> ());
        let v = I.feedback p in
        ( v.I.f_runs,
          Array.map
            (fun (fa : I.feedback_atom) ->
              (fa.I.f_contexts, fa.I.f_probed, fa.I.f_survived))
            v.I.f_atoms ))
  in
  let wide_runs, wide = counters 1024 in
  let narrow_runs, narrow = counters 7 in
  check_int "both groupings complete the same runs" wide_runs narrow_runs;
  check_bool "run counter is live" true (wide_runs > 0);
  Array.iteri
    (fun i (wc, wp, ws) ->
      let nc, np, ns = narrow.(i) in
      check_int (Printf.sprintf "atom %d contexts" i) wc nc;
      check_int (Printf.sprintf "atom %d probed" i) wp np;
      check_int (Printf.sprintf "atom %d survived" i) ws ns)
    wide

(* ---- schema stability ---------------------------------------------------- *)

let test_schema () =
  check_int "analysis JSON schema version" 4 Analysis.Json.schema_version;
  (match D.report_json [] with
  | Analysis.Json.Obj (("schema", Analysis.Json.Int 4) :: ("version", Analysis.Json.Int 1) :: _) -> ()
  | _ -> Alcotest.fail "diagnostic reports must lead with the schema version");
  (* the feedback view JSON is keyed for the explain --drift consumer *)
  let fields = function
    | Analysis.Json.Obj fields -> fields
    | _ -> Alcotest.fail "feedback JSON must be objects"
  in
  with_config () (fun () ->
      let p = ran_plan (skew_db ()) skew_atoms in
      let view = fields (F.view_json (I.feedback p)) in
      Alcotest.(check (list string)) "feedback view keys"
        [ "runs"; "top"; "threshold"; "min-probed"; "compiled-version";
          "store-version"; "live-version"; "atoms" ]
        (List.map fst view);
      match List.assoc "atoms" view with
      | Analysis.Json.List (a :: _) ->
          Alcotest.(check (list string)) "feedback atom keys"
            [ "atom"; "contexts"; "probed"; "survived"; "rows"; "score";
              "estimated"; "observed" ]
            (List.map fst (fields a))
      | _ -> Alcotest.fail "feedback JSON lists its atoms")

(* ---- properties ---------------------------------------------------------- *)

let prop_genuine_clean =
  qtest ~count:60 "genuine feedback views audit clean"
    QCheck.(pair arbitrary_db arbitrary_cq)
    (fun (db, q) ->
      with_config () (fun () ->
          let p = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
          ignore (Engine.count_envs p);
          Engine.iter_envs p (fun _ -> ());
          F.audit p = []))

let suite =
  [ Alcotest.test_case "genuine views are clean" `Quick test_clean;
    Alcotest.test_case "E022 estimate-drift" `Quick test_e022;
    Alcotest.test_case "E023 counter-coverage" `Quick test_e023;
    Alcotest.test_case "E026 inconsistent-collector" `Quick test_e026;
    Alcotest.test_case "counters independent of morsel size" `Quick
      test_morsel_grouping;
    Alcotest.test_case "JSON schema lock" `Quick test_schema;
    prop_genuine_clean ]
