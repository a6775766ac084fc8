(* The cardinality-feedback auditor (Analysis.Feedback) and the verified
   adaptive re-planning loop: genuine counter views audit clean, every
   deliberately corrupted view is rejected with the right E-code and
   witness (E022-E026), chunk-local counters merge to exactly the
   sequential counts under a parallel pool, adaptation never changes
   answers, and the stats-epoch-keyed calibration cache is evicted on
   epoch bumps. *)

open Relational
open Helpers
module D = Analysis.Diagnostic
module I = Engine.Inspect
module F = Analysis.Feedback

(* every test restores the ambient adaptive configuration (the CI runs one
   leg under WDPT_ENGINE_ADAPT=1 WDPT_ENGINE_DOMAINS=2, so "off" is not a
   safe default to restore to). Checked runs commit no counters — their
   per-group replay would double-count the genuine run's probes — so every
   test here runs unchecked, also in the WDPT_ENGINE_CHECKED=1 leg. *)
let with_config ?adapt ?threshold ?min_probed ?domains ?min_rows () f =
  let adapt0 = Engine.adapt_enabled () in
  let thr0 = Engine.drift_threshold () in
  let mp0 = Engine.drift_min_probed () in
  let dom0 = Engine.Parallel.domains () in
  let mr0 = Engine.Parallel.min_rows () in
  let checked0 = Engine.checked_enabled () in
  Engine.set_checked false;
  Option.iter Engine.set_adapt adapt;
  Option.iter Engine.set_drift_threshold threshold;
  Option.iter Engine.set_drift_min_probed min_probed;
  Option.iter Engine.Parallel.set_domains domains;
  Option.iter Engine.Parallel.set_min_rows min_rows;
  Fun.protect
    ~finally:(fun () ->
      Engine.set_adapt adapt0;
      Engine.set_drift_threshold thr0;
      Engine.set_drift_min_probed mp0;
      Engine.Parallel.set_domains dom0;
      Engine.Parallel.set_min_rows mr0;
      Engine.set_checked checked0)
    f

(* A skewed instance the static cost model underestimates. R's key 1 is hot
   (50 of 70 rows) while the per-key average is 70/21 < 4 rows, so the
   mid-pipeline stage R(1, ?y) — estimated 10^0.52 survivors per context —
   actually yields 10^1.70, a drift of ~1.18 decades: the batched pipeline
   runs its fixed stage order and probes the hot key for every S row.
   Statically R orders before S and C;
   once the calibration absorbs the drift the order inverts to S, C, R. *)
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
  with_config ~adapt:false () (fun () ->
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
  (* E022 needs no corruption: lower the threshold below the genuine drift
     of the skewed instance and the auditor fires on the real counters *)
  with_config ~adapt:false ~threshold:0.5 ~min_probed:1 ()
    (fun () ->
      let p = ran_plan (skew_db ()) skew_atoms in
      match F.audit p with
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
  with_config ~adapt:false () (fun () ->
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

let test_e024 () =
  with_config ~adapt:false () (fun () ->
      let p = ran_plan (skew_db ()) skew_atoms in
      let view = I.feedback p in
      (* a CALIBRATED view whose costing epoch predates the store version *)
      let bad =
        corrupt_atom
          { view with I.f_costed_at = view.I.f_store_version - 1 }
          0
          (fun fa -> { fa with I.f_calib = 1.5 })
      in
      (match F.audit_view bad with
      | [ { D.code = D.Stale_epoch; witness = Some (D.Epoch { costed; store; live }); _ } ] ->
          check_int "costed epoch" (view.I.f_store_version - 1) costed;
          check_int "store epoch" view.I.f_store_version store;
          check_int "live epoch" view.I.f_live_version live
      | ds -> Alcotest.failf "expected one E024, got %s" (String.concat "," (codes ds)));
      (* the same stale epoch WITHOUT calibration is the legitimate E006
         note-form story: no finding *)
      let uncalibrated = { view with I.f_costed_at = view.I.f_store_version - 1 } in
      check_codes "uncalibrated stale epoch is exempt" [] (F.audit_view uncalibrated))

let test_e026 () =
  with_config ~adapt:false () (fun () ->
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

(* ---- E025: swap certificates -------------------------------------------- *)

let test_e025 () =
  with_config ~adapt:false ~threshold:0.5 ~min_probed:1 ()
    (fun () ->
      let db = skew_db () in
      let p = ran_plan db skew_atoms in
      match Engine.replan p with
      | None -> Alcotest.fail "skewed instance must justify a re-plan"
      | Some (p', cert) ->
          (* the genuine certificate re-verifies, and accept_swap adopts *)
          check_codes "genuine swap certificate verifies" []
            (F.verify_swap ~before:(I.plan p) ~after:(I.plan p') cert);
          let adopted, ds = F.accept_swap ~before:p ~after:p' cert in
          check_codes "genuine swap accepted" [] ds;
          check_bool "after-plan adopted" true (adopted == p');
          (* corrupted certificates are rejected and the before-plan kept *)
          let reject name bad field =
            match F.verify_swap ~before:(I.plan p) ~after:(I.plan p') bad with
            | [] -> Alcotest.failf "%s: corrupted certificate verified" name
            | ds ->
                check_bool name true
                  (List.exists
                     (fun d ->
                       d.D.code = D.Unjustified_replan
                       && match d.D.witness with
                          | Some (D.Replan_of w) -> w.field = field
                          | _ -> false)
                     ds);
                let kept, _ = F.accept_swap ~before:p ~after:p' bad in
                check_bool (name ^ " keeps before-plan") true (kept == p)
          in
          reject "wrong epoch" { cert with Engine.sw_epoch = cert.Engine.sw_epoch + 1 } "epoch";
          reject "no evidence" { cert with Engine.sw_runs = 0 } "runs";
          reject "nothing drifted" { cert with Engine.sw_drift = [||] } "drift";
          reject "forged estimate"
            { cert with
              Engine.sw_drift =
                Array.map (fun (i, est, obs) -> (i, est -. 1., obs)) cert.Engine.sw_drift }
            "drift";
          reject "forged calibration"
            { cert with
              Engine.sw_calib =
                Array.map (fun c -> c +. 1.) cert.Engine.sw_calib }
            "calibration";
          reject "truncated calibration" { cert with Engine.sw_calib = [||] } "calibration")

(* ---- parallel merge correctness ----------------------------------------- *)

(* every counter counts a per-live-row property, so the merged chunk-local
   counters of a parallel run must equal the sequential ones exactly *)
let test_parallel_merge () =
  let db =
    Database.of_list
      (List.concat
         [ List.init 300 (fun i -> Fact.make "E" [ Value.int i; Value.int (i + 1) ]);
           List.init 50 (fun i -> Fact.make "E" [ Value.int (i * 7) ; Value.int 1 ]) ])
  in
  let atoms = [ e "x" "y"; e "y" "z" ] in
  let counters domains =
    with_config ~adapt:false ~domains ~min_rows:1 () (fun () ->
        let p = ran_plan db atoms in
        Engine.iter_envs p (fun _ -> ());
        let v = I.feedback p in
        ( v.I.f_runs,
          Array.map
            (fun (fa : I.feedback_atom) ->
              (fa.I.f_contexts, fa.I.f_probed, fa.I.f_survived))
            v.I.f_atoms ))
  in
  let seq_runs, seq = counters 1 in
  let par_runs, par = counters 2 in
  check_int "both configurations complete the same runs" seq_runs par_runs;
  check_bool "run counter is live" true (seq_runs > 0);
  Array.iteri
    (fun i (sc, sp, ss) ->
      let pc, pp, ps = par.(i) in
      check_int (Printf.sprintf "atom %d contexts" i) sc pc;
      check_int (Printf.sprintf "atom %d probed" i) sp pp;
      check_int (Printf.sprintf "atom %d survived" i) ss ps)
    seq

(* ---- the adaptive cache across epochs ------------------------------------ *)

let test_adapt_cache () =
  with_config ~adapt:true ~threshold:0.5 ~min_probed:1 ()
    (fun () ->
      let db = skew_db () in
      let static =
        with_config ~adapt:false () (fun () ->
            let p = Engine.compile db skew_atoms ~init:Mapping.empty in
            Engine.count_envs p)
      in
      (* run 1 collects the evidence and installs the calibration *)
      let p1 = ran_plan db skew_atoms in
      check_int "statically the hot atom R is ordered first" 1
        (I.plan p1).I.i_order.(0);
      check_bool "first run stored a swap certificate" true
        (Engine.cached_swap p1 <> None);
      (* run 2 is served the re-planned plan: calibrated, order inverted,
         same answers *)
      let p2 = Engine.compile db skew_atoms ~init:Mapping.empty in
      let v2 = I.plan p2 in
      check_bool "hot atom calibrated" true (v2.I.i_atoms.(1).I.a_calib > 0.);
      check_int "skew inverted the static order" 0 v2.I.i_order.(0);
      check_int "adaptive answers unchanged" static (Engine.count_envs p2);
      check_codes "re-planned run audits clean" [] (F.audit p2);
      (* a well-calibrated plan does not re-trigger on its own evidence *)
      check_bool "re-plan is idempotent" true (Engine.replan p2 = None);
      (* an epoch bump (Database.add) evicts the entry at the next compile *)
      Database.add db (Fact.make "R" [ Value.int 999; Value.int 999 ]);
      let p3 = Engine.compile db skew_atoms ~init:Mapping.empty in
      check_bool "stale entry evicted on epoch bump" true
        (Engine.cached_swap p3 = None);
      let v3 = I.plan p3 in
      check_bool "post-eviction plan is uncalibrated" true
        (Array.for_all (fun (av : I.atom_view) -> av.I.a_calib = 0.) v3.I.i_atoms);
      (* the loop re-learns at the new epoch... *)
      ignore (Engine.count_envs p3);
      let p4 = Engine.compile db skew_atoms ~init:Mapping.empty in
      check_bool "re-learned at the new epoch" true (Engine.cached_swap p4 <> None);
      (* ...and clear_cache discards the compiled store with its adapt table *)
      Database.clear_cache db;
      let p5 = Engine.compile db skew_atoms ~init:Mapping.empty in
      check_bool "clear_cache drops the calibration cache" true
        (Engine.cached_swap p5 = None))

(* ---- schema stability ---------------------------------------------------- *)

let test_schema () =
  check_int "analysis JSON schema version" 2 Analysis.Json.schema_version;
  (match D.report_json [] with
  | Analysis.Json.Obj (("schema", Analysis.Json.Int 2) :: ("version", Analysis.Json.Int 1) :: _) -> ()
  | _ -> Alcotest.fail "diagnostic reports must lead with the schema version");
  (* the feedback view JSON is keyed for the explain --drift consumer *)
  with_config ~adapt:false () (fun () ->
      let p = ran_plan (skew_db ()) skew_atoms in
      match F.view_json (I.feedback p) with
      | Analysis.Json.Obj fields ->
          List.iter
            (fun k ->
              check_bool (Printf.sprintf "feedback JSON carries %S" k) true
                (List.mem_assoc k fields))
            [ "runs"; "top"; "threshold"; "min-probed"; "costed-at";
              "store-version"; "live-version"; "atoms" ]
      | _ -> Alcotest.fail "feedback view JSON must be an object")

(* ---- properties ---------------------------------------------------------- *)

let prop_genuine_clean =
  qtest ~count:60 "genuine feedback views audit clean"
    QCheck.(pair arbitrary_db arbitrary_cq)
    (fun (db, q) ->
      with_config ~adapt:false () (fun () ->
          let p = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
          ignore (Engine.count_envs p);
          Engine.iter_envs p (fun _ -> ());
          F.audit p = []))

let prop_adaptive_answers =
  qtest ~count:60 "adaptive re-planning never changes answers"
    QCheck.(pair arbitrary_db arbitrary_cq)
    (fun (db, q) ->
      (* aggressive thresholds so small random instances re-plan for real *)
      let base =
        with_config ~adapt:false () (fun () -> Cq.Eval.answers db q)
      in
      with_config ~adapt:true ~threshold:0.1 ~min_probed:1 () (fun () ->
          Mapping.Set.equal (Cq.Eval.answers db q) base
          && Mapping.Set.equal (Cq.Eval.answers db q) base))

let suite =
  [ Alcotest.test_case "genuine views are clean" `Quick test_clean;
    Alcotest.test_case "E022 estimate-drift" `Quick test_e022;
    Alcotest.test_case "E023 counter-coverage" `Quick test_e023;
    Alcotest.test_case "E024 stale-stats-epoch" `Quick test_e024;
    Alcotest.test_case "E025 unjustified-replan" `Quick test_e025;
    Alcotest.test_case "E026 inconsistent-collector" `Quick test_e026;
    Alcotest.test_case "parallel counter merge" `Quick test_parallel_merge;
    Alcotest.test_case "adaptive cache epochs" `Quick test_adapt_cache;
    Alcotest.test_case "JSON schema lock" `Quick test_schema;
    prop_genuine_clean;
    prop_adaptive_answers ]
