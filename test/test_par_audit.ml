(* The concurrency auditor (Analysis.Par_audit: E011, E014-E016) and the
   data-race sanitizer: genuine count-region plans audit clean at every pool
   size, each corruption of the par_view draws exactly its E-code with the
   exact machine-checkable witness, sanitized count and semijoin regions
   report zero races and sequential answers, and the seeded fault-injection
   hook (the test-only corrupted reducer) is caught both dynamically
   (Race_failure, in both region primitives) and statically (E014 on the
   genuine view). Also locks the explain JSON schema for the partitioning
   decision across pool sizes. *)

open Relational
open Helpers
module P = Engine.Parallel
module I = Engine.Inspect
module D = Analysis.Diagnostic

(* every test restores the ambient engine configuration, whatever happens
   (the suite may itself run under WDPT_ENGINE_DOMAINS / _TSAN) *)
let with_engine ?domains ?min_rows ?race ?fault f =
  let d0 = P.domains () and m0 = P.min_rows () in
  let r0 = P.race_check_enabled () and f0 = P.fault_injection_enabled () in
  Option.iter P.set_domains domains;
  Option.iter P.set_min_rows min_rows;
  Option.iter P.set_race_check race;
  Option.iter P.set_fault_injection fault;
  Fun.protect
    ~finally:(fun () ->
      P.set_domains d0;
      P.set_min_rows m0;
      P.set_race_check r0;
      P.set_fault_injection f0)
    f

let chain_db n = db_of_edges (List.init n (fun i -> (i, i + 1)) @ [ (0, 0) ])
let chain_atoms = [ e "x" "y"; e "y" "z" ]

let compile_plan () =
  Engine.compile (chain_db 40) chain_atoms ~init:Mapping.empty

(* a semijoin large enough to chunk: the chain's edges that continue *)
let semijoin_rows db =
  let r = Engine.Rel.of_atom db (e "x" "y") in
  let s = Engine.Rel.of_atom db (e "y" "z") in
  Engine.Rel.to_mappings db (Engine.Rel.semijoin r s)

(* ---- genuine views audit clean ------------------------------------------ *)

let test_genuine_clean () =
  let plan = compile_plan () in
  List.iter
    (fun nd ->
      with_engine ~domains:nd ~min_rows:1 (fun () ->
          let v = I.par plan in
          check_bool
            (Printf.sprintf "parallel decision at pool %d" nd)
            (nd > 1) (not v.I.pv_sequential);
          check_bool
            (Printf.sprintf "clean at pool %d" nd)
            true
            (Analysis.Par_audit.audit_view v = [])))
    [ 1; 2; 4; 8 ];
  (* threshold fallback: sequential single-chunk view, still clean *)
  with_engine ~domains:4 ~min_rows:1_000_000 (fun () ->
      let v = I.par plan in
      check_bool "under threshold: sequential" true v.I.pv_sequential;
      check_int "single chunk" 1 (Array.length v.I.pv_chunks);
      check_bool "clean" true (Analysis.Par_audit.audit_view v = []))

(* ---- corruption tests: exactly the right code + witness ----------------- *)

let audit1 name v =
  match Analysis.Par_audit.audit_view v with
  | [ d ] -> d
  | ds -> Alcotest.failf "%s: expected 1 finding, got %d" name (List.length ds)

let test_e011 () =
  with_engine ~domains:4 ~min_rows:1 (fun () ->
      let v = I.par (compile_plan ()) in
      let rows = v.I.pv_rows in
      check_bool "instance chunks" true (rows >= 4);
      (* gap: the second chunk starts one row past where the first ended *)
      (match audit1 "gap" { v with I.pv_chunks = [| (0, 2); (3, rows) |] } with
      | { D.code = D.Chunk_coverage;
          witness =
            Some (D.Coverage { chunk = 1; lo = 3; hi; expected_lo = 2; rows = r });
          _
        } ->
          check_int "gap hi" rows hi;
          check_int "gap rows" rows r
      | _ -> Alcotest.fail "gap: wrong code or witness");
      (* overlap: the second chunk re-covers the first one's last row *)
      (match
         audit1 "overlap" { v with I.pv_chunks = [| (0, 3); (2, rows) |] }
       with
      | { D.code = D.Chunk_coverage;
          witness = Some (D.Coverage { chunk = 1; lo = 2; expected_lo = 3; _ });
          _
        } ->
          ()
      | _ -> Alcotest.fail "overlap: wrong code or witness");
      (* short tail: the partition ends one row before the range does *)
      (match audit1 "tail" { v with I.pv_chunks = [| (0, rows - 1) |] } with
      | { D.code = D.Chunk_coverage;
          witness = Some (D.Coverage { chunk = 1; lo; expected_lo; rows = r; _ });
          _
        } ->
          check_int "tail lo" (rows - 1) lo;
          check_int "tail expected" rows expected_lo;
          check_int "tail rows" rows r
      | _ -> Alcotest.fail "tail: wrong code or witness"))

let test_e014 () =
  with_engine ~domains:4 ~min_rows:1 (fun () ->
      let v = I.par (compile_plan ()) in
      (* a write site targeting state outside the declared inventory *)
      let rogue =
        { v with
          I.pv_writes =
            Array.append v.I.pv_writes
              [| { I.w_site = "rogue-spill";
                   w_target = "global-scratch";
                   w_owner_only = false } |] }
      in
      (match audit1 "undeclared" rogue with
      | { D.code = D.Undeclared_write;
          witness =
            Some
              (D.Shared_write
                 { site = "rogue-spill";
                   target = "global-scratch";
                   declared = false;
                   owner_only = false;
                   kind = "undeclared" });
          _
        } ->
          ()
      | _ -> Alcotest.fail "E014 undeclared: wrong code or witness");
      (* a cross-chunk store into chunk-local state *)
      let ws = Array.copy v.I.pv_writes in
      Array.iteri
        (fun i (w : I.write_view) ->
          if w.I.w_site = "count-accumulate" then
            ws.(i) <- { w with I.w_owner_only = false })
        ws;
      (match audit1 "cross-chunk" { v with I.pv_writes = ws } with
      | { D.code = D.Undeclared_write;
          witness =
            Some
              (D.Shared_write
                 { site = "count-accumulate";
                   target = "chunk-counts";
                   declared = true;
                   owner_only = false;
                   kind = "chunk-local" });
          _
        } ->
          ()
      | _ -> Alcotest.fail "E014 cross-chunk: wrong code or witness"))

let test_e015 () =
  with_engine ~domains:4 ~min_rows:1 (fun () ->
      let v = I.par (compile_plan ()) in
      check_int "one snapshot per domain" 4 (Array.length v.I.pv_snapshots);
      let c, s, l = v.I.pv_snapshots.(0) in
      let snaps = Array.copy v.I.pv_snapshots in
      snaps.(2) <- (c, s, l + 1);
      match audit1 "e015" { v with I.pv_snapshots = snaps } with
      | { D.code = D.Version_skew;
          witness =
            Some
              (D.Skew
                 { domain = 2;
                   compiled;
                   store;
                   live;
                   ref_domain = 0;
                   ref_compiled;
                   ref_store;
                   ref_live });
          _
        } ->
          check_int "skew compiled" c compiled;
          check_int "skew store" s store;
          check_int "skew live" (l + 1) live;
          check_int "ref compiled" c ref_compiled;
          check_int "ref store" s ref_store;
          check_int "ref live" l ref_live
      | _ -> Alcotest.fail "E015: wrong code or witness")

let test_e016 () =
  with_engine ~domains:4 ~min_rows:1 (fun () ->
      let v = I.par (compile_plan ()) in
      let rows = v.I.pv_rows in
      check_bool "chunked" true (Array.length v.I.pv_chunks > 1);
      (* fat chunk: a coverage-clean partition whose second chunk exceeds the
         cap — exactly the single-huge-chunk skew morsels exist to fix *)
      let fat =
        { v with I.pv_morsel_rows = 4; pv_chunks = [| (0, 2); (2, rows) |] }
      in
      (match audit1 "fat" fat with
      | { D.code = D.Morsel_coverage;
          witness =
            Some (D.Morsel { chunk = 1; lo = 2; hi; stride = 2; morsel = 4 });
          _
        } ->
          check_int "fat hi" rows hi
      | _ -> Alcotest.fail "E016 fat: wrong code or witness");
      (* broken stride: a chunk before the last deviates from chunk 0's *)
      (match
         audit1 "stride"
           { v with I.pv_chunks = [| (0, 20); (20, 25); (25, rows) |] }
       with
      | { D.code = D.Morsel_coverage;
          witness =
            Some (D.Morsel { chunk = 1; lo = 20; hi = 25; stride = 20; _ });
          _
        } ->
          ()
      | _ -> Alcotest.fail "E016 stride: wrong code or witness");
      (* overlong tail: the last chunk is wider than the stride *)
      (match
         audit1 "tail" { v with I.pv_chunks = [| (0, 2); (2, 4); (4, rows) |] }
       with
      | { D.code = D.Morsel_coverage;
          witness = Some (D.Morsel { chunk = 2; lo = 4; hi; stride = 2; _ });
          _
        } ->
          check_int "tail hi" rows hi
      | _ -> Alcotest.fail "E016 tail: wrong code or witness");
      (* gated on E011: a broken partition draws coverage, not morsel *)
      match audit1 "gated" { v with I.pv_chunks = [| (0, 2); (3, rows) |] } with
      | { D.code = D.Chunk_coverage; _ } -> ()
      | _ -> Alcotest.fail "E016 gating: expected the E011 finding alone")

(* ---- race sanitizer ------------------------------------------------------ *)

let test_sanitizer_clean () =
  let db = chain_db 40 in
  let plan = Engine.compile db chain_atoms ~init:Mapping.empty in
  let seq_count = with_engine ~domains:1 (fun () -> Engine.count_envs plan) in
  let seq_rows = with_engine ~domains:1 (fun () -> semijoin_rows db) in
  check_int "semijoin keeps the continuing edges" 40 (List.length seq_rows);
  with_engine ~domains:4 ~min_rows:1 ~race:true (fun () ->
      let s0 = P.race_stats () in
      check_int "sanitized count" seq_count (Engine.count_envs plan);
      check_bool "sanitized semijoin" true (semijoin_rows db = seq_rows);
      let s1 = P.race_stats () in
      check_int "one region per primitive" (s0.P.rs_regions + 2)
        s1.P.rs_regions;
      check_bool "accesses logged" true (s1.P.rs_events > s0.P.rs_events);
      check_int "zero races" s0.P.rs_races s1.P.rs_races)

let test_fault_injection_caught () =
  let plan = compile_plan () in
  with_engine ~domains:4 ~min_rows:1 ~race:true ~fault:true (fun () ->
      let s0 = P.race_stats () in
      (match Engine.count_envs plan with
      | _ -> Alcotest.fail "corrupted count reducer not caught"
      | exception Engine.Race_failure _ -> ());
      (match semijoin_rows (chain_db 40) with
      | _ -> Alcotest.fail "corrupted semijoin reducer not caught"
      | exception Engine.Race_failure _ -> ());
      let s1 = P.race_stats () in
      check_int "both races recorded" (s0.P.rs_races + 2) s1.P.rs_races);
  (* the genuine view declares the seeded cross-chunk store while the fault
     is live, so the static auditor flags it too — E014, same defect *)
  with_engine ~domains:4 ~min_rows:1 ~fault:true (fun () ->
      match Analysis.Par_audit.audit plan with
      | [ { D.code = D.Undeclared_write;
            witness =
              Some
                (D.Shared_write
                   { site = "fault-injection";
                     target = "chunk-counts";
                     declared = true;
                     owner_only = false;
                     kind = "chunk-local" });
            _
          } ] ->
          ()
      | ds ->
          Alcotest.failf "fault injection: expected E014, got %d finding(s)"
            (List.length ds))

(* ---- explain consistency across pool sizes (schema lock) ---------------- *)

let json_keys = function
  | Analysis.Json.Obj fields -> List.map fst fields
  | _ -> []

let test_explain_consistency () =
  let plan = compile_plan () in
  let views =
    List.map
      (fun nd ->
        with_engine ~domains:nd ~min_rows:1 (fun () ->
            (nd, I.par plan, P.decision plan)))
      [ 1; 2; 4; 8 ]
  in
  let _, ref_v, _ = List.hd views in
  List.iter
    (fun (nd, v, decision) ->
      check_int (Printf.sprintf "pool reported at %d" nd) nd v.I.pv_domains;
      check_int "rows invariant across pools" ref_v.I.pv_rows v.I.pv_rows;
      check_bool "atom invariant across pools" true (v.I.pv_atom = ref_v.I.pv_atom);
      check_int "one snapshot per domain" nd (Array.length v.I.pv_snapshots);
      (* the chunks partition [0, rows) at every pool size *)
      let covered =
        Array.fold_left
          (fun expected (lo, hi) ->
            check_int "chunks contiguous" expected lo;
            hi)
          0 v.I.pv_chunks
      in
      check_int "chunks cover the rows" v.I.pv_rows covered;
      if nd = 1 then begin
        check_bool "pool 1 = sequential fallback" true v.I.pv_sequential;
        check_int "pool 1 = one chunk" 1 (Array.length v.I.pv_chunks)
      end
      else check_bool "pool > 1 chunked" true (Array.length v.I.pv_chunks > 1);
      (* view and decision agree — text and JSON render the same data *)
      check_int "decision rows" v.I.pv_rows decision.P.d_rows;
      check_bool "decision atom" true (v.I.pv_atom = decision.P.d_atom);
      check_bool "decision reason" true (v.I.pv_reason = decision.P.d_reason);
      (* the JSON schemas the explain CLI emits, locked *)
      check_bool "par_audit json schema" true
        (json_keys (Analysis.Par_audit.par_json v)
        = [ "domains"; "min-rows"; "morsel-rows"; "atom"; "rows"; "sequential";
            "reason"; "chunks"; "reducers"; "shared"; "writes"; "snapshots" ]);
      check_bool "parallel json schema" true
        (json_keys (Analysis.Cost.parallel_json decision)
        = [ "domains"; "atom"; "rows"; "chunks"; "chunk-rows"; "reason" ]))
    views

(* ---- properties ---------------------------------------------------------- *)

let prop_genuine_clean =
  qtest ~count:100 "genuine par views audit clean (pools 1/2/4)"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let plan = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
      List.for_all
        (fun nd ->
          with_engine ~domains:nd ~min_rows:1 (fun () ->
              Analysis.Par_audit.audit plan = []))
        [ 1; 2; 4 ])

let prop_sanitized_agree =
  qtest ~count:60 "sanitizer-on parallel answers = sequential, zero races"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let reference = Cq.Eval.answers db q in
      let races0 = (P.race_stats ()).P.rs_races in
      List.for_all
        (fun nd ->
          with_engine ~domains:nd ~min_rows:1 ~race:true (fun () ->
              Mapping.Set.equal (Cq.Eval.answers db q) reference))
        [ 2; 4 ]
      && (P.race_stats ()).P.rs_races = races0)

let suite =
  [ Alcotest.test_case "genuine views audit clean" `Quick test_genuine_clean;
    Alcotest.test_case "E011 coverage gap/overlap/tail" `Quick test_e011;
    Alcotest.test_case "E014 undeclared shared write" `Quick test_e014;
    Alcotest.test_case "E015 cross-domain version skew" `Quick test_e015;
    Alcotest.test_case "E016 morsel coverage" `Quick test_e016;
    Alcotest.test_case "sanitizer: clean parallel runs" `Quick
      test_sanitizer_clean;
    Alcotest.test_case "sanitizer: fault injection caught" `Quick
      test_fault_injection_caught;
    Alcotest.test_case "explain consistency across pools" `Quick
      test_explain_consistency;
    prop_genuine_clean;
    prop_sanitized_agree ]
