(* The domain-parallel runtime and incremental compiled databases: unit
   tests for the partitioning decision, the count and semijoin regions (and
   the absence of regions for enumeration and first-match), the in-place
   extension of the compiled form and its E006 audit verdicts, plus the
   qcheck properties pinning every pool size to the sequential path —
   set-equal answers, sequential-identical enumeration order, checked-mode
   env-for-env parity, and incremental extension indistinguishable from a
   rebuild. *)

open Relational
open Helpers
module P = Engine.Parallel
module D = Analysis.Diagnostic

(* every test restores the ambient engine configuration, whatever happens
   (the suite may itself run under WDPT_ENGINE_DOMAINS / _CHECKED) *)
let with_engine ?domains ?min_rows ?checked ?race f =
  let d0 = P.domains () and m0 = P.min_rows () in
  let c0 = Engine.checked_enabled () and r0 = P.race_check_enabled () in
  Option.iter P.set_domains domains;
  Option.iter P.set_min_rows min_rows;
  Option.iter Engine.set_checked checked;
  Option.iter P.set_race_check race;
  Fun.protect
    ~finally:(fun () ->
      P.set_domains d0;
      P.set_min_rows m0;
      Engine.set_checked c0;
      P.set_race_check r0)
    f

let chain_db n =
  db_of_edges (List.init n (fun i -> (i, i + 1)) @ [ (0, 0) ])

let chain_atoms = [ e "x" "y"; e "y" "z" ]

let envs_of plan =
  let out = ref [] in
  Engine.iter_envs plan (fun env -> out := Array.copy env :: !out);
  List.rev !out

(* the rows of E(x, y) whose y has an outgoing edge, via Rel.semijoin *)
let semijoin_rows db =
  let r = Engine.Rel.of_atom db (e "x" "y") in
  let s = Engine.Rel.of_atom db (e "y" "z") in
  Engine.Rel.to_mappings db (Engine.Rel.semijoin r s)

let regions () = (P.race_stats ()).P.rs_regions

(* ---- partitioning decision --------------------------------------------- *)

let test_decision () =
  let db = chain_db 40 in
  let plan = Engine.compile db chain_atoms ~init:Mapping.empty in
  with_engine ~domains:1 ~min_rows:128 (fun () ->
      let d = P.decision plan in
      check_int "pool of 1" 1 d.P.d_domains;
      check_int "sequential = one chunk" 1 d.P.d_chunks;
      check_bool "rows counted" true (d.P.d_rows > 0));
  with_engine ~domains:4 ~min_rows:1 (fun () ->
      let d = P.decision plan in
      check_int "configured pool" 4 d.P.d_domains;
      check_bool "chunked" true (d.P.d_chunks > 1);
      check_bool "chunks cover the rows" true
        (d.P.d_chunks * d.P.d_chunk_rows >= d.P.d_rows);
      check_bool "names the top-level atom" true (d.P.d_atom <> None);
      (* the chunked decision is the count region's; it never calls an
         enumeration parallel *)
      check_bool "reason names the count region" true
        (String.starts_with ~prefix:"count region:" d.P.d_reason);
      check_bool "reason: enumeration stays sequential" true
        (String.ends_with
           ~suffix:"enumeration and first-match run sequentially"
           d.P.d_reason));
  with_engine ~domains:4 ~min_rows:1_000_000 (fun () ->
      let d = P.decision plan in
      check_int "under the threshold: sequential" 1 d.P.d_chunks)

(* ---- reducers ----------------------------------------------------------- *)

let test_reducers () =
  let db = chain_db 40 in
  let plan = Engine.compile db chain_atoms ~init:Mapping.empty in
  let seq_count = with_engine ~domains:1 (fun () -> Engine.count_envs plan) in
  let seq_rows = with_engine ~domains:1 (fun () -> semijoin_rows db) in
  check_bool "instance is non-trivial" true (seq_count > 10);
  List.iter
    (fun nd ->
      with_engine ~domains:nd ~min_rows:1 (fun () ->
          check_int
            (Printf.sprintf "count at %d domains" nd)
            seq_count (Engine.count_envs plan);
          check_bool
            (Printf.sprintf "semijoin row order at %d domains" nd)
            true
            (semijoin_rows db = seq_rows)))
    [ 2; 4 ];
  (* an unsatisfiable plan stays unsatisfiable under a pool *)
  let dead =
    Engine.compile db [ e "x" "y"; atom "U" [ v "x" ] ] ~init:Mapping.empty
  in
  with_engine ~domains:4 ~min_rows:1 (fun () ->
      check_bool "no witness" false (Engine.sat dead);
      check_int "empty count" 0 (Engine.count_envs dead))

(* an enumeration callback that re-enters the engine runs its counts (and
   their regions) to completion: nothing deadlocks or nests domain pools *)
let test_reentrancy () =
  let db = chain_db 20 in
  let plan = Engine.compile db [ e "x" "y" ] ~init:Mapping.empty in
  with_engine ~domains:4 ~min_rows:1 (fun () ->
      let nested_ok = ref true in
      Engine.iter_envs plan (fun _ ->
          if Engine.count_envs plan <= 0 then nested_ok := false);
      check_bool "nested evaluation inside a callback" true !nested_ok)

(* enumeration and first-match open no region at any pool size or
   threshold: with the sanitizer armed, every validated region would bump
   the region counter *)
let test_sequential_primitives () =
  let db = chain_db 40 in
  let plan = Engine.compile db chain_atoms ~init:Mapping.empty in
  let seq_envs = with_engine ~domains:1 (fun () -> envs_of plan) in
  let seq_first =
    with_engine ~domains:1 (fun () ->
        Engine.first_homomorphism db chain_atoms ~init:Mapping.empty)
  in
  List.iter
    (fun nd ->
      with_engine ~domains:nd ~min_rows:1 ~race:true (fun () ->
          let r0 = regions () in
          let name s = Printf.sprintf "%s at pool %d" s nd in
          check_bool (name "enumeration order") true (envs_of plan = seq_envs);
          check_bool (name "sat") true (Engine.sat plan);
          check_bool (name "first homomorphism") true
            (Engine.first_homomorphism db chain_atoms ~init:Mapping.empty
            = seq_first);
          check_int (name "no region opened") r0 (regions ());
          (* the count over the same plan does open one *)
          ignore (Engine.count_envs plan);
          check_int (name "count opens a region") (r0 + 1) (regions ())))
    [ 2; 4 ]

(* ---- region lifecycle --------------------------------------------------- *)

(* every region spawns and joins its helper domains: many back-to-back
   regions, pool resizes between regions, and a chunk that raises must all
   leave the engine reusable with sequential answers *)
let test_many_regions () =
  let db = chain_db 40 in
  let plan = Engine.compile db chain_atoms ~init:Mapping.empty in
  let seq_count = with_engine ~domains:1 (fun () -> Engine.count_envs plan) in
  let seq_rows = with_engine ~domains:1 (fun () -> semijoin_rows db) in
  with_engine ~domains:2 ~min_rows:1 (fun () ->
      check_bool "plan opens a region" true ((P.decision plan).P.d_chunks > 1);
      for i = 1 to 500 do
        let ok =
          if i mod 2 = 0 then Engine.count_envs plan = seq_count
          else semijoin_rows db = seq_rows
        in
        if not ok then Alcotest.failf "region %d disagrees with sequential" i
      done)

let test_resize_between_regions () =
  let db = chain_db 40 in
  let plan = Engine.compile db chain_atoms ~init:Mapping.empty in
  let seq_count = with_engine ~domains:1 (fun () -> Engine.count_envs plan) in
  let seq_rows = with_engine ~domains:1 (fun () -> semijoin_rows db) in
  with_engine ~min_rows:1 (fun () ->
      List.iter
        (fun nd ->
          P.set_domains nd;
          check_int
            (Printf.sprintf "count at pool %d" nd)
            seq_count (Engine.count_envs plan);
          check_bool
            (Printf.sprintf "semijoin at pool %d" nd)
            true
            (semijoin_rows db = seq_rows))
        [ 3; 2; 1; 3 ])

(* checked mode rejects a detached plan inside every chunk, so helpers
   raise too; the first exception reaches the caller after the join and the
   next region runs normally *)
let test_worker_exception () =
  let db = chain_db 40 in
  let detached = Engine.compile db chain_atoms ~init:Mapping.empty in
  Database.add db (Fact.make "E" [ Value.int 90; Value.int 91 ]);
  with_engine ~domains:2 ~min_rows:1 ~checked:true (fun () ->
      for _ = 1 to 20 do
        match Engine.count_envs detached with
        | _ -> Alcotest.fail "detached plan: no Check_failure"
        | exception Engine.Check_failure _ -> ()
      done);
  let fresh = Engine.compile db chain_atoms ~init:Mapping.empty in
  let seq = with_engine ~domains:1 (fun () -> Engine.count_envs fresh) in
  with_engine ~domains:2 ~min_rows:1 (fun () ->
      check_int "next region runs" seq (Engine.count_envs fresh))

(* a count region over at least 128 top-level rows builds the dense probe
   tables once and every chunk reads them: the count, with and without the
   checked-mode replay, must match the sequential run that builds its own *)
let test_shared_dense () =
  let db = chain_db 600 in
  let plan = Engine.compile db chain_atoms ~init:Mapping.empty in
  check_bool "enough rows for the dense build" true
    ((P.decision plan).P.d_rows >= 128);
  let seq_envs = with_engine ~domains:1 (fun () -> envs_of plan) in
  List.iter
    (fun (nd, checked) ->
      with_engine ~domains:nd ~min_rows:1 ~checked (fun () ->
          Engine.reset_batch_stats ();
          let name = Printf.sprintf "pool %d, checked %b" nd checked in
          check_bool (name ^ ": chunked") true ((P.decision plan).P.d_chunks > 1);
          check_int (name ^ ": count") (List.length seq_envs)
            (Engine.count_envs plan);
          check_bool (name ^ ": dense tables built") true
            ((Engine.batch_stats ()).Engine.bm_dense_words > 0)))
    [ (2, false); (4, false); (2, true) ]

(* ---- incremental compiled databases ------------------------------------ *)

let test_incremental_extension () =
  let db = db_of_edges [ (1, 2); (2, 3) ] in
  let before = Cq.Eval.answers db (Cq.Query.make ~head:[ "x" ] ~body:[ e "x" "y" ]) in
  check_int "answers before" 2 (Mapping.Set.cardinal before);
  let v0 = Database.version db in
  Database.add db (Fact.make "E" [ Value.int 3; Value.int 4 ]);
  check_bool "cache survives add" true (Database.get_cache db <> None);
  check_bool "catch-up feed" true
    (Database.facts_since db v0 = [ Fact.make "E" [ Value.int 3; Value.int 4 ] ]);
  let after = Cq.Eval.answers db (Cq.Query.make ~head:[ "x" ] ~body:[ e "x" "y" ]) in
  check_int "new fact visible after extension" 3 (Mapping.Set.cardinal after);
  (* the extended form answers exactly like a from-scratch rebuild *)
  Database.clear_cache db;
  let rebuilt = Cq.Eval.answers db (Cq.Query.make ~head:[ "x" ] ~body:[ e "x" "y" ]) in
  check_bool "extension = rebuild" true (Mapping.Set.equal after rebuilt)

(* the catch-up feed at its boundaries: an up-to-date reader gets an empty
   batch, a reader claiming a version from the future gets an empty batch
   (never a negative take or an exception), and extending after a cache
   clear rebuilds to the same answers as extending a live cache *)
let test_facts_since_edges () =
  let db = db_of_edges [ (1, 2); (2, 3) ] in
  let now = Database.version db in
  check_bool "up to date: empty batch" true (Database.facts_since db now = []);
  check_bool "future version: empty batch" true
    (Database.facts_since db (now + 5) = []);
  Database.add db (Fact.make "E" [ Value.int 3; Value.int 4 ]);
  check_bool "one-fact batch" true
    (Database.facts_since db now = [ Fact.make "E" [ Value.int 3; Value.int 4 ] ]);
  check_bool "caught up again" true
    (Database.facts_since db (Database.version db) = []);
  (* an add that lands after clear_cache (no compiled form to extend in
     place) must be indistinguishable from an incremental extension *)
  let q = Cq.Query.make ~head:[ "x" ] ~body:[ e "x" "y" ] in
  let live = db_of_edges [ (1, 2); (2, 3) ] in
  ignore (Cq.Eval.answers live q);
  Database.add live (Fact.make "E" [ Value.int 3; Value.int 4 ]);
  let incremental = Cq.Eval.answers live q in
  let cleared = db_of_edges [ (1, 2); (2, 3) ] in
  ignore (Cq.Eval.answers cleared q);
  Database.clear_cache cleared;
  Database.add cleared (Fact.make "E" [ Value.int 3; Value.int 4 ]);
  check_bool "add after clear_cache = incremental extension" true
    (Mapping.Set.equal (Cq.Eval.answers cleared q) incremental)

let test_e006_extended () =
  let db = db_of_edges [ (1, 2); (2, 3) ] in
  let plan = Engine.compile db [ e "x" "y" ] ~init:Mapping.empty in
  check_bool "fresh plan audits clean" true
    (Analysis.Plan_audit.audit plan = []);
  Database.add db (Fact.make "E" [ Value.int 3; Value.int 4 ]);
  (* store not yet caught up: the old plan is detached (error form) *)
  (match Analysis.Plan_audit.audit plan with
  | [ { D.code = D.Stale_plan; severity = D.Error; witness = Some (D.Stale _); _ } ]
    ->
      ()
  | ds -> Alcotest.failf "expected detached-stale, got %d finding(s)" (List.length ds));
  (* compiling anything catches the shared store up in place; now the old
     plan is merely extended (warning form), and a fresh plan is clean *)
  let fresh = Engine.compile db [ e "x" "y" ] ~init:Mapping.empty in
  check_bool "fresh plan after extension audits clean" true
    (Analysis.Plan_audit.audit fresh = []);
  (match Analysis.Plan_audit.audit plan with
  | [ { D.code = D.Stale_plan;
        severity = D.Warning;
        witness = Some (D.Extended { compiled; store; live });
        _
      } ] ->
      check_bool "compiled < store" true (compiled < store);
      check_int "store caught up to live" live store
  | ds ->
      Alcotest.failf "expected incrementally-extended, got %d finding(s)"
        (List.length ds));
  (* the extended store is usable: the old plan's view sees the new row *)
  let view = Engine.Inspect.plan plan in
  check_int "extended row count" 3 view.Engine.Inspect.i_atoms.(0).Engine.Inspect.a_rows

(* ---- properties --------------------------------------------------------- *)

let prop_parallel_answers_agree =
  qtest ~count:150 "parallel answers = sequential answers (domains 1/2/4)"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let reference = Cq.Eval.answers db q in
      List.for_all
        (fun nd ->
          with_engine ~domains:nd ~min_rows:1 (fun () ->
              Mapping.Set.equal (Cq.Eval.answers db q) reference))
        [ 1; 2; 4 ])

let prop_parallel_wdpt_agree =
  qtest ~count:60 "parallel WDPT eval = sequential (domains 2/4)"
    (QCheck.pair arbitrary_small_wdpt arbitrary_db) (fun (p, db) ->
      let reference = Wdpt.Semantics.eval db p in
      List.for_all
        (fun nd ->
          with_engine ~domains:nd ~min_rows:1 (fun () ->
              Mapping.Set.equal (Wdpt.Semantics.eval db p) reference))
        [ 2; 4 ])

let prop_parallel_order_deterministic =
  qtest ~count:150 "parallel enumeration order = sequential, twice"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let plan = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
      let seq = with_engine ~domains:1 (fun () -> envs_of plan) in
      with_engine ~domains:4 ~min_rows:1 (fun () ->
          let run1 = envs_of plan and run2 = envs_of plan in
          run1 = run2 && run1 = seq))

let prop_checked_parallel_parity =
  qtest ~count:100 "checked parallel = checked sequential, env for env"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let plan = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
      let seq =
        with_engine ~domains:1 ~checked:true (fun () -> envs_of plan)
      in
      with_engine ~domains:4 ~min_rows:1 ~checked:true (fun () ->
          envs_of plan = seq))

let prop_incremental_equals_rebuild =
  qtest ~count:100 "incremental add + re-eval = rebuild from scratch"
    (QCheck.triple arbitrary_cq arbitrary_db arbitrary_db)
    (fun (q, db, extra) ->
      (* warm the compiled form, then extend it in place fact by fact *)
      ignore (Cq.Eval.answers db q);
      List.iter (Database.add db) (Database.facts extra);
      let incremental = Cq.Eval.answers db q in
      (* the same final fact set, compiled from scratch *)
      let scratch = Database.of_list (Database.facts db) in
      let rebuilt = Cq.Eval.answers scratch q in
      Database.clear_cache db;
      let recleared = Cq.Eval.answers db q in
      Mapping.Set.equal incremental rebuilt
      && Mapping.Set.equal incremental recleared)

let suite =
  [ Alcotest.test_case "partitioning decision" `Quick test_decision;
    Alcotest.test_case "reducers" `Quick test_reducers;
    Alcotest.test_case "region re-entrancy" `Quick test_reentrancy;
    Alcotest.test_case "500 back-to-back regions" `Quick test_many_regions;
    Alcotest.test_case "resize between regions" `Quick test_resize_between_regions;
    Alcotest.test_case "worker exception reaches the caller" `Quick
      test_worker_exception;
    Alcotest.test_case "shared dense probe tables" `Quick test_shared_dense;
    Alcotest.test_case "incremental extension" `Quick test_incremental_extension;
    Alcotest.test_case "facts_since edge cases" `Quick test_facts_since_edges;
    Alcotest.test_case "E006 extended vs detached" `Quick test_e006_extended;
    prop_parallel_answers_agree;
    prop_parallel_wdpt_agree;
    prop_parallel_order_deterministic;
    prop_checked_parallel_parity;
    prop_incremental_equals_rebuild;
    Alcotest.test_case "enumeration and first-match open no region" `Quick
      test_sequential_primitives ]
