(* The batch-pipeline auditor (Analysis.Batch_audit, E017-E021) and the
   certified resource envelopes (Analysis.Resource): genuine batched layouts
   audit clean at every morsel geometry, each corruption of
   the batch_view draws exactly its E-code with the exact machine-checkable
   witness, measured batch_stats high-water marks stay within the certified
   envelope (and a shrunk envelope draws E021 per component), admission
   verdicts, the batch and resource JSON key lists, and paging across
   ragged-tail morsel-group boundaries. *)

open Relational
open Helpers
module I = Engine.Inspect
module D = Analysis.Diagnostic
module R = Analysis.Resource

(* every test restores the ambient engine configuration, whatever happens
   (the suite may itself run under WDPT_ENGINE_MORSEL / _CHECKED) *)
let with_engine ?checked ?morsel f =
  let c0 = Engine.checked_enabled () and g0 = Engine.morsel_rows () in
  Option.iter Engine.set_checked checked;
  Option.iter Engine.set_morsel_rows morsel;
  Fun.protect
    ~finally:(fun () ->
      Engine.set_checked c0;
      Engine.set_morsel_rows g0)
    f

let chain_db n = db_of_edges (List.init n (fun i -> (i, i + 1)) @ [ (0, 0) ])
let chain_atoms = [ e "x" "y"; e "y" "z" ]

let compile_plan () =
  Engine.compile (chain_db 40) chain_atoms ~init:Mapping.empty

let views () =
  let plan = compile_plan () in
  (plan, I.plan plan, I.batch plan)

let slot_of v name =
  let found = ref (-1) in
  Array.iteri (fun i x -> if x = name then found := i) v.I.i_slots;
  if !found < 0 then Alcotest.failf "no slot for %s" name;
  !found

let with_stage b i f =
  let ss = Array.copy b.I.b_stages in
  ss.(i) <- f ss.(i);
  { b with I.b_stages = ss }

let audit1 name v b =
  match Analysis.Batch_audit.audit_view v b with
  | [ d ] -> d
  | ds -> Alcotest.failf "%s: expected 1 finding, got %d" name (List.length ds)

(* ---- genuine layouts audit clean ---------------------------------------- *)

let test_genuine_clean () =
  let plan = compile_plan () in
  List.iter
    (fun morsel ->
      with_engine ~morsel (fun () ->
          check_bool
            (Printf.sprintf "clean at morsel %d" morsel)
            true
            (Analysis.Batch_audit.audit plan = [])))
    [ 1; 7; 1024 ]

(* ---- corruption tests: exactly the right code + witness ----------------- *)

let test_e017 () =
  let _, v, b = views () in
  let s1 = b.I.b_stages.(1) in
  let late_slot = snd s1.I.bv_binds.(0) in
  (* stage 0 probes a column only stage 1 writes *)
  (match
     audit1 "late"
       v
       (with_stage b 0 (fun st -> { st with I.bv_cols = [| (0, late_slot) |] }))
   with
  | { D.code = D.Stage_read_before_bind;
      witness =
        Some (D.Read_before_bind { stage = 0; atom; pos = 0; slot; binder = 1 });
      _
    } ->
      check_int "late atom" b.I.b_stages.(0).I.bv_atom atom;
      check_int "late slot" late_slot slot
  | _ -> Alcotest.fail "E017 late: wrong code or witness");
  (* a probe against a slot no stage ever binds *)
  let ghost = Array.length v.I.i_slots in
  match
    audit1 "unbound"
      v
      (with_stage b 0 (fun st -> { st with I.bv_cols = [| (1, ghost) |] }))
  with
  | { D.code = D.Stage_read_before_bind;
      witness =
        Some (D.Read_before_bind { stage = 0; pos = 1; slot; binder = -1; _ });
      _
    } ->
      check_int "unbound slot" ghost slot
  | _ -> Alcotest.fail "E017 unbound: wrong code or witness"

let test_e018 () =
  let _, v, b = views () in
  let xslot = snd b.I.b_stages.(0).I.bv_binds.(0) in
  (* stage 1 rebinds a column stage 0 already wrote *)
  (match
     audit1 "rebind"
       v
       (with_stage b 1 (fun st ->
            { st with I.bv_binds = Array.append st.I.bv_binds [| (0, xslot) |] }))
   with
  | { D.code = D.Column_aliasing;
      witness =
        Some
          (D.Aliased { slot; first_stage = 0; second_stage = 1; init = false });
      _
    } ->
      check_int "rebind slot" xslot slot
  | _ -> Alcotest.fail "E018 rebind: wrong code or witness");
  (* stage 0 binds a slot the initial environment pinned: the compiler
     folds init slots into constant checks, so a genuine layout never
     writes one *)
  let env = Array.copy v.I.i_env in
  env.(xslot) <- 0;
  match audit1 "init" { v with I.i_env = env } b with
  | { D.code = D.Column_aliasing;
      witness =
        Some
          (D.Aliased { slot; first_stage = -1; second_stage = 0; init = true });
      _
    } ->
      check_int "init slot" xslot slot
  | _ -> Alcotest.fail "E018 init: wrong code or witness"

let test_e019 () =
  let _, v, b = views () in
  let s1 = b.I.b_stages.(1) in
  let col_pos = fst s1.I.bv_cols.(0) in
  (* drop stage 1's probe column: its position loses its only role *)
  match
    audit1 "uncovered" v (with_stage b 1 (fun st -> { st with I.bv_cols = [||] }))
  with
  | { D.code = D.Position_cover;
      witness =
        Some (D.Cover { stage = 1; atom; arity = 2; covered = 1; missing });
      _
    } ->
      check_int "uncovered atom" s1.I.bv_atom atom;
      check_int "uncovered position" col_pos missing
  | _ -> Alcotest.fail "E019: wrong code or witness"

let test_e020 () =
  let _, v, b = views () in
  let s1 = b.I.b_stages.(1) in
  let bind_pos = fst s1.I.bv_binds.(0) in
  let col_pos = fst s1.I.bv_cols.(0) in
  (* a stage that binds, flagged mask-only: the filter path skips writes *)
  (match
     audit1 "filter-binds"
       v
       (with_stage b 1 (fun st -> { st with I.bv_filter = true }))
   with
  | { D.code = D.Filter_binds;
      witness =
        Some (D.Filter_bind { stage = 1; atom; binds = 1; streamed = false });
      _
    } ->
      check_int "filter-binds atom" s1.I.bv_atom atom
  | _ -> Alcotest.fail "E020 filter-binds: wrong code or witness");
  (* the final stage claims new columns but binds none — its streamed
     output would be read back as a materialized column (the duplicate
     role keeps the position cover intact, isolating the E020) *)
  match
    audit1 "streamed"
      v
      (with_stage b 1 (fun st ->
           { st with I.bv_binds = [||]; bv_dups = [| (bind_pos, col_pos) |] }))
  with
  | { D.code = D.Filter_binds;
      witness = Some (D.Filter_bind { stage = 1; binds = 0; streamed = true; _ });
      _
    } ->
      ()
  | _ -> Alcotest.fail "E020 streamed: wrong code or witness"

let test_e021 () =
  with_engine ~checked:true ~morsel:7
    (fun () ->
      let plan = compile_plan () in
      let r = R.of_plan plan in
      Engine.reset_batch_stats ();
      ignore (Engine.count_envs plan);
      Engine.iter_envs plan (fun _ -> ());
      let s = Engine.batch_stats () in
      check_bool "columns measured" true (s.Engine.bm_column_words > 0);
      check_bool "replay measured (checked mode)" true
        (s.Engine.bm_replay_rows > 0);
      (* the genuine envelope dominates every mark *)
      check_bool "genuine envelope dominates" true
        (Analysis.Batch_audit.check_envelope r s = []);
      (* shrink two components below their marks: one E021 each, with the
         exact certified/measured pair *)
      let shrunk = { r with R.r_column_words = 0; r_replay_rows = 0 } in
      match Analysis.Batch_audit.check_envelope shrunk s with
      | [ { D.code = D.Resource_envelope;
            witness =
              Some
                (D.Envelope
                   { component = "column-words"; certified = 0; measured });
            _
          };
          { D.code = D.Resource_envelope;
            witness =
              Some
                (D.Envelope
                   { component = "replay-rows";
                     certified = 0;
                     measured = replay });
            _
          } ] ->
          check_int "measured column words" s.Engine.bm_column_words measured;
          check_int "measured replay rows" s.Engine.bm_replay_rows replay
      | ds ->
          Alcotest.failf "E021: expected 2 findings, got %d" (List.length ds))

(* ---- admission ----------------------------------------------------------- *)

let test_admission () =
  with_engine ~checked:false ~morsel:7
    (fun () ->
      let plan = compile_plan () in
      let r = R.of_plan plan in
      check_bool "envelope is finite" true
        ((not r.R.r_saturated) && r.R.r_peak_bytes > 0);
      check_bool "admits a generous budget" true
        (R.admits r ~budget:(1 lsl 30));
      check_bool "rejects a tiny budget" false (R.admits r ~budget:16);
      (* a saturated envelope never admits, whatever the budget *)
      check_bool "saturated never admits" false
        (R.admits { r with R.r_saturated = true } ~budget:max_int))

(* ---- explain JSON schema locks ------------------------------------------ *)

let json_keys = function
  | Analysis.Json.Obj fields -> List.map fst fields
  | _ -> []

let batch_keys = [ "morsel-rows"; "groups"; "columns"; "stages" ]

let resource_keys =
  [ "checked"; "rows"; "group-rows"; "groups"; "slots"; "stage-rows";
    "peak-rows"; "column-words"; "dense-words"; "replay-rows"; "peak-bytes";
    "infeasible"; "saturated" ]

let test_schema_stable () =
  let plan = compile_plan () in
  with_engine (fun () ->
      let b = I.batch plan in
      check_bool "batch json schema" true
        (json_keys (Analysis.Batch_audit.batch_json b) = batch_keys);
      check_int "stage geometry" 2 (Array.length b.I.b_stages);
      check_int "group geometry" b.I.b_groups
        ((41 + b.I.b_morsel_rows - 1) / b.I.b_morsel_rows);
      check_bool "resource json schema" true
        (json_keys (R.to_json (R.of_plan plan)) = resource_keys))

(* ---- ragged-tail morsels x paging --------------------------------------- *)

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

let take n l = List.filteri (fun i _ -> i < n) l

(* 41 candidate rows under 7-row morsel groups: boundaries at 7, 14, ..., 35
   with a 6-row ragged tail. Pages whose offset lands exactly on, one
   before, and one past a group boundary (and past the end) must slice the
   full first-seen enumeration exactly. *)
let test_ragged_paging () =
  let db = chain_db 40 in
  let atoms = [ e "x" "y" ] in
  let collect ~offset ~limit =
    let out = ref [] in
    let n =
      Engine.stream_projections db atoms ~init:Mapping.empty
        ~onto:[ "x"; "y" ] ~offset ~limit (fun m -> out := m :: !out)
    in
    (n, List.rev !out)
  in
  with_engine ~morsel:7 (fun () ->
      let _, all = collect ~offset:0 ~limit:None in
      let total = List.length all in
      check_int "41 distinct rows" 41 total;
      check_bool "ragged tail" true (total mod 7 <> 0);
      List.iter
        (fun offset ->
          List.iter
            (fun lim ->
              let n, page = collect ~offset ~limit:(Some lim) in
              let expected = take lim (drop offset all) in
              check_int
                (Printf.sprintf "count offset=%d limit=%d" offset lim)
                (List.length expected) n;
              check_bool
                (Printf.sprintf "page offset=%d limit=%d" offset lim)
                true
                (List.equal Mapping.equal page expected))
            [ 1; 7; 13 ])
        [ 6; 7; 8; 13; 14; 15; 34; 35; 36; 40; 41; 42 ])

(* ---- properties ---------------------------------------------------------- *)

let prop_genuine_clean =
  qtest ~count:100 "genuine batch layouts audit clean (morsel 3)"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let plan = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
      with_engine ~morsel:3 (fun () -> Analysis.Batch_audit.audit plan = []))

let prop_envelope_dominates =
  qtest ~count:60 "certified envelope dominates measured marks"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      List.for_all
        (fun checked ->
          with_engine ~checked ~morsel:3
            (fun () ->
              let plan =
                Engine.compile db (Cq.Query.body q) ~init:Mapping.empty
              in
              let r = R.of_plan plan in
              Engine.reset_batch_stats ();
              ignore (Engine.count_envs plan);
              Engine.iter_envs plan (fun _ -> ());
              Analysis.Batch_audit.check_envelope r (Engine.batch_stats ())
              = []))
        [ false; true ])

let suite =
  [ Alcotest.test_case "genuine layouts audit clean" `Quick test_genuine_clean;
    Alcotest.test_case "E017 stage-read-before-bind" `Quick test_e017;
    Alcotest.test_case "E018 column-aliasing" `Quick test_e018;
    Alcotest.test_case "E019 incomplete-position-cover" `Quick test_e019;
    Alcotest.test_case "E020 filter-stage-binds" `Quick test_e020;
    Alcotest.test_case "E021 unsound-resource-envelope" `Quick test_e021;
    Alcotest.test_case "admission verdicts" `Quick test_admission;
    Alcotest.test_case "batch/resource JSON schema locks" `Quick
      test_schema_stable;
    Alcotest.test_case "ragged-tail morsel paging" `Quick test_ragged_paging;
    prop_genuine_clean;
    prop_envelope_dominates ]
