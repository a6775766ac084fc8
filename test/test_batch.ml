(* The vectorized (batched) interpreter: the morsel-skew regression (a fat
   top-level relation must split into capped morsel groups), batch-edge
   geometry (candidate ranges smaller than a morsel group, survivor masks
   going all-zero mid-instruction, morsel boundaries inside OPT branches),
   paging parity on the batched streamed path, morsel configuration
   clamping, the stage order around a hot constant, and qcheck properties pinning the batched answers to the naive
   oracles (Cq.Eval.Naive, Semantics.eval_naive) at both semantics levels
   and a batched enumeration order independent of the morsel size. *)

open Relational
open Helpers
module I = Engine.Inspect

(* every test restores the ambient morsel size and checked mode, whatever
   happens (the suite may itself run under WDPT_ENGINE_MORSEL or
   WDPT_ENGINE_CHECKED) *)
let with_engine ?morsel ?checked f =
  let g0 = Engine.morsel_rows () and c0 = Engine.checked_enabled () in
  Option.iter Engine.set_morsel_rows morsel;
  Option.iter Engine.set_checked checked;
  Fun.protect
    ~finally:(fun () ->
      Engine.set_morsel_rows g0;
      Engine.set_checked c0)
    f

let envs_of plan =
  let out = ref [] in
  Engine.iter_envs plan (fun env -> out := Array.copy env :: !out);
  List.rev !out

(* ---- morsel-skew regression --------------------------------------------- *)

(* One fat relation: 20000 top-level candidate rows. Morsels cap every
   batch group at morsel_rows, splitting the fat range into 20 groups
   instead of materializing it as one. *)
let test_morsel_skew () =
  let db = db_of_edges (List.init 20000 (fun i -> (i, i + 1))) in
  let plan = Engine.compile db [ e "x" "y" ] ~init:Mapping.empty in
  with_engine ~morsel:1024 (fun () ->
      let b = I.batch plan in
      check_int "top-level rows" 20000 b.I.b_rows;
      check_int "morsel group count pinned" 20 b.I.b_groups;
      check_int "all rows enumerated" 20000 (Engine.count_envs plan))

(* ---- morsel configuration ------------------------------------------------ *)

let test_morsel_config () =
  with_engine (fun () ->
      Engine.set_morsel_rows 0;
      check_int "0 clamps to 1" 1 (Engine.morsel_rows ());
      Engine.set_morsel_rows (-5);
      check_int "negative clamps to 1" 1 (Engine.morsel_rows ());
      Engine.set_morsel_rows (1 lsl 30);
      check_int "oversized clamps to the cap" Engine.morsel_cap
        (Engine.morsel_rows ());
      Engine.set_morsel_rows 256;
      check_int "in-range value kept" 256 (Engine.morsel_rows ()))

(* ---- batch-edge geometry ------------------------------------------------- *)

let test_batch_edges () =
  (* candidate range far smaller than the morsel group: one ragged batch *)
  let db = db_of_edges [ (1, 2); (2, 3) ] in
  let plan = Engine.compile db [ e "x" "y"; e "y" "z" ] ~init:Mapping.empty in
  with_engine ~morsel:1024 (fun () ->
      check_int "batch smaller than the group" 1 (Engine.count_envs plan));
  (* a constant check kills the entire batch at stage 0 *)
  let dead0 =
    Engine.compile db [ atom "E" [ v "x"; c 99 ] ] ~init:Mapping.empty
  in
  with_engine (fun () ->
      check_int "mask all-zero at stage 0" 0 (Engine.count_envs dead0);
      check_bool "no solutions enumerated" true (envs_of dead0 = []));
  (* a later filter stage starves every surviving row mid-instruction: the
     top-level choice is the smaller U, the E probe then matches nothing *)
  let db2 = Database.create () in
  Database.add db2 (Fact.make "E" [ Value.int 1; Value.int 2 ]);
  Database.add db2 (Fact.make "E" [ Value.int 3; Value.int 4 ]);
  Database.add db2 (Fact.make "U" [ Value.int 99 ]);
  let dead_mid =
    Engine.compile db2
      [ atom "U" [ v "x" ]; atom "E" [ v "x"; v "y" ] ]
      ~init:Mapping.empty
  in
  with_engine (fun () ->
      check_int "mask all-zero mid-pipeline" 0 (Engine.count_envs dead_mid);
      check_bool "sat agrees" false (Engine.sat dead_mid));
  (* forcing single-row batches exercises every group boundary *)
  let full =
    Cq.Eval.Naive.homomorphisms db [ e "x" "y"; e "y" "z" ] ~init:Mapping.empty
  in
  with_engine ~morsel:1 (fun () ->
      check_int "1-row morsel groups, same count" (List.length full)
        (Engine.count_envs plan))

(* ---- morsel boundary inside an OPT branch -------------------------------- *)

let test_opt_boundary () =
  let p =
    match Wdpt.Syntax.parse "free (x) { E(?x, ?y) } [ { U(?y) } ]" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let db = Database.create () in
  List.iter
    (fun i -> Database.add db (Fact.make "E" [ Value.int i; Value.int (i + 1) ]))
    (List.init 10 Fun.id);
  List.iter
    (fun i ->
      if i mod 2 = 0 then Database.add db (Fact.make "U" [ Value.int i ]))
    (List.init 11 Fun.id);
  let reference = Wdpt.Semantics.eval_naive db p in
  check_bool "instance has extended and bare answers" true
    (Mapping.Set.cardinal reference = 10);
  (* morsel 3 puts group boundaries inside both the root body's and the OPT
     branch's candidate ranges *)
  with_engine ~morsel:3 (fun () ->
      check_bool "batched OPT answers" true
        (Mapping.Set.equal (Wdpt.Semantics.eval db p) reference))

(* ---- paging parity on the batched streamed path -------------------------- *)

let test_paging_parity () =
  let db = db_of_edges [ (1, 2); (2, 3); (3, 4); (1, 3); (2, 4); (4, 1) ] in
  let atoms = [ e "x" "y" ] in
  let onto = [ "x" ] in
  let stream ~offset ~limit =
    let out = ref [] in
    let n =
      Engine.stream_projections db atoms ~init:Mapping.empty ~onto ~offset
        ~limit (fun m -> out := m :: !out)
    in
    check_int "emitted = returned" (List.length !out) n;
    List.rev !out
  in
  with_engine ~morsel:2 (fun () ->
      let full = stream ~offset:0 ~limit:None in
      check_int "distinct projections" 4 (List.length full);
      (* pages cut at morsel boundaries reassemble the batched stream *)
      let pages =
        stream ~offset:0 ~limit:(Some 2)
        @ stream ~offset:2 ~limit:(Some 1)
        @ stream ~offset:3 ~limit:(Some 5)
      in
      check_bool "batched pages reassemble the batched stream" true
        (pages = full);
      (* and the page union is the naive answer set *)
      check_bool "batched pages = naive answers as sets" true
        (Mapping.Set.equal
           (Mapping.Set.of_list pages)
           (Cq.Eval.Naive.answers db (Cq.Query.make ~head:onto ~body:atoms))))

(* ---- a hot constant --------------------------------------------------------- *)

(* The skewed shape S(?x), R(1, ?y), C(?y, ?x) of examples/queries/skew.*:
   key 1 holds 2,000 of R's 2,200 rows, and C has 300. After the top-level
   S, both R(1, ?y) and C(?y, ?x) have one bound position; the tie goes to
   C, whose top-level candidate count (300) is below the hot cell's
   (2,000), so R runs last as a mask-only filter instead of expanding the
   hot cell once per S row. This holds on the first run of a fresh store,
   and the first run's counters show no drift. *)
let test_hot_constant () =
  let fact r args = Fact.make r (List.map Value.int args) in
  let db =
    Database.of_list
      (List.concat
         [ List.init 10 (fun i -> fact "S" [ i + 1 ]);
           List.init 2000 (fun j -> fact "R" [ 1; j + 1 ]);
           List.init 200 (fun k -> fact "R" [ k + 2; 0 ]);
           List.init 300 (fun j -> fact "C" [ j + 1; (j mod 10) + 1 ]) ])
  in
  let atoms =
    [ atom "S" [ v "x" ]; atom "R" [ c 1; v "y" ]; atom "C" [ v "y"; v "x" ] ]
  in
  let plan = Engine.compile db atoms ~init:Mapping.empty in
  let rel k = (I.plan plan).I.i_atoms.(k).I.a_rel in
  let stages = (I.batch plan).I.b_stages in
  Alcotest.(check (list string)) "stage order" [ "S"; "C"; "R" ]
    (Array.to_list (Array.map (fun st -> rel st.I.bv_atom) stages));
  check_bool "R is a mask-only filter" true stages.(2).I.bv_filter;
  let naive =
    Mapping.Set.of_list
      (Cq.Eval.Naive.homomorphisms db atoms ~init:Mapping.empty)
  in
  check_int "one answer per C row" 300 (Mapping.Set.cardinal naive);
  let answers () =
    let got = ref Mapping.Set.empty in
    Engine.iter_envs plan (fun env ->
        got := Mapping.Set.add (Engine.mapping_of_env plan env) !got);
    !got
  in
  with_engine ~checked:false (fun () ->
      check_bool "answers = naive" true (Mapping.Set.equal (answers ()) naive);
      Alcotest.(check (list string)) "first run's feedback audits clean" []
        (List.map
           (fun d -> Analysis.Diagnostic.code_id d.Analysis.Diagnostic.code)
           (Analysis.Feedback.audit plan)));
  (* checked mode replays every morsel group on the scalar twin *)
  List.iter
    (fun morsel ->
      with_engine ~morsel ~checked:true (fun () ->
          check_bool
            (Printf.sprintf "checked answers = naive (morsel %d)" morsel)
            true
            (Mapping.Set.equal (answers ()) naive);
          check_bool "checked sat" true (Engine.sat plan)))
    [ 3; 1024 ]

(* ---- properties ---------------------------------------------------------- *)

let prop_batched_cq_agree =
  qtest ~count:100 "batched = naive CQ answers (small morsels)"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      with_engine ~morsel:2 (fun () ->
          Mapping.Set.equal (Cq.Eval.answers db q) (Cq.Eval.Naive.answers db q)))

let prop_batched_wdpt_agree =
  qtest ~count:60 "batched = naive WDPT answers (morsel 3)"
    (QCheck.pair arbitrary_small_wdpt arbitrary_db) (fun (p, db) ->
      with_engine ~morsel:3 (fun () ->
          Mapping.Set.equal (Wdpt.Semantics.eval db p)
            (Wdpt.Semantics.eval_naive db p)))

let prop_batched_order_deterministic =
  qtest ~count:100 "batched enumeration order identical across morsel sizes"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let plan = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
      let reference = with_engine ~morsel:1024 (fun () -> envs_of plan) in
      with_engine ~morsel:2 (fun () ->
          envs_of plan = reference && envs_of plan = reference))

let suite =
  [ Alcotest.test_case "morsel-skew regression" `Quick test_morsel_skew;
    Alcotest.test_case "morsel configuration clamps" `Quick test_morsel_config;
    Alcotest.test_case "batch-edge geometry" `Quick test_batch_edges;
    Alcotest.test_case "morsel boundary inside OPT" `Quick test_opt_boundary;
    Alcotest.test_case "paging parity (batched stream)" `Quick
      test_paging_parity;
    Alcotest.test_case "a hot constant runs last as a filter" `Quick
      test_hot_constant;
    prop_batched_cq_agree;
    prop_batched_wdpt_agree;
    prop_batched_order_deterministic ]
