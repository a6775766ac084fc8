(* The compiled evaluation engine: unit tests for interning, counted indexes,
   plan caching, counting and the in-place extension of the compiled form,
   plus the agreement properties pinning the engine to the naive reference
   evaluator (Cq.Eval.Naive) and the engine-backed tractable WDPT evaluator
   to the reference semantics. *)

open Relational
open Helpers
module D = Analysis.Diagnostic

(* run [f] with checked mode set to [b], restoring the ambient setting (the
   suite may itself run under WDPT_ENGINE_CHECKED) *)
let with_checked b f =
  let c0 = Engine.checked_enabled () in
  Engine.set_checked b;
  Fun.protect ~finally:(fun () -> Engine.set_checked c0) f

(* ---- interner / tuple ------------------------------------------------- *)

let test_interner () =
  let p = Interner.create () in
  check_int "first id" 0 (Interner.intern p (Value.int 7));
  check_int "second id" 1 (Interner.intern p (Value.str "a"));
  check_int "idempotent" 0 (Interner.intern p (Value.int 7));
  check_int "size" 2 (Interner.size p);
  check_bool "get roundtrip" true (Value.equal (Interner.get p 1) (Value.str "a"));
  check_bool "find hit" true (Interner.find p (Value.int 7) = Some 0);
  check_bool "find miss" true (Interner.find p (Value.int 8) = None)

let test_tuple () =
  let a = Tuple.of_list [ 1; 2; 3 ] and b = Tuple.of_list [ 1; 2; 3 ] in
  check_bool "equal" true (Tuple.equal a b);
  check_int "hash agrees" (Tuple.hash a) (Tuple.hash b);
  check_bool "compare" true (Tuple.compare a (Tuple.of_list [ 1; 2; 4 ]) < 0);
  check_bool "length order" true (Tuple.compare (Tuple.of_list [ 9 ]) a < 0)

(* ---- counted indexes --------------------------------------------------- *)

let test_counted_index () =
  let db = db_of_edges [ (1, 2); (1, 3); (2, 3) ] in
  check_int "relation count" 3 (Database.count_of db "E");
  check_int "absent relation" 0 (Database.count_of db "Z");
  check_int "pos 0 of 1" 2 (Database.index_count db "E" 0 (Value.int 1));
  check_int "pos 1 of 3" 2 (Database.index_count db "E" 1 (Value.int 3));
  check_int "unseen value" 0 (Database.index_count db "E" 0 (Value.int 9));
  (* candidates picks the smaller counted cell *)
  let a = atom "E" [ v "x"; v "y" ] in
  let h = mapping [ ("x", 2) ] in
  check_int "selective index" 1 (List.length (Database.candidates db a h));
  check_int "unbound scans relation" 3
    (List.length (Database.candidates db a Mapping.empty))

let test_cache_invalidation () =
  let db = db_of_edges [ (1, 2) ] in
  let v0 = Database.version db in
  check_bool "satisfiable before" true
    (Cq.Eval.satisfiable db [ e "x" "y" ] ~init:(mapping [ ("x", 1) ]));
  check_bool "nothing from 5 yet" false
    (Cq.Eval.satisfiable db [ e "x" "y" ] ~init:(mapping [ ("x", 5) ]));
  (* adding a fact must invalidate the compiled form *)
  Database.add db (Fact.make "E" [ Value.int 5; Value.int 6 ]);
  check_bool "version bumped" true (Database.version db > v0);
  check_bool "new fact visible" true
    (Cq.Eval.satisfiable db [ e "x" "y" ] ~init:(mapping [ ("x", 5) ]));
  (* idempotent re-add keeps the version (and the cache) *)
  let v1 = Database.version db in
  Database.add db (Fact.make "E" [ Value.int 5; Value.int 6 ]);
  check_int "idempotent add" v1 (Database.version db)

let test_infeasible_plans () =
  let db = db_of_edges [ (1, 2) ] in
  check_bool "absent relation" false
    (Cq.Eval.satisfiable db [ atom "Z" [ v "x" ] ] ~init:Mapping.empty);
  check_bool "unseen constant" false
    (Cq.Eval.satisfiable db [ atom "E" [ c 9; v "y" ] ] ~init:Mapping.empty);
  check_bool "unseen init value" false
    (Cq.Eval.satisfiable db [ e "x" "y" ] ~init:(mapping [ ("x", 9) ]));
  (* init values outside the atoms pass through untouched *)
  let hs =
    Cq.Eval.homomorphisms db [ e "x" "y" ] ~init:(mapping [ ("z", 42) ])
  in
  check_int "pass-through kept" 1 (List.length hs);
  check_bool "binding survives" true
    (List.for_all (fun h -> Mapping.find "z" h = Some (Value.int 42)) hs);
  (* empty body yields exactly init *)
  let hs = Cq.Eval.homomorphisms db [] ~init:(mapping [ ("z", 1) ]) in
  check_bool "empty body" true
    (match hs with [ h ] -> Mapping.equal h (mapping [ ("z", 1) ]) | _ -> false)

(* ---- engine vs naive agreement ---------------------------------------- *)

let prop_answers_agree =
  qtest ~count:300 "compiled answers = naive answers"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      Mapping.Set.equal (Cq.Eval.answers db q) (Cq.Eval.Naive.answers db q))

let prop_homomorphisms_agree =
  qtest ~count:300 "compiled homomorphism set = naive homomorphism set"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let body = Cq.Query.body q in
      Mapping.Set.equal
        (Mapping.Set.of_list (Cq.Eval.homomorphisms db body ~init:Mapping.empty))
        (Mapping.Set.of_list
           (Cq.Eval.Naive.homomorphisms db body ~init:Mapping.empty)))

(* bind a random body variable to a value that may or may not occur *)
let random_init q seed =
  match String_set.elements (Cq.Query.vars q) with
  | [] -> Mapping.empty
  | xs ->
      let x = List.nth xs (seed mod List.length xs) in
      Mapping.singleton x (Value.int (seed - 2))

let prop_satisfiable_agree_under_init =
  qtest ~count:300 "compiled satisfiable = naive satisfiable (random init)"
    (QCheck.triple arbitrary_cq arbitrary_db (QCheck.int_range 0 7))
    (fun (q, db, seed) ->
      let body = Cq.Query.body q in
      let init = random_init q seed in
      Cq.Eval.satisfiable db body ~init
      = Cq.Eval.Naive.satisfiable db body ~init)

let prop_first_homomorphism_agree =
  qtest ~count:300 "compiled first-hom existence = naive"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let body = Cq.Query.body q in
      Option.is_some (Cq.Eval.first_homomorphism db body ~init:Mapping.empty)
      = Option.is_some
          (Cq.Eval.Naive.first_homomorphism db body ~init:Mapping.empty))

(* The scalar first-match runner and the batched enumeration share one
   stage order: first_homomorphism is the first mapping iter_homomorphisms
   yields, and satisfiable agrees with the enumeration count, with checked
   mode off and on. *)
let prop_first_match_is_first_enumerated =
  qtest ~count:200
    "first_homomorphism = first enumerated, satisfiable = count > 0"
    (QCheck.triple arbitrary_cq arbitrary_db (QCheck.int_range 0 7))
    (fun (q, db, seed) ->
      let body = Cq.Query.body q in
      let init = random_init q seed in
      let first_enumerated () =
        let out = ref None in
        (try
           Engine.iter_homomorphisms db body ~init (fun h ->
               out := Some h;
               raise Exit)
         with Exit -> ());
        !out
      in
      List.for_all
        (fun checked ->
          with_checked checked (fun () ->
              let first = Engine.first_homomorphism db body ~init in
              Option.equal Mapping.equal first (first_enumerated ())
              && Engine.satisfiable db body ~init
                 = (Engine.count_envs (Engine.compile db body ~init) > 0)))
        [ false; true ])

(* ---- engine-backed tractable WDPT evaluation vs reference semantics ---- *)

let prop_eval_tractable_agrees =
  qtest ~count:100 "rewired Eval_tractable = reference Semantics.decision"
    (QCheck.pair arbitrary_small_wdpt arbitrary_db) (fun (p, db) ->
      let answers = Mapping.Set.elements (Wdpt.Semantics.eval db p) in
      let negatives =
        (* perturb each answer: bind a fresh free variable combination *)
        List.filteri (fun i _ -> i < 3)
          (List.map
             (fun h ->
               match Mapping.bindings h with
               | (x, _) :: _ -> Mapping.add x (Value.int 997) h
               | [] -> Mapping.singleton "x" (Value.int 997))
             answers)
      in
      List.for_all
        (fun h ->
          Wdpt.Eval_tractable.decision db p h = Wdpt.Semantics.decision db p h)
        (Mapping.empty :: (answers @ negatives)))

(* ---- maximality kernel ------------------------------------------------- *)

let naive_maximal hs =
  let distinct = List.sort_uniq Mapping.compare hs in
  List.filter
    (fun h ->
      not (List.exists (fun h' -> Mapping.strictly_subsumes h h') distinct))
    distinct

(* up to 60 mappings, each over a random subset of six variables, with
   values drawn from a small mixed Int / Str pool so that bindings are
   shared and many mappings are comparable *)
let arbitrary_mappings =
  let value =
    QCheck.Gen.(
      oneof
        [ map Value.int (int_range 0 2);
          map Value.str (oneofl [ "a"; "b" ]) ])
  in
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 60)
        (let* present = list_repeat 6 bool in
         let* vals = list_repeat 6 value in
         return
           (Mapping.of_list
              (List.concat
                 (List.mapi
                    (fun i (keep, v) ->
                      if keep then [ ("x" ^ string_of_int i, v) ] else [])
                    (List.combine present vals))))))
  in
  QCheck.make
    ~print:(fun hs -> Format.asprintf "%a" (Format.pp_print_list Mapping.pp) hs)
    gen

let prop_maximal_elements =
  qtest ~count:500 "maximal_elements sweep = quadratic reference"
    arbitrary_mappings (fun hs ->
      Mapping.maximal_elements hs = naive_maximal hs)

let prop_maximal_set =
  qtest ~count:500 "maximal_set = quadratic reference" arbitrary_mappings
    (fun hs ->
      Mapping.Set.equal
        (Mapping.maximal_set (Mapping.Set.of_list hs))
        (Mapping.Set.of_list (naive_maximal hs)))

let test_maximal_set_cases () =
  let max_of hs = Mapping.Set.elements (Mapping.maximal_set (Mapping.Set.of_list hs)) in
  let same name expected hs =
    Alcotest.(check (list mapping_testable)) name
      (List.sort Mapping.compare expected) (max_of hs)
  in
  same "empty set" [] [];
  same "empty mapping alone" [ Mapping.empty ] [ Mapping.empty ];
  let a = mapping [ ("x", 1) ] and b = mapping [ ("y", 2) ] in
  same "empty mapping below non-empty ones" [ a; b ] [ Mapping.empty; a; b ];
  let ab = mapping [ ("x", 1); ("y", 2) ] in
  same "duplicates collapse" [ ab ] [ a; ab; a; ab; b ];
  (* equal size, pairwise incomparable: all stay *)
  let c = mapping [ ("x", 1); ("y", 3) ] and d = mapping [ ("x", 2); ("y", 2) ] in
  same "incomparable equal-size mappings" [ ab; c; d ] [ ab; c; d ];
  (* every binding of [h] is shared by 200 mappings that bind another
     variable to something else, so the one strict subsumer sits deep in a
     long posting list *)
  let h = mapping [ ("x", 0); ("y", 0) ] in
  let noise =
    List.init 200 (fun i ->
        Mapping.of_list
          [ ("x", Value.int 0); ("y", Value.int (i + 1)); ("z", Value.int i) ]
        :: [ Mapping.of_list
               [ ("x", Value.int (i + 1)); ("y", Value.int 0); ("z", Value.int i) ] ])
    |> List.concat
  in
  let top =
    Mapping.of_list
      [ ("x", Value.int 0); ("y", Value.int 0); ("w", Value.str "top") ]
  in
  let kept = max_of ((h :: noise) @ [ top ]) in
  check_bool "subsumed through a long posting list" false
    (List.exists (Mapping.equal h) kept);
  check_int "everything else stays" (List.length noise + 1) (List.length kept)

(* ---- interned relations ------------------------------------------------ *)

let test_rel_ops () =
  let db = db_of_edges [ (1, 2); (2, 3); (3, 4) ] in
  let of_atom db a = Engine.Rel.of_atoms db [ a ] ~onto:(Atom.var_set a) in
  let r = of_atom db (e "x" "y") in
  check_int "atom relation rows" 3 (Engine.Rel.cardinal r);
  let s = of_atom db (e "y" "z") in
  let sj = Engine.Rel.semijoin r s in
  (* (3,4) has no outgoing edge beyond 4 *)
  check_int "semijoin drops dead end" 2 (Engine.Rel.cardinal sj);
  let j = Engine.Rel.join r s in
  check_int "join paths" 2 (Engine.Rel.cardinal j);
  let pr = Engine.Rel.project (String_set.of_list [ "x"; "z" ]) j in
  check_int "projection" 2 (Engine.Rel.cardinal pr);
  let ms = Engine.Rel.to_mappings db pr in
  check_bool "boundary conversion" true
    (List.exists (fun m -> Mapping.equal m (mapping [ ("x", 1); ("z", 3) ])) ms);
  (* self-join pattern E(x,x) only matches loops *)
  check_bool "self loop absent" true
    (Engine.Rel.is_empty (of_atom db (atom "E" [ v "x"; v "x" ])))

(* ---- answer paging boundaries ------------------------------------------ *)

(* the streamed page (stream_projections, first-seen order, early exit) and
   the materialized sorted page (Mapping.Set.elements sliced by the CLI's
   OPT-branch path) at their boundaries: offset at / past the answer count,
   limit 0, and page-by-page reassembly of the full answer set on both paths *)
let test_paging_boundaries () =
  let db = db_of_edges [ (1, 2); (2, 3); (3, 4); (1, 3); (2, 4) ] in
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
  let full = stream ~offset:0 ~limit:None in
  let count = List.length full in
  check_int "distinct projections" 3 count;
  (* offset exactly at the count, and past it: empty page, no error *)
  check_int "offset = count" 0 (List.length (stream ~offset:count ~limit:None));
  check_int "offset past count" 0
    (List.length (stream ~offset:(count + 7) ~limit:(Some 2)));
  (* limit 0: empty page whatever the offset *)
  check_int "limit 0" 0 (List.length (stream ~offset:0 ~limit:(Some 0)));
  check_int "limit 0 offset 1" 0 (List.length (stream ~offset:1 ~limit:(Some 0)));
  (* a middle page is exactly the slice of the full stream *)
  let page = stream ~offset:1 ~limit:(Some 2) in
  check_bool "middle page = stream slice" true
    (page = (List.filteri (fun i _ -> i >= 1 && i < 3) full));
  (* short last page: limit overshooting the tail *)
  check_int "short last page" 1
    (List.length (stream ~offset:(count - 1) ~limit:(Some 5)));
  (* page-by-page reassembly: streamed pages concatenate to the full stream,
     sorted pages concatenate to the sorted elements, and both cover the
     same answer set *)
  let streamed = stream ~offset:0 ~limit:(Some 2) @ stream ~offset:2 ~limit:(Some 2) in
  check_bool "streamed pages reassemble" true (streamed = full);
  let sorted =
    Mapping.Set.elements (Mapping.Set.of_list full)
  in
  let sorted_page off lim =
    List.filteri (fun i _ -> i >= off && i < off + lim) sorted
  in
  check_bool "sorted pages reassemble" true
    (sorted_page 0 2 @ sorted_page 2 2 = sorted);
  check_bool "both paths cover the same answers" true
    (Mapping.Set.equal (Mapping.Set.of_list streamed)
       (Mapping.Set.of_list (sorted_page 0 2 @ sorted_page 2 2)))

(* ---- deletions synced in place ------------------------------------------ *)

let envs_of db body =
  let p = Engine.compile db body ~init:Mapping.empty in
  let acc = ref [] in
  Engine.iter_envs p (fun env -> acc := Engine.mapping_of_env p env :: !acc);
  (List.rev !acc, Engine.count_envs (Engine.compile db body ~init:Mapping.empty))

(* Random add / remove / re-add streams with compiles interleaved: each
   compile syncs the cached store in place, and its answers must equal those
   of a fresh copy, whose store is built from scratch. Step kinds: 0 add an
   edge, 1 add a unary fact, 2 remove a live fact, 3 re-add a removed fact,
   4 compile and compare. *)
let prop_in_place_sync =
  let step =
    QCheck.Gen.(pair (int_range 0 4) (pair (int_range 0 5) (int_range 0 5)))
  in
  let arb =
    QCheck.make
      ~print:(fun (q, db, _) ->
        Format.asprintf "%a@.%a" Cq.Query.pp q Database.pp db)
      QCheck.Gen.(
        triple gen_cq gen_db (list_size (int_range 1 30) step))
  in
  qtest ~count:200 "in-place store sync = fresh copy" arb (fun (q, db, steps) ->
      let body = Cq.Query.body q in
      let same () =
        let envs, n = envs_of db body in
        let envs', n' = envs_of (Database.copy db) body in
        n = n'
        && n = List.length envs
        && Mapping.Set.equal (Mapping.Set.of_list envs) (Mapping.Set.of_list envs')
      in
      ignore (envs_of db body);
      let cached = Database.get_cache db in
      let removed = ref [] in
      let ok =
        List.for_all
          (fun (kind, (a, b)) ->
            match kind with
            | 0 -> Database.add db (Fact.make "E" [ Value.int a; Value.int b ]); true
            | 1 -> Database.add db (Fact.make "U" [ Value.int a ]); true
            | 2 ->
                (match Database.facts db with
                | [] -> ()
                | live ->
                    let f = List.nth live (((a * 6) + b) mod List.length live) in
                    Database.remove db f;
                    removed := f :: !removed);
                true
            | 3 ->
                (match !removed with
                | [] -> ()
                | l -> Database.add db (List.nth l ((a + b) mod List.length l)));
                true
            | _ -> same ())
          steps
      in
      ok && same ()
      && (* every window was absorbed by the one cached store *)
      Database.get_cache db == cached)

(* Removing facts and compiling inside an enumeration's callback syncs the
   store under the running enumeration: the outer run must keep reading the
   rows it started with, and yield exactly what it yields undisturbed.
   Checked mode re-audits the plan per morsel group and rejects the outer
   run instead, since its store moved underneath it. *)
let test_remove_inside_enumeration () =
  let edges = List.init 40 (fun i -> (i mod 9, (i * 7) mod 11)) in
  let body = [ e "x" "y"; e "y" "z" ] in
  let disturbed_run () =
    let db = db_of_edges edges in
    let undisturbed, _ = envs_of db body in
    let p = Engine.compile db body ~init:Mapping.empty in
    let seen = ref [] and fired = ref false in
    Engine.iter_envs p (fun env ->
        seen := Engine.mapping_of_env p env :: !seen;
        if not !fired then begin
          fired := true;
          List.iteri
            (fun i (a, b) ->
              if i mod 3 = 0 then
                Database.remove db (Fact.make "E" [ Value.int a; Value.int b ]))
            edges;
          let inner, n = envs_of db body in
          check_bool "inner run sees the removals" true
            (Mapping.Set.equal (Mapping.Set.of_list inner)
               (Mapping.Set.of_list
                  (Cq.Eval.Naive.homomorphisms db body ~init:Mapping.empty)));
          check_int "inner count" (List.length inner) n
        end);
    (undisturbed, List.rev !seen)
  in
  let saved_morsel = Engine.morsel_rows ()
  and saved_checked = Engine.checked_enabled () in
  Fun.protect
    ~finally:(fun () ->
      Engine.set_morsel_rows saved_morsel;
      Engine.set_checked saved_checked)
    (fun () ->
      (* small morsels: the callback fires before later morsels are read *)
      Engine.set_morsel_rows 2;
      Engine.set_checked false;
      let undisturbed, seen = disturbed_run () in
      check_bool "enumeration spans several morsels" true
        (List.length undisturbed > 8);
      check_bool "outer enumeration yields exactly the undisturbed run" true
        (List.equal Mapping.equal undisturbed seen);
      Engine.set_checked true;
      check_bool "checked mode rejects the moved store" true
        (match disturbed_run () with
        | _ -> false
        | exception Engine.Check_failure _ -> true))

(* ---- counting ----------------------------------------------------------- *)

let chain_db n =
  db_of_edges (List.init n (fun i -> (i, i + 1)) @ [ (0, 0) ])

let chain_atoms = [ e "x" "y"; e "y" "z" ]

let plan_envs plan =
  let out = ref [] in
  Engine.iter_envs plan (fun env -> out := Array.copy env :: !out);
  List.rev !out

(* an enumeration callback that re-enters the engine runs its counts to
   completion *)
let test_count_reentrancy () =
  let db = chain_db 20 in
  let plan = Engine.compile db [ e "x" "y" ] ~init:Mapping.empty in
  let expected = List.length (plan_envs plan) in
  let nested_ok = ref true in
  Engine.iter_envs plan (fun _ ->
      if Engine.count_envs plan <> expected then nested_ok := false);
  check_bool "nested count inside a callback" true !nested_ok

(* checked mode rejects a count over a detached plan; the engine stays
   usable, so the next count over a fresh plan runs *)
let test_checked_count_detached () =
  let db = chain_db 40 in
  let detached = Engine.compile db chain_atoms ~init:Mapping.empty in
  Database.add db (Fact.make "E" [ Value.int 90; Value.int 91 ]);
  with_checked true (fun () ->
      (match Engine.count_envs detached with
      | _ -> Alcotest.fail "detached plan: no Check_failure"
      | exception Engine.Check_failure _ -> ());
      let fresh = Engine.compile db chain_atoms ~init:Mapping.empty in
      check_int "next count runs" (List.length (plan_envs fresh))
        (Engine.count_envs fresh))

(* a count over at least 128 top-level rows builds the dense probe tables;
   with and without the checked-mode replay it equals the enumeration *)
let test_count_dense () =
  let db = chain_db 600 in
  let plan = Engine.compile db chain_atoms ~init:Mapping.empty in
  let expected = with_checked false (fun () -> List.length (plan_envs plan)) in
  List.iter
    (fun checked ->
      with_checked checked (fun () ->
          Engine.reset_batch_stats ();
          let name = Printf.sprintf "checked %b" checked in
          check_int (name ^ ": count") expected (Engine.count_envs plan);
          check_bool (name ^ ": dense tables built") true
            ((Engine.batch_stats ()).Engine.bm_dense_words > 0)))
    [ false; true ]

let prop_order_deterministic =
  qtest ~count:150 "enumeration order is identical across two runs"
    (QCheck.pair arbitrary_cq arbitrary_db) (fun (q, db) ->
      let plan = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
      plan_envs plan = plan_envs plan)

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

(* ---- prepared plans ----------------------------------------------------- *)

module I = Engine.Inspect

let bound_answers p =
  let out = ref [] in
  Engine.iter_envs p (fun env -> out := Engine.mapping_of_env p env :: !out);
  List.rev !out

let same_prep a b =
  match (I.prepared a, I.prepared b) with
  | Some x, Some y -> x == y
  | _ -> false

(* what every bound plan must satisfy: the answers of Naive under the same
   binding, the enumeration order of the five passes run on its base, and a
   re-derived trail that verifies and ends at the plan itself *)
let bind_ok db body bound pr values =
  let p = Engine.bind pr values in
  let init = Mapping.of_list (List.combine bound values) in
  let got = bound_answers p in
  Mapping.Set.equal (Mapping.Set.of_list got)
    (Mapping.Set.of_list (Cq.Eval.Naive.homomorphisms db body ~init))
  && List.equal Mapping.equal got
       (bound_answers (Engine.optimize (I.base p)))
  && (Analysis.Equiv.verify_trail p).Analysis.Equiv.r_verified

(* one prepared plan per random bound subset (a variable no atom mentions
   included), bound to restrictions of answers and to values from 0..8,
   of which 6..8 occur in no store gen_db builds *)
let prop_bind_agrees =
  qtest ~count:300 "bind of one prepared plan = naive evaluation under init"
    (QCheck.triple arbitrary_cq arbitrary_db QCheck.small_nat)
    (fun (q, db, seed) ->
      let st = Random.State.make [| seed |] in
      let body = Cq.Query.body q in
      let vars = String_set.elements (Cq.Query.vars q) @ [ "unused" ] in
      let bound = List.filter (fun _ -> Random.State.bool st) vars in
      let pr = Engine.prepare db body ~bound in
      let of_answer h =
        List.map
          (fun x -> Option.value ~default:(Value.int 0) (Mapping.find x h))
          bound
      in
      let answers =
        List.filteri (fun i _ -> i < 3)
          (Cq.Eval.Naive.homomorphisms db body ~init:Mapping.empty)
      in
      let drawn () =
        List.map (fun _ -> Value.int (Random.State.int st 9)) bound
      in
      List.for_all (bind_ok db body bound pr)
        (List.map of_answer answers @ List.init 3 (fun _ -> drawn ())))

let test_bind_edge_cases () =
  let db = db_of_edges [ (1, 2); (2, 3); (3, 4) ] in
  Database.add db (Fact.make "U" [ Value.int 1 ]);
  let count p = List.length (bound_answers p) in
  let atoms_of p = Array.length (I.plan p).I.i_atoms in
  let check_case name body bound values ~atoms ~answers =
    let pr = Engine.prepare db body ~bound in
    let p = Engine.bind pr (List.map Value.int values) in
    check_int (name ^ ": atoms left") atoms (atoms_of p);
    check_int (name ^ ": answers") answers (count p);
    check_bool (name ^ ": agrees with naive") true
      (bind_ok db body bound pr (List.map Value.int values))
  in
  (* a binding that makes U(?x) ground: matched it is dropped, unmatched it
     stays and kills the enumeration *)
  let ux = [ e "x" "y"; atom "U" [ v "x" ] ] in
  check_case "ground and matched" ux [ "x" ] [ 1 ] ~atoms:1 ~answers:1;
  check_case "ground and unmatched" ux [ "x" ] [ 2 ] ~atoms:2 ~answers:0;
  (* two variables bound to one value: E(1,?y) twice collapses to one *)
  let xz = [ e "x" "y"; e "z" "y" ] in
  check_case "collision" xz [ "x"; "z" ] [ 1; 1 ] ~atoms:1 ~answers:1;
  check_case "no collision" xz [ "x"; "z" ] [ 1; 2 ] ~atoms:2 ~answers:0;
  (* a value the store never interned: infeasible, unoptimized, empty *)
  let pr = Engine.prepare db ux ~bound:[ "x" ] in
  let p = Engine.bind pr [ Value.int 99 ] in
  check_bool "missing value: infeasible" false (I.plan p).I.i_feasible;
  check_int "missing value: no answers" 0 (count p);
  check_bool "missing value: no prepared plan behind it" true
    (I.prepared p = None);
  (* a bound variable no atom mentions passes through to every answer,
     even with a value the store never interned *)
  let pr = Engine.prepare db [ e "x" "y" ] ~bound:[ "w" ] in
  let p = Engine.bind pr [ Value.str "elsewhere" ] in
  check_int "unmentioned variable: all edges" 3 (count p);
  check_bool "unmentioned variable: bound in every answer" true
    (List.for_all
       (fun h -> Mapping.find "w" h = Some (Value.str "elsewhere"))
       (bound_answers p));
  Alcotest.check_raises "too many values"
    (Invalid_argument "Engine.bind: too many values") (fun () ->
      ignore (Engine.bind pr [ Value.int 1; Value.int 2 ]))

let test_binds_share_pipeline () =
  let db = db_of_edges [ (1, 2); (2, 3); (3, 4) ] in
  let body = [ e "x" "y"; e "y" "z" ] in
  let pr = Engine.prepare db body ~bound:[ "x" ] in
  let p1 = Engine.bind pr [ Value.int 1 ] in
  let p2 = Engine.bind pr [ Value.int 2 ] in
  check_bool "two binds, one prepared plan" true (same_prep p1 p2);
  check_bool "prepare is served from the cache" true
    (Engine.prepare db body ~bound:[ "x" ] == pr);
  let p3 = Engine.compile db body ~init:(mapping [ ("x", 3) ]) in
  check_bool "compile binds the cached prepared plan" true (same_prep p1 p3);
  (* other bound variables, another pipeline run *)
  let p4 = Engine.compile db body ~init:(mapping [ ("y", 2) ]) in
  check_bool "another bound set, another prepared plan" false (same_prep p1 p4);
  (* the binds keep their own feedback counters (checked runs commit none) *)
  with_checked false (fun () -> ignore (Engine.count_envs p1));
  check_int "p1 ran once" 1 (I.feedback p1).I.f_runs;
  check_int "p2 never ran" 0 (I.feedback p2).I.f_runs

(* after a write, prepare builds afresh, and a bind of the old prepared plan
   is served the new one *)
let test_prepare_not_stale () =
  let db = db_of_edges [ (1, 2); (2, 3); (3, 4) ] in
  let body = [ e "x" "y"; e "y" "z" ] in
  let clean name p =
    Alcotest.(check (list string)) (name ^ ": audits clean") []
      (List.map (fun d -> D.code_id d.D.code) (Analysis.Plan_audit.audit p))
  in
  let pr0 = Engine.prepare db body ~bound:[ "x" ] in
  List.iteri
    (fun i write ->
      let name = Printf.sprintf "write %d" i in
      let before = Engine.prepare db body ~bound:[ "x" ] in
      write ();
      let after = Engine.prepare db body ~bound:[ "x" ] in
      check_bool (name ^ ": prepared afresh") false (before == after);
      let p = Engine.bind pr0 [ Value.int 1 ] in
      check_bool (name ^ ": old handle re-prepared") true
        (match I.prepared p with Some x -> x == after | None -> false);
      clean name p;
      check_bool (name ^ ": agrees with naive") true
        (bind_ok db body [ "x" ] pr0 [ Value.int 1 ]))
    [ (fun () -> Database.add db (Fact.make "E" [ Value.int 2; Value.int 5 ]));
      (fun () ->
        Database.remove db (Fact.make "E" [ Value.int 1; Value.int 2 ]));
      (fun () -> Database.add db (Fact.make "E" [ Value.int 1; Value.int 2 ])) ]

let suite =
  [ Alcotest.test_case "interner" `Quick test_interner;
    Alcotest.test_case "paging boundaries" `Quick test_paging_boundaries;
    Alcotest.test_case "tuples" `Quick test_tuple;
    Alcotest.test_case "counted indexes" `Quick test_counted_index;
    Alcotest.test_case "compiled cache invalidation" `Quick test_cache_invalidation;
    Alcotest.test_case "infeasible plans" `Quick test_infeasible_plans;
    Alcotest.test_case "interned relations" `Quick test_rel_ops;
    prop_answers_agree;
    prop_homomorphisms_agree;
    prop_satisfiable_agree_under_init;
    prop_first_homomorphism_agree;
    prop_first_match_is_first_enumerated;
    prop_eval_tractable_agrees;
    Alcotest.test_case "maximal_set edge cases" `Quick test_maximal_set_cases;
    prop_maximal_elements;
    prop_maximal_set;
    prop_in_place_sync;
    Alcotest.test_case "removal synced mid-enumeration" `Quick
      test_remove_inside_enumeration;
    Alcotest.test_case "count re-entered from a callback" `Quick
      test_count_reentrancy;
    Alcotest.test_case "checked count rejects a detached plan" `Quick
      test_checked_count_detached;
    Alcotest.test_case "count = enumeration over dense tables" `Quick
      test_count_dense;
    prop_order_deterministic;
    Alcotest.test_case "incremental extension" `Quick test_incremental_extension;
    Alcotest.test_case "facts_since edge cases" `Quick test_facts_since_edges;
    Alcotest.test_case "E006 extended vs detached" `Quick test_e006_extended;
    prop_incremental_equals_rebuild;
    prop_bind_agrees;
    Alcotest.test_case "bind edge cases" `Quick test_bind_edge_cases;
    Alcotest.test_case "binds share one pass run" `Quick test_binds_share_pipeline;
    Alcotest.test_case "prepare is not served stale" `Quick test_prepare_not_stale ]
