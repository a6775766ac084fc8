(* Differential fuzzer: cross-checks every implementation of the WDPT
   semantics (procedural, reference, bottom-up algebraic) and the tractable
   decision procedures (Theorems 6-9) against brute force on random
   instances, printing the offending seed on any disagreement.

   Usage: wdpt_fuzz [SECONDS] [SEED]
          wdpt_fuzz --opt-diff [COUNT] [SEED]
          wdpt_fuzz --batch-audit-diff [COUNT] [SEED]
          wdpt_fuzz --drift-diff [COUNT] [SEED]
          wdpt_fuzz --delta-diff [COUNT] [SEED]
   SECONDS defaults to 10; SEED pins the starting seed (the CI smoke run
   pins it so failures reproduce), defaulting to the current time.
   An unknown --MODE flag is an error: usage on stderr, exit 2.

   --opt-diff COUNT runs the optimizer differential instead: on COUNT
   (default 500) random instances it evaluates once with the engine's
   optimization pass pipeline disabled and once with it enabled — the answer
   sets must be identical at both the WDPT and the CQ level — and
   translation-validates every optimized plan's certificate trail
   (Analysis.Equiv, zero E007-E010 expected). Count-based rather than
   time-based so a pinned seed always covers the same instances.

   --drift-diff COUNT runs the adaptive re-planning differential (default
   300): on COUNT random instances it evaluates with adaptation off and
   then twice with it on (the first adaptive pass collects counters and may
   install a calibration, the second serves the re-planned plan) — the
   answer sets must be identical in all passes at both semantics levels;
   any cached swap certificate must independently re-verify through
   Analysis.Feedback (zero E025); the genuine feedback view of an executed
   plan must audit clean (zero E022-E026); and a seeded drift injection
   into a corrupted copy of the view must be caught as E022.

   --delta-diff COUNT runs the incremental-maintenance differential
   (default 300): on COUNT random instances it registers the query as a
   standing view (Wdpt.Standing) and replays 6 random batches of
   insertions and deletions against the database, after each refresh
   cross-checking the maintained answer set and subsumption frontier
   against full re-evaluation at both semantics levels, replaying the
   emitted change events through the E030 check, auditing the view
   invariants (E028/E029) and the dirty-range derivation (E027) — all
   expected clean. The full re-evaluation runs on Database.copy of the
   database, so its compiled store is built from scratch while the view's
   is synced in place. Deletions make up a quarter of the operations by
   default; WDPT_DELTA_FUZZ_DELETES=1 doubles that to half, so the
   tombstone/compaction paths see delete-heavy streams. From the second
   batch on, one insertion in four re-adds a fact an earlier batch removed.

   --batch-audit-diff COUNT runs the batch-pipeline differential (default
   300): on COUNT random instances, with randomized morsel size and checked
   mode, the genuine batched layout must audit clean (zero E017-E020), the
   answer sets must equal the naive oracles at both semantics levels
   (Cq.Eval.Naive, engine-free, for the full-tree CQ;
   Wdpt.Semantics.eval_naive — every subtree's homomorphisms, then the
   subsumption-maximal ones — for the WDPT, within the brute-force budget),
   and after a count plus a full enumeration of the plan every measured
   batch_stats high-water mark must stay within the certified
   Analysis.Resource envelope (zero E021). *)

open Relational

(* Run [f] under the given engine settings and restore the ambient ones
   afterwards, whatever happens: a run under WDPT_ENGINE_MORSEL or
   _CHECKED keeps its setting from one instance to the next. *)
let with_engine ?morsel ?checked f =
  let g0 = Engine.morsel_rows () and c0 = Engine.checked_enabled () in
  Option.iter Engine.set_morsel_rows morsel;
  Option.iter Engine.set_checked checked;
  Fun.protect
    ~finally:(fun () ->
      Engine.set_morsel_rows g0;
      Engine.set_checked c0)
    f

let random_instance seed =
  let st = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let p =
    Workload.Gen_wdpt.random ~seed ~depth:(pick [ 1; 2 ]) ~branching:(pick [ 1; 2 ])
      ~vars_per_node:(pick [ 1; 2; 3 ])
      ~interface:(pick [ 1; 2 ])
      ~free_per_node:(pick [ 0; 1 ])
      ~style:(pick [ Workload.Gen_wdpt.Chain; Workload.Gen_wdpt.Clique 3 ])
      ~rel:"E"
  in
  let db =
    Workload.Gen_db.random_graph_db ~seed:(seed + 1)
      ~nodes:(2 + Random.State.int st 5)
      ~edges:(1 + Random.State.int st 10)
  in
  (p, db)

(* Cap how many probe mappings we feed the decision procedures: every probe
   runs three of them, so an instance with thousands of answers would turn
   into minutes of probing.  A bounded sample keeps each instance cheap
   while still exercising answers, strict restrictions and the empty
   mapping. *)
let max_probes = 48

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let probes reference =
  let ans = Mapping.Set.elements reference in
  let restrictions =
    List.concat_map
      (fun h ->
        List.map
          (fun x -> Mapping.restrict (String_set.remove x (Mapping.domain h)) h)
          (String_set.elements (Mapping.domain h)))
      ans
  in
  Mapping.empty :: take max_probes (ans @ restrictions)

(* The reference oracle enumerates homomorphisms for every subtree of p and
   then takes pairwise maxima, so an unlucky draw costs up to
   (nsubtrees * |adom|^|vars|)^2 and can run for minutes.  Such instances
   are useless to the fuzzer (nothing can be cross-checked against an
   oracle that never returns) and a pinned-seed smoke run must be bounded
   per instance, not just between instances — so skip them. *)
let brute_force_feasible p db =
  let nvars = String_set.cardinal (Wdpt.Pattern_tree.vars p) in
  let adom = max 2 (Database.adom_size db) in
  let nsubtrees =
    Seq.fold_left (fun k _ -> k + 1) 0 (Wdpt.Pattern_tree.subtrees p)
  in
  log (float_of_int nsubtrees)
  +. (float_of_int nvars *. log (float_of_int adom))
  <= log 3e4

let check_instance p db =
  let failures = ref [] in
  let fail name = failures := name :: !failures in
  let reference = Wdpt.Semantics.eval_naive db p in
  if not (Mapping.Set.equal (Wdpt.Semantics.eval db p) reference) then
    fail "procedural-vs-reference";
  if not (Mapping.Set.equal (Wdpt.Algebra_eval.eval db p) reference) then
    fail "algebraic-vs-reference";
  (* brute-force strict-subsumption filter, independent of the indexed
     Mapping.maximal_set kernel that eval_max runs *)
  let max_ref =
    Mapping.Set.filter
      (fun h ->
        not (Mapping.Set.exists (Mapping.strictly_subsumes h) reference))
      reference
  in
  if not (Mapping.Set.equal (Wdpt.Semantics.eval_max db p) max_ref) then
    fail "eval-max-vs-reference";
  List.iter
    (fun h ->
      if Wdpt.Eval_tractable.decision db p h <> Mapping.Set.mem h reference then
        fail "eval-tractable";
      let brute_partial =
        Mapping.Set.exists (Mapping.subsumes h) reference
      in
      if Wdpt.Partial_eval.decision db p h <> brute_partial then fail "partial-eval";
      if Wdpt.Max_eval.decision db p h <> Mapping.Set.mem h max_ref then
        fail "max-eval")
    (probes reference);
  !failures

(* ---- optimizer differential --------------------------------------------- *)

(* One instance of the --opt-diff mode: same answers with the pass pipeline
   off and on (at both semantics levels), and a clean certificate trail. *)
let check_opt_diff p db =
  let failures = ref [] in
  let fail name = failures := name :: !failures in
  let with_opt b f =
    Engine.set_optimize b;
    Fun.protect ~finally:(fun () -> Engine.set_optimize true) f
  in
  let plain = with_opt false (fun () -> Wdpt.Semantics.eval db p) in
  let opt = with_opt true (fun () -> Wdpt.Semantics.eval db p) in
  if not (Mapping.Set.equal plain opt) then fail "wdpt-eval-opt-vs-unopt";
  let q = Wdpt.Pattern_tree.q_full p in
  let cq_plain = with_opt false (fun () -> Cq.Eval.answers db q) in
  let cq_opt = with_opt true (fun () -> Cq.Eval.answers db q) in
  if not (Mapping.Set.equal cq_plain cq_opt) then fail "cq-eval-opt-vs-unopt";
  let plan = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
  let report = Analysis.Equiv.verify_trail plan in
  if not report.Analysis.Equiv.r_verified then begin
    fail "certificate-trail";
    List.iter
      (fun d ->
        Printf.printf "    %s\n%!"
          (Analysis.Diagnostic.code_id d.Analysis.Diagnostic.code))
      (Analysis.Equiv.diagnostics report)
  end;
  !failures

(* The differential does not run the quadratic brute-force oracle, only the
   production evaluators (one enumeration per subtree), so it can afford a
   much larger per-instance budget than brute_force_feasible — but it still
   needs one: the evaluators are worst-case exponential in the variable
   count, and an unlucky draw otherwise eats gigabytes. *)
let opt_diff_feasible p db =
  let nvars = String_set.cardinal (Wdpt.Pattern_tree.vars p) in
  let adom = max 2 (Database.adom_size db) in
  float_of_int nvars *. log (float_of_int adom) <= log 1e6

(* ---- incremental-maintenance differential -------------------------------- *)

(* One instance of the --delta-diff mode; see the header comment. The
   database is mutated in place (each instance draws a fresh one), deletions
   target live facts so they actually change the state. *)
let delta_fuzz_deletes =
  match Sys.getenv_opt "WDPT_DELTA_FUZZ_DELETES" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

(* Each instance re-evaluates from scratch 6 times (once per batch, as the
   cross-check oracle) and runs the O(view²) invariant audit on answer sets
   that only grow as batches insert fresh edges — so the per-instance budget
   must stay near the brute-force one, not the evaluator-only one. *)
let delta_diff_feasible p db =
  let nvars = String_set.cardinal (Wdpt.Pattern_tree.vars p) in
  (* batches can add up to 24 fresh edges, growing the active domain *)
  let adom = max 2 (Database.adom_size db) + 6 in
  float_of_int nvars *. log (float_of_int adom) <= log 3e4

let check_delta_diff st p db =
  let module D = Analysis.Diagnostic in
  let failures = ref [] in
  let fail name = failures := name :: !failures in
  let codes ds = String.concat "+" (List.map (fun d -> D.code_id d.D.code) ds) in
  let all_atoms =
    List.concat_map (Wdpt.Pattern_tree.atoms p)
      (List.init (Wdpt.Pattern_tree.node_count p) Fun.id)
  in
  let standing = Wdpt.Standing.register db p in
  let nodes = max 4 (Database.adom_size db) in
  (* delete probability: 1/4 by default, 1/2 under WDPT_DELTA_FUZZ_DELETES *)
  let del_weight = if delta_fuzz_deletes then 2 else 1 in
  (* facts removed by earlier batches: from the second batch on, one
     insertion in four re-adds one of them instead of a fresh edge, so the
     compiled store appends a fact it compacted away in an earlier sync *)
  let removed = ref [] and removed_now = ref [] in
  for batch = 1 to 6 do
    let tag s = Printf.sprintf "%s-batch-%d" s batch in
    let before_eval = Wdpt.Standing.answers standing in
    let before_max = Wdpt.Standing.maximal_answers standing in
    let v0 = Wdpt.Standing.version standing in
    removed := !removed_now @ !removed;
    removed_now := [];
    for _op = 1 to 1 + Random.State.int st 4 do
      if Random.State.int st 4 < del_weight then (
        match Database.facts db with
        | [] -> ()
        | live ->
            let f = List.nth live (Random.State.int st (List.length live)) in
            Database.remove db f;
            removed_now := f :: !removed_now)
      else
        match !removed with
        | _ :: _ as l when Random.State.int st 4 = 0 ->
            Database.add db (List.nth l (Random.State.int st (List.length l)))
        | _ ->
            Database.add db
              (Fact.make "E"
                 [ Value.int (Random.State.int st nodes);
                   Value.int (Random.State.int st nodes) ])
    done;
    let b = Engine.Delta.batch db ~since:v0 in
    (match
       Analysis.Delta_audit.audit_ranges all_atoms b
         (Engine.Delta.dirty_ranges all_atoms b)
     with
    | [] -> ()
    | ds -> fail (tag ("ranges-" ^ codes ds)));
    let events = Wdpt.Standing.refresh standing in
    (* the oracle evaluates on a copy, whose compiled store is built from
       scratch: a defect of the in-place store cannot reach both sides *)
    let fresh = Database.copy db in
    let after_eval = Wdpt.Semantics.eval fresh p in
    let after_max = Wdpt.Semantics.eval_max fresh p in
    if not (Mapping.Set.equal (Wdpt.Standing.answers standing) after_eval)
    then fail (tag "eval-vs-full");
    if
      not
        (Mapping.Set.equal (Wdpt.Standing.maximal_answers standing) after_max)
    then fail (tag "max-vs-full");
    (match Analysis.Delta_audit.audit standing with
    | [] -> ()
    | ds -> fail (tag ("view-" ^ codes ds)));
    match
      Analysis.Delta_audit.check_events ~before_eval ~before_max ~after_eval
        ~after_max events
    with
    | [] -> ()
    | ds -> fail (tag ("events-" ^ codes ds))
  done;
  !failures

let delta_diff_main count seed0 =
  let bad = ref 0 and checked = ref 0 and skipped = ref 0 in
  let seed = ref seed0 in
  while !checked < count do
    incr seed;
    let p, db = random_instance !seed in
    if not (delta_diff_feasible p db) then incr skipped
    else begin
      incr checked;
      let st = Random.State.make [| !seed; 0xde17a |] in
      match check_delta_diff st p db with
      | [] -> ()
      | failures ->
          incr bad;
          Printf.printf "seed %d FAILED: %s\n%!" !seed
            (String.concat ", " failures)
    end
  done;
  Printf.printf
    "delta-diff: %d instance(s) from seed %d (%d oversized skipped, deletes \
     %s): %d failure(s)\n"
    count seed0 !skipped
    (if delta_fuzz_deletes then "1/2" else "1/4")
    !bad;
  exit (if !bad = 0 then 0 else 1)

(* ---- batch-audit differential ------------------------------------------- *)

(* One instance of the --batch-audit-diff mode: the genuine batched layout
   audits clean (E017-E020), after running the plan (one count and one full
   enumeration, which crosses the per-group replay when the random draw
   arms checked mode) every measured high-water mark stays within the
   certified resource envelope (zero E021), and the answers at both
   semantics levels equal the naive oracles, computed once under the
   default configuration. The quadratic brute-force WDPT oracle is kept to
   the budget the time-based fuzzer gives it; beyond that the WDPT answers
   are compared against the procedural evaluator under the default
   configuration. The morsel size is randomized so group boundaries land
   inside small draws. *)
let check_batch_audit_diff st p db =
  let failures = ref [] in
  let fail name = failures := name :: !failures in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let morsel = pick [ 1; 2; 7; 1024 ] in
  let checked = pick [ false; true ] in
  let q = Wdpt.Pattern_tree.q_full p in
  let atoms = Cq.Query.body q in
  let naive_cq = Cq.Eval.Naive.answers db q in
  let ref_wdpt =
    if brute_force_feasible p db then Wdpt.Semantics.eval_naive db p
    else Wdpt.Semantics.eval db p
  in
  let tag s =
    Printf.sprintf "%s@morsel-%d%s" s morsel (if checked then "-checked" else "")
  in
  with_engine ~checked ~morsel (fun () ->
      let plan = Engine.compile db atoms ~init:Mapping.empty in
      (match Analysis.Batch_audit.audit plan with
      | [] -> ()
      | ds ->
          fail
            (tag
               ("audit-"
               ^ String.concat "+"
                   (List.map
                      (fun d ->
                        Analysis.Diagnostic.code_id d.Analysis.Diagnostic.code)
                      ds))));
      let resource = Analysis.Resource.of_plan plan in
      Engine.reset_batch_stats ();
      ignore (Engine.count_envs plan);
      Engine.iter_envs plan (fun _ -> ());
      let stats = Engine.batch_stats () in
      (match Analysis.Batch_audit.check_envelope resource stats with
      | [] -> ()
      | ds ->
          fail
            (tag
               ("envelope-"
               ^ String.concat "+"
                   (List.map
                      (fun d ->
                        match d.Analysis.Diagnostic.witness with
                        | Some
                            (Analysis.Diagnostic.Envelope
                               { component; certified; measured }) ->
                            Printf.sprintf "%s-%d>%d" component measured
                              certified
                        | _ -> "E021")
                      ds))));
      if not (Mapping.Set.equal (Cq.Eval.answers db q) naive_cq) then
        fail (tag "cq-eval-vs-naive");
      if not (Mapping.Set.equal (Wdpt.Semantics.eval db p) ref_wdpt) then
        fail (tag "wdpt-eval-vs-reference"));
  !failures

let batch_audit_diff_main count seed0 =
  let bad = ref 0 and checked = ref 0 and skipped = ref 0 in
  let brute = ref 0 in
  let seed = ref seed0 in
  while !checked < count do
    incr seed;
    let p, db = random_instance !seed in
    if not (opt_diff_feasible p db) then incr skipped
    else begin
      incr checked;
      if brute_force_feasible p db then incr brute;
      let st = Random.State.make [| !seed; 0xa0d1 |] in
      match check_batch_audit_diff st p db with
      | [] -> ()
      | failures ->
          incr bad;
          Printf.printf "seed %d FAILED: %s\n%!" !seed
            (String.concat ", " failures)
    end
  done;
  Printf.printf
    "batch-audit-diff: %d instance(s) from seed %d (%d oversized skipped, %d \
     against the brute-force WDPT oracle): %d failure(s)\n"
    count seed0 !skipped !brute !bad;
  exit (if !bad = 0 then 0 else 1)

(* ---- adaptive re-planning differential ----------------------------------- *)

(* One instance of the --drift-diff mode; see the header comment. *)
let check_drift_diff p db =
  let module I = Engine.Inspect in
  let module D = Analysis.Diagnostic in
  let failures = ref [] in
  let fail name = failures := name :: !failures in
  let codes ds = String.concat "+" (List.map (fun d -> D.code_id d.D.code) ds) in
  let with_adapt b f =
    let prev = Engine.adapt_enabled () in
    Engine.set_adapt b;
    Fun.protect ~finally:(fun () -> Engine.set_adapt prev) f
  in
  let q = Wdpt.Pattern_tree.q_full p in
  let atoms = Cq.Query.body q in
  let static_wdpt = with_adapt false (fun () -> Wdpt.Semantics.eval db p) in
  let static_cq = with_adapt false (fun () -> Cq.Eval.answers db q) in
  with_adapt true (fun () ->
      (* pass 1 collects counters (and may install a calibration); pass 2
         serves the re-planned plan — answers must never change *)
      for pass = 1 to 2 do
        if not (Mapping.Set.equal (Wdpt.Semantics.eval db p) static_wdpt) then
          fail (Printf.sprintf "wdpt-eval-adaptive-pass-%d" pass);
        if not (Mapping.Set.equal (Cq.Eval.answers db q) static_cq) then
          fail (Printf.sprintf "cq-eval-adaptive-pass-%d" pass)
      done);
  let adapted =
    with_adapt true (fun () -> Engine.compile db atoms ~init:Mapping.empty)
  in
  (* any calibration the adaptive passes installed must carry a certificate
     that re-verifies from the uncalibrated before-plan *)
  (match Engine.cached_swap adapted with
  | None -> ()
  | Some cert ->
      let before =
        with_adapt false (fun () -> Engine.compile db atoms ~init:Mapping.empty)
      in
      (match
         Analysis.Feedback.verify_swap ~before:(I.plan before)
           ~after:(I.plan adapted) cert
       with
      | [] -> ()
      | ds -> fail ("swap-cert-" ^ codes ds)));
  (* a genuine feedback view audits clean... *)
  ignore (with_adapt false (fun () -> Engine.count_envs adapted));
  (match Analysis.Feedback.audit adapted with
  | [] -> ()
  | ds -> fail ("genuine-view-" ^ codes ds));
  (* ...and a seeded drift injection into a corrupted copy is caught *)
  let v = I.feedback adapted in
  if Array.length v.I.f_atoms > 0 then begin
    let fa = v.I.f_atoms.(0) in
    let est = fa.I.f_score +. fa.I.f_calib in
    let surv =
      int_of_float (Float.min 1e8 (10. ** (est +. v.I.f_threshold +. 2.))) + 10
    in
    let atoms' = Array.copy v.I.f_atoms in
    atoms'.(0) <-
      { fa with
        I.f_contexts = 1;
        f_probed = max surv v.I.f_min_probed;
        f_survived = surv };
    let corrupt = { v with I.f_atoms = atoms'; f_runs = max 1 v.I.f_runs } in
    let ds = Analysis.Feedback.audit_view corrupt in
    if not (List.exists (fun d -> d.D.code = D.Drift) ds) then
      fail "drift-injection-not-caught"
  end;
  !failures

let drift_diff_main count seed0 =
  let bad = ref 0 and checked = ref 0 and skipped = ref 0 in
  let seed = ref seed0 in
  while !checked < count do
    incr seed;
    let p, db = random_instance !seed in
    if not (opt_diff_feasible p db) then incr skipped
    else begin
      incr checked;
      match check_drift_diff p db with
      | [] -> ()
      | failures ->
          incr bad;
          Printf.printf "seed %d FAILED: %s\n%!" !seed
            (String.concat ", " failures)
    end
  done;
  Printf.printf
    "drift-diff: %d instance(s) from seed %d (%d oversized skipped): %d \
     failure(s)\n"
    count seed0 !skipped !bad;
  (* machine-readable summary, same schema version as the analysis JSON *)
  Printf.printf
    "{\"schema\": %d, \"mode\": \"drift-diff\", \"instances\": %d, \
     \"seed\": %d, \"skipped\": %d, \"failures\": %d}\n"
    Analysis.Json.schema_version count seed0 !skipped !bad;
  exit (if !bad = 0 then 0 else 1)

let opt_diff_main count seed0 =
  let bad = ref 0 and checked = ref 0 and skipped = ref 0 in
  let seed = ref seed0 in
  (* skip oversized draws but keep advancing the seed until COUNT instances
     have actually been checked, so the pinned CI run always covers the full
     count *)
  while !checked < count do
    incr seed;
    let p, db = random_instance !seed in
    if not (opt_diff_feasible p db) then incr skipped
    else begin
      incr checked;
      match check_opt_diff p db with
      | [] -> ()
      | failures ->
          incr bad;
          Printf.printf "seed %d FAILED: %s\n%!" !seed
            (String.concat ", " failures)
    end
  done;
  Printf.printf
    "opt-diff: %d instance(s) from seed %d (%d oversized skipped): %d failure(s)\n"
    count seed0 !skipped !bad;
  exit (if !bad = 0 then 0 else 1)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--opt-diff" then begin
    let count =
      if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 500
    in
    let seed0 =
      if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 42
    in
    opt_diff_main count seed0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--delta-diff" then begin
    let count =
      if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 300
    in
    let seed0 =
      if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 42
    in
    delta_diff_main count seed0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--batch-audit-diff" then begin
    let count =
      if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 300
    in
    let seed0 =
      if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 42
    in
    batch_audit_diff_main count seed0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--drift-diff" then begin
    let count =
      if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 300
    in
    let seed0 =
      if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 42
    in
    drift_diff_main count seed0
  end;
  (* any other --flag is a mode we do not have: usage, exit 2 (a typo'd
     mode silently falling through to the time-based fuzzer would report
     green without running the intended differential) *)
  if
    Array.length Sys.argv > 1
    && String.length Sys.argv.(1) >= 2
    && String.sub Sys.argv.(1) 0 2 = "--"
  then begin
    Printf.eprintf
      "wdpt_fuzz: unknown mode %s\n\
       usage: wdpt_fuzz [SECONDS] [SEED]\n\
      \       wdpt_fuzz --opt-diff [COUNT] [SEED]\n\
      \       wdpt_fuzz --batch-audit-diff [COUNT] [SEED]\n\
      \       wdpt_fuzz --drift-diff [COUNT] [SEED]\n\
      \       wdpt_fuzz --delta-diff [COUNT] [SEED]\n"
      Sys.argv.(1);
    exit 2
  end;
  let seconds =
    if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 10.0
  in
  let t0 = Unix.gettimeofday () in
  let n = ref 0 and bad = ref 0 and skipped = ref 0 in
  let seed =
    ref
      (if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2)
       else int_of_float (Unix.time ()) land 0xFFFFFF)
  in
  while Unix.gettimeofday () -. t0 < seconds do
    incr seed;
    let p, db = random_instance !seed in
    if not (brute_force_feasible p db) then incr skipped
    else begin
      incr n;
      match check_instance p db with
      | [] -> ()
      | failures ->
          incr bad;
          Printf.printf "seed %d FAILED: %s\n%!" !seed
            (String.concat ", " failures)
    end
  done;
  Printf.printf "fuzzed %d instances in %.1fs (%d oversized skipped): %d failure(s)\n"
    !n seconds !skipped !bad;
  exit (if !bad = 0 then 0 else 1)
