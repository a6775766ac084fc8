(* Differential fuzzer: one seeded harness that cross-checks every execution
   path of the WDPT semantics against independent oracles on random
   instances, under an engine configuration drawn per instance, and prints
   the offending seed on any disagreement.

   Usage: wdpt_fuzz [COUNT] [SEED]
   Checks COUNT instances (default 1000) drawn from seeds SEED, SEED+1, ...
   (SEED defaults to the clock); draws over the engine budget are skipped
   and not counted. A failure prints "seed N FAILED" with its configuration
   and tags; `wdpt_fuzz 1 N` replays exactly that instance. A COUNT below 1,
   a non-integer, an extra argument or any flag: usage on stderr, exit 2.
   Exit 1 on any failure.

   Per instance:
   1. draw (p, D), accept it under Workload.Budget.engine_feasible, and draw
      the configuration: checked mode, morsel size, the drift checks and
      the standing-view delete weight (see draw_config);
   2. compute the oracles once, under the ambient configuration:
      Cq.Eval.Naive for the full-tree CQ, Semantics.eval_naive within the
      brute-force budget (Algebra_eval beyond it) and a brute
      strict-subsumption filter for p_m(D);
   3. under the drawn configuration, check against them:
      - Semantics.eval, eval_max and Cq.Eval.answers;
      - within the brute-force budget, Cq.Yannakakis and the
        tree-decomposition evaluator (Cq.Decomp_eval with a supplied
        decomposition) on the full-tree CQ, Cq.Decomp_eval on its
        projection onto the free variables (r_T), Algebra_eval, the three
        decision procedures of Theorems 6-9 on sampled probes, and
        Eval_projection_free on the projection-free variant of p;
      - the full-tree CQ prepared for a random subset of its free
        variables and bound under up to three answers restricted to it and
        one binding that is none: every bound plan's re-derived trail
        re-verifies (E007-E010) and it answers like Cq.Eval.Naive under
        the same init;
      - the full-tree plan: its optimization trail re-verifies (E007-E010),
        its batched layout audits clean (E017-E020), a count plus an
        enumeration stay within its certified envelope (E021), and its
        unoptimized original (Engine.Inspect.base) enumerates exactly the
        naive answers;
      - with the drift checks drawn: the genuine feedback view audits
        clean (E022, E023, E026) and a drift injected into a corrupted copy
        is caught as E022;
      - within the delta budget: a standing view over 6 random batches of
        insertions, deletions and re-adds, checked after each refresh
        against full evaluation on Database.copy of D at both semantics
        levels, plus dirty ranges (E027), view invariants (E028/E029) and
        event replay (E030).
   The last line is a JSON summary with the per-family instance counts. *)

open Relational
module D = Analysis.Diagnostic
module Pt = Wdpt.Pattern_tree

(* Run [f] under the given engine settings and restore the previous ones
   afterwards, whatever happens: an ambient WDPT_ENGINE_* setting keeps
   holding between instances. *)
let with_engine ?checked ?morsel f =
  let c0 = Engine.checked_enabled () and m0 = Engine.morsel_rows () in
  Option.iter Engine.set_checked checked;
  Option.iter Engine.set_morsel_rows morsel;
  Fun.protect
    ~finally:(fun () ->
      Engine.set_checked c0;
      Engine.set_morsel_rows m0)
    f

type config = {
  checked : bool;
  morsel : int;
  drift : bool;  (** the feedback audit and the E022 injection *)
  deletes : int;  (** standing-view delete weight, in quarters *)
}

let pick st l = List.nth l (Random.State.int st (List.length l))

(* Checked mode and the drift checks are on for one instance in four:
   either can double the cost of a large instance's answer checks, and one
   in four still runs each on about 1,500 instances of `wdpt_fuzz 6200 42`. *)
let draw_config st =
  let checked = pick st [ false; false; false; true ] in
  let morsel = pick st [ 1; 2; 7; 1024 ] in
  let drift = pick st [ false; false; false; true ] in
  let deletes = pick st [ 1; 2 ] in
  { checked; morsel; drift; deletes }

let pp_config c =
  Printf.sprintf "checked %b, morsel %d, drift %b, deletes %d/4" c.checked
    c.morsel c.drift c.deletes

let random_instance seed =
  let st = Random.State.make [| seed |] in
  let pick l = pick st l in
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

let codes ds = String.concat "+" (List.map (fun d -> D.code_id d.D.code) ds)

(* Within the brute-force budget: the decomposition evaluators of the
   full-tree CQ, the bottom-up algebraic evaluator and the decision
   procedures against the reference sets. (Beyond it, the full-tree CQ can
   have 2^14 answers of 14 bindings each, and the decomposition evaluators
   alone would add a fifth to the run's time.) *)
let check_brute fail db p q ~reference ~max_ref ~cq_ref =
  (match Cq.Yannakakis.answers db q with
  | Some a when not (Mapping.Set.equal a cq_ref) -> fail "yannakakis-vs-naive"
  | _ -> ());
  (* a supplied decomposition forces the tree-decomposition evaluator, which
     on an acyclic q would otherwise delegate to Yannakakis again *)
  let td =
    snd
      (Hypergraphs.Tree_decomposition.upper_bound
         (Hypergraphs.Hypergraph.of_edges
            (List.map Atom.var_set (Cq.Query.body q))))
  in
  if not (Mapping.Set.equal (Cq.Decomp_eval.answers ~td db q) cq_ref) then
    fail "decomp-vs-naive";
  (* r_T, the full-tree CQ projected onto the free variables: there the
     bag-tree join-project can start below the root *)
  let r = Pt.r_of_subtree p (Pt.all_nodes p) in
  let r_ref = Mapping.Set.map (Mapping.restrict (Cq.Query.head_set r)) cq_ref in
  if not (Mapping.Set.equal (Cq.Decomp_eval.answers db r) r_ref) then
    fail "decomp-vs-naive";
  if not (Mapping.Set.equal (Wdpt.Algebra_eval.eval db p) reference) then
    fail "algebraic-vs-reference";
  List.iter
    (fun h ->
      if Wdpt.Eval_tractable.decision db p h <> Mapping.Set.mem h reference then
        fail "eval-tractable";
      let brute_partial = Mapping.Set.exists (Mapping.subsumes h) reference in
      if Wdpt.Partial_eval.decision db p h <> brute_partial then fail "partial-eval";
      if Wdpt.Max_eval.decision db p h <> Mapping.Set.mem h max_ref then
        fail "max-eval")
    (probes reference);
  let pf = Pt.make ~free:(String_set.elements (Pt.vars p)) (Pt.to_spec p) in
  let pf_reference = Wdpt.Semantics.eval_naive db pf in
  List.iter
    (fun h ->
      if
        Wdpt.Eval_projection_free.decision db pf h
        <> Mapping.Set.mem h pf_reference
      then fail "projection-free-eval")
    (probes pf_reference)

(* The full-tree plan under the drawn configuration: certificate trail, batch
   layout, resource envelope and the unoptimized original's answers, and
   with the drift checks drawn the feedback view and a drift injection. *)
let check_plan fail st ~drift db q ~cq_ref =
  let module I = Engine.Inspect in
  let fail_ds name = function [] -> () | ds -> fail (name ^ "-" ^ codes ds) in
  let atoms = Cq.Query.body q in
  let plan = Engine.compile db atoms ~init:Mapping.empty in
  fail_ds "certificate-trail"
    (Analysis.Equiv.diagnostics (Analysis.Equiv.verify_trail plan));
  (* the CQ prepared once for a random subset of its free variables and
     bound under up to three answers restricted to it, plus one binding
     that is no such restriction: each bound plan's re-derived trail must
     verify, and its answers are Naive's under the same init. An empty
     subset binds nothing the compiled plan above did not already check. *)
  let head = Cq.Query.head_set q in
  let bound = List.filter (fun _ -> Random.State.bool st) (Cq.Query.head q) in
  let prepared = Engine.prepare db atoms ~bound in
  let values_of h = List.map (fun x -> Option.get (Mapping.find x h)) bound in
  let inside = List.map values_of (take 3 (Mapping.Set.elements cq_ref)) in
  let outside =
    let drawn = List.map (fun _ -> Value.int (Random.State.int st 8)) bound in
    if List.mem drawn (List.map values_of (Mapping.Set.elements cq_ref)) then []
    else [ drawn ]
  in
  List.iter
    (fun values ->
      let p = Engine.bind prepared values in
      fail_ds "bound-trail"
        (Analysis.Equiv.diagnostics (Analysis.Equiv.verify_trail p));
      let init = Mapping.of_list (List.combine bound values) in
      let got = ref Mapping.Set.empty in
      Engine.iter_envs p (fun env ->
          let h = Mapping.restrict head (Engine.mapping_of_env p env) in
          got := Mapping.Set.add h !got);
      let want =
        Mapping.Set.of_list
          (List.map (Mapping.restrict head)
             (Cq.Eval.Naive.homomorphisms db atoms ~init))
      in
      if not (Mapping.Set.equal !got want) then fail "bound-plan-vs-naive")
    (if bound = [] then [] else inside @ outside);
  fail_ds "audit" (Analysis.Batch_audit.audit plan);
  let resource = Analysis.Resource.of_plan plan in
  Engine.reset_batch_stats ();
  ignore (Engine.count_envs plan);
  Engine.iter_envs plan ignore;
  (match Analysis.Batch_audit.check_envelope resource (Engine.batch_stats ()) with
  | [] -> ()
  | ds ->
      fail
        ("envelope-"
        ^ String.concat "+"
            (List.map
               (fun d ->
                 match d.D.witness with
                 | Some (D.Envelope { component; certified; measured }) ->
                     Printf.sprintf "%s-%d>%d" component measured certified
                 | _ -> "E021")
               ds)));
  (* the unoptimized original *)
  let base = I.base plan in
  let head = Cq.Query.head_set q in
  let base_ans = ref Mapping.Set.empty in
  Engine.iter_envs base (fun env ->
      base_ans :=
        Mapping.Set.add
          (Mapping.restrict head (Engine.mapping_of_env base env))
          !base_ans);
  if not (Mapping.Set.equal !base_ans cq_ref) then fail "base-plan-vs-naive";
  if drift then begin
    (* a genuine feedback view audits clean... *)
    fail_ds "genuine-view" (Analysis.Feedback.audit plan);
    (* ...and a seeded drift injection into a corrupted copy is caught *)
    let v = I.feedback plan in
    if Array.length v.I.f_atoms > 0 then begin
      let fa = v.I.f_atoms.(0) in
      let est = fa.I.f_score in
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
      if
        not
          (List.exists
             (fun d -> d.D.code = D.Drift)
             (Analysis.Feedback.audit_view corrupt))
      then fail "drift-injection-not-caught"
    end
  end

(* A standing view of p over 6 random batches against D, mutated in place.
   Each operation deletes a live fact with probability [deletes]/4; from the
   second batch on, one insertion in four re-adds a fact an earlier batch
   removed, so the compiled store appends a fact it compacted away in an
   earlier sync. *)
let check_stream fail st ~deletes p db =
  let all_atoms = List.concat_map (Pt.atoms p) (List.init (Pt.node_count p) Fun.id) in
  let standing = Wdpt.Standing.register db p in
  let nodes = max 4 (Database.adom_size db) in
  let removed = ref [] and removed_now = ref [] in
  for batch = 1 to 6 do
    let fail_ds name = function
      | [] -> ()
      | ds -> fail (Printf.sprintf "%s-%s-batch-%d" name (codes ds) batch)
    in
    let before_eval = Wdpt.Standing.answers standing in
    let before_max = Wdpt.Standing.maximal_answers standing in
    let v0 = Wdpt.Standing.version standing in
    removed := !removed_now @ !removed;
    removed_now := [];
    for _op = 1 to 1 + Random.State.int st 4 do
      if Random.State.int st 4 < deletes then (
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
    fail_ds "ranges"
      (Analysis.Delta_audit.audit_ranges all_atoms b
         (Engine.Delta.dirty_ranges all_atoms b));
    let events = Wdpt.Standing.refresh standing in
    (* the oracle evaluates on a copy, whose compiled store is built from
       scratch: a defect of the in-place store cannot reach both sides *)
    let fresh = Database.copy db in
    let after_eval = Wdpt.Semantics.eval fresh p in
    let after_max = Wdpt.Semantics.eval_max fresh p in
    if not (Mapping.Set.equal (Wdpt.Standing.answers standing) after_eval) then
      fail (Printf.sprintf "eval-vs-full-batch-%d" batch);
    if not (Mapping.Set.equal (Wdpt.Standing.maximal_answers standing) after_max)
    then fail (Printf.sprintf "max-vs-full-batch-%d" batch);
    fail_ds "view" (Analysis.Delta_audit.audit standing);
    fail_ds "events"
      (Analysis.Delta_audit.check_events ~before_eval ~before_max ~after_eval
         ~after_max events)
  done

let check_instance st c ~brute ~delta p db =
  let failures = ref [] in
  let fail name = failures := name :: !failures in
  let q = Pt.q_full p in
  let cq_ref = Cq.Eval.Naive.answers db q in
  let reference =
    if brute then Wdpt.Semantics.eval_naive db p else Wdpt.Algebra_eval.eval db p
  in
  (* brute-force strict-subsumption filter, independent of eval_max's
     filter over interned answer rows (and of its skip on projection-free
     trees) *)
  let max_ref =
    Mapping.Set.filter
      (fun h -> not (Mapping.Set.exists (Mapping.strictly_subsumes h) reference))
      reference
  in
  with_engine ~checked:c.checked ~morsel:c.morsel (fun () ->
      if not (Mapping.Set.equal (Wdpt.Semantics.eval db p) reference) then
        fail "procedural-vs-reference";
      if not (Mapping.Set.equal (Wdpt.Semantics.eval_max db p) max_ref) then
        fail "eval-max-vs-reference";
      if not (Mapping.Set.equal (Cq.Eval.answers db q) cq_ref) then
        fail "cq-eval-vs-naive";
      if brute then check_brute fail db p q ~reference ~max_ref ~cq_ref;
      check_plan fail (Random.State.copy st) ~drift:c.drift db q ~cq_ref;
      if delta then check_stream fail st ~deletes:c.deletes p db);
  List.rev !failures

let usage why =
  Printf.eprintf
    "wdpt_fuzz: %s\n\
     usage: wdpt_fuzz [COUNT] [SEED]\n\
    \  checks COUNT >= 1 random instances (default 1000) from seed SEED\n\
    \  (default: the clock)\n"
    why;
  exit 2

let () =
  let int_arg s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> usage (Printf.sprintf "not an integer: %s" s)
  in
  let clock () = int_of_float (Unix.time ()) land 0xFFFFFF in
  let args = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun a -> if String.starts_with ~prefix:"--" a then usage ("unknown option " ^ a))
    args;
  let count, seed0 =
    match List.map int_arg args with
    | [] -> (1000, clock ())
    | [ n ] -> (n, clock ())
    | [ n; s ] -> (n, s)
    | _ -> usage "too many arguments"
  in
  if count < 1 then usage (Printf.sprintf "COUNT must be at least 1, not %d" count);
  let n = ref 0 and bad = ref 0 and skipped = ref 0 in
  let brute_n = ref 0 and drift_n = ref 0 in
  let delta_n = [| 0; 0; 0 |] in
  let seed = ref seed0 in
  while !n < count do
    let p, db = random_instance !seed in
    if not (Workload.Budget.engine_feasible p db) then incr skipped
    else begin
      incr n;
      let st = Random.State.make [| !seed; 0xf022 |] in
      let c = draw_config st in
      let brute = Workload.Budget.brute_force_feasible p db in
      let delta = Workload.Budget.delta_feasible p db in
      if brute then incr brute_n;
      if c.drift then incr drift_n;
      if delta then delta_n.(c.deletes) <- delta_n.(c.deletes) + 1;
      match check_instance st c ~brute ~delta p db with
      | [] -> ()
      | failures ->
          incr bad;
          Printf.printf "seed %d FAILED (%s): %s\n%!" !seed (pp_config c)
            (String.concat ", " failures)
    end;
    incr seed
  done;
  Printf.printf
    "wdpt_fuzz: %d instance(s) from seed %d (%d oversized skipped; brute %d, \
     opt %d, batch %d, drift %d, delta 1/4 %d, delta 1/2 %d): %d failure(s)\n"
    count seed0 !skipped !brute_n count count !drift_n delta_n.(1) delta_n.(2)
    !bad;
  (* machine-readable summary, same schema version as the analysis JSON *)
  Printf.printf
    "{\"schema\": %d, \"instances\": %d, \"seed\": %d, \"skipped\": %d, \
     \"families\": {\"brute\": %d, \"opt\": %d, \"batch\": %d, \"drift\": %d, \
     \"delta-1/4\": %d, \"delta-1/2\": %d}, \"failures\": %d}\n"
    Analysis.Json.schema_version count seed0 !skipped !brute_n count count
    !drift_n delta_n.(1) delta_n.(2) !bad;
  exit (if !bad = 0 then 0 else 1)
